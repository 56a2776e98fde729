"""Native solver for abstract argumentation frameworks.

Parses the apx format, models the attack graph over bitmask argument sets,
and solves the some/enumerate/count extension tasks and credulous/skeptical
acceptance for complete, preferred, stable, semi-stable, stage and ideal
semantics with an in-process labelling search.
"""

from .framework import (
    ApxError,
    ApxSyntaxError,
    ArgumentationFramework,
    EmptyNameError,
    Restriction,
    UndeclaredArgumentError,
    bits,
    canonical_key,
    mask_of_indices,
    parse_apx,
)
from .kernel import (
    BaseSemantics,
    base_extensions,
    characteristic,
    count_base,
    defends,
    find_complete,
    find_stable,
    grounded,
    is_conflict_free,
    is_extension,
    maximize_complete,
    preferred_extensions,
    some_preferred,
)
from .ranges import (
    AcceptanceMode,
    RangeSemantics,
    RangeWitness,
    decide_range,
    max_ranges,
    range_of,
    semi_stable_all,
    some_range_extension,
    stage_all,
)
from .ideal import CredulousProfile, credulous_profile, ideal_extension
from .oracle import TooLargeError, oracle_extensions
from .tasks import (
    PROBLEMS,
    Semantics,
    SolveResult,
    Task,
    TaskSpec,
    UnknownArgumentError,
    UnsupportedTaskError,
    reduce_to_query,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ApxError",
    "ApxSyntaxError",
    "ArgumentationFramework",
    "EmptyNameError",
    "Restriction",
    "UndeclaredArgumentError",
    "bits",
    "canonical_key",
    "mask_of_indices",
    "parse_apx",
    "BaseSemantics",
    "base_extensions",
    "characteristic",
    "count_base",
    "defends",
    "find_complete",
    "find_stable",
    "grounded",
    "is_conflict_free",
    "is_extension",
    "maximize_complete",
    "preferred_extensions",
    "some_preferred",
    "AcceptanceMode",
    "RangeSemantics",
    "RangeWitness",
    "decide_range",
    "max_ranges",
    "range_of",
    "semi_stable_all",
    "some_range_extension",
    "stage_all",
    "CredulousProfile",
    "credulous_profile",
    "ideal_extension",
    "TooLargeError",
    "oracle_extensions",
    "PROBLEMS",
    "Semantics",
    "SolveResult",
    "Task",
    "TaskSpec",
    "UnknownArgumentError",
    "UnsupportedTaskError",
    "reduce_to_query",
    "solve",
]
