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
    UndeclaredArgumentError,
    bits,
    canonical_key,
    mask_of_indices,
    parse_apx,
)
from .kernel import (
    BaseSemantics,
    base_extensions,
    count_base,
    find_complete,
    find_stable,
    grounded,
    maximize_complete,
    preferred_extensions,
    some_preferred,
)
from .ranges import (
    RangeSemantics,
    RangeWitness,
    decide_range,
    max_ranges,
    range_of,
    semi_stable_all,
    some_range_extension,
    stage_all,
)
from .ideal import credulous_profile, ideal_extension
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
    "UndeclaredArgumentError",
    "bits",
    "canonical_key",
    "mask_of_indices",
    "parse_apx",
    "BaseSemantics",
    "base_extensions",
    "count_base",
    "find_complete",
    "find_stable",
    "grounded",
    "maximize_complete",
    "preferred_extensions",
    "some_preferred",
    "RangeSemantics",
    "RangeWitness",
    "decide_range",
    "max_ranges",
    "range_of",
    "semi_stable_all",
    "some_range_extension",
    "stage_all",
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
