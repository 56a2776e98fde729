"""Native solver for abstract argumentation frameworks.

Parses the apx format, models the attack graph over bitmask argument sets,
and solves the some/enumerate/count extension tasks and credulous/skeptical
acceptance for complete, preferred, stable, semi-stable, stage and ideal
semantics with an in-process labelling search.  The names below are the
documented surface; the strategy layers are reached through solve() and
live in their modules (kernel, ranges, ideal).
"""

from .framework import (
    ApxError,
    ApxSyntaxError,
    ArgumentationFramework,
    EmptyNameError,
    UndeclaredArgumentError,
    parse_apx,
)
from .oracle import TooLargeError, oracle_extensions
from .tasks import (
    PROBLEMS,
    Semantics,
    SolveResult,
    Task,
    TaskSpec,
    UnknownArgumentError,
    UnsupportedTaskError,
    solve,
    solve_by_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "ApxError",
    "ApxSyntaxError",
    "ArgumentationFramework",
    "EmptyNameError",
    "UndeclaredArgumentError",
    "parse_apx",
    "PROBLEMS",
    "Semantics",
    "SolveResult",
    "Task",
    "TaskSpec",
    "UnknownArgumentError",
    "UnsupportedTaskError",
    "solve",
    "solve_by_oracle",
    "TooLargeError",
    "oracle_extensions",
]
