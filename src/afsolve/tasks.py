"""Task dispatch: the five reasoning tasks crossed with the six semantics.

solve() is the one place that routes a problem: each (task, semantics) pair
calls a function that serves that one semantics.  Complete and stable go to
the kernel's search directly, preferred to its in-first search and blocking
enumeration, semi-stable to range growth, stage to naive-set searches (a
range-bounded listing for EE and CE, a largest-range search for SE and a
loop of them for DC and DS), and ideal to the two-phase fixed point.  A
stage problem goes to stable instead when a stable extension exists, and
EE/CE-SST list the stable extensions when there are any.

This module also owns the answer contract.  The searches list extensions in
the order they find them; solve() and solve_by_oracle() sort every EE answer
into canonical order in one place (``_canonical``).

Acceptance queries avoid whole-extension work.  Skeptical preferred queries
and ideal queries first shrink the framework to the arguments with a directed
path to the query.  Skeptical preferred, semi-stable and ideal queries then
try _shortcut: grounded membership and at most two complete searches.  What
they leave open goes to a counterexample-guided loop (preferred_without in
the kernel, decide_range for semi-stable) or, for ideal, to the ideal
extension.  Stage queries without a stable extension go straight to
decide_stage's loop over naive sets.

solve_by_oracle() answers the same tasks from the brute-force oracle's list
of every extension, for cross-checks on small frameworks.
"""

from dataclasses import dataclass
from enum import Enum

from .framework import ArgumentationFramework, canonical_key
from . import kernel
from . import ranges
from .ideal import ideal_extension
from .oracle import oracle_extensions


class Task(Enum):
    SE = "SE"
    EE = "EE"
    CE = "CE"
    DC = "DC"
    DS = "DS"


class Semantics(Enum):
    CO = "CO"
    PR = "PR"
    ST = "ST"
    SST = "SST"
    STG = "STG"
    ID = "ID"


PROBLEMS = tuple(f"{t.value}-{s.value}" for t in Task for s in Semantics)

_REDUCED = {
    (Task.DC, Semantics.ID),
    (Task.DS, Semantics.PR),
    (Task.DS, Semantics.ID),
}

# acceptance queries tried by _shortcut before their loop or extension
_SHORTCUT = {
    (Task.DS, Semantics.PR),
    (Task.DC, Semantics.SST),
    (Task.DS, Semantics.SST),
    (Task.DC, Semantics.ID),
    (Task.DS, Semantics.ID),
}


class UnknownArgumentError(ValueError):
    """The query names an argument the framework does not declare."""


class UnsupportedTaskError(ValueError):
    """The task string falls outside the supported matrix."""


@dataclass(frozen=True)
class TaskSpec:
    task: Task
    semantics: Semantics
    query: str | None = None

    def __post_init__(self):
        needs_query = self.task in (Task.DC, Task.DS)
        if needs_query and self.query is None:
            raise UnsupportedTaskError(f"{self.task.value} requires a query argument")
        if not needs_query and self.query is not None:
            raise UnsupportedTaskError(f"{self.task.value} does not take a query argument")

    @classmethod
    def from_problem(cls, problem: str, query: str | None = None) -> "TaskSpec":
        if problem not in PROBLEMS:
            raise UnsupportedTaskError(f"unsupported task {problem!r}")
        task_code, sem_code = problem.split("-", 1)
        return cls(Task(task_code), Semantics(sem_code), query)


@dataclass(frozen=True)
class SolveResult:
    """Tagged result: exactly one payload field is meaningful per task."""

    task: Task
    extension: int | None = None
    extensions: tuple[int, ...] | None = None
    count: int | None = None
    verdict: bool | None = None


def reduce_to_query(af: ArgumentationFramework, q: int):
    """Framework restricted to arguments with a directed path to q, plus q's
    new index."""
    kept = af.reverse_reachable(q)
    return af.restrict(kept), (kept & ((1 << q) - 1)).bit_count()


def _resolve_query(af: ArgumentationFramework, name: str) -> int:
    try:
        return af.index_of(name)
    except KeyError:
        raise UnknownArgumentError(f"unknown argument {name!r}") from None


def _some_extension(af: ArgumentationFramework, sem: Semantics) -> int | None:
    if sem is Semantics.CO:
        return kernel.find_complete(af)[0]
    if sem is Semantics.PR:
        return kernel.maximize_complete(af)
    if sem is Semantics.ST:
        return kernel.find_stable(af)
    if sem is Semantics.SST:
        return ranges.some_semi_stable(af)
    if sem is Semantics.STG:
        return ranges.some_stage(af)
    return ideal_extension(af)


def _all_extensions(af: ArgumentationFramework, sem: Semantics) -> list[int]:
    if sem is Semantics.CO:
        return kernel.complete_extensions(af)
    if sem is Semantics.PR:
        return kernel.preferred_extensions(af)
    if sem is Semantics.ST:
        return kernel.complete_extensions(af, notundec=af.all_mask)
    if sem is Semantics.SST:
        # semi-stable extensions are the stable ones when there are any
        # (Caminada, COMMA 2006): the complete labellings with empty undec
        return kernel.complete_extensions(af, notundec=af.all_mask) or ranges.semi_stable_all(af)
    if sem is Semantics.STG:
        return ranges.stage_all(af)
    return [ideal_extension(af)]


def _count_extensions(af: ArgumentationFramework, sem: Semantics) -> int:
    if sem is Semantics.CO:
        return kernel.count_complete(af)
    if sem is Semantics.ST:
        return kernel.count_complete(af, notundec=af.all_mask)
    if sem is Semantics.ID:
        return 1
    return len(_all_extensions(af, sem))


def _shortcut(af: ArgumentationFramework, q: int, attacker_refutes: bool) -> bool | None:
    """A verdict from the grounded extension and at most two searches, or
    None when they settle nothing.

    Preferred, semi-stable and ideal extensions exist and hold the grounded
    extension, so a grounded q is accepted.  Each of them lies inside a
    preferred extension, which is complete, so a q in no complete extension
    is rejected.  A complete extension holding an attacker of q grows to a
    preferred one without q, which rejects q for skeptical preferred and for
    ideal (the ideal extension is inside it); not for semi-stable, whose
    extensions need not hold that attacker.
    """
    if (kernel.grounded(af) >> q) & 1:
        return True
    if kernel.find_complete(af, force_in=1 << q) is None:
        return False
    if attacker_refutes and kernel.find_complete(af, in_clauses=(af.attackers[q],)) is not None:
        return False
    return None


def _credulous(af: ArgumentationFramework, sem: Semantics, q: int) -> bool:
    if sem in (Semantics.CO, Semantics.PR):
        # credulous acceptance coincides for complete and preferred; the
        # obligation-driven search already stays local to the query
        return kernel.find_complete(af, force_in=1 << q) is not None
    if sem is Semantics.ST:
        return kernel.find_stable(af, force_in=1 << q) is not None
    if sem is Semantics.SST:
        return ranges.decide_range(af, credulous=True, q=q)
    if sem is Semantics.STG:
        return ranges.decide_stage(af, credulous=True, q=q)
    return bool((ideal_extension(af) >> q) & 1)


def _skeptical(af: ArgumentationFramework, sem: Semantics, q: int) -> bool:
    if sem is Semantics.CO:
        # the grounded extension is the least complete extension
        return bool((kernel.grounded(af) >> q) & 1)
    if sem is Semantics.PR:
        return kernel.preferred_without(af, q) is None
    if sem is Semantics.ST:
        # a stable extension omitting q must label it out; none means YES,
        # including the vacuous case of no stable extension at all
        return kernel.find_stable(af, force_out=1 << q) is None
    if sem is Semantics.SST:
        return ranges.decide_range(af, credulous=False, q=q)
    return ranges.decide_stage(af, credulous=False, q=q)


def _canonical(af: ArgumentationFramework, exts) -> tuple[int, ...]:
    """*exts* in canonical order, the order of every EE answer."""
    return tuple(sorted(exts, key=lambda m: canonical_key(m, af.n)))


def solve(af: ArgumentationFramework, spec: TaskSpec, *, reduce_queries: bool = True) -> SolveResult:
    """Solve one task; *reduce_queries* disables the reachability
    preprocessing (used by its soundness tests)."""
    task, sem = spec.task, spec.semantics
    if sem is Semantics.STG and kernel.find_stable(af) is not None:
        # a stable extension's range is every argument, so if one exists the
        # stage extensions are exactly the stable ones (Verheij, NAIC 1996)
        sem = Semantics.ST
    if task is Task.SE:
        return SolveResult(task, extension=_some_extension(af, sem))
    if task is Task.EE:
        return SolveResult(task, extensions=_canonical(af, _all_extensions(af, sem)))
    if task is Task.CE:
        return SolveResult(task, count=_count_extensions(af, sem))
    q = _resolve_query(af, spec.query)
    if reduce_queries and (task, sem) in _REDUCED:
        af, q = reduce_to_query(af, q)
    verdict = None
    if (task, sem) in _SHORTCUT:
        verdict = _shortcut(af, q, attacker_refutes=sem is not Semantics.SST)
    if verdict is None:
        # the ideal extension is unique, so DS-ID asks what DC-ID asks
        decide = _credulous if task is Task.DC or sem is Semantics.ID else _skeptical
        verdict = decide(af, sem, q)
    return SolveResult(task, verdict=verdict)


def solve_by_oracle(af: ArgumentationFramework, spec: TaskSpec) -> SolveResult:
    """Solve one task from every extension the oracle lists: SE gives the
    canonically least one.  Raises TooLargeError above the oracle's size."""
    exts = _canonical(af, oracle_extensions(af, spec.semantics.value))
    task = spec.task
    if task is Task.SE:
        return SolveResult(task, extension=exts[0] if exts else None)
    if task is Task.EE:
        return SolveResult(task, extensions=tuple(exts))
    if task is Task.CE:
        return SolveResult(task, count=len(exts))
    q = _resolve_query(af, spec.query)
    held = [(e >> q) & 1 for e in exts]
    return SolveResult(task, verdict=any(held) if task is Task.DC else all(held))
