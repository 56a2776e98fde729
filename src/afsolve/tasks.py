"""Task dispatch: the five reasoning tasks crossed with the six semantics.

The solve() entry point routes every (task, semantics) pair to the matching
strategy: direct search for complete and stable, the improvement loop and
blocking enumeration for preferred, range iteration for semi-stable and
stage, and the two-phase fixed point for ideal.  Credulous and skeptical
queries on complete, preferred and ideal semantics first shrink the framework
to the arguments with a directed path to the query.
"""

from dataclasses import dataclass
from enum import Enum

from .framework import ArgumentationFramework
from . import kernel
from .kernel import BaseSemantics
from . import ranges
from .ranges import AcceptanceMode, RangeSemantics
from .ideal import ideal_extension


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
    (Task.DC, Semantics.CO),
    (Task.DC, Semantics.PR),
    (Task.DC, Semantics.ID),
    (Task.DS, Semantics.PR),
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
    sub = af.restrict(af.reverse_reachable(q))
    return sub.framework, sub.sub_index_of(q)


def _resolve_query(af: ArgumentationFramework, name: str) -> int:
    try:
        return af.index_of(name)
    except KeyError:
        raise UnknownArgumentError(f"unknown argument {name!r}") from None


def _some_extension(af: ArgumentationFramework, sem: Semantics) -> int | None:
    if sem is Semantics.CO:
        return kernel.find_complete(af)[0]
    if sem is Semantics.PR:
        return kernel.some_preferred(af)
    if sem is Semantics.ST:
        return kernel.find_stable(af)
    if sem is Semantics.SST:
        return ranges.some_range_extension(af, RangeSemantics.SEMI_STABLE)
    if sem is Semantics.STG:
        return ranges.some_range_extension(af, RangeSemantics.STAGE)
    return ideal_extension(af)


def _all_extensions(af: ArgumentationFramework, sem: Semantics) -> list[int]:
    if sem is Semantics.CO:
        return kernel.base_extensions(af, BaseSemantics.COMPLETE)
    if sem is Semantics.PR:
        return kernel.base_extensions(af, BaseSemantics.PREFERRED)
    if sem is Semantics.ST:
        return kernel.base_extensions(af, BaseSemantics.STABLE)
    if sem is Semantics.SST:
        return ranges.semi_stable_all(af)
    if sem is Semantics.STG:
        return ranges.stage_all(af)
    return [ideal_extension(af)]


def _count_extensions(af: ArgumentationFramework, sem: Semantics) -> int:
    if sem is Semantics.CO:
        return kernel.count_base(af, BaseSemantics.COMPLETE)
    if sem is Semantics.ST:
        return kernel.count_base(af, BaseSemantics.STABLE)
    if sem is Semantics.ID:
        return 1
    return len(_all_extensions(af, sem))


def _credulous(af: ArgumentationFramework, sem: Semantics, q: int, reduce: bool) -> bool:
    if sem in (Semantics.CO, Semantics.PR):
        # credulous acceptance coincides for complete and preferred
        target, tq = (reduce_to_query(af, q) if reduce else (af, q))
        return kernel.find_complete(target, force_in=1 << tq) is not None
    if sem is Semantics.ST:
        return kernel.find_stable(af, force_in=1 << q) is not None
    if sem is Semantics.SST:
        return ranges.decide_range(af, RangeSemantics.SEMI_STABLE, AcceptanceMode.CREDULOUS, q)
    if sem is Semantics.STG:
        return ranges.decide_range(af, RangeSemantics.STAGE, AcceptanceMode.CREDULOUS, q)
    target, tq = (reduce_to_query(af, q) if reduce else (af, q))
    return bool((ideal_extension(target) >> tq) & 1)


def _skeptical(af: ArgumentationFramework, sem: Semantics, q: int, reduce: bool) -> bool:
    if sem is Semantics.CO:
        # the grounded extension is the least complete extension
        return bool((kernel.grounded(af) >> q) & 1)
    if sem is Semantics.PR:
        target, tq = (reduce_to_query(af, q) if reduce else (af, q))
        verdict = [True]

        def check(e: int):
            if not (e >> tq) & 1:
                verdict[0] = False
                return False
            return None

        kernel.preferred_into(target, check)
        return verdict[0]
    if sem is Semantics.ST:
        # a stable extension omitting q must label it out; none means YES,
        # including the vacuous case of no stable extension at all
        return kernel.find_stable(af, force_out=1 << q) is None
    if sem is Semantics.SST:
        return ranges.decide_range(af, RangeSemantics.SEMI_STABLE, AcceptanceMode.SKEPTICAL, q)
    return ranges.decide_range(af, RangeSemantics.STAGE, AcceptanceMode.SKEPTICAL, q)


def solve(af: ArgumentationFramework, spec: TaskSpec, *, reduce_queries: bool = True) -> SolveResult:
    """Solve one task; *reduce_queries* disables the reachability
    preprocessing (used by its soundness tests)."""
    task, sem = spec.task, spec.semantics
    if task is Task.SE:
        return SolveResult(task, extension=_some_extension(af, sem))
    if task is Task.EE:
        return SolveResult(task, extensions=tuple(_all_extensions(af, sem)))
    if task is Task.CE:
        return SolveResult(task, count=_count_extensions(af, sem))
    q = _resolve_query(af, spec.query)
    reduce = reduce_queries and (task, sem) in _REDUCED
    if task is Task.DC or sem is Semantics.ID:
        # the ideal extension is unique, so DS-ID asks what DC-ID asks
        return SolveResult(task, verdict=_credulous(af, sem, q, reduce))
    return SolveResult(task, verdict=_skeptical(af, sem, q, reduce))
