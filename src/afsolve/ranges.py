"""Range maximization and all semi-stable / stage reasoning.

The range of a set S is S plus everything S attacks; in labelling terms it is
in | out, so range constraints are exactly undec constraints.  Maximal ranges
are discovered one at a time: find a base set, grow its range until no base
set exceeds it, record it, then block every range it covers and repeat.
"""

from dataclasses import dataclass
from enum import Enum

from .framework import ArgumentationFramework, canonical_key
from . import kernel
from .kernel import _find, _maximal_conflict_free, base_extensions, BaseSemantics


class RangeSemantics(Enum):
    SEMI_STABLE = "semi-stable"
    STAGE = "stage"


class AcceptanceMode(Enum):
    CREDULOUS = "credulous"
    SKEPTICAL = "skeptical"


@dataclass(frozen=True)
class RangeWitness:
    """One subset-maximal range plus a single base set achieving it."""

    range_mask: int
    witness: int


def range_of(af: ArgumentationFramework, s: int) -> int:
    return s | af.attacked_set(s)


def _grow_range(af: ArgumentationFramework, witness: int, rng: int):
    """Maximize the range of a complete labelling: re-search under
    range >= current, range != current."""
    while True:
        grow = ~rng & af.all_mask
        if grow == 0:
            return witness, rng
        leaf = _find(af, BaseSemantics.COMPLETE, notundec=rng, range_clauses=(grow,))
        if leaf is None:
            return witness, rng
        witness = leaf[0]
        rng = leaf[0] | leaf[1]


def max_ranges(af: ArgumentationFramework, sem: RangeSemantics) -> list[RangeWitness]:
    """One witness per subset-maximal range achievable by a base set: a
    complete extension for semi-stable, a conflict-free set for stage.

    Witnesses of distinct entries achieve incomparable ranges; every
    achievable range is covered by some entry.

    The complete base discovers ranges one at a time: find a complete
    labelling whose range escapes everything recorded, maximize it, block it,
    repeat.  For the naive base that refutation search degenerates (conflict
    free sets propagate almost nothing), while naive sets enumerate fast and
    every range-maximal conflict-free set is naive, so the maximal ranges are
    filtered out of the naive enumeration instead.
    """
    if sem is RangeSemantics.STAGE:
        return _max_ranges_naive(af)
    found: list[RangeWitness] = []
    blockers: list[int] = []
    while True:
        leaf = _find(af, BaseSemantics.COMPLETE, range_clauses=tuple(blockers))
        if leaf is None:
            break
        witness, rng = _grow_range(af, leaf[0], leaf[0] | leaf[1])
        found.append(RangeWitness(rng, witness))
        blockers.append(~rng & af.all_mask)
    found.sort(key=lambda rw: canonical_key(rw.range_mask, af.n))
    return found


def _max_ranges_naive(af: ArgumentationFramework) -> list[RangeWitness]:
    witness_for: dict[int, int] = {}
    for s in _maximal_conflict_free(af):
        r = s | af.attacked_set(s)
        prev = witness_for.get(r)
        if prev is None or canonical_key(s, af.n) < canonical_key(prev, af.n):
            witness_for[r] = s
    maximal: list[int] = []
    for r in sorted(witness_for, key=lambda m: -m.bit_count()):
        if not any(r & k == r for k in maximal):
            maximal.append(r)
    maximal.sort(key=lambda m: canonical_key(m, af.n))
    return [RangeWitness(r, witness_for[r]) for r in maximal]


def some_range_extension(af: ArgumentationFramework, sem: RangeSemantics) -> int:
    """A semi-stable (resp. stage) extension: witness of one maximal range."""
    if sem is RangeSemantics.SEMI_STABLE:
        leaf = _find(af, BaseSemantics.COMPLETE)
        assert leaf is not None  # the grounded labelling always exists
        witness, _ = _grow_range(af, leaf[0], leaf[0] | leaf[1])
        return witness
    return _max_ranges_naive(af)[0].witness


def semi_stable_all(af: ArgumentationFramework) -> list[int]:
    """All semi-stable extensions, in canonical order.

    If stable extensions exist they are exactly the semi-stable ones (the
    complete labellings with empty undec).  Otherwise every complete labelling
    is enumerated and the ones with subset-minimal undec sets are kept.
    """
    stable = base_extensions(af, BaseSemantics.STABLE)
    if stable:
        return stable
    pairs: list[tuple[int, int]] = []
    # looked up on the module at call time, so a wrapper installed on
    # kernel.complete_labellings_into (perfbench's tracer) sees this call
    kernel.complete_labellings_into(af, lambda i, o, u: pairs.append((u, i)))
    undec_sets = {u for u, _ in pairs}
    result = [
        i
        for u, i in pairs
        if not any(other != u and other & u == other for other in undec_sets)
    ]
    result.sort(key=lambda m: canonical_key(m, af.n))
    return result


def stage_all(af: ArgumentationFramework) -> list[int]:
    """All stage extensions: per maximal naive range, the stable extensions of
    the framework restricted to that range, mapped back."""
    out: list[int] = []
    for rw in max_ranges(af, RangeSemantics.STAGE):
        sub = af.restrict(rw.range_mask)
        for e in base_extensions(sub.framework, BaseSemantics.STABLE):
            full = sub.to_parent_mask(e)
            assert range_of(af, full) == rw.range_mask
            out.append(full)
    return out


def decide_range(
    af: ArgumentationFramework,
    sem: RangeSemantics,
    mode: AcceptanceMode,
    q: int,
) -> bool:
    """Credulous / skeptical acceptance for semi-stable and stage semantics.

    Iterates the maximal ranges; within each range it looks for one extension
    with exactly that range that witnesses (credulous) or refutes (skeptical)
    the query, stopping at the first decisive hit.
    """
    credulous = mode is AcceptanceMode.CREDULOUS
    qbit = 1 << q
    if sem is RangeSemantics.SEMI_STABLE:
        for rw in max_ranges(af, sem):
            undec = ~rw.range_mask & af.all_mask
            if not rw.range_mask & qbit:
                if credulous:
                    continue
                return False  # the witness labelling leaves q undecided
            if credulous:
                if _find(af, BaseSemantics.COMPLETE, force_in=qbit, force_undec=undec,
                         notundec=rw.range_mask) is not None:
                    return True
            else:
                if _find(af, BaseSemantics.COMPLETE, force_notin=qbit, force_undec=undec,
                         notundec=rw.range_mask) is not None:
                    return False
        return not credulous
    for rw in max_ranges(af, sem):
        if not rw.range_mask & qbit:
            if credulous:
                continue
            return False
        sub = af.restrict(rw.range_mask)
        sq = sub.sub_index_of(q)
        sub_af = sub.framework
        if credulous:
            if _find(sub_af, BaseSemantics.STABLE, force_in=1 << sq) is not None:
                return True
        else:
            if _find(sub_af, BaseSemantics.STABLE, force_out=1 << sq) is not None:
                return False
    return not credulous
