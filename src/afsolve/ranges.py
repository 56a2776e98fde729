"""Range maximization and all semi-stable / stage reasoning.

The range of a set S is S plus everything S attacks; in labelling terms it is
in | out, so range constraints are exactly undec constraints.  Maximal ranges
are discovered one at a time: find a complete labelling, grow its range until
none exceeds it, record it, then block every range it covers and repeat.
"The range escapes R" is an in-clause over complete labellings (see
``_escape``), so growing and blocking need no constraint of their own.
Stage works on naive sets, after a stable search: if a stable extension
exists, the stage extensions are the stable ones.  Otherwise EE-STG and
CE-STG list them with a naive-set search that skips subtrees of covered
range (``_stage_pairs``), while SE-STG, DC-STG and DS-STG list none: a
branch and bound for the largest naive range (``kernel._max_range``) gives
one stage extension (``some_stage``), and a loop of such searches decides a
query (``decide_stage``).

Each semantics has its own entry points, one per question the task layer
asks: semi-stable ``some_semi_stable``, ``semi_stable_all`` and
``decide_range``; stage ``some_stage``, ``stage_all`` and ``decide_stage``.
``max_ranges`` lists the maximal semi-stable ranges, one witness each.
"""

from dataclasses import dataclass

from .framework import ArgumentationFramework, canonical_key
# the searches are looked up on the module at call time, so a wrapper
# installed on kernel.find_complete (perfbench's tracer) sees them
from . import kernel
from .kernel import _compat, _max_range, _maximal_conflict_free


@dataclass(frozen=True)
class RangeWitness:
    """One subset-maximal range plus a single complete extension achieving it."""

    range_mask: int
    witness: int


def range_of(af: ArgumentationFramework, s: int) -> int:
    return s | af.attacked_set(s)


def _escape(af: ArgumentationFramework, rng: int) -> int:
    """The in-clause saying that the range of a complete labelling is not a
    subset of *rng*.  In a complete labelling an argument is out exactly when
    an argument that attacks it is in, so an argument outside *rng* is in the
    range exactly when it or one of its attackers is in."""
    outside = ~rng & af.all_mask
    return outside | af.attackers_of_set(outside)


def _wider(af: ArgumentationFramework, rng: int, **kw):
    """A complete labelling that meets the constraints *kw* and whose range
    strictly contains *rng*, or None."""
    escape = _escape(af, rng)
    if not escape:
        return None
    return kernel.find_complete(af, notundec=rng, in_clauses=(escape,), **kw)


def _grow_range(af: ArgumentationFramework, witness: int, rng: int, **kw):
    """Maximize the range of a complete labelling among the labellings that
    meet the constraints *kw*."""
    while True:
        leaf = _wider(af, rng, **kw)
        if leaf is None:
            return witness, rng
        witness = leaf[0]
        rng = leaf[0] | leaf[1]


def max_ranges(af: ArgumentationFramework) -> list[RangeWitness]:
    """One complete-extension witness per subset-maximal range of a complete
    labelling, in canonical range order: the semi-stable ranges.

    Witnesses of distinct entries achieve incomparable ranges; every
    achievable range is covered by some entry.  The ranges are discovered
    one at a time: find a complete labelling whose range escapes everything
    recorded, maximize it, block it, repeat.
    """
    found: list[RangeWitness] = []
    blockers: list[int] = []
    while True:
        leaf = kernel.find_complete(af, in_clauses=tuple(blockers))
        if leaf is None:
            break
        witness, rng = _grow_range(af, leaf[0], leaf[0] | leaf[1])
        found.append(RangeWitness(rng, witness))
        blockers.append(_escape(af, rng))
    found.sort(key=lambda rw: canonical_key(rw.range_mask, af.n))
    return found


def _stage_pairs(af: ArgumentationFramework) -> list[tuple[int, int]]:
    """Every stage extension with its range, as (set, range) pairs: in
    canonical order when a stable extension exists, else in the order of the
    naive-set search.

    A stable extension's range is every argument, so if one exists the stage
    extensions are exactly the stable ones (Verheij, NAIC 1996).  Otherwise
    they are exactly the naive sets whose range is maximal among naive
    ranges, which the range-bounded clique search returns.  Proof sketch: a
    stage extension S is naive, since if S | {a} were conflict free for some
    a outside S, then a would be neither in S nor attacked by S, so S | {a}
    would have a strictly larger range.  Every conflict-free set lies inside
    a naive set, whose range contains its own, so a range maximal among
    naive ranges is maximal among all conflict-free ranges.
    """
    stable = kernel.complete_extensions(af, notundec=af.all_mask)
    if stable:
        return [(s, af.all_mask) for s in stable]
    return _maximal_conflict_free(af)


def some_semi_stable(af: ArgumentationFramework) -> int:
    """A semi-stable extension: the witness of a complete labelling's range,
    grown until it is maximal."""
    leaf = kernel.find_complete(af)
    assert leaf is not None  # the grounded labelling always exists
    witness, _ = _grow_range(af, leaf[0], leaf[0] | leaf[1])
    return witness


def some_stage(af: ArgumentationFramework) -> int:
    """A stage extension: a stable extension if there is one, else a naive
    set with the most arguments in its range, which is ⊆-maximal
    (``_max_range``)."""
    stable = kernel.find_stable(af)
    if stable is not None:
        return stable
    universe, compat = _compat(af)
    return _max_range(af, compat, 0, universe, 0)


def semi_stable_all(af: ArgumentationFramework) -> list[int]:
    """All semi-stable extensions, in canonical order.

    If stable extensions exist they are exactly the semi-stable ones (the
    complete labellings with empty undec).  Otherwise every complete labelling
    is enumerated and the ones with subset-minimal undec sets are kept.
    """
    stable = kernel.complete_extensions(af, notundec=af.all_mask)
    if stable:
        return stable
    pairs: list[tuple[int, int]] = []
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
    """All stage extensions, by canonical range order and canonically within
    a range."""
    pairs = _stage_pairs(af)
    pairs.sort(key=lambda p: (canonical_key(p[1], af.n), canonical_key(p[0], af.n)))
    return [s for s, _ in pairs]


def decide_stage(af: ArgumentationFramework, credulous: bool, q: int) -> bool:
    """Credulous / skeptical stage acceptance of q, without listing every
    stage extension.

    If a stable extension exists, the stage extensions are the stable ones
    (see ``_stage_pairs``), and at most two stable searches decide q.
    Otherwise a loop over naive sets.  A candidate is a naive set on q's
    side (holding q for credulous, leaving it out for skeptical) with the
    largest range R that lies strictly inside no range in *known*.  A naive
    range T strictly above R also lies strictly inside no known range, so a
    set on q's side could not have it: it would beat R.  So the search for
    a range above R runs over the other side only, and returns the largest
    such range W, or None.  With None, R is maximal among naive ranges, so
    the candidate is a stage extension and decides the query: YES for
    credulous, NO for skeptical.  Otherwise W is maximal (a range strictly
    above W would be above R and larger), joins *known*, and the loop
    repeats.

    Proof sketch of the other answer: every range in *known* is the range
    of a naive set, and a stage range is maximal among those, so it is
    never strictly inside a known range.  A stage extension on q's side
    would therefore qualify, and the candidate search would not return
    None.  Every round adds a new range to *known*: R lies strictly inside
    no known range, so W ⊋ R is none of them.  There are finitely many
    ranges, so the loop ends.
    """
    qbit = 1 << q
    stable = kernel.find_stable(af)
    if stable is not None:
        if bool(stable & qbit) == credulous:
            return credulous
        if credulous:
            return kernel.find_stable(af, force_in=qbit) is not None
        return kernel.find_stable(af, force_out=qbit) is None
    universe, compat = _compat(af)
    if not universe & qbit:
        # a self-attacker is in no conflict-free set, and a stage extension exists
        return False
    holding = (qbit, compat[q], 0)
    leaving = (0, universe & ~qbit, qbit)
    start, other = (holding, leaving) if credulous else (leaving, holding)
    known: list[int] = []
    while True:
        s = _max_range(af, compat, *start, known=tuple(known))
        if s is None:
            return not credulous
        wider = _max_range(af, compat, *other, known=tuple(known), above=range_of(af, s))
        if wider is None:
            return credulous
        known.append(range_of(af, wider))


def decide_range(af: ArgumentationFramework, credulous: bool, q: int) -> bool:
    """Credulous (*credulous* true) or skeptical semi-stable acceptance of
    argument *q*.

    A counterexample-guided loop that keeps q in (credulous) or not in
    (skeptical), as ``decide_stage`` does over naive sets.  Each round finds
    a complete labelling that meets that constraint and whose range is not a
    subset of a blocked range, and grows its range R to be maximal among the
    labellings that meet it.  If no complete labelling has a range strictly
    above R, R is maximal among all complete ranges, so the labelling is
    semi-stable and decides the query: YES for credulous, NO for skeptical.
    Otherwise every range that is a subset of R is blocked and the loop
    repeats.  Proof sketch of the other answer: a semi-stable labelling that
    meets the constraint has a maximal range, which is no subset of a
    blocked R (it would equal R, which has a strict superset), so the search
    would have found it.  Every round blocks a new range, so the loop ends.
    """
    qbit = 1 << q
    keep = {"force_in": qbit} if credulous else {"force_notin": qbit}
    blockers: list[int] = []
    while True:
        leaf = kernel.find_complete(af, in_clauses=tuple(blockers), **keep)
        if leaf is None:
            return not credulous
        _, rng = _grow_range(af, leaf[0], leaf[0] | leaf[1], **keep)
        if _wider(af, rng) is None:
            return credulous
        blockers.append(_escape(af, rng))
