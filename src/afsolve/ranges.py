"""Range maximization, all semi-stable / stage reasoning, and the clique
searches over naive sets that stage runs.

The range of a set S is S plus everything S attacks; in labelling terms it is
in | out, so range constraints are exactly undec constraints.  Maximal ranges
come from one blocking loop (``_maximal_ranges``): find a complete labelling,
grow its range until none exceeds it, yield it, block every range it covers
and repeat.  "The range escapes R" is an in-clause over complete labellings
(``_escape``), so growing and blocking need no constraint of their own.
Stage works on naive sets.  EE-STG and CE-STG list the stage extensions with
a clique search that skips subtrees of covered range
(``_maximal_conflict_free``), while SE-STG, DC-STG and DS-STG list none: a
branch and bound for the largest naive range (``_max_range``) gives one
stage extension (``some_stage``), and a loop of such searches decides a
query (``decide_stage``).  Both clique searches run over explicit stacks of
nodes, so they never set the recursion limit or any other interpreter state.

Nothing here looks for stable extensions: the task layer sends a stage
problem to stable when a stable extension exists, and lists the semi-stable
extensions as the stable ones when there are any.  Every entry point is
still correct on a framework with a stable extension.  Listings come in
discovery order; the task layer sorts EE answers.

Each semantics has its own entry points, one per question the task layer
asks: semi-stable ``some_semi_stable``, ``semi_stable_all`` and
``decide_range``; stage ``some_stage``, ``stage_all`` and ``decide_stage``.
``max_ranges`` lists the maximal semi-stable ranges, one witness each.
"""

from .framework import ArgumentationFramework, canonical_key
# the searches are looked up on the module at call time, so a wrapper
# installed on kernel.find_complete (perfbench's tracer) sees them
from . import kernel


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


def _maximal_ranges(af: ArgumentationFramework, **kw):
    """Yield (witness, range) for the maximal ranges of the complete
    labellings that meet the constraints *kw*.  Each round finds such a
    labelling whose range escapes every range yielded so far, grows it to
    be maximal among them (``_grow_range``), yields it and blocks it.  So
    the ranges yielded are incomparable, and each range of a labelling that
    meets kw lies inside one.  Every round blocks a new range, so the loop
    ends.
    """
    blockers: list[int] = []
    while True:
        leaf = kernel.find_complete(af, in_clauses=tuple(blockers), **kw)
        if leaf is None:
            return
        witness, rng = _grow_range(af, leaf[0], leaf[0] | leaf[1], **kw)
        yield witness, rng
        blockers.append(_escape(af, rng))


def max_ranges(af: ArgumentationFramework) -> list[tuple[int, int]]:
    """(range, witness) for each subset-maximal range of a complete
    labelling, in canonical range order: the semi-stable ranges."""
    found = [(rng, witness) for witness, rng in _maximal_ranges(af)]
    found.sort(key=lambda pair: canonical_key(pair[0], af.n))
    return found


# -- clique searches over naive sets ------------------------------------------


def _compat(af: ArgumentationFramework) -> tuple[int, list[int]]:
    """The vertices and adjacency rows of the non-conflict graph, whose
    maximal cliques are the naive sets: every argument but the
    self-attackers, which can never be members, and for each argument the
    others it neither attacks nor is attacked by."""
    universe = af.all_mask & ~kernel._self_attackers(af)
    compat = [
        universe & ~(af.attackers[i] | af.targets[i]) & ~(1 << i)
        for i in range(af.n)
    ]
    return universe, compat


def _pivot(p: int, x: int, compat: list[int]) -> int:
    """The Bron–Kerbosch pivot: the member of p | x compatible with the most
    candidates in p, the lowest index on ties."""
    best_u, best_c = -1, -1
    m = p | x
    while m:
        low = m & -m
        m ^= low
        c = (p & compat[low.bit_length() - 1]).bit_count()
        if c > best_c:
            best_c = c
            best_u = low.bit_length() - 1
    return best_u


def _strictly_inside(bound: int, ranges) -> bool:
    """True iff *bound* is a strict subset of some range in *ranges*."""
    for k in ranges:
        if bound != k and bound | k == k:
            return True
    return False


def _maximal_conflict_free(af: ArgumentationFramework) -> list[tuple[int, int]]:
    """The (set, range) pairs of the naive sets whose range is maximal among
    naive ranges, by maximal-clique search on the non-conflict graph.

    The range bound: every naive set below a node (r, p) is r plus a subset
    of p, so its range lies inside range(r) | p | attacked_set(p).  A node
    whose bound is a strict subset of a range already found holds no set of
    maximal range and is skipped.  Only found ranges that contain range(r)
    can cover the bound, so a node hands its children just those.

    The search is depth first over a stack of nodes, the children of a node
    pushed last first.  A child's candidates p and excluded x are those the
    recursive Bron–Kerbosch call would give it: its earlier siblings m move
    from p to x.  A child takes the ranges found below those siblings when
    it is popped, after they are done.
    """
    universe, compat = _compat(af)
    targets = af.targets
    attacked = af.attacked_set
    out: list[tuple[int, int]] = []
    found: list[int] = []  # distinct leaf ranges, none inside an earlier one
    # (r, p, x, range(r), the found ranges over the parent's range, len(found) then)
    stack = [(0, universe, 0, 0, [], 0)]
    while stack:
        r, p, x, rng, over, seen = stack.pop()
        # ranges found below earlier siblings contain the parent's range as well
        over = [k for k in over + found[seen:] if k | rng == k]
        if over and _strictly_inside(rng | p | attacked(p), over):
            continue
        if p == 0 and x == 0:
            out.append((r, rng))
            if rng not in over:
                found.append(rng)
            continue
        seen = len(found)
        m = p & ~compat[_pivot(p, x, compat)]
        while m:
            v = m.bit_length() - 1
            low = 1 << v
            m ^= low
            cv = compat[v]
            stack.append((r | low, p & ~m & cv, (x | m) & cv, rng | low | targets[v], over, seen))
    covered = {k for i, k in enumerate(found) for j in found[i + 1:] if k | j == j}
    return [(r, rng) for r, rng in out if rng not in covered]


def _max_range(
    af: ArgumentationFramework,
    compat: list[int],
    r: int,
    p: int,
    x: int,
    known: tuple[int, ...] = (),
    above: int | None = None,
) -> int | None:
    """A naive set whose range has the most arguments, among the naive sets
    that the Bron–Kerbosch call at (r, p, x) lists, whose range lies
    strictly inside no range in *known* and, if *above* is given, strictly
    contains *above*; None if there is none.

    (r, p, x) must be a Bron–Kerbosch node of the non-conflict graph whose
    rows are *compat* (``_compat``): r a clique, and p | x the vertices
    compatible with every member of r.  The search from such a node reports
    exactly the maximal cliques C with r ⊆ C ⊆ r | p that avoid x: a clique
    is reported once p and x are empty, that is once no vertex can extend
    it, and a vertex in x never joins r.  The maximal cliques are the naive
    sets.  So the root (0, universe, 0) lists every naive set,
    ({q}, compat[q], 0) those that hold q, and (0, universe & ~{q}, {q})
    those that leave q out.

    Branch and bound, with the bound of ``_maximal_conflict_free``: every
    naive set below a node has its range inside range(r) | p | attacked(p).
    A node is skipped when that bound has no more arguments than the best
    range found so far, lies strictly inside a range in *known*, or does
    not strictly contain *above*; in each case nothing below it qualifies
    and beats the best.  The search runs over a stack in the order of
    ``_maximal_conflict_free``, and bounds a node when it is popped, against
    the best found by then.

    Proof sketch that, from the root, a largest qualifying range R is
    ⊆-maximal among all naive ranges: a naive range T strictly above R
    strictly contains *above* as well, and lies strictly inside no known
    range, since R would then too; so T would qualify and be larger.
    """
    targets = af.targets
    attacked = af.attacked_set
    best = -1
    best_set = None
    stack = [(r, p, x, r | attacked(r))]
    while stack:
        r, p, x, rng = stack.pop()
        bound = rng | p | attacked(p)
        if bound.bit_count() <= best:
            continue
        if above is not None and (bound == above or bound | above != bound):
            continue
        if _strictly_inside(bound, known):
            continue
        if p == 0:
            if x == 0:
                best, best_set = rng.bit_count(), r
            continue
        m = p & ~compat[_pivot(p, x, compat)]
        while m:
            v = m.bit_length() - 1
            low = 1 << v
            m ^= low
            cv = compat[v]
            stack.append((r | low, p & ~m & cv, (x | m) & cv, rng | low | targets[v]))
    return best_set


def some_semi_stable(af: ArgumentationFramework) -> int:
    """A semi-stable extension: the witness of a complete labelling's range,
    grown until it is maximal."""
    # the grounded labelling always exists, so there is a first round
    return next(_maximal_ranges(af))[0]


def some_stage(af: ArgumentationFramework) -> int:
    """A stage extension: a naive set with the most arguments in its range,
    which is ⊆-maximal (``_max_range``)."""
    universe, compat = _compat(af)
    return _max_range(af, compat, 0, universe, 0)


def semi_stable_all(af: ArgumentationFramework) -> list[int]:
    """All semi-stable extensions, in discovery order: every complete
    labelling is enumerated and the ones with subset-minimal undec sets are
    kept."""
    pairs: list[tuple[int, int]] = []
    kernel.complete_labellings_into(af, lambda i, o, u: pairs.append((u, i)))
    undec_sets = {u for u, _ in pairs}
    return [
        i
        for u, i in pairs
        if not any(other != u and other & u == other for other in undec_sets)
    ]


def stage_all(af: ArgumentationFramework) -> list[int]:
    """All stage extensions, in discovery order: the naive sets whose range
    is maximal among naive ranges, which the range-bounded clique search
    returns.

    Proof sketch: a stage extension S is naive, since if S | {a} were
    conflict free for some a outside S, then a would be neither in S nor
    attacked by S, so S | {a} would have a strictly larger range.  Every
    conflict-free set lies inside a naive set, whose range contains its own,
    so a range maximal among naive ranges is maximal among all conflict-free
    ranges.
    """
    return [s for s, _ in _maximal_conflict_free(af)]


def decide_stage(af: ArgumentationFramework, credulous: bool, q: int) -> bool:
    """Credulous / skeptical stage acceptance of q, without listing every
    stage extension.

    A loop over naive sets.  A candidate is a naive set on q's
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
    (skeptical), as ``decide_stage`` does over naive sets.  Each range R
    that ``_maximal_ranges`` yields under that constraint is maximal among
    the labellings that meet it.  If no complete labelling has a range
    strictly above R, R is maximal among all complete ranges, so its witness
    is semi-stable and decides the query.  Proof sketch of the other answer:
    a semi-stable labelling that meets the constraint has a maximal range,
    which is no subset of a yielded R (it would equal R, which has a strict
    superset), so the generator would have yielded it.
    """
    qbit = 1 << q
    keep = {"force_in": qbit} if credulous else {"force_notin": qbit}
    for _, rng in _maximal_ranges(af, **keep):
        if _wider(af, rng) is None:
            return credulous
    return not credulous
