"""Backtracking search over three-valued labellings, and the base semantics.

The engine labels arguments in or out, or marks them "not-in" when they are
known to end up out or undec.  It branches on one argument at a time (in vs
not-in) and propagates the labelling constraints to a fixpoint between
branches:

  * an attacker labelled in forces its targets out;
  * an argument labelled in forces its attackers out (defense);
  * an argument labelled out must eventually have an attacker labelled in
    (unit-forced when a single candidate remains, conflict when none);
  * in complete mode an argument whose attackers are all out is forced in;
  * a not-in argument that may not end undec is forced out.

Propagation acts on masks: each step applies a whole batch of pending labels,
so new in-arguments force the union of their rows out at once, and a conflict
is a non-empty intersection (``_Search._propagate``).

When no free argument remains, every surviving not-in argument can only be
undec, so leaves resolve deterministically; each complete labelling (or
canonical labelling of an admissible / conflict-free set) is visited exactly
once.  Stable semantics is the complete engine with undec forbidden globally.
The search is chosen by a ``BaseSemantics``: conflict-free, admissible,
complete or stable; naive and preferred are built on top of it.

Branching is obligation-driven: while some out-labelled argument still lacks
an in-labelled attacker, the search branches on one of its candidate
defenders, in first, which keeps refutations local to the query instead of
wandering over the whole framework.  Existence searches (``find_first``) try
not-in first on a free argument and close a branch as soon as no obligation
is pending, since labelling everything still free as undec then completes the
labelling.  Every other search tries in first at every decision, so its first
leaf is subset-maximal (``maximize_complete``); preferred is built on that.

Optional constraints used by the strategy layers:

  * ``notundec``: arguments that must end in or out (ranges, stable);
  * ``in_clauses``: masks of which at least one argument must be in
    (strict-superset and blocking searches for preferred and for ranges).

Naive sets come from a separate search: Bron–Kerbosch on the graph of
arguments that do not conflict (``_maximal_conflict_free``), whose maximal
cliques they are.  ``_max_range`` runs it as a branch and bound for the
naive set of largest range, which stage semantics maximizes.

Every search is a loop over an explicit stack of pending nodes, not a
recursion, so its depth costs memory but no interpreter frames: a search
never sets the recursion limit or any other state of the interpreter.  All
search state lives in local ints and lists, so concurrent searches, in one
thread or several, over the same framework or not, never interfere.
"""

from enum import Enum

from .framework import ArgumentationFramework, canonical_key, mask_of_indices


class BaseSemantics(Enum):
    CONFLICT_FREE = "conflict-free"
    ADMISSIBLE = "admissible"
    COMPLETE = "complete"
    STABLE = "stable"
    NAIVE = "naive"
    PREFERRED = "preferred"


# (defense, closure) of each base semantics the search enumerates directly;
# stable is complete with undec forbidden
_SEARCHED = {
    BaseSemantics.CONFLICT_FREE: (False, False),
    BaseSemantics.ADMISSIBLE: (True, False),
    BaseSemantics.COMPLETE: (True, True),
    BaseSemantics.STABLE: (True, True),
}


class _Search:
    """One configured search; run() drives the callback over the leaves.

    sem is one of the keys of _SEARCHED.  The callback receives
    (in_mask, out_mask, undec_mask) per leaf and may return False to stop.
    """

    def __init__(
        self,
        af: ArgumentationFramework,
        sem: BaseSemantics,
        *,
        force_in: int = 0,
        force_out: int = 0,
        force_notin: int = 0,
        notundec: int = 0,
        in_clauses: tuple[int, ...] = (),
        find_first: bool = False,
    ):
        self.af = af
        self.n = af.n
        self.all = af.all_mask
        self.attackers = af.attackers
        self.targets = af.targets
        self.defense, self.closure = _SEARCHED[sem]
        if sem is BaseSemantics.STABLE:
            notundec = af.all_mask
        self.notundec = notundec & af.all_mask
        self.force_in = force_in
        self.force_out = force_out
        self.force_notin = force_notin
        self.in_clauses = tuple(c & af.all_mask for c in in_clauses)
        self.find_first = find_first
        # branching rank: higher degree first, then lower index
        n = af.n
        self.pos = [
            (2 * n - af.attackers[i].bit_count() - af.targets[i].bit_count()) * n + i
            for i in range(n)
        ]

    def _propagate(self, state, f_in=0, f_out=0, f_ni=0, recheck_g=0):
        """The least fixpoint of the labelling rules above *state* with the
        pending labels f_in / f_out / f_ni added, or None on a conflict.

        A state is (IN, OUT, NI, ATK, icls): the in, out and not-in masks,
        the arguments IN attacks, and the in-clauses not yet satisfied.
        Labels are applied a mask at a time: a batch of new in-arguments
        forces the union of their rows out in one step, a conflict is a
        non-empty intersection, and the only per-argument loops are the
        unions of rows and the unit checks.  recheck_g seeds the closure
        check (every argument at the root).

        Proof sketch that batching changes no result: every rule is monotone
        in the partial labelling, whose sets IN, OUT and the not-in set
        NI | OUT only grow.  A unit rule that fires in a state S holds in
        every consistent fixpoint above S, since the other candidates are
        already labelled against it there too; a conflict in S is one in
        every state above S.  So every label derived lies in each consistent
        fixpoint above the start, and a derived conflict means there is none.
        The loop stops only at a fixpoint, so it returns the least one (or
        None), whatever the order and grouping in which labels were applied.
        ATK and the kept clauses (those not satisfied, with at least two free
        members) are functions of that fixpoint.  The recheck sets only say
        where a unit rule may newly fire, and testing a superset is sound,
        since a test only applies a rule: recheck_out takes the targets of
        every new out-argument, free before or not, and recheck_out & OUT &
        ~ATK with a larger OUT at most tests more outs.  The closure check
        skips IN | OUT: an out-argument whose attackers are all out has no
        free attacker left, so the out check (which saw it come out, or saw
        its last attacker come out) returns the same conflict.
        """
        IN, OUT, NI, ATK, icls = state
        allm = self.all
        attackers = self.attackers
        targets = self.targets
        closure = self.closure
        defense = self.defense
        notundec = self.notundec
        recheck_out = 0
        while True:
            if f_in:
                if f_in & (OUT | NI):
                    return None
                new = f_in & ~IN
                f_in = 0
                IN |= new
                hit = 0
                while new:
                    low = new & -new
                    new ^= low
                    i = low.bit_length() - 1
                    hit |= targets[i]
                    if defense:
                        f_out |= attackers[i]
                ATK |= hit
                f_out |= hit
            if f_out:
                if f_out & IN:
                    return None
                new = f_out & ~OUT
                f_out = 0
                OUT |= new
                NI &= ~new
                recheck_out |= new
                hit = 0
                while new:
                    low = new & -new
                    new ^= low
                    hit |= targets[low.bit_length() - 1]
                recheck_out |= hit
                if closure:
                    recheck_g |= hit
            if f_ni:
                if f_ni & IN:
                    return None
                new = f_ni & ~(OUT | NI)
                f_ni = 0
                f_out |= new & notundec
                new &= ~notundec
                NI |= new
                while new:
                    low = new & -new
                    new ^= low
                    recheck_out |= targets[low.bit_length() - 1]
            if f_out:
                continue
            if recheck_g:
                m = recheck_g & ~(IN | OUT)
                recheck_g = 0
                while m:
                    low = m & -m
                    m ^= low
                    if not attackers[low.bit_length() - 1] & ~OUT:
                        f_in |= low
            free = ~(IN | OUT | NI) & allm
            if recheck_out:
                m = recheck_out & OUT & ~ATK
                recheck_out = 0
                while m:
                    low = m & -m
                    m ^= low
                    cand = attackers[low.bit_length() - 1] & free
                    if not cand:
                        return None
                    if not cand & (cand - 1):
                        f_in |= cand
            if f_in:
                continue
            if icls:
                kept = []
                for c in icls:
                    if c & IN:
                        continue
                    cand = c & free
                    if not cand:
                        return None
                    if not cand & (cand - 1):
                        f_in |= cand
                    else:
                        kept.append(c)
                icls = tuple(kept)
                if f_in:
                    continue
            return (IN, OUT, NI, ATK, icls)

    def _pick(self, pool: int) -> int:
        pos = self.pos
        best = pool.bit_length() - 1
        best_pos = pos[best]
        while pool:
            low = pool & -pool
            pool ^= low
            i = low.bit_length() - 1
            if pos[i] < best_pos:
                best_pos = pos[i]
                best = i
        return best

    def _search(self, state, on_leaf) -> None:
        """Depth first from the propagated *state* until the leaves run out
        or on_leaf returns False.  The stack holds the pending children as
        (parent state, f_in, f_ni), the one to try first on top; a child is
        propagated only when it is popped."""
        attackers = self.attackers
        allm = self.all
        n = self.n
        notundec = self.notundec
        find_first = self.find_first
        propagate = self._propagate
        stack = []
        push = stack.append
        pop = stack.pop
        while True:
            IN, OUT, NI, ATK, icls = state
            free = ~(IN | OUT | NI) & allm
            UNJ = OUT & ~ATK
            if UNJ:
                # defend the unjustified out-argument with the fewest candidate
                # attackers (fail-first); among its candidates prefer the one that
                # opens the fewest new obligations, trying in before not-in
                best_a = -1
                best_k = n + 1
                m = UNJ
                while m:
                    low = m & -m
                    m ^= low
                    k = (attackers[low.bit_length() - 1] & free).bit_count()
                    if k < best_k:
                        best_k = k
                        best_a = low.bit_length() - 1
                best_v = -1
                best_c = n + 1
                m = attackers[best_a] & free
                while m:
                    low = m & -m
                    m ^= low
                    i = low.bit_length() - 1
                    c = (attackers[i] & ~OUT).bit_count()
                    if c < best_c:
                        best_c = c
                        best_v = i
                bit = 1 << best_v
                push((state, 0, bit))
                push((state, bit, 0))
            elif find_first and not icls and free & notundec == 0:
                # no pending obligation: everything still free can end undec
                if on_leaf(IN, OUT, NI | free) is False:
                    return
            else:
                pool = free & notundec
                if not pool and icls:
                    m = 0
                    for c in icls:
                        m |= c
                    pool = free & m
                if not pool:
                    pool = free
                if not pool:
                    # leaf: surviving not-in arguments must be undec
                    if on_leaf(IN, OUT, NI) is False:
                        return
                else:
                    bit = 1 << self._pick(pool)
                    if find_first:
                        push((state, bit, 0))
                        push((state, 0, bit))
                    else:
                        push((state, 0, bit))
                        push((state, bit, 0))
            state = None
            while state is None:
                if not stack:
                    return
                parent, f_in, f_ni = pop()
                state = propagate(parent, f_in=f_in, f_ni=f_ni)

    def run(self, on_leaf) -> None:
        state = self._propagate(
            (0, 0, 0, 0, self.in_clauses),
            f_in=self.force_in,
            f_out=self.force_out,
            # self-attackers can never be labelled in, in any mode
            f_ni=self.force_notin | _self_attackers(self.af),
            recheck_g=self.all if self.closure else 0,
        )
        if state is not None:
            self._search(state, on_leaf)


def _find(af: ArgumentationFramework, sem: BaseSemantics, *, find_first: bool = True, **kw):
    """First leaf of the configured search, or None."""
    box = []

    def grab(in_m, out_m, ud_m):
        box.append((in_m, out_m, ud_m))
        return False

    _Search(af, sem, find_first=find_first, **kw).run(grab)
    return box[0] if box else None


def find_complete(af: ArgumentationFramework, **kw):
    """Some complete labelling satisfying the constraints, or None."""
    return _find(af, BaseSemantics.COMPLETE, **kw)


def find_stable(af: ArgumentationFramework, *, force_in: int = 0, force_out: int = 0):
    """Some stable extension (as a mask) satisfying the constraints, or None."""
    leaf = _find(af, BaseSemantics.STABLE, force_in=force_in, force_out=force_out)
    return leaf[0] if leaf is not None else None


def complete_labellings_into(af: ArgumentationFramework, on_leaf, **kw) -> None:
    _Search(af, BaseSemantics.COMPLETE, **kw).run(on_leaf)


# -- definitional checkers ---------------------------------------------------


def is_conflict_free(af: ArgumentationFramework, s: int) -> bool:
    return af.attacked_set(s) & s == 0


def defends(af: ArgumentationFramework, s: int, a: int) -> bool:
    """True iff every attacker of *a* is attacked by *s*."""
    return af.attackers[a] & ~af.attacked_set(s) == 0


def characteristic(af: ArgumentationFramework, s: int) -> int:
    """The set of arguments defended by *s*."""
    s_plus = af.attacked_set(s)
    out = 0
    for a in range(af.n):
        if af.attackers[a] & ~s_plus == 0:
            out |= 1 << a
    return out


def grounded(af: ArgumentationFramework) -> int:
    """Least fixed point of the characteristic function, in time linear in
    the size of the framework.

    A worklist keeps, for each argument, the number of its attackers not yet
    out.  An argument whose count reaches zero is defended by what is already
    in, so it goes in, and its targets go out.  Every argument goes in or out
    at most once, so every attack is followed at most twice.
    """
    targets: list[list[int]] = [[] for _ in range(af.n)]
    live = [0] * af.n
    for a, b in af.attacks:
        targets[a].append(b)
        live[b] += 1
    todo = [a for a in range(af.n) if live[a] == 0]
    out = [False] * af.n
    members = []
    while todo:
        a = todo.pop()
        members.append(a)
        for b in targets[a]:
            if not out[b]:
                out[b] = True
                for c in targets[b]:
                    live[c] -= 1
                    if live[c] == 0:
                        todo.append(c)
    return mask_of_indices(members)


def is_extension(af: ArgumentationFramework, s: int, sem: BaseSemantics) -> bool:
    if sem is BaseSemantics.CONFLICT_FREE:
        return is_conflict_free(af, s)
    if sem is BaseSemantics.ADMISSIBLE:
        return is_conflict_free(af, s) and s & ~characteristic(af, s) == 0
    if sem is BaseSemantics.COMPLETE:
        return is_conflict_free(af, s) and characteristic(af, s) == s
    if sem is BaseSemantics.STABLE:
        return is_conflict_free(af, s) and (s | af.attacked_set(s)) == af.all_mask
    if sem is BaseSemantics.NAIVE:
        if not is_conflict_free(af, s):
            return False
        blocked = s | af.attacked_set(s) | af.attackers_of_set(s) | _self_attackers(af)
        return blocked == af.all_mask
    if sem is BaseSemantics.PREFERRED:
        if not (is_conflict_free(af, s) and characteristic(af, s) == s):
            return False
        return _find(af, BaseSemantics.COMPLETE, force_in=s, in_clauses=(~s & af.all_mask,)) is None
    raise ValueError(f"unknown semantics {sem!r}")


def _self_attackers(af: ArgumentationFramework) -> int:
    m = 0
    for i in range(af.n):
        if (af.targets[i] >> i) & 1:
            m |= 1 << i
    return m


# -- enumeration -------------------------------------------------------------


def _compat(af: ArgumentationFramework) -> tuple[int, list[int]]:
    """The vertices and adjacency rows of the non-conflict graph, whose
    maximal cliques are the naive sets: every argument but the
    self-attackers, which can never be members, and for each argument the
    others it neither attacks nor is attacked by."""
    universe = af.all_mask & ~_self_attackers(af)
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


def _maximal_conflict_free(af: ArgumentationFramework, *, range_maximal: bool = False) -> list:
    """All naive sets, by maximal-clique search on the non-conflict graph;
    with *range_maximal*, the (set, range) pairs of those whose range is
    maximal among naive ranges.

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
    out: list = []
    found: list[int] = []  # distinct leaf ranges, none inside an earlier one
    # (r, p, x, range(r), the found ranges over the parent's range, len(found) then)
    stack = [(0, universe, 0, 0, [], 0)]
    while stack:
        r, p, x, rng, over, seen = stack.pop()
        if range_maximal:
            # ranges found below earlier siblings contain the parent's range as well
            over = [k for k in over + found[seen:] if k | rng == k]
            if over and _strictly_inside(rng | p | attacked(p), over):
                continue
        if p == 0 and x == 0:
            out.append((r, rng) if range_maximal else r)
            if range_maximal and rng not in over:
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
    if not range_maximal:
        return out
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


def maximize_complete(af: ArgumentationFramework, e: int = 0, **kw) -> int | None:
    """A complete extension that holds *e*, meets the constraints *kw* and is
    subset-maximal among those that do, or None if none does: the first leaf
    of a search that tries in first at every decision.

    Proof sketch (Di Rosa, Giunchiglia & Maratea, "Solving satisfiability
    problems with preferences", Constraints 15 (2010)): let M be that leaf and
    M' a complete strict superset that holds e and meets kw.  Propagation
    keeps every labelling that agrees with the decisions, and only M agrees
    with all of M's, so M' contradicts one.  M' agrees with every in decision
    on M's path, as M is a subset of M', so the first decision it contradicts
    put some b of M' to not-in.  The in branch for b holds M' and was searched
    first, so it would have given a leaf before M.
    """
    leaf = _find(af, BaseSemantics.COMPLETE, find_first=False, force_in=e, **kw)
    return leaf[0] if leaf is not None else None


def some_preferred(af: ArgumentationFramework) -> int:
    return maximize_complete(af)


def preferred_into(af: ArgumentationFramework, on_extension) -> None:
    """Visit every preferred extension once, in discovery order.

    Each round takes an extension maximal among the complete extensions that
    are no subset of one found so far.  A complete strict superset would be
    no such subset either, so it is a new preferred extension.
    """
    blockers: list[int] = []
    while True:
        e = maximize_complete(af, in_clauses=tuple(blockers))
        if e is None:
            return
        on_extension(e)
        blockers.append(~e & af.all_mask)


def preferred_without(af: ArgumentationFramework, q: int) -> int | None:
    """Some preferred extension that leaves argument *q* out, or None.

    Each round takes a complete extension E that is maximal among those that
    leave q out and are no subset of a blocked set.  A complete strict
    superset that leaves q out would be no such subset either, so E is
    maximal among all that leave q out.  If no complete extension holds E | {q}, E is preferred: a
    preferred P above E holds q by the maximality of E, and then P holds
    E | {q}.  Otherwise E is not preferred and is blocked.  Proof sketch of
    the None answer: a preferred P without q is complete and leaves q out,
    so it is a subset of no blocked E (P would equal E, which is not
    preferred), and the search would have found it.  Every round blocks a
    new set, so the loop ends.
    """
    qbit = 1 << q
    blockers: list[int] = []
    while True:
        e = maximize_complete(af, force_notin=qbit, in_clauses=tuple(blockers))
        if e is None:
            return None
        if _find(af, BaseSemantics.COMPLETE, force_in=e | qbit) is None:
            return e
        blockers.append(~e & af.all_mask)


def preferred_extensions(af: ArgumentationFramework) -> list[int]:
    out: list[int] = []
    preferred_into(af, out.append)
    return out


def base_extensions(af: ArgumentationFramework, sem: BaseSemantics) -> list[int]:
    """All extensions of *sem*, in canonical order."""
    found: list[int] = []
    if sem in _SEARCHED:
        _Search(af, sem).run(lambda i, o, u: found.append(i))
    elif sem is BaseSemantics.NAIVE:
        found = _maximal_conflict_free(af)
    elif sem is BaseSemantics.PREFERRED:
        found = preferred_extensions(af)
    else:
        raise ValueError(f"unknown semantics {sem!r}")
    found.sort(key=lambda m: canonical_key(m, af.n))
    return found


def count_base(af: ArgumentationFramework, sem: BaseSemantics) -> int:
    """Number of extensions of *sem*; counts leaves without storing them for
    the directly-enumerable semantics."""
    if sem not in _SEARCHED:
        return len(base_extensions(af, sem))
    count = 0

    def bump(i, o, u):
        nonlocal count
        count += 1

    _Search(af, sem).run(bump)
    return count
