"""Backtracking search over three-valued labellings, and the base semantics.

The engine assigns each argument one of the labels in / out / undec, with an
intermediate "not-in" mark for arguments known to end up out or undec.  It
branches on one argument at a time (in vs not-in) and propagates the labelling
constraints to a fixpoint between branches:

  * an attacker labelled in forces its targets out;
  * an argument labelled in forces its attackers out (defense);
  * an argument labelled out must eventually have an attacker labelled in
    (unit-forced when a single candidate remains, conflict when none);
  * in complete mode an argument whose attackers are all out is forced in,
    and an undec argument needs an undec attacker (same unit/conflict rules).

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

All search state lives in local ints, so concurrent searches over the same
framework never interfere.
"""

import sys
from enum import Enum

from .framework import ArgumentationFramework, bits, canonical_key, mask_of_indices


class BaseSemantics(Enum):
    CONFLICT_FREE = "conflict-free"
    ADMISSIBLE = "admissible"
    COMPLETE = "complete"
    STABLE = "stable"
    NAIVE = "naive"
    PREFERRED = "preferred"


class _Stop(Exception):
    pass


_IN, _OUT, _UD, _NI = 0, 1, 2, 3

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
        degree = [
            (af.attackers[i].bit_count() + af.targets[i].bit_count(), i)
            for i in range(af.n)
        ]
        self.order = [i for _, i in sorted(degree, key=lambda d: (-d[0], d[1]))]
        self.pos = [0] * af.n
        for k, i in enumerate(self.order):
            self.pos[i] = k

    def _propagate(self, state, queue, g_init=0):
        IN, OUT, UD, NI, UNJ, icls = state
        allm = self.all
        attackers = self.attackers
        targets = self.targets
        closure = self.closure
        defense = self.defense
        notundec = self.notundec
        recheck_g = g_init
        recheck_out = 0
        recheck_ud = 0
        clauses_dirty = bool(icls)
        while True:
            if queue:
                op, bit = queue.pop()
                if op == _IN:
                    if bit & (OUT | UD | NI):
                        return None
                    if bit & IN:
                        continue
                    IN |= bit
                    i = bit.bit_length() - 1
                    UNJ &= ~targets[i]
                    forced = targets[i]
                    if defense:
                        forced |= attackers[i]
                    m = forced
                    while m:
                        low = m & -m
                        m ^= low
                        queue.append((_OUT, low))
                    clauses_dirty = True
                elif op == _OUT:
                    if bit & (IN | UD):
                        return None
                    if bit & OUT:
                        continue
                    was_free = not (bit & NI)
                    OUT |= bit
                    NI &= ~bit
                    i = bit.bit_length() - 1
                    if not (attackers[i] & IN):
                        UNJ |= bit
                    recheck_out |= bit
                    t = targets[i]
                    if closure:
                        recheck_g |= t
                        recheck_ud |= t & UD
                    if was_free:
                        recheck_out |= t & OUT
                    clauses_dirty = True
                elif op == _UD:
                    if bit & (IN | OUT) or bit & notundec:
                        return None
                    if bit & UD:
                        continue
                    UD |= bit
                    NI &= ~bit
                    i = bit.bit_length() - 1
                    if closure:
                        m = attackers[i] | targets[i]
                        while m:
                            low = m & -m
                            m ^= low
                            queue.append((_NI, low))
                        recheck_ud |= bit
                    recheck_out |= targets[i] & OUT
                    clauses_dirty = True
                else:  # not-in
                    if bit & IN:
                        return None
                    if bit & (OUT | UD | NI):
                        continue
                    if bit & notundec:
                        queue.append((_OUT, bit))
                        continue
                    NI |= bit
                    i = bit.bit_length() - 1
                    recheck_out |= targets[i] & OUT
                    clauses_dirty = True
            elif recheck_g:
                m = recheck_g
                recheck_g = 0
                while m:
                    low = m & -m
                    m ^= low
                    if not (low & IN):
                        i = low.bit_length() - 1
                        if attackers[i] & ~OUT == 0:
                            queue.append((_IN, low))
            elif recheck_out:
                m = recheck_out & OUT
                recheck_out = 0
                free = ~(IN | OUT | UD | NI) & allm
                while m:
                    low = m & -m
                    m ^= low
                    att = attackers[low.bit_length() - 1]
                    if att & IN:
                        continue
                    cand = att & free
                    if cand == 0:
                        return None
                    if cand & (cand - 1) == 0:
                        queue.append((_IN, cand))
            elif recheck_ud:
                m = recheck_ud & UD
                recheck_ud = 0
                free = ~(IN | OUT | UD | NI) & allm
                while m:
                    low = m & -m
                    m ^= low
                    att = attackers[low.bit_length() - 1]
                    if att & UD:
                        continue
                    pots = att & (NI | free)
                    if pots == 0:
                        return None
                    if pots & (pots - 1) == 0:
                        queue.append((_UD, pots))
            elif clauses_dirty and icls:
                clauses_dirty = False
                free = ~(IN | OUT | UD | NI) & allm
                kept = []
                for c in icls:
                    if c & IN:
                        continue
                    cand = c & free
                    if cand == 0:
                        return None
                    if cand & (cand - 1) == 0:
                        queue.append((_IN, cand))
                    else:
                        kept.append(c)
                icls = tuple(kept)
            else:
                return (IN, OUT, UD, NI, UNJ, icls)

    def _pick(self, pool: int) -> int:
        pos = self.pos
        best = -1
        best_pos = self.n
        while pool:
            low = pool & -pool
            pool ^= low
            i = low.bit_length() - 1
            if pos[i] < best_pos:
                best_pos = pos[i]
                best = i
        return best

    def _search(self, state, on_leaf):
        IN, OUT, UD, NI, UNJ, icls = state
        free = ~(IN | OUT | UD | NI) & self.all
        if UNJ:
            # defend the unjustified out-argument with the fewest candidate
            # attackers (fail-first); among its candidates prefer the one that
            # opens the fewest new obligations, trying in before not-in
            attackers = self.attackers
            best_a = -1
            best_k = self.n + 1
            m = UNJ
            while m:
                low = m & -m
                m ^= low
                k = (attackers[low.bit_length() - 1] & free).bit_count()
                if k < best_k:
                    best_k = k
                    best_a = low.bit_length() - 1
            cand = attackers[best_a] & free
            best_v = -1
            best_c = self.n + 1
            m = cand
            while m:
                low = m & -m
                m ^= low
                i = low.bit_length() - 1
                c = (attackers[i] & ~OUT).bit_count()
                if c < best_c:
                    best_c = c
                    best_v = i
            bit = 1 << best_v
            child = self._propagate(state, [(_IN, bit)])
            if child is not None:
                self._search(child, on_leaf)
            child = self._propagate(state, [(_NI, bit)])
            if child is not None:
                self._search(child, on_leaf)
            return
        if self.find_first and not icls and free & self.notundec == 0:
            # no pending obligation: everything still free can end undec
            if on_leaf(IN, OUT, UD | NI | free) is False:
                raise _Stop
            return
        pool = free & self.notundec
        if not pool and icls:
            m = 0
            for c in icls:
                m |= c
            pool = free & m
        if not pool:
            pool = free
        if not pool:
            # leaf: surviving not-in arguments must be undec
            if on_leaf(IN, OUT, UD | NI) is False:
                raise _Stop
            return
        bit = 1 << self._pick(pool)
        for op in (_NI, _IN) if self.find_first else (_IN, _NI):
            child = self._propagate(state, [(op, bit)])
            if child is not None:
                self._search(child, on_leaf)

    def run(self, on_leaf) -> None:
        queue = []
        for i in bits(self.force_in):
            queue.append((_IN, 1 << i))
        for i in bits(self.force_out):
            queue.append((_OUT, 1 << i))
        # self-attackers can never be labelled in, in any mode
        for i in bits(self.force_notin | _self_attackers(self.af)):
            queue.append((_NI, 1 << i))
        state = (0, 0, 0, 0, 0, self.in_clauses)
        state = self._propagate(state, queue, g_init=self.all if self.closure else 0)
        if state is None:
            return
        limit, old_limit = 4 * self.n + 200, sys.getrecursionlimit()
        if old_limit < limit:
            sys.setrecursionlimit(limit)
        try:
            self._search(state, on_leaf)
        except _Stop:
            pass
        finally:
            sys.setrecursionlimit(old_limit)


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


def _maximal_conflict_free(af: ArgumentationFramework, *, range_maximal: bool = False) -> list:
    """All naive sets, by maximal-clique search on the non-conflict graph;
    with *range_maximal*, the (set, range) pairs of those whose range is
    maximal among naive ranges.

    Self-attackers can never be members, so they are dropped from the universe
    up front.  The range bound: every naive set below a node (r, p) is r plus
    a subset of p, so its range lies inside range(r) | p | attacked_set(p).
    A node whose bound is a strict subset of a range already found holds no
    set of maximal range and is skipped.  Only found ranges that contain
    range(r) can cover the bound, so a node hands its children just those.
    """
    universe = af.all_mask & ~_self_attackers(af)
    compat = [
        universe & ~(af.attackers[i] | af.targets[i]) & ~(1 << i)
        for i in range(af.n)
    ]
    out: list = []
    found: list[int] = []  # distinct leaf ranges, none inside an earlier one

    def expand(r: int, p: int, x: int, rng: int, over: list[int]) -> None:
        # over: the found ranges that contain rng
        if over:
            bound = rng | p | af.attacked_set(p)
            for k in over:
                if bound != k and bound | k == k:
                    return
        if p == 0 and x == 0:
            out.append((r, rng) if range_maximal else r)
            if range_maximal and rng not in over:
                found.append(rng)
            return
        # pivot on the vertex compatible with most candidates
        best_u, best_c = -1, -1
        m = p | x
        while m:
            low = m & -m
            m ^= low
            c = (p & compat[low.bit_length() - 1]).bit_count()
            if c > best_c:
                best_c = c
                best_u = low.bit_length() - 1
        seen = len(found)
        m = p & ~compat[best_u]
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            cv = compat[v]
            if range_maximal:
                # ranges found below earlier children contain rng as well
                sub = rng | low | af.targets[v]
                expand(r | low, p & cv, x & cv, sub, [k for k in over + found[seen:] if k | sub == k])
            else:
                expand(r | low, p & cv, x & cv, 0, over)
            p ^= low
            x |= low

    limit, old_limit = 2 * af.n + 200, sys.getrecursionlimit()
    if old_limit < limit:
        sys.setrecursionlimit(limit)
    try:
        expand(0, universe, 0, 0, [])
    finally:
        sys.setrecursionlimit(old_limit)
    if not range_maximal:
        return out
    covered = {k for i, k in enumerate(found) for j in found[i + 1:] if k | j == j}
    return [(r, rng) for r, rng in out if rng not in covered]


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
