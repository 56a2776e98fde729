"""Backtracking search over three-valued labellings, and the extensions it
lists: complete, stable and preferred.

The engine searches complete labellings.  It labels arguments in or out, or
marks them "not-in" when they are known to end up out or undec.  It branches
on one argument at a time (in vs not-in) and propagates the labelling
constraints to a fixpoint between branches:

  * an attacker labelled in forces its targets out;
  * an argument labelled in forces its attackers out (defense);
  * an argument labelled out must eventually have an attacker labelled in
    (unit-forced when a single candidate remains, conflict when none);
  * an argument whose attackers are all out is forced in;
  * a not-in argument that may not end undec is forced out.

Propagation acts on masks: each step applies a whole batch of pending labels,
so new in-arguments force the union of their rows out at once, and a conflict
is a non-empty intersection (``_Search._propagate``).

When no free argument remains, every surviving not-in argument can only be
undec, so leaves resolve deterministically; each complete labelling is
visited exactly once.  Stable semantics is the same search with undec
forbidden everywhere (``notundec``).

Branching is obligation-driven: while some out-labelled argument still lacks
an in-labelled attacker, the search branches on one of its candidate
defenders, in first, which keeps refutations local to the query instead of
wandering over the whole framework.  Every decision, obligation or free,
takes the argument of highest degree in its pool, the lowest index among
equals: a static rank, kept as one mask per degree, so a decision is the
lowest member of the first degree mask that meets the pool
(``_Search._pick``).  Existence searches (``find_first``) try not-in first on
a free argument and close a branch as soon as no obligation is pending,
since labelling everything still free as undec then completes the
labelling.  Every other search tries in first at every decision, so its first
leaf is subset-maximal (``maximize_complete``); preferred is built on that,
in one blocking loop (``_maximal_blocked``).

Optional constraints used by the strategy layers:

  * ``notundec``: arguments that must end in or out (ranges, stable);
  * ``in_clauses``: masks of which at least one argument must be in
    (strict-superset and blocking searches for preferred and for ranges).

The search is a loop over an explicit stack of pending nodes, not a
recursion, so its depth costs memory but no interpreter frames: a search
never sets the recursion limit or any other state of the interpreter.  All
search state lives in local ints and lists, so concurrent searches, in one
thread or several, over the same framework or not, never interfere.
"""

from .framework import ArgumentationFramework


class _Search:
    """One configured search for complete labellings; run() drives the
    callback over the leaves.  The callback receives (in_mask, out_mask,
    undec_mask) per leaf and may return False to stop; run() returns that
    leaf as the same triple, or None when the leaves run out.
    """

    def __init__(
        self,
        af: ArgumentationFramework,
        *,
        force_in: int = 0,
        force_notin: int = 0,
        notundec: int = 0,
        in_clauses: tuple[int, ...] = (),
        find_first: bool = False,
    ):
        self.af = af
        self.all = af.all_mask
        self.attackers = af.attackers
        self.targets = af.targets
        self.notundec = notundec & af.all_mask
        self.force_in = force_in
        self.force_notin = force_notin
        self.in_clauses = tuple(c & af.all_mask for c in in_clauses)
        self.find_first = find_first
        self.levels = None  # the branching rank, built by the first _pick

    def _propagate(self, state, f_in=0, f_out=0, f_ni=0, recheck_g=0):
        """The least fixpoint of the labelling rules above *state* with the
        pending labels f_in / f_out / f_ni added, or None on a conflict.

        A state is (IN, OUT, NI, ATK, icls): the in, out and not-in masks,
        the arguments IN attacks, and the in-clauses not yet satisfied.
        Labels are applied a mask at a time: a batch of new in-arguments
        forces the union of their rows out in one step, a conflict is a
        non-empty intersection, and the only per-argument loops are the
        unions of rows and the unit checks.  Each loop over a mask walks it
        highest bit first (``bit_length``), and the closure check takes ~OUT
        once, since OUT does not change inside it.  recheck_g seeds the
        closure check (every argument at the root).

        Proof sketch that batching changes no result: every rule is monotone
        in the partial labelling, whose sets IN, OUT and the not-in set
        NI | OUT only grow.  A unit rule that fires in a state S holds in
        every consistent fixpoint above S, since the other candidates are
        already labelled against it there too; a conflict in S is one in
        every state above S.  So every label derived lies in each consistent
        fixpoint above the start, and a derived conflict means there is none.
        The loop stops only at a fixpoint, so it returns the least one (or
        None), whatever the order and grouping in which labels were applied,
        and so whatever order the loops walk their masks in.
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
                    i = new.bit_length() - 1
                    new ^= 1 << i
                    hit |= targets[i]
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
                    i = new.bit_length() - 1
                    new ^= 1 << i
                    hit |= targets[i]
                recheck_out |= hit
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
                    i = new.bit_length() - 1
                    new ^= 1 << i
                    recheck_out |= targets[i]
            if f_out:
                continue
            if recheck_g:
                m = recheck_g & ~(IN | OUT)
                recheck_g = 0
                not_out = ~OUT
                while m:
                    i = m.bit_length() - 1
                    bit = 1 << i
                    m ^= bit
                    if not attackers[i] & not_out:
                        f_in |= bit
            free = ~(IN | OUT | NI) & allm
            if recheck_out:
                m = recheck_out & OUT & ~ATK
                recheck_out = 0
                while m:
                    i = m.bit_length() - 1
                    m ^= 1 << i
                    cand = attackers[i] & free
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
        """The argument of highest degree in the non-empty *pool*, the lowest
        index among equals: the lowest member of the first degree level that
        meets the pool.

        ``levels`` holds one mask per degree (attackers plus targets),
        highest degree first.  The first call builds it, so a search that
        ends at its root, in a conflict or a leaf, never pays for it.
        """
        levels = self.levels
        if levels is None:
            by_degree = [0] * (2 * self.af.n + 1)
            bit = 1
            for a, t in zip(self.attackers, self.targets):
                by_degree[a.bit_count() + t.bit_count()] |= bit
                bit <<= 1
            levels = self.levels = list(filter(None, reversed(by_degree)))
        for level in levels:
            m = level & pool
            if m:
                return (m & -m).bit_length() - 1

    def _search(self, state, on_leaf):
        """Depth first from the propagated *state* until the leaves run out
        (None) or on_leaf returns False (that leaf).  The stack holds the
        pending children as (parent state, f_in, f_ni), the one to try first
        on top; a child is propagated only when it is popped.  Every
        decision branches on the best-ranked argument (``_pick``) of a pool."""
        attackers = self.attackers
        allm = self.all
        notundec = self.notundec
        find_first = self.find_first
        propagate = self._propagate
        stack = []
        pop = stack.pop
        while True:
            IN, OUT, NI, ATK, icls = state
            free = ~(IN | OUT | NI) & allm
            UNJ = OUT & ~ATK
            if UNJ:
                # an obligation: the free attackers of the unjustified
                # out-argument that has the fewest of them (fail-first),
                # the lowest index among equals
                pool = free
                size = free.bit_count()
                m = UNJ
                while m:
                    low = m & -m
                    m ^= low
                    cand = attackers[low.bit_length() - 1] & free
                    c = cand.bit_count()
                    if c < size:
                        pool, size = cand, c
            elif find_first and not icls and free & notundec == 0:
                # no pending obligation: everything still free can end undec
                pool = 0
                NI |= free
            else:
                # a free decision: the arguments that may not end undec, else
                # the members of the in-clauses, else any
                pool = free & notundec
                if not pool and icls:
                    m = 0
                    for c in icls:
                        m |= c
                    pool = free & m
                if not pool:
                    pool = free
            if pool:
                # an obligation, and every decision of a search that is not
                # an existence search, tries in first
                bit = 1 << self._pick(pool)
                not_in, in_ = (state, 0, bit), (state, bit, 0)
                stack += (in_, not_in) if find_first and not UNJ else (not_in, in_)
            elif on_leaf(IN, OUT, NI) is False:
                # a leaf (its surviving not-in arguments are undec) stopped it
                return (IN, OUT, NI)
            state = None
            while state is None:
                if not stack:
                    return None
                parent, f_in, f_ni = pop()
                state = propagate(parent, f_in=f_in, f_ni=f_ni)

    def run(self, on_leaf):
        state = self._propagate(
            (0, 0, 0, 0, self.in_clauses),
            f_in=self.force_in,
            # self-attackers can never be labelled in
            f_ni=self.force_notin | _self_attackers(self.af),
            recheck_g=self.all,
        )
        return None if state is None else self._search(state, on_leaf)


def find_complete(af: ArgumentationFramework, *, find_first: bool = True, **kw):
    """Some complete labelling satisfying the constraints, or None: the
    first leaf of the configured search."""
    return _Search(af, find_first=find_first, **kw).run(lambda *leaf: False)


def find_stable(af: ArgumentationFramework, *, force_in: int = 0, force_out: int = 0):
    """Some stable extension (as a mask) satisfying the constraints, or None.
    No argument may end undec, so a not-in argument ends out."""
    leaf = find_complete(af, force_in=force_in, force_notin=force_out, notundec=af.all_mask)
    return leaf[0] if leaf is not None else None


def complete_labellings_into(af: ArgumentationFramework, on_leaf, **kw):
    return _Search(af, **kw).run(on_leaf)


def grounded(af: ArgumentationFramework) -> int:
    """Least fixed point of the characteristic function, in time linear in
    the size of the framework.

    A worklist keeps, for each argument, the number of its attackers not yet
    out.  An argument whose count reaches zero is defended by what is already
    in, so it goes in, and its targets go out.  Every argument goes in or out
    at most once, so every attack is followed at most twice.
    """
    targets = af.targets
    live = [row.bit_count() for row in af.attackers]
    todo = [a for a in range(af.n) if live[a] == 0]
    out = [False] * af.n
    members = 0
    while todo:
        a = todo.pop()
        members |= 1 << a
        row = targets[a]
        while row:  # highest index first: the order does not change the fixpoint
            b = row.bit_length() - 1
            row ^= 1 << b
            if not out[b]:
                out[b] = True
                hit = targets[b]
                while hit:
                    c = hit.bit_length() - 1
                    hit ^= 1 << c
                    live[c] -= 1
                    if live[c] == 0:
                        todo.append(c)
    return members


def _self_attackers(af: ArgumentationFramework) -> int:
    m = 0
    for i in range(af.n):
        if (af.targets[i] >> i) & 1:
            m |= 1 << i
    return m


def maximize_complete(af: ArgumentationFramework, **kw) -> int | None:
    """A complete extension that meets the constraints *kw* and is
    subset-maximal among those that do, or None if none does: the first leaf
    of a search that tries in first at every decision.

    Proof sketch (Di Rosa, Giunchiglia & Maratea, "Solving satisfiability
    problems with preferences", Constraints 15 (2010)): let M be that leaf and
    M' a complete strict superset that meets kw.  Propagation keeps every
    labelling that agrees with the decisions, and only M agrees with all of
    M's, so M' contradicts one.  M' agrees with every in decision on M's
    path, as M is a subset of M', so the first decision it contradicts put
    some b of M' to not-in.  The in branch for b holds M' and was searched
    first, so it would have given a leaf before M.
    """
    leaf = find_complete(af, find_first=False, **kw)
    return leaf[0] if leaf is not None else None


def _maximal_blocked(af: ArgumentationFramework, **kw):
    """Yield complete extensions that meet the constraints *kw*, each one
    maximal among those that meet kw and are no subset of an earlier one,
    and block each (``~e & af.all_mask`` joins the in-clauses).

    Proof sketch: a complete strict superset of a yielded E that meets kw is
    no subset of an earlier extension either, since E is none, so
    ``maximize_complete`` would have returned it in place of E.  Every round
    blocks a new set, so the loop ends.
    """
    blockers: list[int] = []
    while True:
        e = maximize_complete(af, in_clauses=tuple(blockers), **kw)
        if e is None:
            return
        yield e
        blockers.append(~e & af.all_mask)


def preferred_into(af: ArgumentationFramework, on_extension) -> None:
    """Visit every preferred extension once, in discovery order: each one
    that ``_maximal_blocked`` yields with no constraint."""
    for e in _maximal_blocked(af):
        on_extension(e)


def preferred_without(af: ArgumentationFramework, q: int) -> int | None:
    """Some preferred extension that leaves argument *q* out, or None.

    Each E that ``_maximal_blocked`` yields with q kept not in is maximal
    among the complete extensions without q.  If no complete extension holds
    E | {q}, E is preferred: a preferred P above E holds q by the maximality
    of E, so P holds E | {q}.  Proof sketch of the None answer: a preferred
    P without q is complete, and a subset of no yielded E (P would equal E,
    which is not preferred), so the generator would have yielded it.
    """
    qbit = 1 << q
    for e in _maximal_blocked(af, force_notin=qbit):
        if find_complete(af, force_in=e | qbit) is None:
            return e
    return None


def preferred_extensions(af: ArgumentationFramework) -> list[int]:
    """All preferred extensions, in discovery order."""
    out: list[int] = []
    preferred_into(af, out.append)
    return out


def complete_extensions(af: ArgumentationFramework, **kw) -> list[int]:
    """All complete extensions that meet the constraints *kw*, in discovery
    order: the stable ones with notundec=af.all_mask."""
    found: list[int] = []
    _Search(af, **kw).run(lambda i, o, u: found.append(i))
    return found


def count_complete(af: ArgumentationFramework, **kw) -> int:
    """Number of complete extensions that meet the constraints *kw*: the
    leaves of the search, counted without storing them."""
    count = 0

    def bump(i, o, u):
        nonlocal count
        count += 1

    _Search(af, **kw).run(bump)
    return count
