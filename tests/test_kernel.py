import os
import random
import subprocess
import sys

import afsolve
from afsolve import ArgumentationFramework, TaskSpec, oracle_extensions, solve
from afsolve.framework import bits, canonical_key
from afsolve.kernel import (
    _Search,
    _self_attackers,
    complete_extensions,
    count_complete,
    find_complete,
    find_stable,
    grounded,
    maximize_complete,
    preferred_extensions,
)
from afsolve.ranges import _maximal_conflict_free
from conftest import (
    all_three_arg_frameworks,
    build,
    characteristic,
    defends,
    grounded_by_attack_lists,
    is_conflict_free,
    is_extension,
    mask_of,
    naive_sets_unbounded,
    random_af,
)


def stable_extensions(af):
    return complete_extensions(af, notundec=af.all_mask)


# the listing checked against each oracle code; naive sets come from the
# reference search in conftest, which the stage tests build on
_ORACLE_CODE = {
    "CO": complete_extensions,
    "ST": stable_extensions,
    "NAIVE": naive_sets_unbounded,
    "PR": preferred_extensions,
}


def test_is_conflict_free():
    af = build(["a", "b"], [("a", "b")])
    assert not is_conflict_free(af, mask_of(af, ["a", "b"]))
    assert is_conflict_free(af, 0)
    loop = build(["a"], [("a", "a")])
    assert not is_conflict_free(loop, mask_of(loop, ["a"]))


def test_defends():
    chain = build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert defends(chain, mask_of(chain, ["a"]), chain.index_of("c"))
    assert defends(chain, 0, chain.index_of("a"))
    ab = build(["a", "b"], [("a", "b")])
    assert not defends(ab, 0, ab.index_of("b"))


def test_characteristic():
    ab = build(["a", "b"], [("a", "b")])
    assert ab.names_of(characteristic(ab, 0)) == ["a"]
    empty = build([], [])
    assert characteristic(empty, 0) == 0
    chain = build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert chain.names_of(characteristic(chain, mask_of(chain, ["a"]))) == ["a", "c"]


def test_grounded():
    assert build(["a", "b"], [("a", "b")]).names_of(grounded(build(["a", "b"], [("a", "b")]))) == ["a"]
    mutual = build(["a", "b"], [("a", "b"), ("b", "a")])
    assert grounded(mutual) == 0
    chain = build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert chain.names_of(grounded(chain)) == ["a", "c"]


def characteristic_fixpoint(af):
    """The replaced grounded computation: iterate the characteristic
    function from the empty set."""
    s = 0
    while True:
        nxt = characteristic(af, s)
        if nxt == s:
            return s
        s = nxt


def test_grounded_matches_fixpoint_and_oracle():
    rng = random.Random(1313)
    for _ in range(2000):
        af = random_af(rng, rng.randint(0, 9), rng.choice([0.1, 0.25, 0.5]))
        g = grounded(af)
        assert g == characteristic_fixpoint(af), af.attacks
        assert {g} == oracle_extensions(af, "GR"), af.attacks


def test_grounded_matches_the_attack_list_worklist():
    # random_af draws self-attacks too; each query's reduction is what the
    # acceptance shortcut computes the grounded extension of
    rng = random.Random(1314)
    for _ in range(150):
        af = random_af(rng, rng.randint(1, 40), rng.choice([0.03, 0.08, 0.2]))
        assert grounded(af) == grounded_by_attack_lists(af), af.attacks
        for q in range(af.n):
            sub = af.restrict(af.reverse_reachable(q))
            assert grounded(sub) == grounded_by_attack_lists(sub), (af.attacks, q)


def test_grounded_on_a_long_chain():
    # a0 -> a1 -> ... -> a19999 -> a20000, and a20000 attacks itself: the
    # grounded extension is the even indices below 20000
    n = 20000
    af = ArgumentationFramework(
        [f"a{i}" for i in range(n + 1)], [(i, i + 1) for i in range(n)] + [(n, n)]
    )
    assert grounded(af) == sum(1 << i for i in range(0, n, 2))


def test_is_extension_examples():
    ab = build(["a", "b"], [("a", "b")])
    assert is_extension(ab, mask_of(ab, ["a"]), "CO")
    cyc = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert is_extension(cyc, 0, "PR")
    assert not is_extension(cyc, 0, "ST")


def test_enumerate_examples():
    ab = build(["a", "b"], [("a", "b")])
    assert complete_extensions(ab) == [mask_of(ab, ["a"])]
    mutual = build(["a", "b"], [("a", "b"), ("b", "a")])
    assert set(preferred_extensions(mutual)) == {
        mask_of(mutual, ["a"]),
        mask_of(mutual, ["b"]),
    }
    empty = build([], [])
    assert stable_extensions(empty) == [0]


def test_matches_oracle_exhaustive_three_args():
    for af in all_three_arg_frameworks():
        for code, listing in _ORACLE_CODE.items():
            assert set(listing(af)) == oracle_extensions(af, code)


def test_matches_oracle_random():
    rng = random.Random(1311)
    for _ in range(250):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.1, 0.25, 0.5]))
        for code, listing in _ORACLE_CODE.items():
            assert set(listing(af)) == oracle_extensions(af, code), (
                af.attacks,
                code,
            )


def test_every_framework_has_a_complete_extension_and_grounded_is_one():
    rng = random.Random(5150)
    for _ in range(100):
        af = random_af(rng, rng.randint(0, 8), rng.choice([0.2, 0.5]))
        complete = complete_extensions(af)
        assert complete
        assert grounded(af) in complete


def test_inclusion_chains():
    rng = random.Random(616)
    for _ in range(100):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.15, 0.4]))
        st = set(stable_extensions(af))
        pr = set(preferred_extensions(af))
        co = set(complete_extensions(af))
        adm = oracle_extensions(af, "ADM")
        naive = set(naive_sets_unbounded(af))
        assert st <= pr <= co
        assert pr <= adm
        assert st <= naive


def test_is_extension_agrees_with_enumeration():
    rng = random.Random(2718)
    for _ in range(60):
        af = random_af(rng, rng.randint(1, 6), 0.3)
        for code, listing in _ORACLE_CODE.items():
            visited = set(listing(af))
            for s in range(1 << af.n):
                assert is_extension(af, s, code) == (s in visited)
        for code in ("CF", "ADM"):
            visited = oracle_extensions(af, code)
            for s in range(1 << af.n):
                assert is_extension(af, s, code) == (s in visited)


def test_enumeration_is_deterministic_and_canonical():
    rng = random.Random(31415)
    for _ in range(40):
        af = random_af(rng, rng.randint(1, 7), 0.3)
        first = solve(af, TaskSpec.from_problem("EE-CO")).extensions
        second = solve(af, TaskSpec.from_problem("EE-CO")).extensions
        assert first == second
        keys = [canonical_key(m, af.n) for m in first]
        assert keys == sorted(keys)


def test_visitor_stop():
    from afsolve.kernel import complete_labellings_into

    mutual = build(["a", "b"], [("a", "b"), ("b", "a")])
    seen = []

    def visit(*leaf):
        seen.append(leaf)
        return False

    # the search returns the leaf that stopped it, and None when none did
    assert complete_labellings_into(mutual, visit) == seen[0]
    assert len(seen) == 1
    every = []
    assert complete_labellings_into(mutual, lambda i, o, u: every.append(i)) is None
    assert len(every) == 3
    seen.clear()
    assert _Search(mutual).run(lambda *leaf: seen.append(leaf) or len(seen) < 2) == seen[1]
    assert len(seen) == 2


def test_count_matches_enumeration():
    rng = random.Random(9224)
    for _ in range(60):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.2, 0.5]))
        assert count_complete(af) == len(complete_extensions(af))
        assert count_complete(af, notundec=af.all_mask) == len(stable_extensions(af))


def test_find_complete_and_stable_respect_constraints():
    rng = random.Random(3333)
    for _ in range(80):
        af = random_af(rng, rng.randint(1, 7), 0.3)
        complete = set(complete_extensions(af))
        stable = set(stable_extensions(af))
        oracle_stable = oracle_extensions(af, "ST")
        for q in range(af.n):
            leaf = find_complete(af, force_in=1 << q)
            if any((e >> q) & 1 for e in complete):
                assert leaf is not None and (leaf[0] >> q) & 1 and leaf[0] in complete
            else:
                assert leaf is None
            st = find_stable(af, force_in=1 << q)
            if any((e >> q) & 1 for e in stable):
                assert st is not None and (st >> q) & 1 and st in stable
            else:
                assert st is None
            # force_out runs as force_notin: with no undec allowed, not in is out
            st = find_stable(af, force_out=1 << q)
            if any(not (e >> q) & 1 for e in oracle_stable):
                assert st is not None and not (st >> q) & 1 and st in oracle_stable
            else:
                assert st is None


def test_constrained_searches_match_the_filtered_labellings():
    """Each search under force_in, force_notin, notundec and in_clauses
    finds among exactly the complete labellings that meet them: the
    constrained listing is the unconstrained one filtered, the existence
    search's leaf lies in it, and the in-first search's leaf is maximal."""
    from afsolve.kernel import complete_labellings_into

    rng = random.Random(2828)

    def some(n, p):
        return sum(1 << i for i in range(n) if rng.random() < p)

    def labellings(af, **kw):
        found = set()
        complete_labellings_into(af, lambda *leaf: found.add(leaf), **kw)
        return found

    checked = 0
    for _ in range(60):
        n = rng.randint(1, 40)
        # self-attackers come from random_af; the added 2-cycles give many
        # complete labellings to choose among
        base = random_af(rng, n, rng.choice([1.0, 2.0]) / n)
        cycles = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.5 / n]
        af = ArgumentationFramework(base.names, sorted({*base.attacks, *cycles, *((b, a) for a, b in cycles)}))
        every = labellings(af)
        for _ in range(5):
            kw = dict(
                force_in=some(n, 0.03), force_notin=some(n, 0.05),
                notundec=some(n, rng.choice([0.1, 0.5])),
                in_clauses=tuple(some(n, 0.2) for _ in range(rng.randint(0, 3))),
            )
            meets = {
                (i, o, u) for i, o, u in every
                if kw["force_in"] & ~i == 0 and kw["force_notin"] & i == 0
                and kw["notundec"] & u == 0 and all(c & i for c in kw["in_clauses"])
            }
            assert labellings(af, **kw) == meets, (af.attacks, kw)
            for find_first in (True, False):
                leaf = find_complete(af, find_first=find_first, **kw)
                assert leaf in meets if meets else leaf is None, (af.attacks, kw, find_first)
            top = maximize_complete(af, **kw)
            ins = {i for i, o, u in meets}
            assert top in ins if meets else top is None, (af.attacks, kw)
            assert not any(i != top and i & top == top for i in ins), (af.attacks, kw)
            checked += len(meets) > 1
    assert checked >= 80, checked


def test_labelling_partition_and_closure():
    from afsolve.kernel import complete_labellings_into

    rng = random.Random(444)
    for _ in range(60):
        af = random_af(rng, rng.randint(1, 7), 0.35)
        recorded = []
        complete_labellings_into(af, lambda i, o, u: recorded.append((i, o, u)))
        for in_m, out_m, ud_m in recorded:
            assert in_m | out_m | ud_m == af.all_mask
            assert in_m & out_m == in_m & ud_m == out_m & ud_m == 0
            for a in range(af.n):
                bit = 1 << a
                attacked_by_in = bool(af.attackers[a] & in_m)
                all_attackers_out = af.attackers[a] & ~out_m == 0
                assert bool(out_m & bit) == attacked_by_in
                assert bool(in_m & bit) == all_attackers_out


def test_preferred_improvement_loop():
    rng = random.Random(818)
    for _ in range(80):
        af = random_af(rng, rng.randint(1, 7), 0.3)
        pr = set(preferred_extensions(af))
        assert maximize_complete(af) in pr
        for e in complete_extensions(af):
            grown = maximize_complete(af, force_in=e)
            assert grown in pr
            assert e & ~grown == 0
        assert set(preferred_extensions(af)) == pr


def check_maximize_complete(af):
    complete = oracle_extensions(af, "CO")
    pr = oracle_extensions(af, "PR")
    for e in complete:
        grown = maximize_complete(af, force_in=e)
        assert grown in pr and e & ~grown == 0, (af.attacks, e)
    for q in range(af.n):
        without = [c for c in complete if not (c >> q) & 1]
        for e in without:
            grown = maximize_complete(af, force_in=e, force_notin=1 << q)
            assert grown in without and e & ~grown == 0, (af.attacks, q, e)
            assert not any(c != grown and c & grown == grown for c in without), (af.attacks, q, e)


def test_maximize_complete_matches_oracle():
    # a is branched first (highest degree) and obliges b or c to be in.  With
    # b not in, b can only end undec (y is never in, as s attacks it), so a
    # search trying not-in first at that obligation would stop at {a, c}.
    names = ["a", "x", "b", "c", "y", "z", "s", "d1", "d2", "d3", "d4"]
    attacks = [("x", "a"), ("b", "x"), ("c", "x"), ("b", "y"), ("y", "b"), ("s", "s"),
               ("s", "y"), ("c", "z"), ("z", "c")] + [("a", d) for d in names[7:]]
    af = build(names, attacks)
    assert af.names_of(maximize_complete(af)) == ["a", "b", "c"]
    check_maximize_complete(af)
    rng = random.Random(4646)
    for _ in range(2000):
        check_maximize_complete(random_af(rng, rng.randint(1, 9), rng.choice([0.1, 0.25, 0.5])))


def improve_by_loop(af, e):
    """The replaced improvement loop: one strict-superset search per step."""
    while True:
        grow = ~e & af.all_mask
        leaf = find_complete(af, force_in=e, in_clauses=(grow,)) if grow else None
        if leaf is None:
            return e
        e = leaf[0]


def preferred_by_loop(af):
    """The replaced blocking enumeration over improve_by_loop."""
    found = []
    while True:
        leaf = find_complete(af, in_clauses=tuple(~e & af.all_mask for e in found))
        if leaf is None:
            return found
        found.append(improve_by_loop(af, leaf[0]))


def test_preferred_matches_improvement_loop():
    from afsolve.kernel import complete_labellings_into

    rng = random.Random(4747)
    for _ in range(150):
        n = rng.randint(10, 40)
        af = random_af(rng, n, rng.choice([1.5, 3.0, 5.0]) / n)
        old = preferred_by_loop(af)
        assert set(preferred_extensions(af)) == set(old), af.attacks
        assert is_extension(af, maximize_complete(af), "PR")
        starts = [grounded(af)]

        def keep(in_m, out_m, ud_m):
            starts.append(in_m)
            return len(starts) < 30

        complete_labellings_into(af, keep)
        for e in starts:
            grown = maximize_complete(af, force_in=e)
            assert e & ~grown == 0 and is_extension(af, grown, "PR"), (af.attacks, e)


def _two_cycles(k):
    """k disjoint 2-cycles a(2i) <-> a(2i+1): a search decides one cycle
    per level, so its depth grows with k."""
    return ArgumentationFramework([f"a{i}" for i in range(2 * k)], [(i, i ^ 1) for i in range(2 * k)])


def test_searches_restore_the_recursion_limit(fixed_recursion_limit):
    """Deep searches run within the default recursion limit and never set it."""
    before = sys.getrecursionlimit()
    chain = ArgumentationFramework([f"a{i}" for i in range(2000)], [(i, i + 1) for i in range(1999)])
    assert solve(chain, TaskSpec.from_problem("SE-PR")).extension == mask_of(chain, chain.names[::2])
    assert sys.getrecursionlimit() == before
    free = ArgumentationFramework([f"a{i}" for i in range(500)], [])
    assert _maximal_conflict_free(free) == [(free.all_mask, free.all_mask)]
    assert sys.getrecursionlimit() == before
    # root propagation settles a chain; 2000 independent cycles take 2000 decisions
    cycles = _two_cycles(2000)
    assert solve(cycles, TaskSpec.from_problem("SE-PR")).extension == mask_of(cycles, cycles.names[::2])
    assert solve(cycles, TaskSpec.from_problem("SE-ST")).extension == mask_of(cycles, cycles.names[1::2])
    assert sys.getrecursionlimit() == before


_THREADS = """
import sys, threading
from afsolve import ArgumentationFramework
from afsolve.kernel import _Search

def two_cycles(k):
    return ArgumentationFramework([f"a{i}" for i in range(2 * k)], [(i, i ^ 1) for i in range(2 * k)])

WAIT = 60
a_waits, a_go, a_done = threading.Event(), threading.Event(), threading.Event()
b_leaves = []

def run_a():
    def leaf(i, o, u):
        a_waits.set()
        a_go.wait(WAIT)
        return False
    _Search(two_cycles(150)).run(leaf)
    a_done.set()

def run_b():
    a_waits.wait(WAIT)
    def leaf(i, o, u):
        if not b_leaves:
            a_go.set()
            a_done.wait(WAIT)
        b_leaves.append(i)
        return len(b_leaves) <= 50
    _Search(two_cycles(1500)).run(leaf)

threads = [threading.Thread(target=run_a, daemon=True), threading.Thread(target=run_b, daemon=True)]
for t in threads:
    t.start()
for t in threads:
    t.join(WAIT)
ok = a_done.is_set() and len(set(b_leaves)) == 51 and not any(t.is_alive() for t in threads)
print(len(b_leaves), a_done.is_set())
sys.exit(0 if ok else 1)
"""


def test_concurrent_searches_do_not_interfere():
    """Thread A searches 150 disjoint 2-cycles and waits at its first leaf;
    thread B searches 1500 and, at its first leaf, 1500 decisions deep, lets
    A finish, then goes on for 50 leaves.  A search that changed
    interpreter-wide state on its way out, such as the recursion limit,
    would break B.  Run in a child process, since such a fault can abort
    the interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(afsolve.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr[-2000:])


_IN, _OUT, _UD, _NI = 0, 1, 2, 3


class _QueueSearch(_Search):
    """The replaced tuple-queue propagation as the reference.  Every
    propagation call runs it and the mask-level one, asserts that both reach
    the same fixpoint (or both a conflict), and goes on from the reference's;
    run() seeds the queue as the replaced search did.  The reference still
    has an undec label (UD) and its rules; nothing ever seeds one, so the
    mask-level state has no UD, and this asserts that UD stays empty.  It
    carries UNJ, the out-arguments no in-argument attacks, where the
    mask-level state carries ATK, the arguments IN attacks; at a fixpoint
    ATK lies inside OUT, so UNJ = OUT & ~ATK and ATK = OUT & ~UNJ.  The
    reference keeps the replaced search's defense and closure switches, set
    here as the complete search has them."""

    defense = closure = True

    def _queue_propagate(self, state, queue, g_init=0):
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

    def _checked(self, state, queue, g_init):
        IN, OUT, NI, ATK, icls = state
        want = self._queue_propagate((IN, OUT, 0, NI, OUT & ~ATK, icls), list(queue), g_init)
        if want is not None:
            IN, OUT, UD, NI, UNJ, icls = want
            assert UD == 0, (self.af.attacks, state, queue)
            want = (IN, OUT, NI, OUT & ~UNJ, icls)
        masks = [0, 0, 0, 0]
        for op, bit in queue:
            masks[op] |= bit
        got = _Search._propagate(
            self, state, f_in=masks[_IN], f_out=masks[_OUT], f_ni=masks[_NI], recheck_g=g_init
        )
        assert got == want, (self.af.attacks, state, queue)
        self.calls += 1
        return want

    def _propagate(self, state, f_in=0, f_out=0, f_ni=0, recheck_g=0):
        queue = [(op, 1 << i) for op, m in ((_IN, f_in), (_OUT, f_out), (_NI, f_ni)) for i in bits(m)]
        return self._checked(state, queue, recheck_g)

    def run(self, on_leaf):
        self.calls = 0
        queue = []
        for i in bits(self.force_in):
            queue.append((_IN, 1 << i))
        for i in bits(self.force_notin | _self_attackers(self.af)):
            queue.append((_NI, 1 << i))
        state = self._checked((0, 0, 0, 0, self.in_clauses), queue, self.all if self.closure else 0)
        if state is not None:
            self._search(state, on_leaf)


def _some(rng, n, p):
    return sum(1 << i for i in range(n) if rng.random() < p)


def _configs(rng, af):
    """The four search configurations (complete or stable, with constraints
    or without) that the differential tests run on *af*, drawn from *rng*."""
    n = af.n
    for stable in (False, True):
        for constrained in (False, True):
            kw = {"find_first": rng.random() < 0.5}
            if constrained:
                kw.update(
                    force_in=_some(rng, n, 0.03), force_notin=_some(rng, n, 0.05),
                    notundec=_some(rng, n, rng.choice([0.1, 0.5])),
                    in_clauses=tuple(_some(rng, n, 0.2) for _ in range(rng.randint(0, 3))),
                )
            if stable:
                kw["notundec"] = af.all_mask
            yield kw


def _leaves(cls, af, kw, cap=None):
    """The leaves of a *cls* search in order, the first *cap* of them if
    given, and the search."""
    found = []

    def keep(in_m, out_m, ud_m):
        found.append((in_m, out_m, ud_m))
        return cap is None or len(found) < cap

    search = cls(af, **kw)
    search.run(keep)
    return found, search


def test_mask_propagation_matches_the_tuple_queue():
    rng = random.Random(1717)
    calls = total = 0
    for _ in range(600):
        n = rng.randint(10, 40)
        af = random_af(rng, n, rng.choice([1.0, 2.0, 4.0]) / n)
        for kw in _configs(rng, af):
            want, ref = _leaves(_QueueSearch, af, kw, 40)
            got, _ = _leaves(_Search, af, kw, 40)
            assert got == want, (af.attacks, kw)
            calls += ref.calls
            total += len(want)
    assert calls > 10000 and total > 1000, (calls, total)


def test_mask_propagation_matches_the_tuple_queue_on_wide_masks():
    # rows of 200-300 bits: the highest-bit walks and the closure check's
    # hoisted ~OUT run on ints of many digits
    rng = random.Random(2323)
    calls = 0
    for _ in range(5):
        n = rng.randint(200, 300)
        af = random_af(rng, n, rng.choice([1.0, 2.0, 4.0]) / n)
        for kw in _configs(rng, af):
            want, ref = _leaves(_QueueSearch, af, kw, 40)
            got, _ = _leaves(_Search, af, kw, 40)
            assert got == want, (af.attacks, kw)
            calls += ref.calls
    assert calls > 200, calls


class _RankScanSearch(_Search):
    """The replaced branching rank as the reference: one rank key per
    argument (higher degree first, then lower index), and a scan of the
    whole pool for the smallest key at every decision."""

    def __init__(self, af, **kw):
        super().__init__(af, **kw)
        n = af.n
        self.pos = [
            (2 * n - af.attackers[i].bit_count() - af.targets[i].bit_count()) * n + i
            for i in range(n)
        ]

    def _pick(self, pool):
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


def test_degree_levels_pick_as_the_rank_scan():
    rng = random.Random(2929)
    total = 0
    for _ in range(200):
        n = rng.randint(10, 40)
        af = random_af(rng, n, rng.choice([1.0, 2.0, 4.0]) / n)
        new, ref = _Search(af), _RankScanSearch(af)
        for i in range(n):
            assert new._pick(1 << i) == ref._pick(1 << i) == i
        for _ in range(30):
            pool = _some(rng, n, rng.choice([0.1, 0.5, 1.0])) or 1 << rng.randrange(n)
            assert new._pick(pool) == ref._pick(pool), (af.attacks, pool)
        for kw in _configs(rng, af):
            want, _ = _leaves(_RankScanSearch, af, kw)
            got, _ = _leaves(_Search, af, kw)
            assert got == want, (af.attacks, kw)
            total += len(want)
    assert total > 300, total
    # a cycle: every argument has degree 2, so the lowest index wins
    n = 9
    cycle = ArgumentationFramework([f"a{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)])
    new = _Search(cycle)
    for _ in range(50):
        pool = _some(rng, n, 0.5) or 1 << rng.randrange(n)
        assert new._pick(pool) == (pool & -pool).bit_length() - 1


def test_obligation_ties_go_to_the_lowest_out_argument():
    # x and y are out and unjustified, with two free attackers each, so the
    # obligation branch ties; it takes x, the lower index, and a (degree 3
    # like b, with the lower index) goes in first.  Taking y would put c in
    # first.
    af = build(["x", "y", "a", "b", "c", "d"], [
        ("a", "x"), ("b", "x"), ("c", "y"), ("d", "y"),
        ("a", "c"), ("c", "a"), ("b", "d"), ("d", "b"),
    ])
    xy = mask_of(af, ["x", "y"])
    leaf = find_complete(af, force_notin=xy, notundec=xy)
    assert leaf is not None and leaf[0] == mask_of(af, ["a", "d"])
