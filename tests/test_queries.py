"""Acceptance queries decided by shortcuts and counterexample-guided loops
(DS-PR, DC/DS-SST, DC/DS-ID), against the oracle and against the
whole-extension paths they replaced."""

import random

from afsolve import ArgumentationFramework, Semantics, Task, TaskSpec, oracle_extensions, solve
from afsolve.ideal import ideal_extension
from afsolve.kernel import find_complete, grounded, preferred_extensions
from afsolve.ranges import max_ranges
from conftest import build, random_af

SEMANTICS = (Semantics.PR, Semantics.SST, Semantics.ID)


def verdicts(af, q):
    """{(task, semantics): verdict} for DC and DS of PR, SST and ID."""
    name = af.names[q]
    return {
        (task, sem): solve(af, TaskSpec(task, sem, name)).verdict
        for task in (Task.DC, Task.DS)
        for sem in SEMANTICS
    }


def semi_stable_by_max_ranges(af, credulous, q, found):
    """The replaced semi-stable query: per maximal range, one search for an
    extension with exactly that range that witnesses (credulous) or refutes
    (skeptical) the query.  A complete range that holds a maximal range is
    that range, so notundec alone pins it."""
    qbit = 1 << q
    for rw in found:
        if not rw.range_mask & qbit:
            if credulous:
                continue
            return False
        constraint = {"force_in": qbit} if credulous else {"force_notin": qbit}
        if find_complete(af, notundec=rw.range_mask, **constraint) is not None:
            return credulous
    return not credulous


def test_queries_match_oracle():
    rng = random.Random(1111)
    for _ in range(2000):
        af = random_af(rng, rng.randint(1, 9), rng.choice([0.1, 0.25, 0.5]))
        exts = {sem: oracle_extensions(af, sem.value) for sem in SEMANTICS}
        for q in range(af.n):
            expected = {}
            for sem, found in exts.items():
                expected[(Task.DC, sem)] = any((e >> q) & 1 for e in found)
                expected[(Task.DS, sem)] = all((e >> q) & 1 for e in found)
            assert verdicts(af, q) == expected, (af.attacks, q)


def test_queries_match_replaced_paths():
    rng = random.Random(2222)
    for _ in range(150):
        n = rng.randint(10, 40)
        af = random_af(rng, n, rng.choice([1.5, 3.0, 5.0]) / n)
        preferred = preferred_extensions(af)
        ranges = max_ranges(af)
        ideal = ideal_extension(af)
        for q in range(n):
            expected = {
                (Task.DC, Semantics.PR): any((e >> q) & 1 for e in preferred),
                (Task.DS, Semantics.PR): all((e >> q) & 1 for e in preferred),
                (Task.DC, Semantics.SST): semi_stable_by_max_ranges(af, True, q, ranges),
                (Task.DS, Semantics.SST): semi_stable_by_max_ranges(af, False, q, ranges),
                (Task.DC, Semantics.ID): bool((ideal >> q) & 1),
                (Task.DS, Semantics.ID): bool((ideal >> q) & 1),
            }
            assert verdicts(af, q) == expected, (af.attacks, q)


def test_loops_decide_accepted_queries():
    # a and b attack each other and both attack c, which attacks d.  d is in
    # both preferred (and stable) extensions {a, d} and {b, d}, but not in
    # the grounded extension, and its attacker c is in no complete extension:
    # no shortcut settles d, so the loops and the ideal fall-back decide it
    af = build(["a", "b", "c", "d"], [("a", "b"), ("b", "a"), ("a", "c"), ("b", "c"), ("c", "d")])
    assert verdicts(af, af.index_of("d")) == {
        (Task.DC, Semantics.PR): True,
        (Task.DS, Semantics.PR): True,
        (Task.DC, Semantics.SST): True,
        (Task.DS, Semantics.SST): True,
        (Task.DC, Semantics.ID): False,
        (Task.DS, Semantics.ID): False,
    }


def test_queries_on_a_long_chain():
    # a0 -> a1 -> ... -> a1999: the grounded extension (the even indices) is
    # the only complete extension, so every verdict is grounded membership
    n = 2000
    af = ArgumentationFramework([f"a{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    g = grounded(af)
    for q in (0, 1, 1000, n - 2, n - 1):
        member = bool((g >> q) & 1)
        assert set(verdicts(af, q).values()) == {member}, q
