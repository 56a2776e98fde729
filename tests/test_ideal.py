import random

from afsolve import ArgumentationFramework, TaskSpec, oracle_extensions, solve
from afsolve.ideal import credulous_profile, ideal_extension
from afsolve.kernel import complete_extensions, find_complete, grounded, preferred_extensions
from conftest import all_three_arg_frameworks, build, is_extension, random_af


def shrink_to_defended(af, x):
    """The fixed point of dropping the members *x* does not defend, and the
    number of rounds it took; each round must shrink the set."""
    rounds = 0
    while True:
        x_plus = af.attacked_set(x)
        nxt = 0
        for a in range(af.n):
            if (x >> a) & 1 and af.attackers[a] & ~x_plus == 0:
                nxt |= 1 << a
        if nxt == x:
            return x, rounds
        assert nxt & ~x == 0  # strictly shrinking
        x = nxt
        rounds += 1


def per_argument_ideal(af):
    """The replaced algorithm: one credulous test per argument, seeded by
    every extension found, then the fixed point from the credulously accepted
    arguments that no credulously accepted argument attacks."""
    cred = 0
    for a in range(af.n):
        if not (cred >> a) & 1:
            leaf = find_complete(af, force_in=1 << a)
            if leaf is not None:
                cred |= leaf[0]
    return shrink_to_defended(af, cred & ~af.attacked_set(cred))[0]


def test_credulous_profile_examples():
    mutual = build(["a", "b"], [("a", "b"), ("b", "a")])
    for p in (mutual.mask_of(["a"]), mutual.mask_of(["b"])):
        assert credulous_profile(mutual, p) == p
    ab = build(["a", "b"], [("a", "b")])
    assert credulous_profile(ab, ab.mask_of(["a"])) == 0
    empty = build([], [])
    assert credulous_profile(empty, 0) == 0
    # c is attacked only by the self-attacker s, which no complete extension holds
    guarded = build(["s", "c"], [("s", "s"), ("s", "c"), ("c", "s")])
    assert credulous_profile(guarded, guarded.mask_of(["c"])) == 0


def test_credulous_profile_is_union_of_complete():
    rng = random.Random(123)
    for _ in range(120):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.15, 0.4]))
        union = 0
        for e in complete_extensions(af):
            union |= e
        for p in preferred_extensions(af):
            assert credulous_profile(af, p) == p & af.attacked_set(union)


def test_ideal_examples():
    mutual = build(["a", "b"], [("a", "b"), ("b", "a")])
    assert ideal_extension(mutual) == 0
    ab = build(["a", "b"], [("a", "b")])
    assert ideal_extension(ab) == ab.mask_of(["a"])
    # mutual pair attacking c, c attacks d: intersection of preferred is {d},
    # but {d} cannot defend itself, so the ideal extension is empty
    diamond = build(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "a"), ("a", "c"), ("b", "c"), ("c", "d")],
    )
    assert ideal_extension(diamond) == oracle_extensions(diamond, "ID").pop() == 0


def test_ideal_matches_oracle_exhaustive():
    for af in all_three_arg_frameworks():
        assert {ideal_extension(af)} == oracle_extensions(af, "ID")


def test_ideal_matches_oracle_random():
    rng = random.Random(321)
    for _ in range(2000):
        af = random_af(rng, rng.randint(1, 9), rng.choice([0.1, 0.25, 0.5]))
        assert {ideal_extension(af)} == oracle_extensions(af, "ID"), af.attacks


def test_ideal_matches_per_argument_profile():
    rng = random.Random(4040)
    for _ in range(150):
        n = rng.randint(10, 40)
        af = random_af(rng, n, rng.choice([1.5, 3.0, 5.0]) / n)
        assert ideal_extension(af) == per_argument_ideal(af), af.attacks


def test_ideal_properties():
    rng = random.Random(555)
    for _ in range(120):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.15, 0.4]))
        ideal = ideal_extension(af)
        assert is_extension(af, ideal, "ADM")
        assert grounded(af) & ~ideal == 0
        for p in preferred_extensions(af):
            assert ideal & ~p == 0


def test_ideal_fixpoint_terminates_within_n_rounds():
    rng = random.Random(777)
    for _ in range(60):
        af = random_af(rng, rng.randint(1, 8), 0.3)
        for p in preferred_extensions(af):
            x, rounds = shrink_to_defended(af, p & ~credulous_profile(af, p))
            assert rounds <= af.n
            assert x == ideal_extension(af)


def test_ideal_tasks_on_a_long_chain():
    # a0 -> a1 -> ... -> a1999: grounded, and so ideal, holds the even indices
    n = 2000
    af = ArgumentationFramework([f"a{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    g = grounded(af)
    assert solve(af, TaskSpec.from_problem("SE-ID")).extension == g
    last, second_last = af.names[-1], af.names[-2]
    dc = solve(af, TaskSpec.from_problem("DC-ID", last)).verdict
    ds = solve(af, TaskSpec.from_problem("DS-ID", second_last)).verdict
    assert (dc, ds) == (bool((g >> (n - 1)) & 1), bool((g >> (n - 2)) & 1)) == (False, True)
