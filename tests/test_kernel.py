import random

from afsolve import (
    BaseSemantics,
    base_extensions,
    canonical_key,
    characteristic,
    count_base,
    defends,
    find_complete,
    find_stable,
    grounded,
    is_conflict_free,
    is_extension,
    maximize_complete,
    oracle_extensions,
    preferred_extensions,
    some_preferred,
)
from conftest import all_three_arg_frameworks, build, random_af

_ORACLE_CODE = {
    BaseSemantics.CONFLICT_FREE: "CF",
    BaseSemantics.ADMISSIBLE: "ADM",
    BaseSemantics.COMPLETE: "CO",
    BaseSemantics.STABLE: "ST",
    BaseSemantics.NAIVE: "NAIVE",
    BaseSemantics.PREFERRED: "PR",
}


def test_is_conflict_free():
    af = build(["a", "b"], [("a", "b")])
    assert not is_conflict_free(af, af.mask_of(["a", "b"]))
    assert is_conflict_free(af, 0)
    loop = build(["a"], [("a", "a")])
    assert not is_conflict_free(loop, loop.mask_of(["a"]))


def test_defends():
    chain = build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert defends(chain, chain.mask_of(["a"]), chain.index_of("c"))
    assert defends(chain, 0, chain.index_of("a"))
    ab = build(["a", "b"], [("a", "b")])
    assert not defends(ab, 0, ab.index_of("b"))


def test_characteristic():
    ab = build(["a", "b"], [("a", "b")])
    assert ab.names_of(characteristic(ab, 0)) == ["a"]
    empty = build([], [])
    assert characteristic(empty, 0) == 0
    chain = build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert chain.names_of(characteristic(chain, chain.mask_of(["a"]))) == ["a", "c"]


def test_grounded():
    assert build(["a", "b"], [("a", "b")]).names_of(grounded(build(["a", "b"], [("a", "b")]))) == ["a"]
    mutual = build(["a", "b"], [("a", "b"), ("b", "a")])
    assert grounded(mutual) == 0
    chain = build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert chain.names_of(grounded(chain)) == ["a", "c"]


def test_is_extension_examples():
    ab = build(["a", "b"], [("a", "b")])
    assert is_extension(ab, ab.mask_of(["a"]), BaseSemantics.COMPLETE)
    cyc = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert is_extension(cyc, 0, BaseSemantics.PREFERRED)
    assert not is_extension(cyc, 0, BaseSemantics.STABLE)


def test_enumerate_examples():
    ab = build(["a", "b"], [("a", "b")])
    assert base_extensions(ab, BaseSemantics.COMPLETE) == [ab.mask_of(["a"])]
    mutual = build(["a", "b"], [("a", "b"), ("b", "a")])
    assert set(base_extensions(mutual, BaseSemantics.PREFERRED)) == {
        mutual.mask_of(["a"]),
        mutual.mask_of(["b"]),
    }
    empty = build([], [])
    assert base_extensions(empty, BaseSemantics.STABLE) == [0]


def test_matches_oracle_exhaustive_three_args():
    for af in all_three_arg_frameworks():
        for sem, code in _ORACLE_CODE.items():
            assert set(base_extensions(af, sem)) == oracle_extensions(af, code)


def test_matches_oracle_random():
    rng = random.Random(1311)
    for _ in range(250):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.1, 0.25, 0.5]))
        for sem, code in _ORACLE_CODE.items():
            assert set(base_extensions(af, sem)) == oracle_extensions(af, code), (
                af.attacks,
                sem,
            )


def test_every_framework_has_a_complete_extension_and_grounded_is_one():
    rng = random.Random(5150)
    for _ in range(100):
        af = random_af(rng, rng.randint(0, 8), rng.choice([0.2, 0.5]))
        complete = base_extensions(af, BaseSemantics.COMPLETE)
        assert complete
        assert grounded(af) in complete


def test_inclusion_chains():
    rng = random.Random(616)
    for _ in range(100):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.15, 0.4]))
        st = set(base_extensions(af, BaseSemantics.STABLE))
        pr = set(base_extensions(af, BaseSemantics.PREFERRED))
        co = set(base_extensions(af, BaseSemantics.COMPLETE))
        adm = set(base_extensions(af, BaseSemantics.ADMISSIBLE))
        naive = set(base_extensions(af, BaseSemantics.NAIVE))
        assert st <= pr <= co
        assert pr <= adm
        assert st <= naive


def test_is_extension_agrees_with_enumeration():
    rng = random.Random(2718)
    for _ in range(60):
        af = random_af(rng, rng.randint(1, 6), 0.3)
        for sem in (
            BaseSemantics.COMPLETE,
            BaseSemantics.STABLE,
            BaseSemantics.NAIVE,
            BaseSemantics.PREFERRED,
        ):
            visited = set(base_extensions(af, sem))
            for s in range(1 << af.n):
                assert is_extension(af, s, sem) == (s in visited)


def test_enumeration_is_deterministic_and_canonical():
    rng = random.Random(31415)
    for _ in range(40):
        af = random_af(rng, rng.randint(1, 7), 0.3)
        first = base_extensions(af, BaseSemantics.COMPLETE)
        second = base_extensions(af, BaseSemantics.COMPLETE)
        assert first == second
        keys = [canonical_key(m, af.n) for m in first]
        assert keys == sorted(keys)


def test_visitor_stop():
    from afsolve.kernel import complete_labellings_into

    mutual = build(["a", "b"], [("a", "b"), ("b", "a")])
    seen = []

    def visit(in_m, out_m, ud_m):
        seen.append(in_m)
        return False

    complete_labellings_into(mutual, visit)
    assert len(seen) == 1
    every = []
    complete_labellings_into(mutual, lambda i, o, u: every.append(i))
    assert len(every) == 3


def test_count_matches_enumeration():
    rng = random.Random(9224)
    for _ in range(60):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.2, 0.5]))
        for sem in _ORACLE_CODE:
            assert count_base(af, sem) == len(base_extensions(af, sem))


def test_find_complete_and_stable_respect_constraints():
    rng = random.Random(3333)
    for _ in range(80):
        af = random_af(rng, rng.randint(1, 7), 0.3)
        complete = set(base_extensions(af, BaseSemantics.COMPLETE))
        stable = set(base_extensions(af, BaseSemantics.STABLE))
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
        pr = set(base_extensions(af, BaseSemantics.PREFERRED))
        assert some_preferred(af) in pr
        for e in base_extensions(af, BaseSemantics.COMPLETE):
            grown = maximize_complete(af, e)
            assert grown in pr
            assert e & ~grown == 0
        assert set(preferred_extensions(af)) == pr
