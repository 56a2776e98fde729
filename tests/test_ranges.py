import random

from afsolve import (
    AcceptanceMode,
    BaseSemantics,
    RangeSemantics,
    base_extensions,
    decide_range,
    is_extension,
    max_ranges,
    oracle_extensions,
    range_of,
    semi_stable_all,
    some_range_extension,
    stage_all,
)
from afsolve.kernel import complete_labellings_into
from conftest import all_three_arg_frameworks, build, names_set, random_af


def test_range_of():
    ab = build(["a", "b"], [("a", "b")])
    assert ab.names_of(range_of(ab, ab.mask_of(["a"]))) == ["a", "b"]
    assert range_of(ab, 0) == 0
    cyc = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert cyc.names_of(range_of(cyc, cyc.mask_of(["a"]))) == ["a", "b"]


def test_max_ranges_single_attack():
    af = build(["a", "b"], [("a", "b")])
    witnesses = max_ranges(af, RangeSemantics.SEMI_STABLE)
    assert len(witnesses) == 1
    assert witnesses[0].range_mask == af.all_mask
    assert witnesses[0].witness == af.mask_of(["a"])


def test_max_ranges_self_attacker_naive():
    af = build(["a"], [("a", "a")])
    witnesses = max_ranges(af, RangeSemantics.STAGE)
    assert len(witnesses) == 1
    assert witnesses[0].range_mask == 0
    assert witnesses[0].witness == 0


def test_max_ranges_mutual_attack_collapses_to_one():
    af = build(["a", "b"], [("a", "b"), ("b", "a")])
    witnesses = max_ranges(af, RangeSemantics.SEMI_STABLE)
    assert len(witnesses) == 1
    assert witnesses[0].range_mask == af.all_mask


def test_max_ranges_properties():
    rng = random.Random(808)
    for _ in range(120):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.15, 0.4]))
        for range_sem, sem in ((RangeSemantics.SEMI_STABLE, BaseSemantics.COMPLETE),
                               (RangeSemantics.STAGE, BaseSemantics.CONFLICT_FREE)):
            witnesses = max_ranges(af, range_sem)
            ranges = [w.range_mask for w in witnesses]
            # pairwise incomparable
            for i, r in enumerate(ranges):
                for j, t in enumerate(ranges):
                    if i != j:
                        assert r & t != r
            for w in witnesses:
                assert range_of(af, w.witness) == w.range_mask
                assert is_extension(af, w.witness, sem)
            # every achievable range is covered by some maximal one
            for s in base_extensions(af, sem):
                r = range_of(af, s)
                assert any(r & t == r for t in ranges)


def test_some_range_extension_examples():
    ab = build(["a", "b"], [("a", "b")])
    assert some_range_extension(ab, RangeSemantics.SEMI_STABLE) == ab.mask_of(["a"])
    loop = build(["a"], [("a", "a")])
    assert some_range_extension(loop, RangeSemantics.STAGE) == 0
    empty = build([], [])
    assert some_range_extension(empty, RangeSemantics.SEMI_STABLE) == 0


def test_semi_stable_examples():
    mutual = build(["a", "b"], [("a", "b"), ("b", "a")])
    assert names_set(mutual, semi_stable_all(mutual)) == {("a",), ("b",)}
    loop = build(["a"], [("a", "a")])
    assert semi_stable_all(loop) == [0]
    empty = build([], [])
    assert semi_stable_all(empty) == [0]


def test_stage_examples():
    cyc = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert names_set(cyc, stage_all(cyc)) == {("a",), ("b",), ("c",)}
    ab = build(["a", "b"], [("a", "b")])
    assert stage_all(ab) == [ab.mask_of(["a"])]
    empty = build([], [])
    assert stage_all(empty) == [0]


def test_decide_range_examples():
    cyc = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    a = cyc.index_of("a")
    assert decide_range(cyc, RangeSemantics.STAGE, AcceptanceMode.CREDULOUS, a)
    assert not decide_range(cyc, RangeSemantics.STAGE, AcceptanceMode.SKEPTICAL, a)
    ab = build(["a", "b"], [("a", "b")])
    assert decide_range(ab, RangeSemantics.SEMI_STABLE, AcceptanceMode.SKEPTICAL, ab.index_of("a"))


def test_matches_oracle_exhaustive():
    for af in all_three_arg_frameworks():
        assert set(semi_stable_all(af)) == oracle_extensions(af, "SST")
        assert set(stage_all(af)) == oracle_extensions(af, "STG")


def test_matches_oracle_random_and_coincidence():
    rng = random.Random(181)
    for _ in range(200):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.1, 0.25, 0.5]))
        sst = semi_stable_all(af)
        stg = stage_all(af)
        assert set(sst) == oracle_extensions(af, "SST")
        assert set(stg) == oracle_extensions(af, "STG")
        stable = set(base_extensions(af, BaseSemantics.STABLE))
        if stable:
            assert set(sst) == stable
            assert set(stg) == stable
        for e in sst:
            assert is_extension(af, e, BaseSemantics.COMPLETE)
        for e in stg:
            assert is_extension(af, e, BaseSemantics.NAIVE)
        assert some_range_extension(af, RangeSemantics.SEMI_STABLE) in set(sst)
        assert some_range_extension(af, RangeSemantics.STAGE) in set(stg)


def test_decide_range_matches_quantifiers():
    rng = random.Random(272)
    for _ in range(120):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.15, 0.4]))
        for sem, code in ((RangeSemantics.SEMI_STABLE, "SST"), (RangeSemantics.STAGE, "STG")):
            exts = oracle_extensions(af, code)
            for q in range(af.n):
                cred = decide_range(af, sem, AcceptanceMode.CREDULOUS, q)
                skep = decide_range(af, sem, AcceptanceMode.SKEPTICAL, q)
                assert cred == any((e >> q) & 1 for e in exts)
                assert skep == all((e >> q) & 1 for e in exts)


def test_range_is_complement_of_undec_for_complete_labellings():
    rng = random.Random(999)
    for _ in range(60):
        af = random_af(rng, rng.randint(1, 7), 0.3)
        rows = []
        complete_labellings_into(af, lambda i, o, u: rows.append((i, o, u)))
        for in_m, out_m, ud_m in rows:
            assert range_of(af, in_m) == af.all_mask & ~ud_m
            assert range_of(af, in_m) == in_m | out_m
