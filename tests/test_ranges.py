import random
import sys

from afsolve import (
    ArgumentationFramework,
    BaseSemantics,
    RangeSemantics,
    Semantics,
    Task,
    TaskSpec,
    base_extensions,
    bits,
    decide_range,
    max_ranges,
    oracle_extensions,
    range_of,
    semi_stable_all,
    solve,
    some_range_extension,
    stage_all,
)
from afsolve.framework import canonical_key
from afsolve.kernel import complete_labellings_into
from afsolve.ranges import _stage_pairs
from conftest import all_three_arg_frameworks, build, is_extension, names_set, random_af


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
        for range_sem, code in ((RangeSemantics.SEMI_STABLE, "CO"), (RangeSemantics.STAGE, "CF")):
            witnesses = max_ranges(af, range_sem)
            ranges = [w.range_mask for w in witnesses]
            # pairwise incomparable
            for i, r in enumerate(ranges):
                for j, t in enumerate(ranges):
                    if i != j:
                        assert r & t != r
            for w in witnesses:
                assert range_of(af, w.witness) == w.range_mask
                assert is_extension(af, w.witness, code)
            # every achievable range is covered by some maximal one
            for s in oracle_extensions(af, code):
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
    assert decide_range(cyc, RangeSemantics.STAGE, credulous=True, q=a)
    assert not decide_range(cyc, RangeSemantics.STAGE, credulous=False, q=a)
    ab = build(["a", "b"], [("a", "b")])
    assert decide_range(ab, RangeSemantics.SEMI_STABLE, credulous=False, q=ab.index_of("a"))


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
            assert is_extension(af, e, "CO")
        for e in stg:
            assert is_extension(af, e, "NAIVE")
        assert some_range_extension(af, RangeSemantics.SEMI_STABLE) in set(sst)
        assert some_range_extension(af, RangeSemantics.STAGE) in set(stg)


def test_decide_range_matches_quantifiers():
    rng = random.Random(272)
    for _ in range(120):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.15, 0.4]))
        for sem, code in ((RangeSemantics.SEMI_STABLE, "SST"), (RangeSemantics.STAGE, "STG")):
            exts = oracle_extensions(af, code)
            for q in range(af.n):
                cred = decide_range(af, sem, credulous=True, q=q)
                skep = decide_range(af, sem, credulous=False, q=q)
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


def _stage_by_restriction(af):
    """Stage extensions derived per maximal naive range: the stable
    extensions of the framework restricted to the range, mapped back."""
    out = []
    for rw in max_ranges(af, RangeSemantics.STAGE):
        kept = list(bits(rw.range_mask))
        for e in base_extensions(af.restrict(rw.range_mask), BaseSemantics.STABLE):
            out.append(sum(1 << kept[i] for i in bits(e)))
    return out


def test_stage_matches_restricted_stable_derivation():
    rng = random.Random(2021)
    for _ in range(150):
        af = random_af(rng, rng.randint(10, 40), rng.choice([0.05, 0.1, 0.2]))
        derived = _stage_by_restriction(af)
        assert stage_all(af) == derived
        for q in rng.sample(range(af.n), 3):
            name = af.names[q]
            dc = solve(af, TaskSpec(Task.DC, Semantics.STG, name)).verdict
            ds = solve(af, TaskSpec(Task.DS, Semantics.STG, name)).verdict
            assert dc == any((e >> q) & 1 for e in derived)
            assert ds == all((e >> q) & 1 for e in derived)


def test_stage_matches_oracle_on_small_frameworks():
    rng = random.Random(1996)
    for _ in range(2000):
        af = random_af(rng, rng.randint(1, 9), rng.choice([0.05, 0.1, 0.2, 0.3, 0.5]))
        exts = oracle_extensions(af, "STG")
        stg = stage_all(af)
        assert len(stg) == len(exts) and set(stg) == exts
        assert solve(af, TaskSpec(Task.SE, Semantics.STG)).extension in exts
        for q in range(af.n):
            name = af.names[q]
            dc = solve(af, TaskSpec(Task.DC, Semantics.STG, name)).verdict
            ds = solve(af, TaskSpec(Task.DS, Semantics.STG, name)).verdict
            assert dc == any((e >> q) & 1 for e in exts)
            assert ds == all((e >> q) & 1 for e in exts)


def _naive_sets_unbounded(af):
    """Every naive set, by the plain pivoted Bron-Kerbosch search that the
    range-bounded search prunes, in the same order; kept apart from the
    kernel so that the reference below shares no code with what it checks."""
    loops = sum(1 << i for i in range(af.n) if (af.targets[i] >> i) & 1)
    universe = af.all_mask & ~loops
    compat = [universe & ~(af.attackers[i] | af.targets[i]) & ~(1 << i) for i in range(af.n)]
    out = []

    def expand(r, p, x):
        if p == 0 and x == 0:
            out.append(r)
            return
        best_u, best_c = -1, -1
        for u in range(af.n):
            if ((p | x) >> u) & 1 and (p & compat[u]).bit_count() > best_c:
                best_u, best_c = u, (p & compat[u]).bit_count()
        branch = p & ~compat[best_u]
        for v in range(af.n):
            if (branch >> v) & 1:
                expand(r | 1 << v, p & compat[v], x & compat[v])
                p &= ~(1 << v)
                x |= 1 << v

    expand(0, universe, 0)
    return out


def _stage_pairs_by_filtering(af, naive):
    """The stage pairs as the naive enumeration gives them, filtered to the
    naive sets of maximal range: the reference for the bounded search."""
    pairs = [(s, s | af.attacked_set(s)) for s in naive]
    maximal: set[int] = set()
    for r in sorted({r for _, r in pairs}, key=lambda m: -m.bit_count()):
        if not any(r & k == r for k in maximal):
            maximal.add(r)
    return [(s, r) for s, r in pairs if r in maximal]


def test_stage_pairs_match_the_filtered_naive_enumeration():
    rng = random.Random(1321)
    bounded = 0
    for _ in range(200):
        af = random_af(rng, rng.randint(10, 40), rng.uniform(0.03, 0.3))
        naive = _naive_sets_unbounded(af)
        assert sorted(naive, key=lambda m: canonical_key(m, af.n)) == base_extensions(af, BaseSemantics.NAIVE)
        expected = _stage_pairs_by_filtering(af, naive)
        if base_extensions(af, BaseSemantics.STABLE):
            # the stable path lists the stable extensions in canonical order
            expected.sort(key=lambda p: canonical_key(p[0], af.n))
        else:
            bounded += 1
        assert _stage_pairs(af) == expected
    assert bounded >= 50


def _assert_stage_queries_match_pairs(af, queries):
    """SE, DC and DS stage answers against the stage extensions that
    ``_stage_pairs`` lists."""
    exts = {s for s, _ in _stage_pairs(af)}
    assert some_range_extension(af, RangeSemantics.STAGE) in exts
    for q in queries:
        dc = decide_range(af, RangeSemantics.STAGE, credulous=True, q=q)
        ds = decide_range(af, RangeSemantics.STAGE, credulous=False, q=q)
        assert dc == any((e >> q) & 1 for e in exts), (af.names, af.attacks, q)
        assert ds == all((e >> q) & 1 for e in exts), (af.names, af.attacks, q)


def _chain_with_loop(n):
    """A chain a0 -> ... -> a(n-1) plus an isolated self-attacker, so there
    is no stable extension; the only stage extension is every other link
    from a0."""
    names = [f"a{i}" for i in range(n)] + ["loop"]
    return ArgumentationFramework(names, [(i, i + 1) for i in range(n - 1)] + [(n, n)])


def test_stage_queries_match_the_stage_pairs():
    rng = random.Random(1914)
    for _ in range(300):
        af = random_af(rng, rng.randint(10, 40), rng.choice([0.05, 0.1, 0.2]))
        _assert_stage_queries_match_pairs(af, range(af.n))
    for n in [1, 2, 3, 4, 5, 10, 21, 40, 81, 160, 320]:
        af = _chain_with_loop(n)
        queries = range(n + 1) if n <= 40 else [0, 1, n // 2, n - 2, n - 1, n]
        _assert_stage_queries_match_pairs(af, queries)


def test_stage_on_long_chains_restores_the_recursion_limit(fixed_recursion_limit):
    """Stage on 2000-argument chains runs within the default recursion limit
    and never sets it."""
    before = sys.getrecursionlimit()
    chain = ArgumentationFramework([f"a{i}" for i in range(2000)], [(i, i + 1) for i in range(1999)])
    alternating = chain.mask_of(chain.names[::2])
    assert solve(chain, TaskSpec(Task.SE, Semantics.STG)).extension == alternating
    assert solve(chain, TaskSpec(Task.EE, Semantics.STG)).extensions == (alternating,)
    assert solve(chain, TaskSpec(Task.CE, Semantics.STG)).count == 1
    assert solve(chain, TaskSpec(Task.DC, Semantics.STG, "a1998")).verdict
    assert not solve(chain, TaskSpec(Task.DS, Semantics.STG, "a1999")).verdict
    assert sys.getrecursionlimit() == before
    # an isolated self-attacker leaves no stable extension
    names = [f"a{i}" for i in range(1000)] + ["loop"]
    attacks = [(i, i + 1) for i in range(999)] + [(1000, 1000)]
    unstable = ArgumentationFramework(names, attacks)
    assert solve(unstable, TaskSpec(Task.EE, Semantics.STG)).extensions == (
        unstable.mask_of(names[0:1000:2]),
    )
    assert sys.getrecursionlimit() == before
    unstable = _chain_with_loop(2000)
    assert solve(unstable, TaskSpec(Task.SE, Semantics.STG)).extension == alternating
    assert solve(unstable, TaskSpec(Task.DC, Semantics.STG, "a1998")).verdict
    assert not solve(unstable, TaskSpec(Task.DS, Semantics.STG, "a1")).verdict
    assert not solve(unstable, TaskSpec(Task.DC, Semantics.STG, "loop")).verdict
    assert not solve(unstable, TaskSpec(Task.DS, Semantics.STG, "loop")).verdict
    assert sys.getrecursionlimit() == before
