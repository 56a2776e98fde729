import random
import sys

from afsolve import ArgumentationFramework, Semantics, Task, TaskSpec, oracle_extensions, solve
from afsolve.framework import bits, canonical_key
from afsolve.kernel import complete_extensions, complete_labellings_into
from afsolve.ranges import (
    _stage_pairs,
    decide_range,
    decide_stage,
    max_ranges,
    range_of,
    semi_stable_all,
    some_semi_stable,
    some_stage,
    stage_all,
)
from conftest import (
    all_three_arg_frameworks,
    build,
    is_extension,
    names_set,
    naive_sets_unbounded,
    random_af,
)


def test_range_of():
    ab = build(["a", "b"], [("a", "b")])
    assert ab.names_of(range_of(ab, ab.mask_of(["a"]))) == ["a", "b"]
    assert range_of(ab, 0) == 0
    cyc = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert cyc.names_of(range_of(cyc, cyc.mask_of(["a"]))) == ["a", "b"]


def test_max_ranges_single_attack():
    af = build(["a", "b"], [("a", "b")])
    witnesses = max_ranges(af)
    assert len(witnesses) == 1
    assert witnesses[0].range_mask == af.all_mask
    assert witnesses[0].witness == af.mask_of(["a"])


def test_max_ranges_self_attacker_naive():
    af = build(["a"], [("a", "a")])
    pairs = _stage_pairs(af)
    assert len(pairs) == 1
    assert pairs[0][1] == 0
    assert pairs[0][0] == 0


def test_max_ranges_mutual_attack_collapses_to_one():
    af = build(["a", "b"], [("a", "b"), ("b", "a")])
    witnesses = max_ranges(af)
    assert len(witnesses) == 1
    assert witnesses[0].range_mask == af.all_mask


def test_max_ranges_properties():
    rng = random.Random(808)
    for _ in range(120):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.15, 0.4]))
        semi_stable = [(w.witness, w.range_mask) for w in max_ranges(af)]
        for pairs, code in ((semi_stable, "CO"), (_stage_pairs(af), "CF")):
            ranges = list(dict.fromkeys(r for _, r in pairs))
            # pairwise incomparable
            for i, r in enumerate(ranges):
                for j, t in enumerate(ranges):
                    if i != j:
                        assert r & t != r
            for witness, r in pairs:
                assert range_of(af, witness) == r
                assert is_extension(af, witness, code)
            # every achievable range is covered by some maximal one
            for s in oracle_extensions(af, code):
                r = range_of(af, s)
                assert any(r & t == r for t in ranges)


def test_some_range_extension_examples():
    ab = build(["a", "b"], [("a", "b")])
    assert some_semi_stable(ab) == ab.mask_of(["a"])
    loop = build(["a"], [("a", "a")])
    assert some_stage(loop) == 0
    empty = build([], [])
    assert some_semi_stable(empty) == 0


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
    assert decide_stage(cyc, credulous=True, q=a)
    assert not decide_stage(cyc, credulous=False, q=a)
    ab = build(["a", "b"], [("a", "b")])
    assert decide_range(ab, credulous=False, q=ab.index_of("a"))


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
        stable = set(complete_extensions(af, notundec=af.all_mask))
        if stable:
            assert set(sst) == stable
            assert set(stg) == stable
        for e in sst:
            assert is_extension(af, e, "CO")
        for e in stg:
            assert is_extension(af, e, "NAIVE")
        assert some_semi_stable(af) in set(sst)
        assert some_stage(af) in set(stg)


def test_decide_range_matches_quantifiers():
    rng = random.Random(272)
    for _ in range(120):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.15, 0.4]))
        for decide, code in ((decide_range, "SST"), (decide_stage, "STG")):
            exts = oracle_extensions(af, code)
            for q in range(af.n):
                cred = decide(af, credulous=True, q=q)
                skep = decide(af, credulous=False, q=q)
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
    for r in sorted({r for _, r in _stage_pairs(af)}, key=lambda m: canonical_key(m, af.n)):
        kept = list(bits(r))
        restricted = af.restrict(r)
        for e in complete_extensions(restricted, notundec=restricted.all_mask):
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
        naive = naive_sets_unbounded(af)
        expected = _stage_pairs_by_filtering(af, naive)
        if complete_extensions(af, notundec=af.all_mask):
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
    assert some_stage(af) in exts
    for q in queries:
        dc = decide_stage(af, credulous=True, q=q)
        ds = decide_stage(af, credulous=False, q=q)
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
