"""Hand-checked anchors for the brute-force reference, plus its own internal
consistency; everything else in the suite leans on this module being right."""

import pytest

from afsolve import ArgumentationFramework, TooLargeError, oracle_extensions
from conftest import build, mask_of, names_set


def test_single_attack():
    af = build(["a", "b"], [("a", "b")])
    a = mask_of(af, ["a"])
    assert oracle_extensions(af, "CO") == {a}
    assert oracle_extensions(af, "PR") == {a}
    assert oracle_extensions(af, "ST") == {a}
    assert oracle_extensions(af, "SST") == {a}
    assert oracle_extensions(af, "STG") == {a}
    assert oracle_extensions(af, "ID") == {a}
    assert oracle_extensions(af, "GR") == {a}
    assert oracle_extensions(af, "CF") == {0, a, mask_of(af, ["b"])}
    assert oracle_extensions(af, "ADM") == {0, a}
    assert oracle_extensions(af, "NAIVE") == {a, mask_of(af, ["b"])}


def test_empty_framework():
    af = ArgumentationFramework([], [])
    for sem in ("CO", "PR", "ST", "SST", "STG", "ID", "GR", "NAIVE", "ADM", "CF"):
        assert oracle_extensions(af, sem) == {0}


def test_self_attacker():
    af = build(["a"], [("a", "a")])
    assert oracle_extensions(af, "ST") == set()
    assert oracle_extensions(af, "CO") == {0}
    assert oracle_extensions(af, "SST") == {0}
    assert oracle_extensions(af, "STG") == {0}
    assert oracle_extensions(af, "NAIVE") == {0}


def test_mutual_attack():
    af = build(["a", "b"], [("a", "b"), ("b", "a")])
    a, b = mask_of(af, ["a"]), mask_of(af, ["b"])
    assert oracle_extensions(af, "CO") == {0, a, b}
    assert oracle_extensions(af, "PR") == {a, b}
    assert oracle_extensions(af, "ST") == {a, b}
    assert oracle_extensions(af, "ID") == {0}
    assert oracle_extensions(af, "GR") == {0}


def test_three_cycle():
    af = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert oracle_extensions(af, "CO") == {0}
    assert oracle_extensions(af, "PR") == {0}
    assert oracle_extensions(af, "ST") == set()
    assert names_set(af, oracle_extensions(af, "STG")) == {("a",), ("b",), ("c",)}
    assert oracle_extensions(af, "SST") == {0}


def test_chain_of_three():
    af = build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    ac = mask_of(af, ["a", "c"])
    assert oracle_extensions(af, "GR") == {ac}
    assert oracle_extensions(af, "CO") == {ac}
    assert oracle_extensions(af, "ST") == {ac}


def test_ideal_four_arg_case():
    # a and b attack each other, both attack c, c attacks d; the intersection
    # of the preferred extensions is {d}, but {d} is not admissible, so the
    # ideal extension is empty
    af = build(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "a"), ("a", "c"), ("b", "c"), ("c", "d")],
    )
    assert names_set(af, oracle_extensions(af, "PR")) == {("a", "d"), ("b", "d")}
    assert oracle_extensions(af, "ID") == {0}


def test_ideal_can_exceed_grounded():
    # d counterattacks its only attacker c, so {d} is admissible and lies in
    # every preferred extension, while the grounded extension stays empty
    af = build(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "a"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "c")],
    )
    assert oracle_extensions(af, "GR") == {0}
    assert oracle_extensions(af, "ID") == {mask_of(af, ["d"])}


def test_oracle_internal_theory_invariants():
    import random

    from conftest import random_af

    rng = random.Random(7)
    for _ in range(120):
        af = random_af(rng, rng.randint(1, 6), rng.choice([0.15, 0.35]))
        st = oracle_extensions(af, "ST")
        sst = oracle_extensions(af, "SST")
        stg = oracle_extensions(af, "STG")
        pr = oracle_extensions(af, "PR")
        co = oracle_extensions(af, "CO")
        assert st <= sst and st <= stg
        assert sst <= pr <= co
        assert sst and stg
        assert len(oracle_extensions(af, "ID")) == 1
        # preferred from maximal complete agrees with maximal admissible
        max_complete = {
            s for s in co if not any(s != t and s & t == s for t in co)
        }
        assert pr == max_complete


def test_oracle_size_guard():
    af = ArgumentationFramework([f"a{i}" for i in range(21)], [])
    with pytest.raises(TooLargeError):
        oracle_extensions(af, "CO")


def test_oracle_report():
    af = build(["a", "b"], [("a", "b")])
    assert oracle_extensions(af, "PR") == {mask_of(af, ["a"])}
