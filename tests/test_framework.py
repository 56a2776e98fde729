import random

import pytest

from afsolve import (
    ApxSyntaxError,
    ArgumentationFramework,
    EmptyNameError,
    UndeclaredArgumentError,
    bits,
    parse_apx,
)
from conftest import build, random_af


def test_parse_basic():
    af = parse_apx("arg(a). arg(b). att(a,b).")
    assert af.n == 2
    assert af.names == ("a", "b")
    assert af.attacks == ((0, 1),)
    assert af.attackers[1] == 0b01
    assert af.targets[0] == 0b10


def test_parse_empty_input():
    af = parse_apx("")
    assert af.n == 0
    assert af.attacks == ()
    assert af.all_mask == 0


def test_parse_undeclared_argument():
    with pytest.raises(UndeclaredArgumentError):
        parse_apx("att(a,b).")


def test_parse_att_before_arg_is_fine():
    af = parse_apx("att(a,b). arg(b). arg(a).")
    assert af.names == ("b", "a")
    assert af.attacks == ((1, 0),)


def test_parse_whitespace_and_comments():
    text = """
    % a comment
    arg(a).   arg(b).% trailing comment att(b,a).
      att( a , b ) .
    arg(c).
    """
    af = parse_apx(text)
    assert af.names == ("a", "b", "c")
    assert af.attacks == ((0, 1),)


def test_parse_duplicates_collapse():
    af = parse_apx("arg(a). arg(a). arg(b). att(a,b). att(a,b).")
    assert af.names == ("a", "b")
    assert af.attacks == ((0, 1),)


def test_parse_self_attack():
    af = parse_apx("arg(x). att(x,x).")
    assert af.attacks == ((0, 0),)


def test_parse_exotic_names():
    af = parse_apx("arg(n_1). arg(x-y'z). att(n_1,x-y'z).")
    assert af.names == ("n_1", "x-y'z")


@pytest.mark.parametrize(
    "text",
    [
        "arg(a)",          # missing period
        "arg a.",          # missing parens
        "arg(a,b).",       # wrong arity
        "att(a).",         # wrong arity
        "foo(a).",         # unknown predicate
        "arg(a)) .",       # stray token
        "arg(a). att(a",   # unterminated
    ],
)
def test_parse_syntax_errors(text):
    with pytest.raises(ApxSyntaxError):
        parse_apx(text)


@pytest.mark.parametrize("text", ["arg().", "att(,b).", "arg( )."])
def test_parse_empty_name(text):
    with pytest.raises(EmptyNameError):
        parse_apx(text)


def test_roundtrip_random():
    rng = random.Random(4)
    for _ in range(100):
        af = random_af(rng, rng.randint(0, 9), rng.choice([0.1, 0.3, 0.6]))
        assert parse_apx(af.to_apx()) == af


def test_attacked_set():
    af = build(["a", "b"], [("a", "b")])
    assert af.attacked_set(af.mask_of(["a"])) == af.mask_of(["b"])
    assert af.attacked_set(0) == 0
    cyc = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert cyc.attacked_set(cyc.mask_of(["a", "c"])) == cyc.mask_of(["a", "b"])


def test_attacked_set_distributes_over_union():
    rng = random.Random(11)
    for _ in range(50):
        af = random_af(rng, rng.randint(1, 8), 0.3)
        s1 = rng.getrandbits(af.n)
        s2 = rng.getrandbits(af.n)
        assert af.attacked_set(s1 | s2) == af.attacked_set(s1) | af.attacked_set(s2)


def test_reverse_reachable():
    af = build(["a", "b"], [("a", "b")])
    assert af.reverse_reachable(af.index_of("b")) == af.mask_of(["a", "b"])
    assert af.reverse_reachable(af.index_of("a")) == af.mask_of(["a"])
    chain = build(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
    assert chain.reverse_reachable(chain.index_of("c")) == chain.mask_of(["a", "b", "c"])


def test_reverse_reachable_contains_query():
    rng = random.Random(17)
    for _ in range(50):
        af = random_af(rng, rng.randint(1, 10), 0.25)
        for q in range(af.n):
            assert (af.reverse_reachable(q) >> q) & 1


def test_reverse_reachable_matches_transitive_closure():
    rng = random.Random(23)
    for _ in range(40):
        af = random_af(rng, rng.randint(1, 8), 0.3)
        # oracle: closure of the transposed adjacency
        for q in range(af.n):
            reach = {q}
            changed = True
            while changed:
                changed = False
                for a, b in af.attacks:
                    if b in reach and a not in reach:
                        reach.add(a)
                        changed = True
            assert set(bits(af.reverse_reachable(q))) == reach


def test_restrict():
    af = build(["a", "b"], [("a", "b")])
    assert af.restrict(af.all_mask) is af  # frameworks are immutable: no copy
    only_b = af.restrict(af.mask_of(["b"]))
    assert only_b.names == ("b",)
    assert only_b.attacks == ()
    cyc = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    sub = cyc.restrict(cyc.mask_of(["a", "b"]))
    assert sub.names == ("a", "b")
    assert sub.attacks == ((0, 1),)
    sub = cyc.restrict(cyc.mask_of(["b", "c"]))
    assert sub.names == ("b", "c")
    assert sub.attacks == ((0, 1),)


def test_adjacency_is_transpose_consistent():
    rng = random.Random(31)
    for _ in range(30):
        af = random_af(rng, rng.randint(1, 9), 0.4)
        for a in range(af.n):
            for b in range(af.n):
                assert ((af.targets[a] >> b) & 1) == ((af.attackers[b] >> a) & 1)
                assert ((af.targets[a] >> b) & 1) == ((a, b) in af.attacks)


def test_build_rejects_bad_input():
    with pytest.raises(UndeclaredArgumentError):
        ArgumentationFramework.build(["a"], [("a", "zzz")])
    with pytest.raises(ValueError):
        ArgumentationFramework(["a", "a"], [])
    with pytest.raises(ValueError):
        ArgumentationFramework(["a"], [(0, 3)])
