import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from afsolve import (
    ApxError,
    ApxSyntaxError,
    ArgumentationFramework,
    EmptyNameError,
    UndeclaredArgumentError,
    parse_apx,
)
from afsolve import framework
from afsolve.framework import bits, canonical_key
from conftest import build, mask_of, random_af, restrict_by_attack_filter, to_apx
from test_fuzz import SEEDS, mutate


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
    with pytest.raises(UndeclaredArgumentError) as caught:
        parse_apx("att(a,b).")
    assert caught.value.__context__ is None  # no lookup failure chained to it


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


SYNTAX_ERRORS = [
    ("arg(a)", "missing terminating period after 'arg' fact"),
    ("arg a.", "expected '(' after 'arg'"),
    ("arg(a,b).", "arg fact takes one name, got 2"),
    ("att(a).", "att fact takes two names, got 1"),
    ("foo(a).", "unknown predicate 'foo'"),
    ("arg(a)) .", "missing terminating period after 'arg' fact"),
    ("arg(a). )", "unexpected character ')' at offset 8"),
    ("arg(a). att(a", "unterminated fact at end of input"),
    ("arg(a b).", "expected ',' or ')' at offset 6"),
    # offsets count the comments that the scan removes
    ("% c\narg(a). % d\n.", "unexpected character '.' at offset 16"),
    ("arg(a % d\n b).", "expected ',' or ')' at offset 11"),
    ("att(a,b)% c", "missing terminating period after 'att' fact"),
    ("arg(a). foo(b", "unterminated fact at end of input"),  # reads on past the predicate
]


@pytest.mark.parametrize("text, message", SYNTAX_ERRORS, ids=[text for text, _ in SYNTAX_ERRORS])
def test_parse_syntax_errors(text, message):
    with pytest.raises(ApxSyntaxError) as caught:
        parse_apx(text)
    assert str(caught.value) == message


EMPTY_NAMES = [
    ("arg().", "empty argument name in 'arg' fact"),
    ("att(,b).", "empty argument name in 'att' fact"),
    ("arg( ).", "empty argument name in 'arg' fact"),
    ("foo(a,% c\n).", "empty argument name in 'foo' fact"),
]


@pytest.mark.parametrize("text, message", EMPTY_NAMES, ids=[text for text, _ in EMPTY_NAMES])
def test_parse_empty_name(text, message):
    with pytest.raises(EmptyNameError) as caught:
        parse_apx(text)
    assert str(caught.value) == message


def test_roundtrip_random():
    rng = random.Random(4)
    for _ in range(100):
        af = random_af(rng, rng.randint(0, 9), rng.choice([0.1, 0.3, 0.6]))
        assert parse_apx(to_apx(af)) == af


def test_attacked_set():
    af = build(["a", "b"], [("a", "b")])
    assert af.attacked_set(mask_of(af, ["a"])) == mask_of(af, ["b"])
    assert af.attacked_set(0) == 0
    cyc = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert cyc.attacked_set(mask_of(cyc, ["a", "c"])) == mask_of(cyc, ["a", "b"])


def test_attacked_set_distributes_over_union():
    rng = random.Random(11)
    for _ in range(50):
        af = random_af(rng, rng.randint(1, 8), 0.3)
        s1 = rng.getrandbits(af.n)
        s2 = rng.getrandbits(af.n)
        assert af.attacked_set(s1 | s2) == af.attacked_set(s1) | af.attacked_set(s2)


def test_reverse_reachable():
    af = build(["a", "b"], [("a", "b")])
    assert af.reverse_reachable(af.index_of("b")) == mask_of(af, ["a", "b"])
    assert af.reverse_reachable(af.index_of("a")) == mask_of(af, ["a"])
    chain = build(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
    assert chain.reverse_reachable(chain.index_of("c")) == mask_of(chain, ["a", "b", "c"])


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
    only_b = af.restrict(mask_of(af, ["b"]))
    assert only_b.names == ("b",)
    assert only_b.attacks == ()
    cyc = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    sub = cyc.restrict(mask_of(cyc, ["a", "b"]))
    assert sub.names == ("a", "b")
    assert sub.attacks == ((0, 1),)
    sub = cyc.restrict(mask_of(cyc, ["b", "c"]))
    assert sub.names == ("b", "c")
    assert sub.attacks == ((0, 1),)


def test_restrict_matches_the_attack_filter():
    rng = random.Random(1315)
    for _ in range(150):
        af = random_af(rng, rng.randint(1, 40), rng.choice([0.03, 0.08, 0.2]))
        masks = {af.reverse_reachable(q) for q in range(af.n)} | {rng.getrandbits(af.n)}
        for s in masks:
            sub, ref = af.restrict(s), restrict_by_attack_filter(af, s)
            assert (sub.names, sub.attacks, sub.attackers, sub.targets) == (
                ref.names, ref.attacks, ref.attackers, ref.targets), (af.attacks, s)


def test_constructor_reads_pairs_in_any_order():
    pairs = [(0, 1), (1, 0), (2, 2), (0, 2), (3, 1)]
    ordered = ArgumentationFramework("abcd", sorted(set(pairs)))
    # a one-shot iterator, reversed, with every pair twice
    af = ArgumentationFramework("abcd", (p for p in reversed(pairs + pairs)))
    assert af.attacks == ordered.attacks == ((0, 1), (0, 2), (1, 0), (2, 2), (3, 1))
    assert (af.attackers, af.targets) == (ordered.attackers, ordered.targets)
    assert af == ordered and hash(af) == hash(ordered)
    assert af.attacks is af.attacks  # derived once, then cached


@pytest.mark.parametrize("pair", [(0, 3), (-1, 0)])
def test_constructor_rejects_an_index_out_of_range(pair):
    a, b = pair
    message = f"attack ({a},{b}) references an index out of range"
    with pytest.raises(ValueError, match=re.escape(message)):
        ArgumentationFramework(["a", "b"], [(0, 1), pair])


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
    with pytest.raises(ValueError, match=r"^duplicate argument name 'a'$"):
        ArgumentationFramework(["a", "a"], [])
    with pytest.raises(EmptyNameError):
        ArgumentationFramework([""], [])
    with pytest.raises(ValueError):
        ArgumentationFramework(["a"], [(0, 3)])


def _canonical_key_by_bits(mask, n):
    """The bit-by-bit loop that ``canonical_key`` replaced."""
    rev = 0
    for i in range(n):
        if (mask >> i) & 1:
            rev |= 1 << (n - 1 - i)
    return rev


def test_canonical_key_matches_the_bit_loop():
    rng = random.Random(41)
    for n in [*range(71), 2500]:
        masks = {0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(20))}
        for mask in masks:
            assert canonical_key(mask, n) == _canonical_key_by_bits(mask, n), (mask, n)


_NAME_FORBIDDEN = frozenset("(),.%")


def _is_name_char(ch: str) -> bool:
    return ch not in _NAME_FORBIDDEN and not ch.isspace()


def _parse_apx_by_chars(text: str) -> ArgumentationFramework:
    """The character loop that ``parse_apx`` used before its fact scanner,
    kept as the reference of the differential tests below."""
    pos = 0
    end = len(text)

    def skip_blank(i: int) -> int:
        while i < end:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch == "%":
                while i < end and text[i] != "\n":
                    i += 1
            else:
                break
        return i

    def read_name(i: int) -> tuple[str, int]:
        start = i
        while i < end and _is_name_char(text[i]):
            i += 1
        return text[start:i], i

    names: list[str] = []
    declared: set[str] = set()
    att_facts: list[tuple[str, str]] = []

    while True:
        pos = skip_blank(pos)
        if pos >= end:
            break
        predicate, pos = read_name(pos)
        if not predicate:
            raise ApxSyntaxError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = skip_blank(pos)
        if pos >= end or text[pos] != "(":
            raise ApxSyntaxError(f"expected '(' after {predicate!r}")
        pos += 1
        terms: list[str] = []
        while True:
            pos = skip_blank(pos)
            term, pos = read_name(pos)
            if not term:
                raise EmptyNameError(f"empty argument name in {predicate!r} fact")
            terms.append(term)
            pos = skip_blank(pos)
            if pos >= end:
                raise ApxSyntaxError("unterminated fact at end of input")
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == ")":
                pos += 1
                break
            raise ApxSyntaxError(f"expected ',' or ')' at offset {pos}")
        pos = skip_blank(pos)
        if pos >= end or text[pos] != ".":
            raise ApxSyntaxError(f"missing terminating period after {predicate!r} fact")
        pos += 1

        if predicate == "arg":
            if len(terms) != 1:
                raise ApxSyntaxError(f"arg fact takes one name, got {len(terms)}")
            if terms[0] not in declared:
                declared.add(terms[0])
                names.append(terms[0])
        elif predicate == "att":
            if len(terms) != 2:
                raise ApxSyntaxError(f"att fact takes two names, got {len(terms)}")
            att_facts.append((terms[0], terms[1]))
        else:
            raise ApxSyntaxError(f"unknown predicate {predicate!r}")

    for a, b in att_facts:
        if a not in declared:
            raise UndeclaredArgumentError(f"att references undeclared argument {a!r}")
        if b not in declared:
            raise UndeclaredArgumentError(f"att references undeclared argument {b!r}")
    return ArgumentationFramework.build(names, att_facts)


def _outcome(parse, text):
    try:
        af = parse(text)
    except ApxError as exc:
        return type(exc), str(exc)
    return af.names, af.attacks


def test_parse_apx_matches_the_character_loop_on_fuzzed_text():
    rng = random.Random(2026)
    failures = 0
    for _ in range(20000):
        text = mutate(rng, rng.choice(SEEDS))
        expected = _outcome(_parse_apx_by_chars, text)
        failures += isinstance(expected[0], type)
        assert _outcome(parse_apx, text) == expected, repr(text)
    assert 0 < failures < 20000  # both valid and malformed texts were drawn


@pytest.mark.parametrize(
    "text",
    ["arg(a).zarg(b).", "arg(a).%c\nzarg(b).", "x arg(a).", "arg(a). )"],
    ids=["between-facts", "after-a-comment", "before-the-first-fact", "after-the-last-fact"],
)
def test_parse_apx_rejects_what_a_search_would_skip(text):
    # a split finds facts by search, so text around or between them shows
    # only as a non-blank first piece or a non-empty gap
    expected = _outcome(_parse_apx_by_chars, text)
    assert issubclass(expected[0], ApxError)
    assert _outcome(parse_apx, text) == expected


NAME_CHARS = "ab_-'019é∀\x00\x1b\u200b"  # U+200B is a format character, not a space
BLANKS = ("", " ", "\t", "\r", "\n", "\r\n", "\x0b", "\x85", "\u3000",
          "%\n", "% c (),.%\n", "%%\r\n", " %x\n\t",
          "%\rarg(r).\n", "%\u2028arg(u).\n")  # only \n ends a comment
TOKEN = re.compile(r"[(),.]|[^(),.\n]+")


def _decorated_apx(rng, af):
    """*af* as apx text with random blanks and comments between its tokens."""
    out = [rng.choice(BLANKS)]
    for token in TOKEN.findall(to_apx(af)):
        out += [token, rng.choice(BLANKS)]
    if rng.random() < 0.3:
        out.append("% comment at the end without a newline")
    return "".join(out)


def test_parse_apx_reads_decorated_text_without_the_character_loop(monkeypatch):
    rng = random.Random(2027)
    texts = []
    for _ in range(500):
        n = rng.randint(0, 9)
        names = []
        while len(names) < n:
            name = "".join(rng.choices(NAME_CHARS, k=rng.randint(1, 4)))
            if name not in names:
                names.append(name)
        af = ArgumentationFramework(names, random_af(rng, n, 0.3).attacks)
        text = _decorated_apx(rng, af)
        assert _parse_apx_by_chars(text) == af, repr(text)
        texts.append((text, af))

    def no_fallback(text):
        raise AssertionError(f"valid input reached the stepwise reader: {text!r}")

    monkeypatch.setattr(framework, "_raise_first_error", no_fallback)
    for text, af in texts:
        assert parse_apx(text) == af, repr(text)


def test_scanner_classes_agree_with_the_character_loop_on_every_code_point():
    every = "".join(map(chr, range(0x110000)))
    name_chars = "".join(re.findall(framework._NAME_CLASS, every))
    assert name_chars == "".join(filter(_is_name_char, every))
    assert "".join(re.findall(r"\s", every)) == "".join(filter(str.isspace, every))


# Each input is built and parsed in a child process, so that a regex that
# backtracks or rescans fails the test at the time limit instead of hanging,
# and one that keeps state per repeat fails it on the growth of the peak
# resident set (ru_maxrss counts KiB on Linux).
GUARD = """
import resource, sys
from afsolve import ApxError, parse_apx
text = {text}
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    parse_apx(text)
except ApxError:
    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    sys.exit(f"peak RSS grew by {{grown}} KiB" if grown > 40 * 1024 else 0)
sys.exit("parsed without an ApxError")
"""


@pytest.mark.parametrize(
    "text",
    [
        '"%" * 200_000 + "\\narg(a"',
        '" " * 200_000 + "arg(a"',
        '"arg(" + "x" * 100_000',
        '"".join(f"arg(a{i}).\\n" for i in range(20_000)) + "att(a0 a1)."',
        '"% c\\n" * 350_000 + "arg(a"',
        '"".join(f"arg(a{i}).\\n" for i in range(20_000)) + ")"'
        ' + "".join(f"arg(b{i}).\\n" for i in range(20_000))',
    ],
    ids=["long-comment", "long-blank", "long-name", "many-facts", "many-comments",
         "bad-character-between-facts"],
)
def test_malformed_input_fails_in_linear_time(text):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-c", GUARD.format(text=text)],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert proc.returncode == 0, proc.stderr
