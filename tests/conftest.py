import itertools
import random
import sys

import pytest

from afsolve import ArgumentationFramework
from afsolve.framework import bits
from afsolve.kernel import _self_attackers, find_complete

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture
def fixed_recursion_limit(monkeypatch):
    """Make sys.setrecursionlimit raise, for tests of code that must run
    within the default limit and never set it."""

    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit})")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)


def build(names, attacks):
    return ArgumentationFramework.build(names, attacks)


def random_af(rng: random.Random, n: int, p: float) -> ArgumentationFramework:
    names = [f"a{i}" for i in range(n)]
    attacks = [(i, j) for i in range(n) for j in range(n) if rng.random() < p]
    return ArgumentationFramework(names, attacks)


def all_three_arg_frameworks():
    """All 512 digraphs over three labelled arguments (self-loops included)."""
    pairs = list(itertools.product(range(3), repeat=2))
    for code in range(512):
        attacks = [pairs[k] for k in range(9) if (code >> k) & 1]
        yield ArgumentationFramework(["a", "b", "c"], attacks)


def names_set(af, masks):
    return {tuple(af.names_of(m)) for m in masks}


def naive_sets_unbounded(af):
    """Every naive set, by the plain pivoted Bron-Kerbosch search that the
    kernel's range-bounded search prunes, in the same order; kept apart from
    the kernel so that this reference shares no code with what it checks."""
    loops = sum(1 << i for i in range(af.n) if (af.targets[i] >> i) & 1)
    universe = af.all_mask & ~loops
    compat = [universe & ~(af.attackers[i] | af.targets[i]) & ~(1 << i) for i in range(af.n)]
    out = []

    def expand(r, p, x):
        if p == 0 and x == 0:
            out.append(r)
            return
        best_u, best_c = -1, -1
        for u in bits(p | x):
            if (p & compat[u]).bit_count() > best_c:
                best_u, best_c = u, (p & compat[u]).bit_count()
        for v in bits(p & ~compat[best_u]):
            expand(r | 1 << v, p & compat[v], x & compat[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, universe, 0)
    return out


def grounded_by_attack_lists(af: ArgumentationFramework) -> int:
    """The grounded worklist as it was before it read the rows: adjacency
    lists and attacker counts built from ``af.attacks``."""
    targets: list[list[int]] = [[] for _ in range(af.n)]
    live = [0] * af.n
    for a, b in af.attacks:
        targets[a].append(b)
        live[b] += 1
    todo = [a for a in range(af.n) if live[a] == 0]
    out = [False] * af.n
    members = 0
    while todo:
        a = todo.pop()
        members |= 1 << a
        for b in targets[a]:
            if not out[b]:
                out[b] = True
                for c in targets[b]:
                    live[c] -= 1
                    if live[c] == 0:
                        todo.append(c)
    return members


def restrict_by_attack_filter(af: ArgumentationFramework, s: int) -> ArgumentationFramework:
    """``restrict`` as it was before it followed the kept rows: a filter over
    every attack of *af*."""
    kept = list(bits(s))
    sub_index = {old: new for new, old in enumerate(kept)}
    pairs = [(sub_index[a], sub_index[b]) for a, b in af.attacks if (s >> a) & 1 and (s >> b) & 1]
    return ArgumentationFramework([af.names[old] for old in kept], pairs)


# -- definitional checkers, keyed by the oracle's semantics codes -------------


def is_conflict_free(af: ArgumentationFramework, s: int) -> bool:
    return af.attacked_set(s) & s == 0


def defends(af: ArgumentationFramework, s: int, a: int) -> bool:
    """True iff every attacker of *a* is attacked by *s*."""
    return af.attackers[a] & ~af.attacked_set(s) == 0


def characteristic(af: ArgumentationFramework, s: int) -> int:
    """The set of arguments defended by *s*."""
    s_plus = af.attacked_set(s)
    out = 0
    for a in range(af.n):
        if af.attackers[a] & ~s_plus == 0:
            out |= 1 << a
    return out


def is_extension(af: ArgumentationFramework, s: int, code: str) -> bool:
    """True iff *s* is an extension of the semantics the oracle calls *code*
    (CF, ADM, CO, ST, NAIVE or PR)."""
    if code == "CF":
        return is_conflict_free(af, s)
    if code == "ADM":
        return is_conflict_free(af, s) and s & ~characteristic(af, s) == 0
    if code == "CO":
        return is_conflict_free(af, s) and characteristic(af, s) == s
    if code == "ST":
        return is_conflict_free(af, s) and (s | af.attacked_set(s)) == af.all_mask
    if code == "NAIVE":
        if not is_conflict_free(af, s):
            return False
        blocked = s | af.attacked_set(s) | af.attackers_of_set(s) | _self_attackers(af)
        return blocked == af.all_mask
    if code == "PR":
        if not (is_conflict_free(af, s) and characteristic(af, s) == s):
            return False
        return find_complete(af, force_in=s, in_clauses=(~s & af.all_mask,)) is None
    raise ValueError(f"unknown semantics code {code!r}")
