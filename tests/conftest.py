import itertools
import random
import sys

import pytest

from afsolve import ArgumentationFramework

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
