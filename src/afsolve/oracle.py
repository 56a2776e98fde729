"""Exhaustive reference implementations of every semantics.

Everything here scans all 2^n subsets and applies the textbook definitions
literally, sharing nothing with the search kernel beyond the framework
accessors.  It exists to be slow, obvious, and right; the test suites compare
the kernel against it on small frameworks.
"""

from .framework import ArgumentationFramework

SEMANTICS_CODES = ("CO", "PR", "ST", "SST", "STG", "ID", "GR", "NAIVE", "ADM", "CF")

MAX_ORACLE_ARGS = 20


class TooLargeError(ValueError):
    """Framework exceeds the subset-scan size limit."""


def _conflict_free_sets(af: ArgumentationFramework) -> list[int]:
    out = []
    for s in range(1 << af.n):
        if all(not ((s >> a) & 1 and (s >> b) & 1) for a, b in af.attacks):
            out.append(s)
    return out


def _is_attacked_by(af: ArgumentationFramework, s: int, x: int) -> bool:
    return any((s >> a) & 1 and b == x for a, b in af.attacks)


def _defends(af: ArgumentationFramework, s: int, x: int) -> bool:
    return all(not b == x or _is_attacked_by(af, s, a) for a, b in af.attacks)


def _admissible_sets(af: ArgumentationFramework) -> list[int]:
    return [
        s
        for s in _conflict_free_sets(af)
        if all(not (s >> x) & 1 or _defends(af, s, x) for x in range(af.n))
    ]


def _complete_sets(af: ArgumentationFramework) -> list[int]:
    out = []
    for s in _admissible_sets(af):
        if all((s >> x) & 1 == (1 if _defends(af, s, x) else 0) for x in range(af.n)):
            out.append(s)
    return out


def _stable_sets(af: ArgumentationFramework) -> list[int]:
    out = []
    for s in _conflict_free_sets(af):
        if all((s >> x) & 1 or _is_attacked_by(af, s, x) for x in range(af.n)):
            out.append(s)
    return out


def _range_of(af: ArgumentationFramework, s: int) -> int:
    r = s
    for a, b in af.attacks:
        if (s >> a) & 1:
            r |= 1 << b
    return r


def _maximal(sets: list[int]) -> list[int]:
    return [s for s in sets if not any(s != t and s & t == s for t in sets)]


def _maximal_by_range(af: ArgumentationFramework, sets: list[int]) -> list[int]:
    ranges = {s: _range_of(af, s) for s in sets}
    return [
        s
        for s in sets
        if not any(ranges[s] != ranges[t] and ranges[s] & ranges[t] == ranges[s] for t in sets)
    ]


def _ideal_set(af: ArgumentationFramework) -> int:
    admissible = _admissible_sets(af)
    preferred = _maximal(admissible)
    meet = af.all_mask
    for p in preferred:
        meet &= p
    candidates = [s for s in admissible if s & meet == s]
    best = max(candidates, key=lambda s: s.bit_count())
    assert all(s & best == s for s in candidates), "ideal candidates are not a chain top"
    return best


def _grounded_set(af: ArgumentationFramework) -> int:
    complete = _complete_sets(af)
    least = [s for s in complete if all(s & t == s for t in complete)]
    assert len(least) == 1, "grounded extension must be the unique least complete set"
    return least[0]


def oracle_extensions(af: ArgumentationFramework, semantics: str) -> set[int]:
    """All extensions of *semantics* as a set of bitmasks, by brute force."""
    if af.n > MAX_ORACLE_ARGS:
        raise TooLargeError(f"oracle limited to {MAX_ORACLE_ARGS} arguments, got {af.n}")
    if semantics == "CF":
        return set(_conflict_free_sets(af))
    if semantics == "ADM":
        return set(_admissible_sets(af))
    if semantics == "CO":
        return set(_complete_sets(af))
    if semantics == "PR":
        return set(_maximal(_admissible_sets(af)))
    if semantics == "ST":
        return set(_stable_sets(af))
    if semantics == "NAIVE":
        return set(_maximal(_conflict_free_sets(af)))
    if semantics == "SST":
        return set(_maximal_by_range(af, _complete_sets(af)))
    if semantics == "STG":
        return set(_maximal_by_range(af, _conflict_free_sets(af)))
    if semantics == "ID":
        return {_ideal_set(af)}
    if semantics == "GR":
        return {_grounded_set(af)}
    raise ValueError(f"unknown semantics code {semantics!r}")

