"""Argumentation frameworks: the apx input format and the attack graph model.

An argumentation framework is a finite directed graph whose vertices are
arguments and whose edges are attacks.  Frameworks are built either from apx
text or directly from a name list plus attack pairs.

The apx grammar, exactly as ``parse_apx`` reads it:

- the input is a sequence of facts ``arg(NAME).`` and ``att(NAME,NAME).``,
  in any order;
- a NAME is one or more characters other than whitespace (``str.isspace``)
  and ``( ) , . %``;
- blanks (whitespace and comments) may appear between any two tokens,
  including between a predicate and its ``(``;
- a comment runs from ``%`` up to the next ``\n`` or the end of the input;
  only ``\n`` ends a comment.

Argument sets are plain Python ints used as bitmasks: bit ``i`` set means the
argument with index ``i`` is a member.  This gives set algebra (``|``, ``&``,
``& ~``), subset tests and cardinality (``bit_count``) in a handful of machine
operations per word, which is what the search kernel needs.
"""

import re
from typing import Iterable, Iterator, Sequence


class ApxError(ValueError):
    """Base class for apx parsing failures."""


class ApxSyntaxError(ApxError):
    """Malformed fact: bad predicate, wrong arity, or missing terminator."""


class EmptyNameError(ApxError):
    """A fact contains an empty argument name, e.g. ``arg().``."""


class UndeclaredArgumentError(ApxError):
    """An att fact references a name with no arg fact anywhere in the input."""


def bits(mask: int) -> Iterator[int]:
    """Yield the indices set in *mask*, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of_indices(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def canonical_key(mask: int, n: int) -> int:
    """Sort key realizing the canonical extension order.

    Extensions are ordered lexicographically by their membership word over
    ascending indices (absent < present), which is the numeric order of the
    bit-reversed mask.  *mask* must lie within the *n* arguments.
    """
    return int(format(mask, f"0{n}b")[::-1], 2) if n else 0


class ArgumentationFramework:
    """Immutable directed attack graph over interned arguments.

    Arguments carry dense indices 0..n-1 in declaration order.  ``attackers[i]``
    is the bitmask of arguments attacking ``i``; ``targets[i]`` the bitmask of
    arguments attacked by ``i``.  ``attacks`` lists the (attacker, target)
    index pairs, deduplicated and sorted.
    """

    __slots__ = ("n", "names", "attacks", "attackers", "targets", "all_mask", "_index")

    def __init__(self, names: Sequence[str], attacks: Iterable[tuple[int, int]]):
        names = tuple(names)
        index: dict[str, int] = {}
        for i, name in enumerate(names):
            if not name:
                raise EmptyNameError("argument names must be nonempty")
            if name in index:
                raise ValueError(f"duplicate argument name {name!r}")
            index[name] = i
        n = len(names)
        pairs = sorted(set(attacks))
        attackers = [0] * n
        targets = [0] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"attack ({a},{b}) references an index out of range")
            targets[a] |= 1 << b
            attackers[b] |= 1 << a
        self.n = n
        self.names = names
        self.attacks = tuple(pairs)
        self.attackers = tuple(attackers)
        self.targets = tuple(targets)
        self.all_mask = (1 << n) - 1
        self._index = index

    @classmethod
    def build(cls, names: Sequence[str], named_attacks: Iterable[tuple[str, str]]) -> "ArgumentationFramework":
        """Construct from argument names and (attacker name, target name) pairs."""
        index = {name: i for i, name in enumerate(names)}
        pairs = []
        for a, b in named_attacks:
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise UndeclaredArgumentError(f"att references undeclared argument {missing!r}")
            pairs.append((index[a], index[b]))
        return cls(names, pairs)

    def index_of(self, name: str) -> int:
        """Index of *name*; raises KeyError if not declared."""
        return self._index[name]

    def mask_of(self, names: Iterable[str]) -> int:
        return mask_of_indices(self._index[name] for name in names)

    def names_of(self, mask: int) -> list[str]:
        return [self.names[i] for i in bits(mask)]

    def attacked_set(self, s: int) -> int:
        """Arguments attacked by some member of *s* (the set S+)."""
        targets = self.targets
        out = 0
        while s:
            low = s & -s
            s ^= low
            out |= targets[low.bit_length() - 1]
        return out

    def attackers_of_set(self, s: int) -> int:
        """Arguments attacking some member of *s*."""
        out = 0
        for i in bits(s):
            out |= self.attackers[i]
        return out

    def reverse_reachable(self, q: int) -> int:
        """Arguments with a directed path to *q*, including *q* itself."""
        seen = 1 << q
        frontier = seen
        while frontier:
            grown = 0
            for i in bits(frontier):
                grown |= self.attackers[i]
            frontier = grown & ~seen
            seen |= frontier
        return seen

    def restrict(self, s: int) -> "ArgumentationFramework":
        """Induced sub-framework on the members of *s*, in index order."""
        if s == self.all_mask:
            return self
        kept = list(bits(s))
        sub_index = {old: new for new, old in enumerate(kept)}
        names = [self.names[old] for old in kept]
        pairs = [
            (sub_index[a], sub_index[b])
            for a, b in self.attacks
            if (s >> a) & 1 and (s >> b) & 1
        ]
        return ArgumentationFramework(names, pairs)

    def to_apx(self) -> str:
        lines = [f"arg({name})." for name in self.names]
        lines += [f"att({self.names[a]},{self.names[b]})." for a, b in self.attacks]
        return "\n".join(lines) + ("\n" if lines else "")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArgumentationFramework):
            return NotImplemented
        return self.names == other.names and self.attacks == other.attacks

    def __hash__(self) -> int:
        return hash((self.names, self.attacks))

    def __repr__(self) -> str:
        return f"ArgumentationFramework(n={self.n}, attacks={len(self.attacks)})"


_NAME_FORBIDDEN = frozenset("(),.%")


def _is_name_char(ch: str) -> bool:
    return ch not in _NAME_FORBIDDEN and not ch.isspace()


# In a str pattern, \s is str.isspace, so this class is _is_name_char.
_NAME_CLASS = r"[^\s(),.%]"
_NAME = f"({_NAME_CLASS}+)"
# One whole fact and the blanks after it.  Comments are removed before the
# scan, so every repeat here is over one character class: a failed match
# backtracks in linear time and keeps no per-character state.
_FACT = re.compile(
    rf"(?:arg\s*\(\s*{_NAME}\s*\)|att\s*\(\s*{_NAME}\s*,\s*{_NAME}\s*\))\s*\.\s*"
)
_COMMENT = re.compile(r"%[^\n]*")
_BLANK = re.compile(r"\s*")


def parse_apx(text: str) -> ArgumentationFramework:
    """Parse apx text into a framework.

    Facts may appear in any order; att facts are validated against the full
    set of arg facts after the whole input has been read.  Duplicate arg facts
    are idempotent and duplicate att facts collapse to one edge.

    Comments are removed first; the tokens around a comment stay apart,
    because it ends at a newline or at the end of the input.  Then each
    fact is read by one match of ``_FACT`` anchored where the previous one
    ended.  Input the scan rejects is read again by ``_parse_by_chars``,
    which words the error.
    """
    scanned = _COMMENT.sub("", text)
    match = _FACT.match
    index: dict[str, int] = {}
    att_facts: list[tuple[str, str]] = []
    pos = _BLANK.match(scanned).end()
    end = len(scanned)
    while pos < end:
        fact = match(scanned, pos)
        if fact is None:
            return _parse_by_chars(text)
        name, a, b = fact.groups()
        if name is None:
            att_facts.append((a, b))
        elif name not in index:
            index[name] = len(index)
        pos = fact.end()
    try:
        pairs = [(index[a], index[b]) for a, b in att_facts]
    except KeyError:
        pass  # an att fact names an undeclared argument
    else:
        return ArgumentationFramework(tuple(index), pairs)
    return _parse_by_chars(text)


def _parse_by_chars(text: str) -> ArgumentationFramework:
    """Read apx text one character at a time.

    ``parse_apx`` calls this only on input its scan rejected, and on such
    input it raises the first error in reading order.
    """
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

    return ArgumentationFramework.build(names, att_facts)
