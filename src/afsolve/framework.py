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

``parse_apx`` reads every fact with one ``re.split`` and rejects text with
anything but blanks before, between or after the facts.

Argument sets are plain Python ints used as bitmasks: bit ``i`` set means the
argument with index ``i`` is a member.  This gives set algebra (``|``, ``&``,
``& ~``), subset tests and cardinality (``bit_count``) in a handful of machine
operations per word, which is what the search kernel needs.
"""

import re
from typing import Iterable, Iterator, NoReturn, Sequence


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
    arguments attacked by ``i``; both are built straight from the attack pairs,
    given in any order, with repeats, or by a one-shot iterator.  ``attacks``
    lists the pairs sorted and deduplicated; it is derived from ``targets`` on
    first read and cached, and two threads that race there write equal tuples.
    """

    __slots__ = ("n", "names", "_attacks", "attackers", "targets", "all_mask", "_index")

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
        attackers = [0] * n
        targets = [0] * n
        for a, b in attacks:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"attack ({a},{b}) references an index out of range")
            targets[a] |= 1 << b
            attackers[b] |= 1 << a
        self.n = n
        self.names = names
        self._attacks = None
        self.attackers = tuple(attackers)
        self.targets = tuple(targets)
        self.all_mask = (1 << n) - 1
        self._index = index

    @property
    def attacks(self) -> tuple[tuple[int, int], ...]:
        """The (attacker, target) index pairs, by attacker, then by target."""
        if self._attacks is None:
            self._attacks = tuple((a, b) for a, row in enumerate(self.targets) for b in bits(row))
        return self._attacks

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
        pairs = [(sub_index[a], sub_index[b]) for a in kept for b in bits(self.targets[a] & s)]
        return ArgumentationFramework([self.names[old] for old in kept], pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArgumentationFramework):
            return NotImplemented
        return self.names == other.names and self.targets == other.targets

    def __hash__(self) -> int:
        return hash((self.names, self.targets))

    def __repr__(self) -> str:
        return f"ArgumentationFramework(n={self.n}, attacks={len(self.attacks)})"


# In a str pattern, \s is str.isspace: a name character is any other
# character but ( ) , . %.
_NAME_CLASS = r"[^\s(),.%]"
_NAME = f"({_NAME_CLASS}+)"
# One whole fact and the blanks after it.  Comments are removed before the
# split, so every repeat here is over one character class: a failed match
# backtracks in linear time and keeps no per-character state.
_FACT = re.compile(
    rf"(?:arg\s*\(\s*{_NAME}\s*\)|att\s*\(\s*{_NAME}\s*,\s*{_NAME}\s*\))\s*\.\s*"
)
_COMMENT = re.compile(r"%[^\n]*")
_BLANK = re.compile(r"\s*")
_NAME_RUN = re.compile(f"{_NAME_CLASS}*")
_COMMENT_BLANK = re.compile(r"%[^\n]*\s*")


def parse_apx(text: str) -> ArgumentationFramework:
    """Parse apx text into a framework.

    Facts may appear in any order; att facts are validated against the full
    set of arg facts after the whole input has been read.  Duplicate arg facts
    are idempotent and duplicate att facts collapse to one edge.

    Comments are removed first; the tokens around a comment stay apart,
    because it ends at a newline or at the end of the input.  Then one
    ``_FACT.split`` gives each fact as three group pieces (an arg name, or two
    att names) and the gap after it.  Text with anything but blanks before the
    first fact, or a nonempty gap, is read again by ``_raise_first_error``,
    which words its first error; ``ArgumentationFramework.build`` words an
    undeclared att name.
    """
    parts = _FACT.split(_COMMENT.sub("", text))
    if parts[0].strip() or any(parts[4::4]):
        _raise_first_error(text)
    names = tuple(dict.fromkeys(filter(None, parts[1::4])))
    index = dict(zip(names, range(len(names))))
    sources = list(filter(None, parts[2::4]))
    sinks = list(filter(None, parts[3::4]))
    try:
        pairs = zip([*map(index.__getitem__, sources)], [*map(index.__getitem__, sinks)])
    except KeyError:
        pass  # an att fact names an undeclared argument
    else:
        return ArgumentationFramework(names, pairs)
    return ArgumentationFramework.build(names, zip(sources, sinks))


def _raise_first_error(text: str) -> NoReturn:
    """Read apx text the fact split rejected, one token at a time, and raise
    its first error in reading order.  Offsets count in *text*, comments
    included.
    """
    end = len(text)

    def skip_blank(i: int) -> int:
        # one match per comment: a single regex repeating over blanks and
        # comments keeps state for each repeat, so a long run of comment
        # lines would cost memory in proportion to its length
        i = _BLANK.match(text, i).end()
        while text.startswith("%", i):
            i = _COMMENT_BLANK.match(text, i).end()
        return i

    pos = skip_blank(0)
    while pos < end:
        predicate = _NAME_RUN.match(text, pos).group()
        if not predicate:
            raise ApxSyntaxError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = skip_blank(pos + len(predicate))
        if text[pos:pos + 1] != "(":
            raise ApxSyntaxError(f"expected '(' after {predicate!r}")
        arity = 0
        while text[pos] != ")":  # pos is at the "(" or at a ","
            pos = skip_blank(pos + 1)
            term = _NAME_RUN.match(text, pos).group()
            if not term:
                raise EmptyNameError(f"empty argument name in {predicate!r} fact")
            arity += 1
            pos = skip_blank(pos + len(term))
            if pos >= end:
                raise ApxSyntaxError("unterminated fact at end of input")
            if text[pos] not in ",)":
                raise ApxSyntaxError(f"expected ',' or ')' at offset {pos}")
        pos = skip_blank(pos + 1)
        if text[pos:pos + 1] != ".":
            raise ApxSyntaxError(f"missing terminating period after {predicate!r} fact")
        if predicate == "arg":
            if arity != 1:
                raise ApxSyntaxError(f"arg fact takes one name, got {arity}")
        elif predicate == "att":
            if arity != 2:
                raise ApxSyntaxError(f"att fact takes two names, got {arity}")
        else:
            raise ApxSyntaxError(f"unknown predicate {predicate!r}")
        pos = skip_blank(pos + 1)
    raise AssertionError("the fact split rejected well-formed apx text")
