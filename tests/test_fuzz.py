"""Seeded mutation fuzzing of the apx parser and the command line.

Valid apx text is edited by random inserts, deletions and replacements,
including comment markers, carriage returns, NUL and non-ASCII characters.
``parse_apx`` must either return a framework or raise ``ApxError``, and a
failing ``main`` must return nonzero with exactly one line on stderr.
"""

import random

from afsolve import ApxError, ArgumentationFramework, parse_apx
from afsolve.cli import main

SEEDS = (
    "arg(a). arg(b). arg(c).\natt(a,b). att(b,c). att(c,a).\n",
    "% a comment\narg(x1).arg(x2).att(x1,x2).att(x2,x2).\r\n",
    "arg( p ) .\n\targ(q).\natt(p , q).  % trailing\n",
    "",
)
PIECES = tuple("arg(),.att%pq \t\n\r\x00\x85 é∀_-0") + ("arg(", "att(", ").", "%\n")


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, len(text))
        kind = rng.randrange(3)
        if kind == 0 or not text:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + rng.randint(1, 3):]
        else:
            text = text[:i] + rng.choice(PIECES) + text[i + 1:]
    return text


def test_parse_apx_returns_a_framework_or_raises_apx_error():
    rng = random.Random(2024)
    for _ in range(20000):
        text = mutate(rng, rng.choice(SEEDS))
        try:
            af = parse_apx(text)
        except ApxError:
            continue
        assert isinstance(af, ArgumentationFramework), repr(text)


def test_failing_main_prints_one_stderr_line(tmp_path, capsys):
    rng = random.Random(2025)
    path = tmp_path / "fuzz.apx"
    for _ in range(2000):
        text = mutate(rng, rng.choice(SEEDS))
        path.write_text(text, encoding="utf-8", newline="")
        problem = rng.choice(["SE-CO", "EE-PR", "CE-ST", "SE-ID", "DC-CO", "DS-PR"])
        argv = ["-p", problem, "-f", str(path), "-fo", "apx"]
        if problem.startswith(("DC", "DS")):
            argv += ["-a", "a"]
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 0:
            assert out.endswith("\n") and err == "", repr(text)
        else:
            assert out == "", repr(text)
            assert err.endswith("\n") and len(err.splitlines()) == err.count("\n") == 1, repr(text)
