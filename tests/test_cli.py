import random
import re
import subprocess
import sys

import pytest

from afsolve import PROBLEMS, SolveResult, Task, parse_apx
from afsolve.cli import format_output, main
from conftest import random_af, to_apx

FIG = "arg(a). arg(b). att(a,b).\n"


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.apx"
    path.write_text(FIG)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formats(capsys):
    code, out, err = run_cli(["--formats"], capsys)
    assert code == 0
    assert out == "[apx]\n"
    assert err == ""


def test_problems(capsys):
    code, out, _ = run_cli(["--problems"], capsys)
    assert code == 0
    listed = out.strip().strip("[]").split(",")
    assert len(listed) == 30
    expected = {
        f"{t}-{s}"
        for t in ("SE", "EE", "CE", "DC", "DS")
        for s in ("CO", "PR", "ST", "SST", "STG", "ID")
    }
    assert set(listed) == expected


@pytest.mark.parametrize("problem", ["EE-CO", "EE-PR", "EE-ST"])
def test_fig_enumeration(problem, fig_file, capsys):
    code, out, err = run_cli(["-p", problem, "-f", fig_file, "-fo", "apx"], capsys)
    assert code == 0
    assert out == "[[a]]\n"
    assert err == ""


def test_fig_some_extension(fig_file, capsys):
    code, out, _ = run_cli(["-p", "SE-CO", "-f", fig_file, "-fo", "apx"], capsys)
    assert code == 0
    assert out == "[a]\n"


def test_fig_credulous(fig_file, capsys):
    code, out, _ = run_cli(["-p", "DC-CO", "-f", fig_file, "-fo", "apx", "-a", "a"], capsys)
    assert (code, out) == (0, "YES\n")
    code, out, _ = run_cli(["-p", "DC-CO", "-f", fig_file, "-fo", "apx", "-a", "b"], capsys)
    assert (code, out) == (0, "NO\n")


def test_no_stable_extension_prints_no(tmp_path, capsys):
    path = tmp_path / "loop.apx"
    path.write_text("arg(a). att(a,a).\n")
    code, out, _ = run_cli(["-p", "SE-ST", "-f", str(path), "-fo", "apx"], capsys)
    assert (code, out) == (0, "NO\n")
    code, out, _ = run_cli(["-p", "EE-ST", "-f", str(path), "-fo", "apx"], capsys)
    assert (code, out) == (0, "[]\n")


def test_empty_extension_formatting():
    af = parse_apx("arg(a). att(a,a).")
    result = SolveResult(Task.EE, extensions=(0,))
    assert format_output(result, af) == "[[]]"
    assert format_output(SolveResult(Task.DC, verdict=True), af) == "YES"
    assert format_output(SolveResult(Task.DS, verdict=False), af) == "NO"
    assert format_output(SolveResult(Task.CE, count=12), af) == "12"


def test_count_output(fig_file, capsys):
    code, out, _ = run_cli(["-p", "CE-CO", "-f", fig_file, "-fo", "apx"], capsys)
    assert (code, out) == (0, "1\n")


def test_oracle_backend(fig_file, capsys):
    code, out, _ = run_cli(["--oracle", "-p", "EE-SST", "-f", fig_file, "-fo", "apx"], capsys)
    assert (code, out) == (0, "[[a]]\n")


def extension_set(line):
    """The extensions of an EE output line, as a set of bracketed names."""
    return set(re.findall(r"\[[^\[\]]*\]", line.strip()[1:-1]))


def test_oracle_backend_agrees_with_the_search(tmp_path, capsys):
    """Every problem through main() with and without --oracle, on seeded
    frameworks of at most 8 arguments: the same DC, DS, CE and EE lines, and
    an SE answer among the oracle's extensions."""
    rng = random.Random(2121)
    for k in range(12):
        af = random_af(rng, rng.randint(1, 8), rng.choice([0.15, 0.3, 0.5]))
        path = tmp_path / f"af{k}.apx"
        path.write_text(to_apx(af))
        query = af.names[rng.randrange(af.n)]
        for problem in PROBLEMS:
            argv = ["-p", problem, "-f", str(path), "-fo", "apx"]
            if problem.startswith(("DC", "DS")):
                argv += ["-a", query]
            code, got, _ = run_cli(argv, capsys)
            oracle_code, want, _ = run_cli(["--oracle"] + argv, capsys)
            where = (problem, query, af.attacks)
            assert code == oracle_code == 0, where
            if problem.startswith("EE"):
                assert got == want, where
            elif problem.startswith("SE"):
                argv[1] = "EE" + problem[2:]
                _, every, _ = run_cli(["--oracle"] + argv, capsys)
                if extension_set(every):
                    assert got.strip() in extension_set(every), where
                else:
                    assert got == want == "NO\n", where
            else:
                assert got == want, where


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-p", "EE-CO"],
        ["-p", "EE-CO", "-f", "nosuchfile.apx", "-fo", "apx"],
        ["-p", "EE-XX", "-f", "FILE", "-fo", "apx"],
        ["-p", "EE-CO", "-f", "FILE", "-fo", "tgf"],
        ["-p", "DC-CO", "-f", "FILE", "-fo", "apx"],          # missing -a
        ["-p", "EE-CO", "-f", "FILE", "-fo", "apx", "-a", "a"],  # stray -a
        ["--nonsense"],
        ["-p", "EE-CO", "-f", "BADFILE", "-fo", "apx"],       # not UTF-8
    ],
)
def test_malformed_invocations(argv, fig_file, tmp_path, capsys):
    bad = tmp_path / "bad.apx"
    bad.write_bytes(b"arg(a).\xff")
    argv = [{"FILE": fig_file, "BADFILE": str(bad)}.get(a, a) for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code != 0
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "problem, message",
    [("DC-CO", "requires a query argument"), ("EE-XX", "unsupported task")],
)
def test_task_errors_come_before_reading_the_file(problem, message, tmp_path, capsys):
    missing = str(tmp_path / "nosuch.apx")
    code, out, err = run_cli(["-p", problem, "-f", missing, "-fo", "apx"], capsys)
    assert code != 0 and out == ""
    assert message in err
    assert "cannot read" not in err


def test_bad_query_and_bad_apx(tmp_path, capsys):
    path = tmp_path / "bad.apx"
    path.write_text("att(a,b).")
    code, _, err = run_cli(["-p", "EE-CO", "-f", str(path), "-fo", "apx"], capsys)
    assert code != 0 and "undeclared" in err
    good = tmp_path / "good.apx"
    good.write_text(FIG)
    code, _, err = run_cli(["-p", "DC-CO", "-f", str(good), "-fo", "apx", "-a", "zz"], capsys)
    assert code != 0 and "unknown argument" in err


def test_file_is_read_with_its_own_line_ends(fig_file, tmp_path, capsys):
    # a lone \r does not end a comment, so r stays undeclared
    path = tmp_path / "cr.apx"
    path.write_bytes(b"arg(a).\n% note\rarg(r).\natt(a,r).\n")
    code, out, err = run_cli(["-p", "EE-CO", "-f", str(path), "-fo", "apx"], capsys)
    assert (code, out) == (1, "")
    assert err == "afsolve: att references undeclared argument 'r'\n"
    crlf = tmp_path / "crlf.apx"
    crlf.write_bytes(FIG.replace("\n", "\r\n").encode())
    for problem, query in [("EE-CO", []), ("SE-PR", []), ("CE-ST", []), ("DC-CO", ["-a", "a"])]:
        argv = ["-p", problem, "-fo", "apx", *query]
        assert run_cli([*argv, "-f", str(crlf)], capsys) == run_cli([*argv, "-f", fig_file], capsys)


def test_module_invocation_subprocess(fig_file):
    proc = subprocess.run(
        [sys.executable, "-m", "afsolve", "-p", "EE-CO", "-f", fig_file, "-fo", "apx"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "[[a]]\n"


def test_repeated_runs_are_byte_identical(fig_file, capsys):
    for problem in ["EE-CO", "SE-PR", "CE-ST", "EE-SST", "EE-STG", "SE-ID"]:
        code1, out1, _ = run_cli(["-p", problem, "-f", fig_file, "-fo", "apx"], capsys)
        code2, out2, _ = run_cli(["-p", problem, "-f", fig_file, "-fo", "apx"], capsys)
        assert (code1, out1) == (code2, out2)
