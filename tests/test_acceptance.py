"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets are asserted where stated; the performance smoke test only flags
overruns instead of failing, since there is no reference baseline for it.
"""

import functools
import random
import subprocess
import sys
import time

import afsolve as af_mod
from afsolve import Semantics, Task, TaskSpec, oracle_extensions, solve
from afsolve.cli import main
from afsolve.ideal import ideal_extension
from afsolve.kernel import complete_extensions, grounded, preferred_extensions
from afsolve.ranges import semi_stable_all, stage_all
from conftest import all_three_arg_frameworks, naive_sets_unbounded, random_af

FIG = "arg(a). arg(b). att(a,b).\n"


def _announce(line: str) -> None:
    # shown in the terminal summary regardless of output capture
    import conftest

    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def criterion(num, desc, budget=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
                elapsed = time.monotonic() - start
                if budget is not None and elapsed >= budget:
                    raise AssertionError(
                        f"runtime {elapsed:.1f}s exceeds the {budget}s budget"
                    )
            except BaseException:
                elapsed = time.monotonic() - start
                _announce(f"criterion {num} [{desc}]: FAIL ({elapsed:.1f}s)")
                raise
            _announce(f"criterion {num} [{desc}]: PASS ({elapsed:.1f}s)")

        return wrapper

    return deco


def _run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@criterion(1, "fig1 end to end", budget=1.0)
def test_criterion_1_fig1_end_to_end(tmp_path, capsys):
    path = tmp_path / "fig1.apx"
    path.write_text(FIG)
    f = str(path)
    for problem in ("EE-CO", "EE-PR", "EE-ST"):
        assert _run_cli(["-p", problem, "-f", f, "-fo", "apx"], capsys) == (0, "[[a]]\n", "")
    assert _run_cli(["-p", "SE-CO", "-f", f, "-fo", "apx"], capsys) == (0, "[a]\n", "")
    assert _run_cli(["-p", "DC-CO", "-f", f, "-fo", "apx", "-a", "a"], capsys) == (0, "YES\n", "")
    assert _run_cli(["-p", "DC-CO", "-f", f, "-fo", "apx", "-a", "b"], capsys) == (0, "NO\n", "")


@criterion(2, "oracle equivalence, exhaustive n=3", budget=60.0)
def test_criterion_2_oracle_exhaustive():
    for af in all_three_arg_frameworks():
        for sem in Semantics:
            got = set(solve(af, TaskSpec(Task.EE, sem)).extensions)
            assert got == oracle_extensions(af, sem.value), (af.attacks, sem)


@criterion(3, "oracle equivalence, randomized n=4..7", budget=600.0)
def test_criterion_3_oracle_randomized():
    rng = random.Random(20210902)
    for n in (4, 5, 6, 7):
        for _ in range(1000):
            p = rng.choice([0.1, 0.25, 0.5])
            af = random_af(rng, n, p)
            for sem in Semantics:
                exts = oracle_extensions(af, sem.value)
                ee = solve(af, TaskSpec(Task.EE, sem)).extensions
                assert set(ee) == exts and len(ee) == len(exts)
                se = solve(af, TaskSpec(Task.SE, sem)).extension
                if se is None:
                    assert sem is Semantics.ST and not exts
                else:
                    assert se in exts
                assert solve(af, TaskSpec(Task.CE, sem)).count == len(exts)
                for q in range(af.n):
                    name = af.names[q]
                    dc = solve(af, TaskSpec(Task.DC, sem, name)).verdict
                    ds = solve(af, TaskSpec(Task.DS, sem, name)).verdict
                    assert dc == any((e >> q) & 1 for e in exts)
                    assert ds == all((e >> q) & 1 for e in exts)


@criterion(4, "preprocessing soundness n=10..40")
def test_criterion_4_preprocessing_soundness():
    rng = random.Random(19441)
    tasks = [
        (Task.DC, Semantics.CO),
        (Task.DC, Semantics.PR),
        (Task.DC, Semantics.ID),
        (Task.DS, Semantics.PR),
    ]
    for _ in range(500):
        n = rng.randint(10, 40)
        p = rng.choice([0.05, 0.1, 0.2])
        af = random_af(rng, n, p)
        for q in range(af.n):
            name = af.names[q]
            for task, sem in tasks:
                spec = TaskSpec(task, sem, name)
                with_reduction = solve(af, spec).verdict
                without = solve(af, spec, reduce_queries=False).verdict
                assert with_reduction == without, (af.attacks, task, sem, name)


@criterion(5, "inclusion and coincidence n<=60", budget=300.0)
def test_criterion_5_inclusion_at_scale():
    rng = random.Random(50505)
    for _ in range(200):
        n = rng.randint(1, 60)
        p = rng.choice([0.1, 0.25, 0.5])
        af = random_af(rng, n, p)
        st = set(complete_extensions(af, notundec=af.all_mask))
        co = set(complete_extensions(af))
        pr = set(preferred_extensions(af))
        naive = set(naive_sets_unbounded(af))
        sst = set(semi_stable_all(af))
        stg = set(stage_all(af))
        assert st <= sst <= pr <= co
        assert st <= stg <= naive
        g = grounded(af)
        ideal = ideal_extension(af)
        meet = af.all_mask
        for e in pr:
            meet &= e
        assert g & ~ideal == 0
        assert ideal & ~meet == 0
        if st:
            assert sst == st
            assert stg == st


@criterion(6, "determinism: byte-identical reruns")
def test_criterion_6_determinism(tmp_path, capsys):
    rng = random.Random(66066)
    instances = [
        ("fig1", FIG),
        ("loop", "arg(a). att(a,a).\n"),
        ("cycle", "arg(a). arg(b). arg(c). att(a,b). att(b,c). att(c,a).\n"),
    ]
    for label, n, p in (("r12", 12, 0.2), ("r18", 18, 0.15), ("r25", 25, 0.1)):
        instances.append((label, random_af(rng, n, p).to_apx()))
    for label, text in instances:
        path = tmp_path / f"{label}.apx"
        path.write_text(text)
        first_arg = af_mod.parse_apx(text).names[0]
        for problem in af_mod.PROBLEMS:
            argv = ["-p", problem, "-f", str(path), "-fo", "apx"]
            if problem.startswith(("DC-", "DS-")):
                argv += ["-a", first_arg]
            runs = [_run_cli(argv, capsys) for _ in range(2)]
            assert runs[0] == runs[1], (label, problem)
            assert runs[0][0] == 0


@criterion(7, "performance smoke (flagged, not blocking)")
def test_criterion_7_performance_smoke():
    rng = random.Random(70707)
    af = random_af(rng, 300, 0.02)
    flagged = []

    start = time.monotonic()
    solve(af, TaskSpec(Task.DC, Semantics.CO, af.names[0]))
    dc_time = time.monotonic() - start
    if dc_time >= 10.0:
        flagged.append(f"DC-CO n=300 took {dc_time:.1f}s (budget 10s)")

    start = time.monotonic()
    solve(af, TaskSpec(Task.SE, Semantics.PR))
    se_time = time.monotonic() - start
    if se_time >= 10.0:
        flagged.append(f"SE-PR n=300 took {se_time:.1f}s (budget 10s)")

    af_small = random_af(rng, 100, 0.02)
    start = time.monotonic()
    solve(af_small, TaskSpec(Task.EE, Semantics.ST))
    ee_time = time.monotonic() - start
    if ee_time >= 30.0:
        flagged.append(f"EE-ST n=100 took {ee_time:.1f}s (budget 30s)")

    for line in flagged:
        _announce(f"criterion 7 FLAGGED: {line}")


@criterion(8, "cli conformance")
def test_criterion_8_cli_conformance(tmp_path, capsys):
    code, out, err = _run_cli(["--problems"], capsys)
    assert code == 0 and err == ""
    listed = out.strip().strip("[]").split(",")
    assert sorted(listed) == sorted(af_mod.PROBLEMS)
    assert len(listed) == 30

    path = tmp_path / "fig1.apx"
    path.write_text(FIG)
    f = str(path)
    negative = [
        [],
        ["-p", "EE-CO"],
        ["-p", "EE-CO", "-f", f],
        ["-p", "EE-CO", "-f", "missing.apx", "-fo", "apx"],
        ["-p", "EE-XX", "-f", f, "-fo", "apx"],
        ["-p", "XX-CO", "-f", f, "-fo", "apx"],
        ["-p", "EE-CO", "-f", f, "-fo", "tgf"],
        ["-p", "DC-CO", "-f", f, "-fo", "apx"],
        ["-p", "EE-CO", "-f", f, "-fo", "apx", "-a", "a"],
        ["-p", "DC-CO", "-f", f, "-fo", "apx", "-a", "nosucharg"],
        ["--bogus-flag"],
    ]
    for argv in negative:
        code, out, err = _run_cli(argv, capsys)
        assert code != 0, argv
        assert out == "", argv
        assert err.endswith("\n") and err.count("\n") == 1, argv


def test_installed_entry_point_matches_module(tmp_path):
    path = tmp_path / "fig1.apx"
    path.write_text(FIG)
    proc = subprocess.run(
        [sys.executable, "-m", "afsolve", "-p", "EE-CO", "-f", str(path), "-fo", "apx"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "[[a]]\n"
