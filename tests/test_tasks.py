import random
from pathlib import Path

import pytest

import afsolve
from afsolve import (
    PROBLEMS,
    Semantics,
    Task,
    TaskSpec,
    UnknownArgumentError,
    UnsupportedTaskError,
    oracle_extensions,
    solve,
)
from afsolve.kernel import grounded
from afsolve.tasks import reduce_to_query
from conftest import build, random_af


def test_every_exported_name_exists():
    for name in afsolve.__all__:
        assert hasattr(afsolve, name), name
    # a stale __all__ entry fails the star import, not the package import
    namespace = {}
    exec("from afsolve import *", namespace)
    assert set(afsolve.__all__) <= set(namespace)


def test_every_exported_name_is_documented():
    """afsolve.__all__ is the surface that README's "Library" section lists,
    each name in backticks."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    undocumented = [name for name in afsolve.__all__ if f"`{name}`" not in library]
    assert not undocumented, undocumented


def test_problem_matrix_is_complete():
    assert len(PROBLEMS) == 30
    assert "EE-CO" in PROBLEMS and "DS-ID" in PROBLEMS


def test_taskspec_validation():
    with pytest.raises(UnsupportedTaskError):
        TaskSpec.from_problem("EE-XX")
    with pytest.raises(UnsupportedTaskError):
        TaskSpec.from_problem("ZZ-CO")
    with pytest.raises(UnsupportedTaskError):
        TaskSpec(Task.DC, Semantics.CO)  # missing query
    with pytest.raises(UnsupportedTaskError):
        TaskSpec(Task.EE, Semantics.CO, "a")  # stray query


def test_unknown_argument():
    af = build(["a"], [])
    with pytest.raises(UnknownArgumentError):
        solve(af, TaskSpec(Task.DC, Semantics.CO, "zzz"))


def test_reduce_to_query():
    af = build(["a", "b", "c"], [("a", "b")])
    sub, q = reduce_to_query(af, af.index_of("b"))
    assert sub.names == ("a", "b")
    assert q == sub.index_of("b")
    sub, q = reduce_to_query(af, af.index_of("a"))
    assert sub.names == ("a",)
    single = build(["a"], [])
    sub, q = reduce_to_query(single, 0)
    assert sub == single and q == 0
    # x sits below q and does not reach it, so q moves down one index
    xab = build(["x", "a", "b"], [("a", "b")])
    sub, q = reduce_to_query(xab, xab.index_of("b"))
    assert sub.names == ("a", "b") and q == 1


def test_solve_examples():
    fig = build(["a", "b"], [("a", "b")])
    assert solve(fig, TaskSpec(Task.EE, Semantics.CO)).extensions == (fig.mask_of(["a"]),)
    cyc = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert solve(cyc, TaskSpec(Task.SE, Semantics.ST)).extension is None
    assert solve(cyc, TaskSpec(Task.DS, Semantics.ST, "a")).verdict is True
    mutual = build(["a", "b"], [("a", "b"), ("b", "a")])
    assert solve(mutual, TaskSpec(Task.CE, Semantics.PR)).count == 2


def test_result_variants_are_consistent():
    rng = random.Random(606)
    for _ in range(150):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.1, 0.25, 0.5]))
        for sem in Semantics:
            ee = solve(af, TaskSpec(Task.EE, sem)).extensions
            exts = set(ee)
            assert len(ee) == len(exts)
            assert solve(af, TaskSpec(Task.CE, sem)).count == len(ee)
            se = solve(af, TaskSpec(Task.SE, sem)).extension
            if se is None:
                assert sem is Semantics.ST and not ee
            else:
                assert se in exts
            for q in range(af.n):
                name = af.names[q]
                dc = solve(af, TaskSpec(Task.DC, sem, name)).verdict
                ds = solve(af, TaskSpec(Task.DS, sem, name)).verdict
                assert dc == any((e >> q) & 1 for e in ee)
                assert ds == all((e >> q) & 1 for e in ee)


def test_solve_matches_oracle():
    rng = random.Random(717)
    for _ in range(150):
        af = random_af(rng, rng.randint(1, 7), rng.choice([0.1, 0.25, 0.5]))
        for sem in Semantics:
            assert set(solve(af, TaskSpec(Task.EE, sem)).extensions) == oracle_extensions(
                af, sem.value
            )


def test_preprocessing_soundness_small():
    rng = random.Random(828)
    for _ in range(120):
        af = random_af(rng, rng.randint(1, 10), rng.choice([0.1, 0.3]))
        for q in range(af.n):
            name = af.names[q]
            for task, sem in [
                (Task.DC, Semantics.CO),
                (Task.DC, Semantics.PR),
                (Task.DC, Semantics.ID),
                (Task.DS, Semantics.PR),
                (Task.DS, Semantics.ID),
            ]:
                spec = TaskSpec(task, sem, name)
                assert solve(af, spec).verdict == solve(af, spec, reduce_queries=False).verdict


def test_dc_co_equals_dc_pr():
    rng = random.Random(929)
    for _ in range(120):
        af = random_af(rng, rng.randint(1, 8), 0.3)
        for q in range(af.n):
            name = af.names[q]
            assert (
                solve(af, TaskSpec(Task.DC, Semantics.CO, name)).verdict
                == solve(af, TaskSpec(Task.DC, Semantics.PR, name)).verdict
            )


def test_ds_co_is_grounded_membership():
    rng = random.Random(111)
    for _ in range(120):
        af = random_af(rng, rng.randint(1, 8), 0.3)
        g = grounded(af)
        for q in range(af.n):
            verdict = solve(af, TaskSpec(Task.DS, Semantics.CO, af.names[q])).verdict
            assert verdict == bool((g >> q) & 1)


def test_ds_st_vacuous_convention():
    loop = build(["a"], [("a", "a")])
    assert solve(loop, TaskSpec(Task.DS, Semantics.ST, "a")).verdict is True
    assert solve(loop, TaskSpec(Task.DC, Semantics.ST, "a")).verdict is False
    assert solve(loop, TaskSpec(Task.SE, Semantics.ST)).extension is None


def test_ideal_tasks_are_singletons():
    rng = random.Random(232)
    for _ in range(40):
        af = random_af(rng, rng.randint(1, 7), 0.3)
        ee = solve(af, TaskSpec(Task.EE, Semantics.ID)).extensions
        assert len(ee) == 1
        assert solve(af, TaskSpec(Task.CE, Semantics.ID)).count == 1
        assert solve(af, TaskSpec(Task.SE, Semantics.ID)).extension == ee[0]
        for q in range(af.n):
            name = af.names[q]
            assert (
                solve(af, TaskSpec(Task.DC, Semantics.ID, name)).verdict
                == solve(af, TaskSpec(Task.DS, Semantics.ID, name)).verdict
            )
