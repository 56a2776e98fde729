"""Seeded instance generators and the four benchmark workloads.

Every instance is generated in code from the workload seed, in the
Erdős–Rényi style of AFBenchGen2 (Cerutti, Giacomin & Vallati, 2016), plus
plain attack chains.  Arguments are named ``a0 .. a{n-1}`` and declared in
index order, so a bitmask returned by afsolve for a parsed instance uses the
same indices as the generator.
"""

import os
import random
from dataclasses import dataclass

TASKS = ("SE", "EE", "CE", "DC", "DS")
SEMANTICS = ("CO", "PR", "ST", "SST", "STG", "ID")
ALL_PROBLEMS = tuple(f"{t}-{s}" for t in TASKS for s in SEMANTICS)

# Solve lists, sized on one core of a 2-core Xeon.  Instance hardness
# varies, so each pass holds many distinct instances: that keeps the seed's
# share of the spread of wall_s and the percentiles small.  er-search,
# ideal-medium and apx-large passes take about 6 s, so a run times each solve
# in several passes and its medians step over a slow phase of the machine.
# A batch-small pass takes 15-20 s: its slowest 1% are stage problems on a
# few hard frameworks, and only the full grid of 372 keeps its p99 steady
# from seed to seed.
BATCH_FRAMEWORKS = 372  # four per (n, density) pair
ER_SEARCH_INSTANCES = 140
ER_SEARCH_N = 70
IDEAL_ER_INSTANCES = 242  # 22 per n; see ideal_medium
IDEAL_N = (30, 40)
IDEAL_CHAIN_N = 500
IDEAL_CHAINS = 3
APX_LARGE_INSTANCES = 14
APX_LARGE_N = 2500
APX_LARGE_DEGREE = 2.5

ER_SEARCH_PROBLEMS = ("SE-PR", "DS-PR", "SE-SST", "DC-SST", "DC-CO", "EE-ST")
IDEAL_PROBLEMS = ("SE-ID", "DC-ID", "DS-ID")
APX_LARGE_PROBLEMS = ("SE-CO", "DS-CO", "SE-ST", "EE-ST", "DC-CO")


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    attacks: tuple[tuple[int, int], ...]
    query: int

    def apx(self) -> str:
        lines = [f"arg(a{i})." for i in range(self.n)]
        lines += [f"att(a{a},a{b})." for a, b in self.attacks]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Solve:
    instance: int
    problem: str

    def query_name(self, inst: Instance) -> str | None:
        return f"a{inst.query}" if self.problem[:2] in ("DC", "DS") else None


@dataclass
class Workload:
    name: str
    instances: list[Instance]
    solves: list[Solve]
    cli: bool = False  # run each solve through afsolve.cli.main on an apx file


def er_gnp(rng: random.Random, n: int, p: float) -> tuple[tuple[int, int], ...]:
    """Each ordered pair, self-attacks included, is an attack with
    probability p (the generator of the test suite's ``random_af``)."""
    return tuple((i, j) for i in range(n) for j in range(n) if rng.random() < p)


def er_gnm(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    """m distinct ordered pairs drawn uniformly; linear time for sparse n."""
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        pairs.add((rng.randrange(n), rng.randrange(n)))
    return tuple(sorted(pairs))


def chain(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(n - 1))


def _instance(rng: random.Random, name: str, n: int, attacks) -> Instance:
    return Instance(name, n, attacks, rng.randrange(n))


def batch_small(rng: random.Random) -> Workload:
    # sizes and densities follow a fixed grid (every n in 10..40 with every
    # density) so that a seed changes the graphs, not the size mix
    instances = []
    for k in range(BATCH_FRAMEWORKS):
        n = 10 + (k // 3) % 31
        p = (0.05, 0.1, 0.2)[k % 3]
        instances.append(_instance(rng, f"er-n{n}-p{p}-{k}", n, er_gnp(rng, n, p)))
    solves = [Solve(i, p) for i in range(len(instances)) for p in ALL_PROBLEMS]
    return Workload("batch-small", instances, solves)


def er_search(rng: random.Random) -> Workload:
    n = ER_SEARCH_N
    instances = [
        _instance(rng, f"er-n{n}-d6-{k}", n, er_gnp(rng, n, 6 / n))
        for k in range(ER_SEARCH_INSTANCES)
    ]
    solves = [Solve(i, p) for i in range(len(instances)) for p in ER_SEARCH_PROBLEMS]
    return Workload("er-search", instances, solves)


def ideal_medium(rng: random.Random) -> Workload:
    # Many small ER frameworks keep the per-solve median steady from seed to
    # seed.  The chains are the same for every seed and give the 9 slowest
    # solves, more than 1% of them, so the 99th percentile falls on chain
    # solves; they are spread over the list, so they are timed in different
    # parts of a pass.
    lo, hi = IDEAL_N
    er = []
    for k in range(IDEAL_ER_INSTANCES):
        n = lo + k % (hi - lo + 1)
        er.append(_instance(rng, f"er-n{n}-d5-{k}", n, er_gnp(rng, n, 5 / n)))
    instances = []
    step = len(er) // IDEAL_CHAINS
    n = IDEAL_CHAIN_N
    for k in range(IDEAL_CHAINS):
        instances += er[k * step:(k + 1) * step]
        # the query is the chain's last argument, so the reduction for DC-ID
        # keeps the whole chain
        instances.append(Instance(f"chain-n{n}-{k}", n, chain(n), n - 1))
    instances += er[IDEAL_CHAINS * step:]
    solves = [Solve(i, p) for i in range(len(instances)) for p in IDEAL_PROBLEMS]
    return Workload("ideal-medium", instances, solves)


def apx_large(rng: random.Random) -> Workload:
    n = APX_LARGE_N
    m = round(APX_LARGE_DEGREE * n)
    instances = [
        _instance(rng, f"gnm-n{n}-m{m}-{k}", n, er_gnm(rng, n, m))
        for k in range(APX_LARGE_INSTANCES)
    ]
    solves = [Solve(i, p) for i in range(len(instances)) for p in APX_LARGE_PROBLEMS]
    return Workload("apx-large", instances, solves, cli=True)


WORKLOADS = {
    "batch-small": batch_small,
    "er-search": er_search,
    "ideal-medium": ideal_medium,
    "apx-large": apx_large,
}


def build(name: str, seed: int) -> Workload:
    # the workload name enters the seed so workloads never share instances
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def baseline_instance() -> Instance:
    """The framework of the ROADMAP baseline row: ``random_af`` from the test
    suite with n=300, p=0.02 and ``random.Random(300)``; query ``a0``."""
    rng = random.Random(300)
    n = 300
    attacks = tuple(sorted(set(er_gnp(rng, n, 0.02))))
    return Instance("baseline-n300-p0.02-seed300", n, attacks, 0)


def payload(workload: Workload, workdir: str) -> list:
    """What the solving process receives: apx text per instance, or for the
    command-line workload the argv of each solve over apx files written to
    *workdir*."""
    if not workload.cli:
        texts = [inst.apx() for inst in workload.instances]
        jobs = [(s.instance, s.problem, s.query_name(workload.instances[s.instance]))
                for s in workload.solves]
        return ["api", texts, jobs]
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for k, inst in enumerate(workload.instances):
        path = os.path.join(workdir, f"{workload.name}-{k}.apx")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(inst.apx())
        paths.append(path)
    argvs = []
    for s in workload.solves:
        argv = ["-p", s.problem, "-f", paths[s.instance], "-fo", "apx"]
        query = s.query_name(workload.instances[s.instance])
        if query is not None:
            argv += ["-a", query]
        argvs.append(argv)
    return ["cli", argvs]
