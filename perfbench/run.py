#!/usr/bin/env python3
"""Seeded closed-loop benchmark for afsolve.

Run from the repository root:

    python3 perfbench/run.py --workload batch-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --baseline

The workload's instances are generated from the seed, and afsolve receives
only their apx text (or, for apx-large, apx files through its command-line
entry point).  One solving process runs the solve list in a closed loop: one
client, the next solve starts when the previous one returns.  Passes over the
list repeat until the next one would end past --seconds; before them, the
solving process runs about a second of untimed solves to warm up.  A solve
that overruns the per-solve limit is stopped by killing the solving process,
counts as failed, and the run goes on in a fresh process.  Every answer is checked
after the timed passes (see check.py); checking time is not measured.
wall_s is the median over passes of a pass's total; the percentiles are taken
over the solves, each at its median over the passes.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every solve once to
warm up, then untraced and traced back to back, and prints the per-layer
metrics plus the tracing overhead: traced wall_s minus untraced wall_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give the environment,
per-problem times and any wrong answer.  Results and spans are also written
under perfbench/out/.
"""

import argparse
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Connection

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SOLVE_LIMIT_S = 10.0  # per solve; the slowest kept solve (SE-ID on a chain) takes about 0.5 s
READY_LIMIT_S = 120.0  # solving process start-up: import plus parsing
SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups
WARM_S = 1.0  # untimed solves before the timed passes
MAX_RESTARTS = 8  # stops per run before giving up, so a run stays within 180 s
BASELINE_LIMIT_S = 60.0

# ROADMAP baseline row (random_af n=300, p=0.02, seed 300), seconds
BASELINE_PROBLEMS = {"SE-CO": 0.01, "DS-CO": 0.01, "SE-ST": 0.01,
                     "DC-CO": 0.8, "SE-PR": 5.0, "DS-PR": 3.9}


class Stopped(Exception):
    """The solving process overran a solve or died; index of that solve."""

    def __init__(self, index: int, overran: bool):
        super().__init__(index)
        self.index = index
        self.overran = overran


class Client:
    """The solving process (worker.py) and the socket to it."""

    def __init__(self, payload: list, spans_path: str | None):
        ours, theirs = socket.socketpair()
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), str(theirs.fileno())],
                pass_fds=(theirs.fileno(),), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        self.conn = Connection(ours.detach())
        msg = None
        try:
            self.conn.send((SRC, payload, spans_path))
            msg = self._recv(READY_LIMIT_S)
        except OSError:
            pass
        if msg in (None, "timeout") or msg[0] != "ready":
            self.kill()
            raise RuntimeError("the solving process did not start (is src/afsolve importable?)")
        if os.path.realpath(msg[1]) != os.path.realpath(os.path.join(SRC, "afsolve")):
            self.kill()
            raise RuntimeError(f"afsolve was imported from {msg[1]}, not from {SRC}")

    def _recv(self, timeout: float):
        """The next message, "timeout", or None if the process is gone."""
        try:
            if not self.conn.poll(timeout):
                return "timeout"
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def run_pass(self, start: int, traced: bool, limit: float, on_solve):
        """Run solves start.. of the list; returns the pass's trace metrics
        and missing names, or raises Stopped."""
        self.conn.send(("pass", start, traced))
        index = start
        while True:
            msg = self._recv(limit)
            if msg in (None, "timeout"):
                raise Stopped(index, overran=msg == "timeout")
            if msg[0] == "pass":
                return msg[1], msg[2]
            on_solve(*msg[1:])
            index = msg[1] + 1

    def warm(self, seconds: float, limit: float) -> None:
        """Run untimed solves for about *seconds*; raises Stopped on an
        overrun."""
        self.conn.send(("warm", seconds))
        msg = self._recv(seconds + limit)
        if msg in (None, "timeout"):
            raise Stopped(0, overran=msg == "timeout")

    def close(self) -> float | None:
        """Stop the process; its peak resident memory in MiB if it said."""
        msg = None
        try:
            self.conn.send(("quit",))
            msg = self._recv(READY_LIMIT_S)
            self.proc.wait(10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()
        return msg[1] if msg not in (None, "timeout") and msg[0] == "bye" else None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.conn.close()


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        tag = f"{name}-seed{seed}"
        self.workdir = os.path.join(OUT, f"apx-{tag}-{os.getpid()}")
        self.spans_path = os.path.join(OUT, f"spans-{tag}.json.gz") if trace else None
        self.setup_s: list[float] = []
        self.peak_mb: list[float] = []
        self.passes: list[dict] = []
        self.missing: set[str] = set()
        self.client: Client | None = None
        self.restarts = 0

    def set_up(self) -> None:
        os.makedirs(OUT, exist_ok=True)
        for repeat in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.workload = workloads.build(self.name, self.seed)
            self.payload = workloads.payload(self.workload, self.workdir)
            client = Client(self.payload, self.spans_path)
            self.setup_s.append(time.perf_counter() - t0)
            if repeat < SETUP_REPEATS - 1:
                self._retire(client)
            else:
                self.client = client

    def _retire(self, client: Client) -> None:
        peak = client.close()
        if peak is not None:
            self.peak_mb.append(peak)

    def measure(self) -> None:
        try:
            self.client.warm(WARM_S, SOLVE_LIMIT_S)
        except Stopped:
            # the overrunning solve comes again in the timed pass and
            # counts there
            self.client.kill()
            self.client = Client(self.payload, self.spans_path)
        deadline = time.perf_counter() + self.seconds
        while True:
            t0 = time.perf_counter()
            self.passes.append(self._one_pass(self.trace))
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                break

    def _one_pass(self, traced: bool) -> dict:
        """Times and answers of one pass; a traced pass also has those of
        the traced twin of each solve."""
        count = len(self.workload.solves)
        times: list[float | None] = [None] * count
        answers: list[tuple | None] = [None] * count
        traced_times: list[float | None] = [None] * count
        traced_answers: list[tuple | None] = [None] * count

        def on_solve(index, plain, with_trace):
            times[index], answers[index] = plain
            if with_trace is not None:
                traced_times[index], traced_answers[index] = with_trace

        start = 0
        trace_metrics = None
        stopped = False
        while start < count:
            try:
                trace_metrics, missing = self.client.run_pass(start, traced, SOLVE_LIMIT_S, on_solve)
                self.missing.update(missing)
                break
            except Stopped as stop:
                self.client.kill()
                self.restarts += 1
                if stop.index >= count or self.restarts > MAX_RESTARTS:
                    raise RuntimeError("the solving process keeps failing") from None
                # the failed solve counts at the limit, as for a user
                # waiting on it
                times[stop.index] = SOLVE_LIMIT_S
                answers[stop.index] = ("error", f"over the {SOLVE_LIMIT_S:g} s limit"
                                       if stop.overran else "the solving process died")
                if traced:
                    traced_times[stop.index] = times[stop.index]
                    traced_answers[stop.index] = answers[stop.index]
                stopped = True
                self.client = Client(self.payload, self.spans_path)
                start = stop.index + 1
        # a stopped pass has no complete trace
        return {"times": times, "answers": answers, "traced_times": traced_times,
                "traced_answers": traced_answers, "trace": None if stopped else trace_metrics}

    def finish(self) -> None:
        if self.client is not None:
            self._retire(self.client)
            self.client = None
        shutil.rmtree(self.workdir, ignore_errors=True)

    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, failure lines) over every pass."""
        solves, instances = self.workload.solves, self.workload.instances
        reference: dict[int, object] = {}  # first answer of each solve
        wrong: dict[int, str] = {}
        for index, solve in enumerate(solves):
            answer = next((p["answers"][index] for p in self.passes
                           if p["answers"][index] is not None and p["answers"][index][0] == "ok"),
                          None)
            if answer is None:
                continue
            try:
                reference[index] = self._value(solve, answer[1])
            except ValueError as exc:
                wrong[index] = f"unreadable output: {exc}"
        by_instance: dict[int, dict[str, object]] = {}
        for index, value in reference.items():
            solve = solves[index]
            by_instance.setdefault(solve.instance, {})[solve.problem] = value
        lookup = {(s.instance, s.problem): i for i, s in enumerate(solves)}
        for k, answers in by_instance.items():
            for problem, reason in check.check_instance(instances[k], answers).items():
                wrong[lookup[(k, problem)]] = reason
        attempted = failed = 0
        lines = [self._line(index, reason) for index, reason in sorted(wrong.items())]
        for index, solve in enumerate(solves):
            for p in self.passes:
                for answer in (p["answers"][index], p["traced_answers"][index]):
                    if answer is None:
                        continue
                    attempted += 1
                    if answer[0] != "ok":
                        failed += 1
                        lines.append(self._line(index, answer[1]))
                    elif index in wrong:
                        failed += 1
                    elif self._value(solve, answer[1]) != reference[index]:
                        failed += 1
                        lines.append(self._line(index, "answer differs from its first run"))
        return attempted, failed, lines

    def _line(self, index: int, reason: str) -> str:
        solve = self.workload.solves[index]
        inst = self.workload.instances[solve.instance]
        query = solve.query_name(inst)
        return f"FAILED {inst.name} {solve.problem}{' ' + query if query else ''}: {reason}"

    def _value(self, solve, encoded):
        if encoded[0] == "text":
            n = self.workload.instances[solve.instance].n
            return check.parse_text(solve.problem, encoded[1], n)
        return encoded[1]

    def metrics(self) -> dict[str, dict]:
        walls = [sum(t for t in p["times"] if t is not None) for p in self.passes]
        if not self.trace:
            # a solve's latency is its median over the passes, so that one
            # stall of the machine does not make a tail percentile
            samples = []
            for index in range(len(self.workload.solves)):
                times = [p["times"][index] for p in self.passes if p["times"][index] is not None]
                if times:
                    samples.append(statistics.median(times))
            attempted, failed, _ = self.checked
            values = {
                "wall_s": (statistics.median(walls), "s"),
                "solve_p50_ms": (1000 * _percentile(samples, 50), "ms"),
                "solve_p99_ms": (1000 * _percentile(samples, 99), "ms"),
                "ok_share": (1 - failed / attempted, "share"),
                "setup_s": (statistics.median(self.setup_s), "s"),
                "peak_rss_mb": (max(self.peak_mb), "MiB"),
            }
            return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        traced = [p for p in self.passes if p["trace"] is not None]
        if not traced:
            raise RuntimeError("no traced pass completed")
        out = {}
        for key in traced[0]["trace"]:
            if key == "trace.spans":
                continue
            unit = "s" if key.endswith((".s", "_s")) else (
                "share" if key.endswith("_share") else "count")
            out[key] = {"value": statistics.median(p["trace"][key] for p in traced), "unit": unit}
        traced_wall = statistics.median(sum(p["traced_times"]) for p in traced)
        untraced_wall = statistics.median(sum(p["times"]) for p in traced)
        out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        out["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
        out["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
        return out

    def report(self, env: dict) -> dict:
        self.checked = self.check()
        attempted, failed, lines = self.checked
        metrics = self.metrics()
        per_problem: dict[str, float] = {}
        for index, solve in enumerate(self.workload.solves):
            t = statistics.median(p["times"][index] for p in self.passes)
            per_problem[solve.problem] = per_problem.get(solve.problem, 0.0) + t
        samples = sum(len(p["times"]) for p in self.passes)
        print(f"env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
              f"commit {env['commit']}")
        print(f"workload {self.name}, seed {self.seed}: {len(self.workload.instances)} instances, "
              f"{len(self.workload.solves)} solves per pass, passes: {len(self.passes)}"
              f"{' (traced)' if self.trace else ''}, {samples} timed samples, "
              f"limit {SOLVE_LIMIT_S:g} s per solve")
        for problem, t in per_problem.items():
            print(f"  {problem:7s} {t:9.4f} s per pass")
        if self.trace:
            spans = next(p["trace"]["trace.spans"] for p in self.passes if p["trace"] is not None)
            wall = metrics["trace.wall_s"]["value"]
            top = metrics["trace.top_spans_s"]["value"]
            print(f"trace: {spans} spans per pass; top-level spans cover {top / wall:.1%} of traced "
                  f"wall_s; overhead {metrics['trace.overhead_s']['value']:.4f} s")
            for name in sorted(self.missing):
                print(f"trace: {name} not found in afsolve; its metrics are missing")
        for line in lines:
            print(line)
        result = {"correct": not lines, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        record = dict(result, workload=self.name, seed=self.seed, seconds=self.seconds,
                      trace=self.trace, env=env, passes=len(self.passes), samples=samples,
                      setup_runs_s=self.setup_s, per_problem_s=per_problem, failures=lines)
        path = os.path.join(OUT, f"result-{self.name}-seed{self.seed}-trace{int(self.trace)}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
        return result


def run_baseline(env: dict) -> dict:
    """Time the ROADMAP baseline problems, one untraced solve each."""
    inst = workloads.baseline_instance()
    wl = workloads.Workload("baseline", [inst],
                            [workloads.Solve(0, p) for p in BASELINE_PROBLEMS])
    client = Client(workloads.payload(wl, OUT), None)
    times: dict[str, float] = {}
    answers: dict[str, object] = {}

    def on_solve(index, plain, with_trace):
        problem = wl.solves[index].problem
        times[problem] = plain[0]
        if plain[1][0] == "ok":
            answers[problem] = plain[1][1][1]

    try:
        client.run_pass(0, False, BASELINE_LIMIT_S, on_solve)
    except Stopped as stop:
        print(f"{wl.solves[stop.index].problem}: stopped after {BASELINE_LIMIT_S:g} s")
    finally:
        client.kill()
    wrong = check.check_instance(inst, answers)
    print(f"env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"commit {env['commit']}")
    print(f"{inst.name}: {len(inst.attacks)} attacks, query a{inst.query}")
    for problem, roadmap in BASELINE_PROBLEMS.items():
        got = times.get(problem)
        shown = f"{got:9.4f} s" if got is not None else "    stopped"
        print(f"  {problem:6s} {shown}   (ROADMAP {roadmap:g} s)")
    for problem, reason in wrong.items():
        print(f"FAILED {inst.name} {problem}: {reason}")
    failed = len(BASELINE_PROBLEMS) - len(answers) + len(wrong)
    return {"correct": failed == 0, "attempted": len(BASELINE_PROBLEMS), "failed": failed,
            "metrics": {f"{p}_s": {"value": t, "unit": "s"} for p, t in times.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="time the ROADMAP baseline row instead of a workload")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "afsolve", "__init__.py")):
        print(f"perfbench: no afsolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the checker imports afsolve.oracle
    if not args.baseline and args.workload is None:
        parser.error("--workload is required")
    env = environment()
    try:
        if args.baseline:
            os.makedirs(OUT, exist_ok=True)
            result = run_baseline(env)
        else:
            run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
            try:
                run.set_up()
                run.measure()
            finally:
                run.finish()
            result = run.report(env)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
