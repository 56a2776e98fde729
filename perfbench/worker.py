"""The solving process: one client that runs the solve list in a closed loop.

Started by run.py as ``python3 worker.py FD``, where FD is its end of a
socket pair.  The benchmark sends it the generated inputs, asks for about a
second of untimed solves to warm up, and then for passes over the solve
list.  Each solve starts when the previous one has returned and is timed on
its own; its result goes back over the socket outside the timed region.
Before each solve the cyclic garbage collector runs and what survives is
frozen, so the collections inside a solve depend on that solve's own
allocations, not on the heap the solves before it left.  The benchmark
stops the process when a solve overruns the per-solve limit, so the limit is
enforced from outside afsolve.  A traced pass runs each solve three times:
once to warm up, then as is and under the tracer.
"""

import contextlib
import gc
import io
import os
import resource
import sys
import time

from tracer import Tracer


def _encode(result) -> tuple:
    """SolveResult as plain data: (kind, payload)."""
    task = result.task.value
    if task == "SE":
        return ("SE", result.extension)
    if task == "EE":
        return ("EE", tuple(result.extensions))
    if task == "CE":
        return ("CE", result.count)
    return (task, bool(result.verdict))


def serve(conn, src: str, payload: list, spans_path: str | None) -> None:
    """Answer the benchmark's commands on *conn* until told to quit."""
    sys.path.insert(0, src)
    import afsolve
    from afsolve import cli, framework, ideal, kernel, ranges, tasks

    mods = {"framework": framework, "kernel": kernel, "ranges": ranges,
            "ideal": ideal, "tasks": tasks, "cli": cli}
    if payload[0] == "api":
        _, texts, jobs = payload
        frameworks = [framework.parse_apx(text) for text in texts]
        calls = [(frameworks[k], tasks.TaskSpec.from_problem(problem, query))
                 for k, problem, query in jobs]
    else:
        calls = payload[1]
    conn.send(("ready", os.path.dirname(os.path.abspath(afsolve.__file__))))

    def run_one(index: int):
        gc.collect()
        gc.freeze()
        if payload[0] == "api":
            af, spec = calls[index]
            t0 = clock()
            try:
                result = tasks.solve(af, spec)
            except Exception as exc:  # reported as a failed solve
                return clock() - t0, ("error", f"{type(exc).__name__}: {exc}")
            elapsed = clock() - t0
            return elapsed, ("ok", _encode(result))
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(calls[index])
            except Exception as exc:  # reported as a failed solve
                code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        elapsed = clock() - t0
        if code == 0:
            return elapsed, ("ok", ("text", out.getvalue()))
        return elapsed, ("error", err.getvalue().strip())

    def run_traced(index: int):
        tracer.install(mods)
        try:
            return run_one(index)
        finally:
            tracer.uninstall()

    tracer = Tracer()
    clock = time.perf_counter
    while True:
        command = conn.recv()
        if command[0] == "quit":
            break
        if command[0] == "warm":
            # untimed solves from the top of the list, so that the timed
            # passes start on a busy core with warm caches
            end, index = clock() + command[1], 0
            while clock() < end:
                run_one(index % len(calls))
                index += 1
            conn.send(("warm", index))
            continue
        _, start, traced = command
        tracer.reset()
        for index in range(start, len(calls)):
            if not traced:
                conn.send(("solve", index, run_one(index), None))
            elif index % 2:
                # a traced pass runs every solve once to warm up, then
                # untraced and traced in alternating order, so that both
                # timings see the same machine load and the same warm state
                run_one(index)
                with_trace = run_traced(index)
                conn.send(("solve", index, run_one(index), with_trace))
            else:
                run_one(index)
                plain = run_one(index)
                conn.send(("solve", index, plain, run_traced(index)))
        conn.send(("pass", tracer.pass_metrics() if traced else None, sorted(tracer.missing)))
    if spans_path is not None and tracer.spans:
        tracer.dump(spans_path)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    conn.send(("bye", peak_kib / 1024))


if __name__ == "__main__":
    from multiprocessing.connection import Connection

    channel = Connection(int(sys.argv[1]))
    serve(channel, *channel.recv())
