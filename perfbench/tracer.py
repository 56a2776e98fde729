"""Span tracing of afsolve from outside the package.

The tracer replaces module and class attributes of afsolve with wrappers
that record one span per call: name, start, end and the span that was open
when the call began (its parent).  Spans stay in memory; ``pass_metrics``
derives per-layer figures from them and ``dump`` writes them out.  The
solver is unchanged: ``uninstall`` restores every original attribute.

A function reached through a name imported into another module must be
wrapped there too: ``ranges`` imports ``_find``, ``_maximal_conflict_free``
and ``base_extensions`` by name, ``ideal`` imports ``find_complete``,
``tasks`` imports ``ideal_extension`` and ``cli`` imports ``parse_apx`` and
``solve``.  An attribute that no longer exists is recorded in ``missing``
and every metric built on it is left out, so a renamed function shows up as
a missing counter instead of a crash.
"""

import gzip
import json
import time
from collections import Counter

LAYERS = ("framework", "kernel", "ranges", "ideal", "tasks", "cli")

# strategy spans a search is attributed to: the nearest enclosing one wins
SEARCH_PARENTS = {
    "kernel.maximize_complete": "kernel.improve.searches",
    "ranges._grow_range": "ranges.grow.searches",
    "ideal.credulous_profile": "ideal.credulous.searches",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, parent index, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installing --------------------------------------------------------

    def install(self, mods) -> None:
        """Wrap every traced entry point; *mods* maps afsolve module names
        (framework, kernel, ranges, ideal, tasks, cli) to the modules."""
        fw, kernel, ranges, ideal, tasks, cli = (mods[m] for m in LAYERS)
        af_cls = getattr(fw, "ArgumentationFramework", None)
        search_cls = getattr(kernel, "_Search", None)
        w = self._wrap
        w(cli, "parse_apx", "framework.parse_apx")
        w(af_cls, "restrict", "framework.restrict")
        w(af_cls, "reverse_reachable", "framework.reverse_reachable")
        w(search_cls, "__init__", "kernel._Search.init")
        w(search_cls, "run", "kernel._Search.run", self._count_search)
        for owner in (kernel, ranges):
            w(owner, "_find", "kernel._find")
        for owner in (kernel, ideal):
            w(owner, "find_complete", "kernel.find_complete")
        for owner in (kernel, ranges):
            w(owner, "base_extensions", "kernel.base_extensions")
        for attr in ("find_stable", "some_preferred", "maximize_complete", "preferred_into",
                     "count_base", "grounded", "complete_labellings_into"):
            w(kernel, attr, f"kernel.{attr}")
        w(ranges, "_maximal_conflict_free", "ranges._maximal_conflict_free",
          self._counting("ranges.naive_sets", len))
        w(ranges, "max_ranges", "ranges.max_ranges", self._counting("ranges.max_ranges.found", len))
        for attr in ("_grow_range", "_max_ranges_naive", "decide_range", "some_range_extension",
                     "semi_stable_all", "stage_all"):
            w(ranges, attr, f"ranges.{attr}")
        w(ideal, "credulous_profile", "ideal.credulous_profile")
        for owner in (ideal, tasks):
            w(owner, "ideal_extension", "ideal.ideal_extension")
        for owner in (tasks, cli):
            w(owner, "solve", "tasks.solve")
        w(tasks, "reduce_to_query", "tasks.reduce_to_query", self._count_reduction)
        w(cli, "main", "cli.main")
        w(cli, "format_output", "cli.format_output")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, owner, attr: str, name: str, counting=None) -> None:
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.add(name)
            return
        inner = counting(original) if counting else original
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    # -- counters ----------------------------------------------------------

    def _counting(self, key: str, measure):
        counts = self.counts

        def counting(original):
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                counts[key] += measure(result)
                return result
            return counted
        return counting

    def _count_search(self, original):
        counts, spans, stack, names = self.counts, self.spans, self.stack, self.names

        def counted(search, on_leaf, *args, **kwargs):
            # the run span itself is on top of the stack; look above it
            for index in reversed(stack[:-1]):
                key = SEARCH_PARENTS.get(names[spans[index][0]])
                if key is not None:
                    counts[key] += 1
                    break
            hit = [False]

            def leaf(*labels):
                hit[0] = True
                return on_leaf(*labels)

            result = original(search, leaf, *args, **kwargs)
            counts["kernel.search.hits"] += hit[0]
            return result
        return counted

    def _count_reduction(self, original):
        counts = self.counts

        def counted(af, q, *args, **kwargs):
            result = original(af, q, *args, **kwargs)
            counts["tasks.reduce.before"] += af.n
            counts["tasks.reduce.kept"] += result[0].n
            return result
        return counted

    # -- results -----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer figures of the spans recorded since the last reset.

        A span's self time is its duration minus the durations of its direct
        children; calls nest strictly, since the solver is single-threaded.
        """
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0.0] * n_names
        self_time = [0.0] * n_names
        child = [0.0] * len(self.spans)
        top = 0.0
        for index in range(len(self.spans) - 1, -1, -1):
            name_id, parent, start, end = self.spans[index]
            dur = end - start
            calls[name_id] += 1
            total[name_id] += dur
            self_time[name_id] += dur - child[index]
            if parent < 0:
                top += dur
            else:
                child[parent] += dur
        by = {name: i for i, name in enumerate(self.names)}
        c = self.counts
        out: dict[str, float] = {}

        def put(metric, needs, value):
            if not any(name in self.missing for name in needs):
                out[metric] = value()

        def calls_of(name):
            return calls[by[name]] if name in by else 0

        def total_of(name):
            return total[by[name]] if name in by else 0.0

        def self_of(name):
            return self_time[by[name]] if name in by else 0.0

        def share(num, den):
            return c[num] / c[den] if c[den] else 0.0

        run = "kernel._Search.run"
        put("framework.parse_apx.s", ["framework.parse_apx"], lambda: total_of("framework.parse_apx"))
        put("framework.restrict.calls", ["framework.restrict"], lambda: calls_of("framework.restrict"))
        put("framework.restrict.s", ["framework.restrict"], lambda: total_of("framework.restrict"))
        put("framework.reverse_reachable.s", ["framework.reverse_reachable"],
            lambda: total_of("framework.reverse_reachable"))
        put("tasks.reduce.kept_share", ["tasks.reduce_to_query"],
            lambda: share("tasks.reduce.kept", "tasks.reduce.before"))
        put("tasks.solve.self_s", ["tasks.solve"], lambda: self_of("tasks.solve"))
        put("kernel.searches", [run], lambda: calls_of(run))
        put("kernel.search.s", [run], lambda: total_of(run))
        put("kernel.search.hit_share", [run],
            lambda: c["kernel.search.hits"] / calls_of(run) if calls_of(run) else 0.0)
        put("kernel.search_setup.s", ["kernel._Search.init"], lambda: total_of("kernel._Search.init"))
        for parent, metric in SEARCH_PARENTS.items():
            put(metric, [run, parent], lambda metric=metric: c[metric])
        put("kernel.maximize_complete.calls", ["kernel.maximize_complete"],
            lambda: calls_of("kernel.maximize_complete"))
        put("kernel.maximize_complete.s", ["kernel.maximize_complete"],
            lambda: total_of("kernel.maximize_complete"))
        put("kernel.preferred_into.s", ["kernel.preferred_into"], lambda: total_of("kernel.preferred_into"))
        put("ranges.max_ranges.s", ["ranges.max_ranges"], lambda: total_of("ranges.max_ranges"))
        put("ranges.max_ranges.found", ["ranges.max_ranges"], lambda: c["ranges.max_ranges.found"])
        put("ranges.naive_sets", ["ranges._maximal_conflict_free"], lambda: c["ranges.naive_sets"])
        put("ranges.decide_range.s", ["ranges.decide_range"], lambda: total_of("ranges.decide_range"))
        put("ideal.credulous_profile.s", ["ideal.credulous_profile"],
            lambda: total_of("ideal.credulous_profile"))
        put("ideal.fixpoint.s", ["ideal.ideal_extension", "ideal.credulous_profile"],
            lambda: self_of("ideal.ideal_extension"))
        put("cli.format_output.s", ["cli.format_output"], lambda: total_of("cli.format_output"))
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                self_time[i] for i, name in enumerate(self.names) if name.split(".")[0] == layer
            )
        out["trace.top_spans_s"] = top
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path: str) -> None:
        """Write the recorded spans as gzip-compressed JSON."""
        doc = {
            "fields": ["name", "parent", "start", "end"],
            "names": self.names,
            "missing": sorted(self.missing),
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
