"""Spans and counts recorded around the package's public functions.

Wrappers are installed from here, from outside the library: a module-level
function is replaced at every import site (every module of the package that
holds the same function object), a method on its class.  Each call opens a
span (name, parent, start, end) kept in memory; the aggregates are

* ``<name>.calls``;
* ``<name>.busy_s``: wall time inside the function, counted once when the
  function re-enters itself;
* ``<name>.self_s``: span durations minus the time covered by child spans.

With ``alloc`` set, the recorder also runs ``tracemalloc`` inside the
functions in :data:`ALLOC_TRACKED` (and only there, to keep its cost off the
rest of the workload) and keeps the largest allocation peak of one call above
the memory in use when it started.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
import tracemalloc

import numpy as np

ALLOC_TRACKED = ("full_recall.grid_tables", "simulate.best_response_gap", "simulate.play")

#: every wrapped function, in the order the metrics are reported
LAYERS = (
    "distributions.order_max_with_vec",
    "distributions.sample",
    "distributions.partial_expectation",
    "distributions.expect_order_max_with",
    "distributions.top_two_expectation",
    "distributions.density_moment",
    "prophet.prophet_values",
    "prophet.max_feasible_sum",
    "full_recall.grid_tables",
    "full_recall.TriangleContext",
    "full_recall.expect_over_arrival.atomless",
    "full_recall.expect_over_arrival.atoms",
    "full_recall.bilinear",
    "full_recall.band",
    "full_recall.lh_values",
    "full_recall.uniform_closed_forms",
    "no_recall.no_recall_sequence",
    "stage_games.solve_fr_stage",
    "stage_games.solve_nr_stage",
    "stage_games.verify_outcome",
    "oracle.oracle_spep",
    "efficiency.ratios",
    "efficiency.two_arrival_closed_forms",
    "simulate.play",
    "simulate.spe_strategy",
    "simulate.best_response_gap",
    "simulate.Strategy.bid_prob",
    "cli.run",
)

COUNTS = (
    "distributions.order_max_with_vec.points",
    "distributions.sample.draws",
    "full_recall.expect_over_arrival.cells",
    "full_recall.grid_tables.misses",
    "simulate.play.games",
    "oracle.oracle_spep.payoff_points",
)


class Recorder:
    def __init__(self, alloc: bool = False):
        self.enabled = False
        self.alloc = alloc
        self.spans: list[list] = []  # [name, parent, start, end, child_seconds]
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self.calls = dict.fromkeys(LAYERS, 0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.max_gap = 0.0
        self.alloc_peak = dict.fromkeys(ALLOC_TRACKED, 0.0)
        self._alloc_stack: list[list] = []  # [name, bytes at entry, peak seen, started tracemalloc]

    def open(self, name: str) -> int:
        if self.alloc and name in self.alloc_peak:
            if tracemalloc.is_tracing():
                current, peak = tracemalloc.get_traced_memory()
                for frame in self._alloc_stack:
                    frame[2] = max(frame[2], peak)
                tracemalloc.reset_peak()
                self._alloc_stack.append([name, current, current, False])
            else:
                tracemalloc.start()
                self._alloc_stack.append([name, 0, 0, True])
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append(sid)
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0.0])
        return sid

    def close(self, sid: int) -> None:
        end = time.perf_counter()
        span = self.spans[sid]
        name, parent, start = span[0], span[1], span[2]
        span[3] = end
        duration = end - start
        self._stack.pop()
        if parent >= 0:
            self.spans[parent][4] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - span[4]
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.busy[name] += duration
        if self.alloc and name in self.alloc_peak:
            frame = self._alloc_stack.pop()
            frame[2] = max(frame[2], tracemalloc.get_traced_memory()[1])
            self.alloc_peak[name] = max(self.alloc_peak[name], (frame[2] - frame[1]) / 2**20)
            if self._alloc_stack:
                self._alloc_stack[-1][2] = max(self._alloc_stack[-1][2], frame[2])
            if frame[3]:
                tracemalloc.stop()

    def wrap(self, name, fn, label=None, before=None, after=None):
        """Wrap ``fn`` in a span.  ``label(args)`` picks the span name per
        call; ``before(args, kwargs)`` runs ahead of the call and its result
        is handed to ``after(args, kwargs, out, token)``, whose return value
        replaces the output."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before else None
            sid = self.open(label(args) if label else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            return after(args, kwargs, out, token) if after else out

        return traced

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics as {name: {"value": ..., "unit": ...}}."""
        out: dict[str, tuple] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.busy_s"] = (self.busy[name], "s")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        out.update((name, (value, "count")) for name, value in self.counts.items())
        calls = self.calls["full_recall.grid_tables"]
        misses = self.counts["full_recall.grid_tables.misses"]
        out["full_recall.grid_tables.hit_ratio"] = ((calls - misses) / calls if calls else 0.0, "ratio")
        out["simulate.best_response_gap.max_gap"] = (self.max_gap, "payoff")
        if self.alloc:
            out.update((f"{name}.alloc_peak_mb", (mb, "MB")) for name, mb in self.alloc_peak.items())
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "parent", "start", "end"], "names": names, "spans": rows}, fh)


def replace_everywhere(original, replacement) -> None:
    """Point every module of the package that holds ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "selection_games" or mod_name.startswith("selection_games."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def arg(args, kwargs, index, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def install(rec: Recorder) -> None:
    """Wrap every function in :data:`LAYERS` at all of its import sites."""
    from selection_games import cli, distributions, efficiency, full_recall, no_recall, oracle, prophet, simulate
    from selection_games import stage_games

    def function(module, attr, prefix, **hooks):
        original = getattr(module, attr)
        replace_everywhere(original, rec.wrap(f"{prefix}.{attr}", original, **hooks))

    def method(cls, attr, name, **hooks):
        setattr(cls, attr, rec.wrap(name, cls.__dict__[attr], **hooks))

    def count(key, amount):
        def after(args, kwargs, out, token):
            rec.counts[key] += amount(args, kwargs, out)
            return out

        return after

    VD = distributions.ValueDistribution
    method(VD, "order_max_with_vec", "distributions.order_max_with_vec",
           after=count("distributions.order_max_with_vec.points", lambda a, k, out: np.size(out)))
    method(VD, "sample", "distributions.sample",
           after=count("distributions.sample.draws", lambda a, k, out: arg(a, k, 2, "size") or 1))
    for attr in ("partial_expectation", "expect_order_max_with", "top_two_expectation", "density_moment"):
        method(VD, attr, f"distributions.{attr}")

    for attr in ("prophet_values", "max_feasible_sum"):
        function(prophet, attr, "prophet")

    cache = full_recall._TABLE_CACHE

    def grid_miss(args, kwargs, out, size_before):
        rec.counts["full_recall.grid_tables.misses"] += len(cache) > size_before
        return out

    function(full_recall, "grid_tables", "full_recall", before=lambda a, k: len(cache), after=grid_miss)
    TC = full_recall.TriangleContext
    method(TC, "__init__", "full_recall.TriangleContext")
    method(TC, "expect_over_arrival", "full_recall.expect_over_arrival",
           label=lambda a: "full_recall.expect_over_arrival." + ("atoms" if a[0].atoms else "atomless"),
           after=count("full_recall.expect_over_arrival.cells", lambda a, k, out: np.size(out)))
    method(TC, "bilinear", "full_recall.bilinear")
    for attr in ("band", "lh_values", "uniform_closed_forms"):
        function(full_recall, attr, "full_recall")

    function(no_recall, "no_recall_sequence", "no_recall")
    for attr in ("solve_fr_stage", "solve_nr_stage", "verify_outcome"):
        function(stage_games, attr, "stage_games")
    function(oracle, "oracle_spep", "oracle",
             after=count("oracle.oracle_spep.payoff_points", lambda a, k, out: len(out.payoffs)))
    for attr in ("ratios", "two_arrival_closed_forms"):
        function(efficiency, attr, "efficiency")

    function(simulate, "play", "simulate",
             after=count("simulate.play.games", lambda a, k, out: arg(a, k, 5, "runs")))

    def wrap_strategy(strategy):
        return dataclasses.replace(strategy, bid_prob=rec.wrap("simulate.Strategy.bid_prob", strategy.bid_prob))

    def wrap_profile(args, kwargs, profile, token):
        p1 = wrap_strategy(profile.player1)
        p2 = p1 if profile.symmetric else wrap_strategy(profile.player2)
        return dataclasses.replace(profile, player1=p1, player2=p2)

    function(simulate, "spe_strategy", "simulate", after=wrap_profile)

    def gap(args, kwargs, out, token):
        rec.max_gap = max(rec.max_gap, out)
        return out

    function(simulate, "best_response_gap", "simulate", after=gap)
    function(cli, "run", "cli")
