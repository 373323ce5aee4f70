"""Per-layer tracing installed from outside the program.

The tracer wraps public functions of the fieldhopper layers and rebinds each
wrapper in every fieldhopper module namespace that holds the original
(``mission`` imports ``success_probability`` by name, ``simkit`` imports
``krige``, and so on), so calls are seen wherever they come from.  It keeps
per-name call counts, inclusive time and self time (inclusive time minus the
time of nested traced calls), work counters, and the spans of the outer
layers, all in memory; the benchmark writes them out when the run ends.

Timed runs never install it; the traced run exists only for the per-layer
split, and the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (name, module, attribute): one name may cover several functions
WRAPPED = [
    ("cli.main", "fieldhopper.cli", "main"),
    ("mission.plan", "fieldhopper.mission", "plan_aggregation"),
    ("mission.plan", "fieldhopper.mission", "plan_estimation"),
    ("quadrature.integrate", "fieldhopper.quadrature", "integrate"),
    ("search.golden_min", "fieldhopper.search", "golden_min"),
    ("channel.success_probability", "fieldhopper.channel", "success_probability"),
    ("channel.edge_success_probability", "fieldhopper.channel", "edge_success_probability"),
    ("channel.optimal_aloha", "fieldhopper.channel", "optimal_aloha"),
    ("channel.optimal_beta", "fieldhopper.channel", "optimal_beta"),
    ("field.estimation_slots", "fieldhopper.field", "estimation_slots"),
    ("field.area_ratio_rho", "fieldhopper.field", "area_ratio_rho"),
    ("field.optimal_slots_estimation", "fieldhopper.field", "optimal_slots_estimation"),
    ("field.covariance_matrix", "fieldhopper.field", "covariance_matrix"),
    ("field.krige", "fieldhopper.field", "krige"),
    ("field.sample_field", "fieldhopper.field", "sample_field"),
    ("kinematics.travel_time", "fieldhopper.kinematics", "travel_time"),
    ("covering.solve_unit_covering", "fieldhopper.covering", "solve_unit_covering"),
    ("covering.cover_radius", "fieldhopper.covering", "cover_radius"),
    ("tours.solve_tsp", "fieldhopper.tours", "solve_tsp"),
    ("tours.held_karp", "fieldhopper.tours", "held_karp"),
    ("tours.two_opt", "fieldhopper.tours", "two_opt"),
    ("tours.solve_minmax_mdmtsp", "fieldhopper.tours", "solve_minmax_mdmtsp"),
    ("simkit.estimate_success_probability", "fieldhopper.simkit", "estimate_success_probability"),
    ("simkit.estimate_plan_edge_mse", "fieldhopper.simkit", "estimate_plan_edge_mse"),
    ("simkit.sample_ppp", "fieldhopper.simkit", "sample_ppp"),
]
# classes are traced through their constructor
WRAPPED_INIT = [("field.ObservationSet", "fieldhopper.field", "ObservationSet")]

# per-layer metrics reported by a traced run, in BENCHMARK.json order
METRICS = [
    ("quadrature.integrate.calls", "count"),
    ("quadrature.integrate.self_s", "s"),
    ("quadrature.panels", "count"),
    ("search.golden_min.calls", "count"),
    ("search.golden_min.evals", "count"),
    ("channel.success_probability.calls", "count"),
    ("channel.success_probability.self_s", "s"),
    ("channel.optimal_aloha.calls", "count"),
    ("channel.optimal_aloha.s", "s"),
    ("channel.optimal_beta.calls", "count"),
    ("channel.optimal_beta.s", "s"),
    ("channel.edge_success_probability.calls", "count"),
    ("channel.edge_success_probability.self_s", "s"),
    ("field.estimation_slots.calls", "count"),
    ("field.area_ratio_rho.calls", "count"),
    ("field.area_ratio_rho.s", "s"),
    ("field.optimal_slots_estimation.calls", "count"),
    ("field.optimal_slots_estimation.s", "s"),
    ("mission.plan.calls", "count"),
    ("mission.plan.s", "s"),
    ("mission.m_evaluated", "count"),
    ("kinematics.travel_time.calls", "count"),
    ("covering.solve_unit_covering.calls", "count"),
    ("covering.solve_unit_covering.s", "s"),
    ("covering.cover_radius.calls", "count"),
    ("covering.cover_radius.s", "s"),
    ("tours.solve_tsp.calls", "count"),
    ("tours.solve_tsp.s", "s"),
    ("tours.held_karp.calls", "count"),
    ("tours.held_karp.self_s", "s"),
    ("tours.two_opt.calls", "count"),
    ("tours.two_opt.self_s", "s"),
    ("tours.solve_minmax_mdmtsp.calls", "count"),
    ("tours.solve_minmax_mdmtsp.s", "s"),
    ("simkit.estimate_success_probability.s", "s"),
    ("simkit.estimate_plan_edge_mse.s", "s"),
    ("simkit.sample_ppp.self_s", "s"),
    ("simkit.slots", "count"),
    ("field.covariance_matrix.calls", "count"),
    ("field.covariance_matrix.self_s", "s"),
    ("field.ObservationSet.calls", "count"),
    ("field.ObservationSet.self_s", "s"),
    ("field.krige.calls", "count"),
    ("field.krige.self_s", "s"),
    ("field.sample_field.calls", "count"),
    ("field.sample_field.self_s", "s"),
    ("cli.main.self_s", "s"),
]

# spans nested deeper than this are aggregated but not kept one by one
MAX_SPAN_DEPTH = 3


class Tracer:
    """Counts, times and spans of the wrapped functions, kept in memory."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple[str, str | None, float, float]] = []
        self.paused = False
        self._stack: list[list] = []  # [name, time spent in traced children]
        self._active: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # ---- installation ------------------------------------------------------
    def install(self) -> None:
        for _name, module, _attr in WRAPPED:
            importlib.import_module(module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "fieldhopper" or name.startswith("fieldhopper."))]
        for name, module, attr in WRAPPED:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, module, attr in WRAPPED_INIT:
            cls = getattr(sys.modules[module], attr)
            self._set(cls, "__init__", self._wrap(name, cls.__init__))
        simkit = sys.modules["fieldhopper.simkit"]
        self._set(simkit, "_simulate_batch", self._count_slots(simkit._simulate_batch))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    # ---- wrappers ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        counted = {"quadrature.integrate": "quadrature.panels",
                   "search.golden_min": "search.golden_min.evals"}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if counted is not None and args:
                args = (self._counter(counted, args[0]),) + args[1:]
            elif counted is not None:
                kwargs["f"] = self._counter(counted, kwargs["f"])
            result = self._timed(name, fn, args, kwargs)
            if name == "mission.plan":
                self.counts["mission.m_evaluated"] += len(result.records)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_slots(self, fn):
        @functools.wraps(fn)
        def wrapper(slant, radio, rng, slots, *rest, **kwargs):
            if not self.paused:
                self.counts["simkit.slots"] += int(slots)
            return fn(slant, radio, rng, slots, *rest, **kwargs)

        return wrapper

    def _timed(self, name: str, fn, args, kwargs):
        self.calls[name] += 1
        parent = self._stack[-1][0] if self._stack else None
        depth = len(self._stack)
        frame = [name, 0.0]
        self._stack.append(frame)
        self._active[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._active[name] -= 1
            elapsed = end - start
            self.self_time[name] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed
            if not self._active[name]:  # outermost activation of a recursive name
                self.inclusive[name] += elapsed
            if depth < MAX_SPAN_DEPTH:
                self.spans.append((name, parent, start, end))

    # ---- results -----------------------------------------------------------
    def metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, per round of the workload."""
        out = {}
        for metric, _unit in METRICS:
            base, _, suffix = metric.rpartition(".")
            if suffix == "calls":
                value = self.calls[base]
            elif suffix == "s":
                value = self.inclusive[base]
            elif suffix == "self_s":
                value = self.self_time[base]
            else:
                value = self.counts[metric]
            out[metric] = value / rounds
        return out

    def dump(self) -> dict:
        names = sorted(self.calls)
        return {
            "functions": {
                n: {"calls": self.calls[n], "s": self.inclusive[n], "self_s": self.self_time[n]}
                for n in names
            },
            "counts": dict(sorted(self.counts.items())),
            "spans": [
                {"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in self.spans
            ],
        }
