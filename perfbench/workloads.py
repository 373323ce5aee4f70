"""The four workloads: inputs generated from the seed, operations, checks.

An operation is one plan, one covering-table build or one Monte Carlo
experiment.  ``run`` drives fieldhopper (through ``fieldhopper.cli.main``
where a subcommand exists, through the library otherwise) and is the only
part that is timed; ``inspect`` reads what the program wrote and applies the
checks of :mod:`checks`, outside the timed section.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
# module attributes, not names: a traced run rebinds them inside the modules
from fieldhopper import cli as program, simkit, tours
from fieldhopper.channel import HoverGeometry, RadioSpec
from fieldhopper.field import CovarianceSpec

# reference deployment (evaluation section of the paper), SI units
SPEED = 20.0 / 3.6
AGILITY = 10.0 / 3.6  # 10 (km/h)/s
RECONF = 8.0
PACKET_BITS = 40960.0
BANDWIDTH = 2e5
ZETA = 250.0
SIGMA2, CORR_RANGE, DELTA = 1.0, 75.0, 0.2
DENSITY = 0.1
SIDE = 100.0

# plan-agg: the reference field plus a wide and a small one (sides, densities)
AGG_FIELDS = (("ref", 100.0, 0.1), ("wide", 150.0, 0.1), ("small", 70.0, 0.1))
EST_M = (8, 10)
COVER_M_MAX, COVER_RESTARTS = 5, 10
FLEET_M, FLEET_DEPOTS = 18, ((50.0, 0.0), (50.0, 100.0))
# mc-validate: one plan per mission at a fixed link, then Monte Carlo
MC_AGG_M, MC_EST_M = 6, 9
MC_BETA, MC_ALOHA = 1.5, 0.01
MC_SLOTS, MC_REPLICATIONS = 1000, 40
MC_MSE_REPLICATIONS, MC_PROBES = 6, 20


class ProgramError(Exception):
    """The program exited with an error code or raised."""


@dataclass
class Outcome:
    failures: list[str] = field(default_factory=list)
    mission_s: float = 0.0
    cover_radius_sum: float = 0.0
    summary: dict = field(default_factory=dict)


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    inspect: Callable[[object], Outcome]


@dataclass(frozen=True)
class Deployment:
    side: float
    density: float
    accel: float
    decel: float

    def config(self, **extra) -> str:
        keys = {
            "side_m": self.side, "density_per_m2": self.density,
            "accel_mps2": self.accel, "decel_mps2": self.decel,
            "speed_mps": SPEED, "reconf_s": RECONF, "packet_bits": PACKET_BITS,
            "bandwidth_hz": BANDWIDTH, "zeta": ZETA, "delta": DELTA,
            "sigma2": SIGMA2, "corr_range_m": CORR_RANGE, **extra,
        }
        return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                       for k, v in keys.items())


def read_table(path: Path) -> dict[int, tuple[float, np.ndarray]]:
    """M -> (unit covering radius, unit centers) from a covering-table CSV."""
    rows = {}
    for line in path.read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("M,"):
            continue
        m, delta, _alpha, *cells = line.split(",")
        rows[int(m)] = (float(delta), np.array([[float(v) for v in c.split(";")] for c in cells]))
    return rows


def cli(argv: list[str], ok=(0,)) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = program.main(argv)
    if rc not in ok:
        raise ProgramError(f"fieldhopper {argv[0]} exited {rc}")
    return rc


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rel * (2.0 * rng.random() - 1.0))


class Workload:
    """Inputs of one workload for one seed, and the operations over them."""

    def __init__(self, name: str, seed: int, root: Path, out: Path):
        self.name, self.seed, self.out = name, seed, out
        self.rng = random.Random(f"{name}/{seed}")
        self.table = read_table(root / "src" / "fieldhopper" / "data" / "coverage_table_v1.csv")
        self.shared: dict = {}
        out.mkdir(parents=True, exist_ok=True)
        # the seed sets the drone's agility within 2% of the reference
        self.accel = _jitter(self.rng, AGILITY, 0.02)
        self.decel = _jitter(self.rng, AGILITY, 0.02)

    def operations(self) -> list[Operation]:
        return {
            "plan-agg": self._plan_agg, "plan-est": self._plan_est,
            "travel": self._travel, "mc-validate": self._mc_validate,
        }[self.name]()

    # ---- helpers -----------------------------------------------------------
    def _deployment(self, side=SIDE, density=DENSITY) -> Deployment:
        return Deployment(side, density, self.accel, self.decel)

    def _config(self, label: str, dep: Deployment, **extra) -> Path:
        path = self.out / f"{label}.cfg"
        path.write_text(dep.config(**extra))
        return path

    def _plan(self, label: str, dep: Deployment, *flags: str, **extra) -> Operation:
        cfg = self._config(label, dep, **extra)
        argv = ["plan", "--config", str(cfg), "--out", str(self.out), "--label", label,
                "--seed", str(self.seed), *flags]
        report = self.out / "plan" / label / "report.json"
        return Operation(label, lambda: cli(argv), lambda _rc: json.loads(report.read_text()))

    @staticmethod
    def _radius_sum(report: dict) -> float:
        return sum(r["radius_m"] for r in report["records"]) / report["field_side_m"]

    def _aggregation_outcome(self, report: dict, m_max: int) -> Outcome:
        out = Outcome(mission_s=report["best"]["total_s"],
                      cover_radius_sum=self._radius_sum(report),
                      summary={"M*": report["best"]["M"], "total_s": report["best"]["total_s"]})
        for rec in report["records"]:
            if rec["feasible"]:
                out.failures += checks.record_totals(rec)
                out.failures += checks.aggregation_hover(rec, ZETA, PACKET_BITS, BANDWIDTH)
        out.failures += checks.sweep_best(report["records"], report["best"], m_max)
        return out

    def _estimation_outcome(self, report: dict, m_max: int) -> Outcome:
        best = report["best"]
        out = Outcome(mission_s=best["total_s"], cover_radius_sum=self._radius_sum(report),
                      summary={"M*": best["M"], "total_s": best["total_s"],
                               "J*": best["slots_per_hl"], "r_mse_m": best["r_mse_m"]})
        for rec in report["records"]:
            if rec["feasible"]:
                out.failures += checks.record_totals(rec)
                out.failures += checks.estimation_hover(rec, PACKET_BITS, BANDWIDTH)
                out.failures += checks.lens_ratio(rec)
                out.failures += checks.edge_mse_budget(rec, SIGMA2, CORR_RANGE, DELTA)
                out.failures += checks.probe_radius_range(rec, SIGMA2, CORR_RANGE, DELTA)
        out.failures += checks.sweep_best(report["records"], best, m_max)
        return out

    # ---- plan-agg ----------------------------------------------------------
    def _plan_agg(self) -> list[Operation]:
        ops = []
        for label, side, density in AGG_FIELDS:
            if label != "ref":  # the seed moves the other fields by up to 1%
                side = side * (1.0 - 0.01 * self.rng.random())
                density = _jitter(self.rng, density, 0.01)
            op = self._plan(f"agg-{label}", self._deployment(side, density))
            op.inspect = self._agg_inspector(op.inspect, reference=label == "ref")
            ops.append(op)
        return ops

    def _agg_inspector(self, read, reference: bool):
        def inspect(rc) -> Outcome:
            report = read(rc)
            out = self._aggregation_outcome(report, m_max=24)
            if reference:
                out.failures += checks.published_optimum(
                    report["best"], checks.AGGREGATION_M_STAR, checks.AGGREGATION_TOTAL_S)
            return out

        return inspect

    # ---- plan-est ----------------------------------------------------------
    def _plan_est(self) -> list[Operation]:
        lo, hi = EST_M
        op = self._plan("est-ref", self._deployment(), "--m-min", str(lo), "--m-max", str(hi),
                        mission="estimation")
        read = op.inspect

        def inspect(rc) -> Outcome:
            report = read(rc)
            out = self._estimation_outcome(report, m_max=hi)
            out.failures += checks.published_optimum(report["best"], checks.ESTIMATION_M_STAR)
            return out

        op.inspect = inspect
        return [op]

    # ---- travel ------------------------------------------------------------
    def _travel(self) -> list[Operation]:
        label = "cover"
        argv = ["coverage-table", "--m-max", str(COVER_M_MAX), "--restarts", str(COVER_RESTARTS),
                "--seed", str(self.seed), "--out", str(self.out), "--label", label]
        table_csv = self.out / "coverage-table" / label / "table.csv"

        def inspect_cover(_rc) -> Outcome:
            rows = read_table(table_csv)
            radii = {m: r for m, (r, _c) in rows.items()}
            out = Outcome(cover_radius_sum=sum(radii.values()), summary={"radii": radii})
            if sorted(rows) != list(range(1, COVER_M_MAX + 1)):
                out.failures.append(f"table rows {sorted(rows)} are not M=1..{COVER_M_MAX}")
            out.failures += checks.published_cover_radii(radii)
            for r, centers in rows.values():
                out.failures += checks.grid_bracket(r, centers)
            return out

        ops = [Operation(label, lambda: cli(argv), inspect_cover)]
        depots = "; ".join(f"{x!r},{y!r}" for x, y in FLEET_DEPOTS)
        for k in (1, 2):
            op = self._plan(f"fleet-k{k}", self._deployment(), "--uavs", str(k),
                            "--m-min", str(FLEET_M), "--m-max", str(FLEET_M), depots=depots)
            op.inspect = self._fleet_inspector(op.inspect, k)
            ops.append(op)
        return ops

    def _fleet_inspector(self, read, k: int):
        def inspect(rc) -> Outcome:
            report = read(rc)
            best = report["best"]
            # the packaged fleet layout is not rebuilt, so it adds no covering radius
            out = Outcome(mission_s=best["total_s"], summary={"K": k, "total_s": best["total_s"]})
            out.failures += checks.aggregation_hover(best, ZETA, PACKET_BITS, BANDWIDTH)
            if k == 1:
                out.failures += checks.record_totals(best)
                self.shared["single_total"] = best["total_s"]
                return out
            orders, travel = self._fleet_tours(best, k)
            out.failures += checks.tours_partition(orders, FLEET_M, k)
            out.failures += checks.fleet_totals(best["per_uav"], travel, best["hover_per_hl_s"],
                                                best["total_s"])
            out.failures += checks.fleet_vs_single(best["total_s"], self.shared["single_total"])
            return out

        return inspect

    def _fleet_tours(self, best: dict, k: int) -> tuple[list[list[int]], list[float]]:
        """The min-max tours behind the plan, re-solved once per run from its inputs.

        The planner does not report its tours; the tour solver is
        deterministic, so solving again from the same centers, depots, stop
        cost and seed returns them.  Their travel times are then computed
        here from the stop coordinates.
        """
        key = ("tours", best["hover_per_hl_s"])
        if key not in self.shared:
            centers = self.table[FLEET_M][1] * SIDE
            stop_cost = SPEED * (best["hover_per_hl_s"] + RECONF)
            solved = tours.solve_minmax_mdmtsp(centers, FLEET_DEPOTS, k,
                                               stop_cost=stop_cost, seed=self.seed)
            orders = [list(t.order) for t in solved]
            travel = [
                checks.tour_seconds(centers[o], FLEET_DEPOTS[i % len(FLEET_DEPOTS)], SPEED,
                                    self.accel, self.decel, RECONF)
                for i, o in enumerate(orders)
            ]
            self.shared[key] = (orders, travel)
        return self.shared[key]

    # ---- mc-validate -------------------------------------------------------
    def _mc_validate(self) -> list[Operation]:
        fixed = ("--fixed-beta", repr(MC_BETA), "--fixed-a", repr(MC_ALOHA))
        dep = self._deployment()
        agg = self._plan("mc-agg", dep, "--m-min", str(MC_AGG_M), "--m-max", str(MC_AGG_M), *fixed)
        est = self._plan("mc-est", dep, "--m-min", str(MC_EST_M), "--m-max", str(MC_EST_M), *fixed,
                         mission="estimation")
        radius = self.table[MC_AGG_M][0] * SIDE
        read_agg, read_est = agg.inspect, est.inspect

        def inspect_agg(rc) -> Outcome:
            report = read_agg(rc)
            out = self._aggregation_outcome(report, m_max=MC_AGG_M)
            if report["best"]["radius_m"] != radius:
                out.failures.append(f"plan radius {report['best']['radius_m']!r} != table {radius!r}")
            return out

        def inspect_est(rc) -> Outcome:
            report = read_est(rc)
            self.shared["est"] = report["best"]
            return self._estimation_outcome(report, m_max=MC_EST_M)

        agg.inspect, est.inspect = inspect_agg, inspect_est

        label = "mc-sim"
        cfg = self._config(label, dep, sinr_threshold=MC_BETA, aloha=MC_ALOHA)
        argv = ["simulate", "--config", str(cfg), "--out", str(self.out), "--label", label,
                "--seed", str(self.seed), "--radius", repr(radius),
                "--probe-radius", repr(radius / 2.0), "--slots", str(MC_SLOTS),
                "--replications", str(MC_REPLICATIONS)]
        stats_json = self.out / "simulate" / label / "stats.json"

        def inspect_sim(_rc) -> Outcome:
            st = json.loads(stats_json.read_text())
            out = Outcome(summary={k: st[k] for k in ("analytic_p_success", "empirical_p_success",
                                                      "analytic_p_edge", "empirical_p_edge")})
            out.failures += checks.capture_agrees(st["analytic_p_success"], st["empirical_p_success"],
                                                  st["standard_error"], "disk capture")
            out.failures += checks.capture_agrees(st["analytic_p_edge"], st["empirical_p_edge"],
                                                  st["edge_standard_error"], "edge-lens capture")
            out.failures += checks.single_capture(st["multi_capture_slots"])
            return out

        # simulate exits 3 on a mismatch verdict; the check above reports it
        sim = Operation(label, lambda: cli(argv, ok=(0, 3)), inspect_sim)
        mse = Operation("mc-edge-mse", self._edge_mse, self._inspect_edge_mse)
        return [agg, est, sim, mse]

    def _edge_mse(self):
        best = self.shared["est"]
        centers = self.table[MC_EST_M][1] * SIDE
        # probes on the edge of the hover disk nearest the field center
        hub = centers[np.argmin(np.linalg.norm(centers - SIDE / 2.0, axis=1))]
        angles = np.linspace(0.0, 2.0 * math.pi, MC_PROBES, endpoint=False)
        probes = hub + best["radius_m"] * np.column_stack([np.cos(angles), np.sin(angles)])
        radio = RadioSpec(power=1e-6, noise=1e-11, eta=3.0, m=1, bandwidth=BANDWIDTH,
                          packet_bits=PACKET_BITS, beta=best["beta"], aloha=best["aloha"])
        sim = simkit.SimConfig(
            geom=HoverGeometry(best["radius_m"], best["altitude_m"], DENSITY), radio=radio,
            slots=best["slots_per_hl"], replications=MC_MSE_REPLICATIONS, seed=self.seed,
            covariance=CovarianceSpec(sigma2=SIGMA2, nu=0.5, b=CORR_RANGE),
        )
        return simkit.estimate_plan_edge_mse(sim, centers, SIDE, best["slots_per_hl"], probes)

    @staticmethod
    def _inspect_edge_mse(stats) -> Outcome:
        samples = np.asarray(stats.mse_samples)
        out = Outcome(summary={"mse_mean": stats.mse_mean, "worst": float(samples.max())})
        out.failures += checks.edge_mse_guarantee(samples, DELTA)
        return out
