"""Command-line front end.

Subcommands:

  coverage-table   build or extend the normalized covering table (CSV)
  plan             run a mission planner, emit report.json + per-M CSV
  sweep            sweep one parameter, emit analytic (and optional MC) CSV
  simulate         Monte Carlo run with analytic-vs-empirical verdicts
  fit-alpha        fit the sqrt(c*M)+d tour-length model to a table

All outputs land under ``<out>/<command>/<label>/``; the label defaults to a
digest of the configuration, so re-running identical inputs rewrites
identical bytes.  Exit codes: 0 success, 2 infeasible plan (or usage error),
3 Monte Carlo validation mismatch, 1 crash.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .channel import (
    HoverGeometry,
    edge_success_probability,
    hover_time_aggregation,
    optimal_aloha,
    success_probability,
)
from .config import ConfigError, RunConfig, load_config
from .covering import NormalizedCoverageTable, fit_alpha
from .field import EstimationInfeasible
from .mission import FieldSpec, plan_aggregation, plan_estimation
from .simkit import SimConfig, estimate_success_probability

EXIT_OK = 0
EXIT_CRASH = 1
EXIT_INFEASIBLE = 2
EXIT_MISMATCH = 3


def packaged_table_path() -> Path:
    return Path(resources.files("fieldhopper.data") / "coverage_table_v1.csv")


def load_table(cfg: RunConfig) -> NormalizedCoverageTable:
    path = Path(cfg.table_path) if cfg.table_path else packaged_table_path()
    if path.exists():
        return NormalizedCoverageTable.load(path)
    return NormalizedCoverageTable(seed=cfg.seed, restarts=cfg.restarts)


def _out_dir(cfg: RunConfig, command: str) -> Path:
    label = cfg.label or cfg.digest()
    path = Path(cfg.out_dir) / command / label
    path.mkdir(parents=True, exist_ok=True)
    return path


def _stamp(cfg: RunConfig) -> str:
    return f"# config={cfg.digest()} seed={cfg.seed}"


def _write_csv(path: Path, cfg: RunConfig, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([_stamp(cfg), header, *rows]) + "\n")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {}
    for attr in ("mission", "seed", "label", "zeta", "delta", "uavs", "restarts"):
        v = getattr(args, attr, None)
        if v is not None:
            overrides[attr] = v
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    if getattr(args, "table", None):
        overrides["table_path"] = args.table
    if getattr(args, "m_max", None):
        overrides["m_max"] = args.m_max
    if getattr(args, "m_min", None):
        overrides["m_min"] = args.m_min
    if getattr(args, "fixed_beta", None) is not None:
        overrides["beta"] = args.fixed_beta
    if getattr(args, "fixed_a", None) is not None:
        overrides["aloha"] = args.fixed_a
    if getattr(args, "paper_literal_kinematics", False):
        overrides["paper_literal_kinematics"] = True
    cfg = cfg.with_(**overrides)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# subcommands

def cmd_coverage_table(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    table = NormalizedCoverageTable(seed=cfg.seed, restarts=cfg.restarts)
    if args.extend and Path(args.extend).exists():
        table = NormalizedCoverageTable.load(args.extend)
    table.ensure(args.m_max)
    out = _out_dir(cfg, "coverage-table")
    table.save(out / "table.csv")
    print(f"wrote {out / 'table.csv'} (M up to {table.max_m})")
    if table.max_m >= 3:
        fit = fit_alpha(table)
        print(f"alpha fit: sqrt({fit.c:.4f} M) {fit.d:+.4f}, rel l2 error {fit.rel_error:.3%}")
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    table = load_table(cfg)
    m_range = range(cfg.m_min, cfg.m_max + 1)
    common = dict(
        m_range=m_range, k=cfg.uavs, depots=cfg.depots, table=table,
        fixed_beta=cfg.beta, fixed_aloha=cfg.aloha,
        paper_literal_kinematics=cfg.paper_literal_kinematics, seed=cfg.seed,
    )
    if cfg.mission == "aggregation":
        report = plan_aggregation(cfg.field(), cfg.drone(), cfg.radio(), cfg.zeta, **common)
    else:
        report = plan_estimation(
            cfg.field(), cfg.drone(), cfg.radio(), cfg.covariance(), cfg.delta, **common
        )
    out = _out_dir(cfg, "plan")
    payload = report.to_dict()
    payload["config"] = cfg.to_dict()
    (out / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")
    rows = [
        ",".join(
            repr(v) for v in (
                r.m, r.radius, r.hover_total, r.travel, r.total, r.beta, r.aloha,
                int(r.feasible),
            )
        )
        for r in report.records
    ]
    _write_csv(out / "sweep.csv", cfg, "M,R,T_hover,T_travel,T_total,beta,aloha,feasible", rows)
    if not report.feasible_records:
        print("no feasible M in range", file=sys.stderr)
        return EXIT_INFEASIBLE
    best = report.best
    print(f"wrote {out / 'report.json'}")
    print(
        f"best M = {best.m}: hover {best.hover_total:.1f} s + travel {best.travel:.1f} s"
        f" = {best.total:.1f} s (beta={best.beta:.3g}, a={best.aloha:.3g})"
    )
    return EXIT_OK


def _sweep_grid(spec: str) -> np.ndarray:
    lo, hi, n = spec.split(":")
    return np.linspace(float(lo), float(hi), int(n))


def _sweep_beta(cfg, geom, value):
    link = cfg.radio().with_(beta=value)
    if cfg.aloha is None:
        link = link.with_(aloha=optimal_aloha(geom, link))
    p = success_probability(geom, link)
    thr = p * math.log2(1.0 + link.beta)
    hover = hover_time_aggregation(1, cfg.zeta, geom, link)
    header = "beta,aloha,p_success,throughput_bps_hz,hover_s"
    return header, (value, link.aloha, p, thr, hover), link


def _sweep_aloha(cfg, geom, value):
    link = cfg.radio().with_(aloha=value)
    p = success_probability(geom, link)
    return "a,p_success,throughput_bps_hz", (value, p, p * math.log2(1.0 + link.beta)), link


def _sweep_radius(cfg, geom, value):
    g = HoverGeometry(value, cfg.drone().altitude_for_radius(value), cfg.density)
    radio = cfg.radio()
    link = radio.with_(aloha=optimal_aloha(g, radio)) if cfg.aloha is None else radio
    p = success_probability(g, link)
    hover = hover_time_aggregation(1, cfg.zeta, g, link)
    return "R,aloha,p_success,hover_s", (value, link.aloha, p, hover), None


def _sweep_probe_radius(cfg, geom, value):
    p = edge_success_probability(geom, cfg.radio(), value)
    return "R_mse,p_edge_success", (value, p), None


def _sweep_area(cfg, geom, value, table):
    best = plan_aggregation(
        FieldSpec(side=value, density=cfg.density),
        cfg.drone(), cfg.radio(), cfg.zeta,
        m_range=range(cfg.m_min, cfg.m_max + 1), table=table,
        fixed_beta=cfg.beta, fixed_aloha=cfg.aloha, seed=cfg.seed,
    ).best
    return "side,best_m,T_total", (value, best.m, best.total), None


# axis -> handler(cfg, geom, value) returning (csv header, row, link); a
# handler returns the link only where ``--with-mc`` simulates it at ``geom``
_SWEEP_AXES = {
    "beta": _sweep_beta,
    "a": _sweep_aloha,
    "R": _sweep_radius,
    "R_mse": _sweep_probe_radius,
    "area": _sweep_area,
}


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    grid = _sweep_grid(args.grid)
    if grid.size == 0:
        raise SystemExit("empty sweep grid")
    geom = HoverGeometry(args.radius, cfg.drone().altitude_for_radius(args.radius), cfg.density)
    sweep = _SWEEP_AXES[args.axis]
    if args.axis == "area":
        # one table for every side, so a missing table file is built once
        sweep = functools.partial(sweep, table=load_table(cfg))
    rows = []
    for i, value in enumerate(grid):
        header, row, link = sweep(cfg, geom, float(value))
        line = ",".join(repr(float(v)) for v in row)
        if args.with_mc and link is not None:
            header += ",mc_p_success,mc_se"
            sim = SimConfig(geom=geom, radio=link, slots=args.slots,
                            replications=args.replications, seed=cfg.seed + i)
            st = estimate_success_probability(sim)
            line += f",{st.p_success!r},{st.p_success_se!r}"
        rows.append(line)
    out = _out_dir(cfg, "sweep")
    _write_csv(out / "sweep.csv", cfg, header, rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if args.replications < 1 or args.slots < 1:
        raise SystemExit("simulate needs at least one replication and one slot")
    radio = cfg.radio()
    geom = HoverGeometry(args.radius, cfg.drone().altitude_for_radius(args.radius), cfg.density)
    if cfg.aloha is None:
        radio = radio.with_(aloha=optimal_aloha(geom, radio))
    analytic = success_probability(geom, radio)
    sim = SimConfig(
        geom=geom, radio=radio, slots=args.slots,
        replications=args.replications, seed=cfg.seed,
        probe_radius=args.probe_radius,
    )
    stats = estimate_success_probability(sim)
    z = (analytic - stats.p_success) / max(stats.p_success_se, 1e-15)
    verdict = "PASS" if abs(z) <= 3.0 else "FAIL"
    payload = {
        "analytic_p_success": analytic,
        "empirical_p_success": stats.p_success,
        "standard_error": stats.p_success_se,
        "z": z,
        "verdict": verdict,
        "slots": args.slots,
        "replications": args.replications,
        "multi_capture_slots": stats.multi_capture_slots,
        "config": cfg.to_dict(),
    }
    if args.probe_radius is not None:
        pe = edge_success_probability(geom, radio, args.probe_radius)
        ze = (pe - stats.p_edge_success) / max(stats.p_edge_success_se, 1e-15)
        payload.update(
            analytic_p_edge=pe,
            empirical_p_edge=stats.p_edge_success,
            edge_standard_error=stats.p_edge_success_se,
            edge_z=ze,
        )
        if abs(ze) > 3.0:
            payload["verdict"] = verdict = "FAIL"
    out = _out_dir(cfg, "simulate")
    (out / "stats.json").write_text(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")
    print(
        f"analytic {analytic:.5f} vs empirical {stats.p_success:.5f}"
        f" ± {stats.p_success_se:.5f} (z = {z:+.2f}) -> {verdict}"
    )
    return EXIT_OK if verdict == "PASS" else EXIT_MISMATCH


def cmd_fit_alpha(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    table = load_table(cfg)
    table.ensure(args.m_max)
    fit = fit_alpha(table)
    out = _out_dir(cfg, "fit-alpha")
    (out / "fit.json").write_text(
        json.dumps(
            {"c": fit.c, "d": fit.d, "rel_error": fit.rel_error, "m_max": table.max_m},
            indent=2, sort_keys=True,
        )
        + "\n"
    )
    print(f"alpha(M) ~ sqrt({fit.c:.4f} M) {fit.d:+.4f}  (rel l2 error {fit.rel_error:.3%})")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldhopper",
        description="Plan and validate UAV data-collection missions over sensor fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output root directory")
        p.add_argument("--label", help="output subdirectory name (default: config digest)")
        p.add_argument("--table", help="coverage table CSV (default: packaged)")

    p = sub.add_parser("coverage-table", help="build the normalized covering table")
    add_common(p)
    p.add_argument("--m-max", type=int, default=16)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--extend", help="existing table CSV to extend")
    p.set_defaults(func=cmd_coverage_table)

    p = sub.add_parser("plan", help="plan a mission")
    add_common(p)
    p.add_argument("--mission", choices=("aggregation", "estimation"), default=None)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--uavs", "-K", type=int, default=None)
    p.add_argument("--m-min", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--fixed-beta", type=float, default=None)
    p.add_argument("--fixed-a", type=float, default=None)
    p.add_argument("--paper-literal-kinematics", action="store_true")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", help="sweep one parameter")
    add_common(p)
    p.add_argument("--axis", choices=tuple(_SWEEP_AXES), required=True)
    p.add_argument("--grid", required=True, help="lo:hi:n")
    p.add_argument("--radius", type=float, default=20.0, help="hover radius for link sweeps")
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--with-mc", action="store_true")
    p.add_argument("--slots", type=int, default=1000)
    p.add_argument("--replications", type=int, default=20)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo vs analytic verdict")
    add_common(p)
    p.add_argument("--radius", type=float, default=20.0)
    p.add_argument("--slots", type=int, default=1000)
    p.add_argument("--replications", type=int, default=100)
    p.add_argument("--probe-radius", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit-alpha", help="fit sqrt(c*M)+d to the table")
    add_common(p)
    p.add_argument("--m-max", type=int, default=24)
    p.set_defaults(func=cmd_fit_alpha)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EstimationInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
