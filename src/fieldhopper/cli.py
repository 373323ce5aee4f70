"""Command-line front end.

Subcommands:

  coverage-table   build or extend the normalized covering table (CSV)
  plan             run a mission planner, emit report.json + per-M CSV
  sweep            sweep one parameter, emit analytic (and optional MC) CSV
  simulate         Monte Carlo run with analytic-vs-empirical verdicts
  fit-alpha        fit the sqrt(c*M)+d tour-length model to a table

All outputs land under ``<out>/<command>/<label>/``; the label defaults to a
digest of the configuration, followed by a digest of the command's own
options where it has any (``sweep --axis``, ``simulate --radius``, ...).  So
re-running identical inputs rewrites identical bytes, and runs that differ
in any input write apart.  Exit codes: 0 success, 2 infeasible plan (or
usage error), 3 Monte Carlo validation mismatch, 1 crash.

``plan``, ``sweep`` and ``fit-alpha`` read the packaged covering table
unless ``--table`` (or the ``table`` config key) names another file.  They
never solve a covering: a table path that is not a file, or an M past the
table's last row, is a usage error, and only ``coverage-table`` builds rows.
A ``plan`` that runs past the last row still writes the M it priced before.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .channel import (
    HoverGeometry,
    aggregation_slots,
    edge_success_probability,
    slot_duration,
    success_probability,
    tuned_link,
)
from .config import ConfigError, RunConfig, load_config
from .covering import MissingRowError, NormalizedCoverageTable, fit_alpha
from .field import EstimationInfeasible
from .mission import MissionReport, plan_aggregation, plan_estimation
from .simkit import SimConfig, estimate_success_probability

EXIT_OK = 0
EXIT_CRASH = 1
EXIT_INFEASIBLE = 2
EXIT_MISMATCH = 3

# fewest replications ``simulate`` and ``sweep --with-mc`` accept: with fewer
# per-replication rates the clustered standard error is too rough to read, and
# ``simulate``'s |z| <= 3 verdict fails far more often than the nominal 0.27%
_MIN_REPLICATIONS = 30


def _read_table(path: str, option: str) -> NormalizedCoverageTable:
    if not Path(path).is_file():
        # building the rows instead could start a covering solve of minutes
        raise ConfigError(f"{option} {path!r} is not a table file")
    try:
        return NormalizedCoverageTable.load(path)
    except ValueError as exc:
        raise ConfigError(f"{option}: {exc}") from exc


def load_table(cfg: RunConfig) -> NormalizedCoverageTable:
    """The covering table a run plans from: ``cfg.table_path``, else the packaged one."""
    if cfg.table_path:
        return _read_table(cfg.table_path, "table")
    return NormalizedCoverageTable.packaged()


def _out_dir(cfg: RunConfig, command: str, **options) -> Path:
    """``<out>/<command>/<label>``; ``options`` are the command's non-config
    arguments, and those that are set go into the default label."""
    label = cfg.label or cfg.digest()
    options = {k: v for k, v in options.items() if v is not None}
    if options and not cfg.label:
        payload = json.dumps(options, sort_keys=True).encode()
        label += "-" + hashlib.sha256(payload).hexdigest()[:8]
    path = Path(cfg.out_dir) / command / label
    path.mkdir(parents=True, exist_ok=True)
    return path


def _stamp(cfg: RunConfig) -> str:
    return f"# config={cfg.digest()} seed={cfg.seed}"


def _write_csv(path: Path, cfg: RunConfig, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([_stamp(cfg), header, *rows]) + "\n")


def _check_positive(**options: float | None) -> None:
    """Raise :class:`ConfigError` for a given option that is not a positive number."""
    for name, value in options.items():
        if value is not None and not 0 < value < math.inf:
            raise ConfigError(f"--{name.replace('_', '-')} must be a positive number, got {value!r}")


def _check_replications(replications: int) -> None:
    if replications < _MIN_REPLICATIONS:
        raise ConfigError(f"--replications must be at least {_MIN_REPLICATIONS}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults), overridden by every given option.

    Options parse straight into the ``RunConfig`` field they set; one that is
    absent reads ``None`` and leaves the file's value.
    """
    cfg = load_config(args.config) if args.config else RunConfig()
    names = {f.name for f in fields(RunConfig)}
    cfg = cfg.with_(**{k: v for k, v in vars(args).items() if k in names and v is not None})
    cfg.validate()
    return cfg


def _path(text: str) -> str | None:
    """An option path; an empty one leaves the configured path."""
    return text or None


def _plan_mission(cfg: RunConfig, table: NormalizedCoverageTable) -> MissionReport:
    """Plan ``cfg``'s mission and fleet over ``cfg``'s field."""
    common = dict(
        m_range=range(cfg.m_min, cfg.m_max + 1), k=cfg.uavs, depots=cfg.depots, table=table,
        fixed_beta=cfg.beta, fixed_aloha=cfg.aloha, seed=cfg.seed,
    )
    if cfg.mission == "aggregation":
        return plan_aggregation(cfg.field(), cfg.drone(), cfg.radio(), cfg.zeta, **common)
    return plan_estimation(
        cfg.field(), cfg.drone(), cfg.radio(), cfg.covariance(), cfg.delta, **common
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_coverage_table(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if args.extend is None:
        table = NormalizedCoverageTable(seed=cfg.seed, restarts=cfg.restarts)
    else:
        table = _read_table(args.extend, "--extend")
    table.ensure(args.m_max)
    out = _out_dir(cfg, "coverage-table", extend=args.extend)
    table.save(out / "table.csv")
    print(f"wrote {out / 'table.csv'} (M up to {table.max_m})")
    if table.max_m >= 3:
        fit = fit_alpha(table)
        print(f"alpha fit: sqrt({fit.c:.4f} M) {fit.d:+.4f}, rel l2 error {fit.rel_error:.3%}")
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    missing = None
    try:
        report = _plan_mission(cfg, load_table(cfg))
    except MissingRowError as exc:
        # the M priced before the table ran out are written, and the error stands
        if not exc.report.records:
            raise
        report, missing = exc.report, exc
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
    if missing is not None:
        raise missing
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
    try:
        lo, hi, n = spec.split(":")
        grid = np.linspace(float(lo), float(hi), int(n))
    except ValueError as exc:
        raise ConfigError(f"--grid wants lo:hi:n, got {spec!r}") from exc
    if grid.size == 0 or not np.isfinite(grid).all():
        raise ConfigError(f"--grid {spec!r} must give at least one point, all finite")
    return grid


def _check_grid(cfg: RunConfig, axis: str, grid: np.ndarray) -> None:
    """Raise :class:`ConfigError` for a grid value outside the model."""
    for value in grid.tolist():
        if axis in ("beta", "a"):
            try:
                cfg.with_(**{"beta" if axis == "beta" else "aloha": value}).validate()
            except ConfigError as exc:
                raise ConfigError(f"--grid value {value!r}: {exc}") from exc
        else:
            _check_positive(grid=value)


def _link(cfg: RunConfig, geom: HoverGeometry, beta: float | None = None):
    """The link at ``geom``: beta at ``beta``, else as configured (``RadioSpec``'s
    placeholder when ``optimize``), and ALOHA as configured, tuned when ``optimize``."""
    radio = cfg.radio()
    return tuned_link(geom, radio, radio.beta if beta is None else beta, cfg.aloha)


def _sweep_beta(cfg, geom, value):
    link = _link(cfg, geom, value)
    p = success_probability(geom, link)
    thr = p * math.log2(1.0 + link.beta)
    hover = aggregation_slots(1, cfg.zeta, p) * slot_duration(link)
    header = "beta,aloha,p_success,throughput_bps_hz,hover_s"
    return header, (value, link.aloha, p, thr, hover), link


def _sweep_aloha(cfg, geom, value):
    link = cfg.radio().with_(aloha=value)
    p = success_probability(geom, link)
    return "a,p_success,throughput_bps_hz", (value, p, p * math.log2(1.0 + link.beta)), link


def _sweep_radius(cfg, geom, value):
    g = HoverGeometry(value, cfg.drone().altitude_for_radius(value), cfg.density)
    link = _link(cfg, g)
    p = success_probability(g, link)
    hover = aggregation_slots(1, cfg.zeta, p) * slot_duration(link)
    return "R,aloha,p_success,hover_s", (value, link.aloha, p, hover), None


def _sweep_probe_radius(cfg, geom, value):
    p = edge_success_probability(geom, _link(cfg, geom), value)
    return "R_mse,p_edge_success", (value, p), None


def _sweep_area(cfg, geom, value, table):
    best = _plan_mission(cfg.with_(side=value), table).best
    return "side,best_m,T_total", (value, best.m, best.total), None


# axis -> handler(cfg, geom, value) returning (csv header, row, link); the
# handlers of the axes ``--with-mc`` simulates return the link at ``geom``
_MC_AXES = ("beta", "a")
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
    _check_grid(cfg, args.axis, grid)
    _check_positive(radius=args.radius)
    mc = dict(slots=args.slots, replications=args.replications) if args.with_mc else {}
    if args.with_mc:
        if args.axis not in _MC_AXES:
            raise ConfigError(f"--with-mc simulates the axes {_MC_AXES}, not {args.axis!r}")
        _check_positive(**mc)
        _check_replications(args.replications)
    geom = HoverGeometry(args.radius, cfg.drone().altitude_for_radius(args.radius), cfg.density)
    sweep = _SWEEP_AXES[args.axis]
    if args.axis == "area":
        # one table for every side, read before the first side is planned
        sweep = functools.partial(sweep, table=load_table(cfg))
    rows = []
    for i, value in enumerate(grid):
        header, row, link = sweep(cfg, geom, float(value))
        line = ",".join(repr(float(v)) for v in row)
        if args.with_mc:
            header += ",mc_p_success,mc_se"
            sim = SimConfig(geom=geom, radio=link, seed=cfg.seed + i, **mc)
            st = estimate_success_probability(sim)
            line += f",{st.p_success!r},{st.p_success_se!r}"
        rows.append(line)
    # the Monte Carlo options name the output only where they act
    out = _out_dir(cfg, "sweep", axis=args.axis, grid=args.grid, radius=args.radius,
                   with_mc=args.with_mc, **mc)
    _write_csv(out / "sweep.csv", cfg, header, rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    _check_positive(radius=args.radius, probe_radius=args.probe_radius,
                    slots=args.slots, replications=args.replications)
    _check_replications(args.replications)
    geom = HoverGeometry(args.radius, cfg.drone().altitude_for_radius(args.radius), cfg.density)
    radio = _link(cfg, geom)
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
    out = _out_dir(cfg, "simulate", radius=args.radius, slots=args.slots,
                   replications=args.replications, probe_radius=args.probe_radius)
    (out / "stats.json").write_text(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")
    print(
        f"analytic {analytic:.5f} vs empirical {stats.p_success:.5f}"
        f" ± {stats.p_success_se:.5f} (z = {z:+.2f}) -> {verdict}"
    )
    return EXIT_OK if verdict == "PASS" else EXIT_MISMATCH


def cmd_fit_alpha(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    table = load_table(cfg)
    try:
        fit = fit_alpha(table)
    except ValueError as exc:
        raise ConfigError(f"cannot fit the table: {exc}") from exc
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
        p.add_argument("--out", dest="out_dir", type=_path, help="output root directory")
        p.add_argument("--label", help="output subdirectory name (default: digest of the inputs)")

    p = sub.add_parser("coverage-table", help="build the normalized covering table")
    add_common(p)
    p.add_argument("--m-max", type=int, default=16)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--extend", help="existing table CSV to extend")
    p.set_defaults(func=cmd_coverage_table)

    p = sub.add_parser("plan", help="plan a mission")
    add_common(p)
    p.add_argument("--table", dest="table_path", type=_path,
                   help="coverage table CSV (default: packaged)")
    p.add_argument("--mission", choices=("aggregation", "estimation"), default=None)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--uavs", "-K", type=int, default=None)
    p.add_argument("--m-min", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--fixed-beta", dest="beta", type=float, default=None)
    p.add_argument("--fixed-a", dest="aloha", type=float, default=None)
    p.add_argument("--paper-literal-kinematics", action="store_const", const=True, default=None)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", help="sweep one parameter")
    add_common(p)
    p.add_argument("--table", dest="table_path", type=_path,
                   help="coverage table CSV (default: packaged)")
    p.add_argument("--axis", choices=tuple(_SWEEP_AXES), required=True)
    p.add_argument("--grid", required=True, help="lo:hi:n")
    p.add_argument("--radius", type=float, default=20.0, help="hover radius for link sweeps")
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--with-mc", action="store_true")
    p.add_argument("--slots", type=int, default=1000)
    p.add_argument("--replications", type=int, default=_MIN_REPLICATIONS)
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
    p.add_argument("--table", dest="table_path", type=_path,
                   help="coverage table CSV (default: packaged)")
    p.set_defaults(func=cmd_fit_alpha)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EstimationInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, MissingRowError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
