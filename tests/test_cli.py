import json
import math

import numpy as np
import pytest

from fieldhopper import cli, covering
from fieldhopper.channel import HoverGeometry, success_probability
from fieldhopper.config import ConfigError, RunConfig, load_config
from fieldhopper.mission import FieldSpec, plan_aggregation


def run(args):
    return cli.main(args)


def test_coverage_table_single_row(tmp_path):
    code = run(["coverage-table", "--m-max", "1", "--out", str(tmp_path), "--label", "x"])
    assert code == 0
    lines = (tmp_path / "coverage-table" / "x" / "table.csv").read_text().splitlines()
    assert lines[1] == "M,delta,alpha,centers"
    m, delta, alpha, centers = lines[2].split(",")
    assert m == "1"
    assert float(delta) == pytest.approx(math.sqrt(0.5))
    assert float(alpha) == 0.0
    assert centers == "0.5;0.5"


def test_coverage_table_rerun_identical(tmp_path):
    args = ["coverage-table", "--m-max", "3", "--restarts", "12", "--seed", "4",
            "--out", str(tmp_path), "--label", "x"]
    run(args)
    path = tmp_path / "coverage-table" / "x" / "table.csv"
    first = path.read_bytes()
    run(args)
    assert path.read_bytes() == first


def test_plan_aggregation_outputs(tmp_path):
    args = ["plan", "--mission", "aggregation", "--m-min", "5", "--m-max", "7",
            "--out", str(tmp_path), "--label", "agg", "--seed", "1"]
    assert run(args) == 0
    out = tmp_path / "plan" / "agg"
    report = json.loads((out / "report.json").read_text())
    assert report["mission"] == "aggregation"
    assert report["best"]["M"] in (5, 6, 7)
    csv_lines = (out / "sweep.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# config=")
    assert csv_lines[1] == "M,R,T_hover,T_travel,T_total,beta,aloha,feasible"
    assert len(csv_lines) == 2 + 3
    first = (out / "sweep.csv").read_bytes()
    assert run(args) == 0
    assert (out / "sweep.csv").read_bytes() == first


def test_plan_infeasible_exit_code(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mission = estimation\nsigma2 = 2\ndelta = 0.1\nm_max = 3\n")
    code = run(["plan", "--config", str(cfg), "--out", str(tmp_path), "--label", "bad"])
    assert code == cli.EXIT_INFEASIBLE


def test_sweep_beta_monotone(tmp_path):
    args = ["sweep", "--axis", "beta", "--grid", "1:10:10", "--out", str(tmp_path),
            "--label", "b"]
    assert run(args) == 0
    lines = (tmp_path / "sweep" / "b" / "sweep.csv").read_text().splitlines()[2:]
    p = [float(l.split(",")[2]) for l in lines]
    assert all(b < a for a, b in zip(p[:-1], p[1:]))


def test_sweep_aloha_unimodal_peak_near_optimum(tmp_path, geom20, radio):
    from fieldhopper.channel import optimal_aloha

    args = ["sweep", "--axis", "a", "--grid", "0.002:0.05:25", "--out", str(tmp_path),
            "--label", "a"]
    assert run(args) == 0
    lines = (tmp_path / "sweep" / "a" / "sweep.csv").read_text().splitlines()[2:]
    grid = np.array([float(l.split(",")[0]) for l in lines])
    thr = np.array([float(l.split(",")[2]) for l in lines])
    a_star = optimal_aloha(geom20, radio.with_(beta=1.8))
    assert abs(grid[np.argmax(thr)] - a_star) <= 0.004
    peak = int(np.argmax(thr))
    assert np.all(np.diff(thr[: peak + 1]) > 0.0)
    assert np.all(np.diff(thr[peak:]) < 0.0)


def test_sweep_radius_hover_increases(tmp_path):
    args = ["sweep", "--axis", "R", "--grid", "15:45:7", "--out", str(tmp_path),
            "--label", "r"]
    assert run(args) == 0
    lines = (tmp_path / "sweep" / "r" / "sweep.csv").read_text().splitlines()[2:]
    hover = [float(l.split(",")[3]) for l in lines]
    assert all(b > a for a, b in zip(hover[:-1], hover[1:]))


def test_simulate_pass_and_replay(tmp_path):
    args = ["simulate", "--slots", "400", "--replications", "60", "--seed", "21",
            "--out", str(tmp_path), "--label", "s"]
    assert run(args) == 0
    stats = tmp_path / "simulate" / "s" / "stats.json"
    first = stats.read_bytes()
    assert json.loads(first)["verdict"] == "PASS"
    assert run(args) == 0
    assert stats.read_bytes() == first


def test_simulate_uses_beamwidth_altitude(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beamwidth_deg = 60\n")
    code = run(["simulate", "--config", str(cfg), "--slots", "50", "--replications", "2",
                "--out", str(tmp_path), "--label", "narrow"])
    assert code in (cli.EXIT_OK, cli.EXIT_MISMATCH)
    stats = json.loads((tmp_path / "simulate" / "narrow" / "stats.json").read_text())
    # a 60-degree beam hovers at R / tan(30 deg); the 90-degree value is 0.449
    assert stats["analytic_p_success"] == pytest.approx(0.226, abs=1e-3)


def test_sweep_radius_uses_beamwidth_altitude(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beamwidth_deg = 60\naloha = 0.02\n")
    args = ["sweep", "--config", str(cfg), "--axis", "R", "--grid", "20:20:1",
            "--out", str(tmp_path), "--label", "r60"]
    assert run(args) == 0
    row = (tmp_path / "sweep" / "r60" / "sweep.csv").read_text().splitlines()[2]
    geom = HoverGeometry(20.0, 20.0 * math.sqrt(3.0), 0.1)
    want = success_probability(geom, load_config(cfg).radio())
    assert float(row.split(",")[2]) == pytest.approx(want, rel=1e-12)


def test_sweep_area_plans_each_side(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m_min = 5\nm_max = 7\n")
    args = ["sweep", "--config", str(cfg), "--axis", "area", "--grid", "100:150:2",
            "--out", str(tmp_path), "--label", "area"]
    assert run(args) == 0
    lines = (tmp_path / "sweep" / "area" / "sweep.csv").read_text().splitlines()
    assert lines[1] == "side,best_m,T_total"
    conf = load_config(cfg)
    for line, side in zip(lines[2:], (100.0, 150.0)):
        best = plan_aggregation(
            FieldSpec(side=side, density=conf.density), conf.drone(), conf.radio(),
            conf.zeta, m_range=range(5, 8), table=cli.load_table(conf), seed=conf.seed,
        ).best
        assert line == ",".join(repr(float(v)) for v in (side, best.m, best.total))


def test_sweep_area_builds_a_missing_table_once(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"m_max = 3\nrestarts = 4\ntable = {tmp_path / 'missing.csv'}\n")
    solves = []
    solve = covering.solve_unit_covering

    def counted(m, *args, **kwargs):
        solves.append(m)
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(covering, "solve_unit_covering", counted)
    args = ["sweep", "--config", str(cfg), "--axis", "area", "--grid", "100:200:3",
            "--out", str(tmp_path), "--label", "area"]
    assert run(args) == 0
    assert sorted(solves) == [1, 2, 3]
    lines = (tmp_path / "sweep" / "area" / "sweep.csv").read_text().splitlines()
    conf = load_config(cfg)
    for line, side in zip(lines[2:], (100.0, 150.0, 200.0), strict=True):
        best = plan_aggregation(
            FieldSpec(side=side, density=conf.density), conf.drone(), conf.radio(),
            conf.zeta, m_range=range(1, 4), table=cli.load_table(conf), seed=conf.seed,
        ).best
        assert line == ",".join(repr(float(v)) for v in (side, best.m, best.total))


@pytest.mark.parametrize("line", ["side_m = -5", "warp_factor = 9", "nakagami_m = 1.5",
                                  "side_m = wide", "beamwidth_deg = 200"])
def test_config_errors_exit_as_usage_errors(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code = run(["plan", "--config", str(cfg), "--m-max", "1", "--out", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE


def test_missing_config_file_exits_as_usage_error(tmp_path):
    code = run(["plan", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE


def test_crash_keeps_crash_exit_code(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "plan_aggregation", boom)
    code = run(["plan", "--m-max", "1", "--out", str(tmp_path)])
    assert code == cli.EXIT_CRASH


def test_simulate_rejects_zero_replications(tmp_path):
    with pytest.raises(SystemExit):
        run(["simulate", "--replications", "0", "--out", str(tmp_path)])


def test_fit_alpha_outputs(tmp_path):
    assert run(["fit-alpha", "--out", str(tmp_path), "--label", "f"]) == 0
    fit = json.loads((tmp_path / "fit-alpha" / "f" / "fit.json").read_text())
    assert 1.0 < fit["c"] < 1.8
    assert -0.8 < fit["d"] < 0.0
    assert fit["rel_error"] < 0.10


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        """
        # reference deployment
        mission = estimation
        power_dbm = -30
        noise_dbm = -80
        bandwidth_khz = 200
        packet_kb = 5
        speed_kmh = 20
        accel_kmh_per_s = 10
        beamwidth_deg = 90
        sinr_threshold = optimize
        aloha = 0.02
        corr_range_m = 75
        depots = 10,10; 90,90
        seed = 3
        """
    )
    cfg = load_config(cfg_file)
    assert cfg.mission == "estimation"
    assert cfg.power == pytest.approx(1e-6)
    assert cfg.noise == pytest.approx(1e-11)
    assert cfg.bandwidth == 2e5
    assert cfg.packet_bits == 40960.0
    assert cfg.speed == pytest.approx(20 / 3.6)
    assert cfg.accel == pytest.approx(10 / 3.6)
    assert cfg.beamwidth == pytest.approx(math.pi / 2)
    assert cfg.beta is None
    assert cfg.aloha == 0.02
    assert cfg.corr_range == 75.0
    assert cfg.depots == [(10.0, 10.0), (90.0, 90.0)]
    assert cfg.seed == 3


def test_config_literal_acceleration_unit(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("accel_kmh2 = 10\n")
    cfg = load_config(cfg_file)
    assert cfg.accel == pytest.approx(10 * 1000.0 / 3600.0**2)


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("warp_factor = 9\n")
    with pytest.raises(ValueError):
        load_config(cfg_file)
    with pytest.raises(ConfigError, match="run.cfg:1: unknown key"):
        load_config(cfg_file)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(mission="harvest").validate()
    with pytest.raises(ValueError):
        RunConfig(mission="estimation", delta=1.5).validate()
    with pytest.raises(ValueError):
        RunConfig(zeta=0.0).validate()
    RunConfig().validate()


def test_config_digest_stable():
    assert RunConfig().digest() == RunConfig().digest()
    assert RunConfig().digest() != RunConfig(seed=1).digest()
