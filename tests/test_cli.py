import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fieldhopper import cli, simkit
from fieldhopper.channel import HoverGeometry, success_probability
from fieldhopper.config import ConfigError, RunConfig, load_config
from fieldhopper.mission import FieldSpec, plan_aggregation

from test_simkit import _simulate_batch_dense


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
    # a link that never transmits delivers no sample, so no M meets the target
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mission = estimation\naloha = 0\nm_max = 3\n")
    code = run(["plan", "--config", str(cfg), "--out", str(tmp_path), "--label", "bad"])
    assert code == cli.EXIT_INFEASIBLE


def test_plan_estimation_target_is_relative_to_field_variance(tmp_path):
    # delta = 1.4 is 70% of sigma2 = 2, a loose target
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mission = estimation\nsigma2 = 2\ndelta = 1.4\nm_min = 8\nm_max = 8\n")
    code = run(["plan", "--config", str(cfg), "--out", str(tmp_path), "--label", "loose"])
    assert code == 0


def test_estimation_config_needs_exponential_covariance(tmp_path, capsys):
    with pytest.raises(ConfigError, match="nu = 0.5"):
        RunConfig(mission="estimation", nu=1.5).validate()
    RunConfig(mission="aggregation", nu=1.5).validate()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mission = estimation\nnu = 0.3\n")
    code = run(["plan", "--config", str(cfg), "--m-max", "1", "--out", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE
    assert "usage error:" in capsys.readouterr().err


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


# sha256 of everything below the "# config=" stamp; both axes price hover
# as aggregation slots x slot length
SWEEP_DIGESTS = {
    ("beta", "1:10:10"): "f10e23d10e128c077d510346285eac9bc7d076359468a1be1ec588de5793e390",
    ("R", "15:45:7"): "390de4b801acfa06ba5c7e63f4c75bb5d92f33cb86f6aa427ebe423fbf31506b",
}


@pytest.mark.parametrize("axis, grid", list(SWEEP_DIGESTS))
def test_hover_sweeps_bit_identical(tmp_path, axis, grid):
    assert run(["sweep", "--axis", axis, "--grid", grid, "--out", str(tmp_path),
                "--label", "s"]) == 0
    lines = (tmp_path / "sweep" / "s" / "sweep.csv").read_text().splitlines()
    assert hashlib.sha256("\n".join(lines[1:]).encode()).hexdigest() == SWEEP_DIGESTS[axis, grid]


def test_simulate_stats_bit_identical(tmp_path):
    args = ["simulate", "--slots", "300", "--replications", "30", "--seed", "5",
            "--probe-radius", "15", "--out", str(tmp_path), "--label", "s"]
    assert run(args) == 0
    payload = json.loads((tmp_path / "simulate" / "s" / "stats.json").read_text())
    del payload["config"]  # it holds the output path
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == "b9034f9e24aeedf7c6ed3e15b2201490f5c8474811300d6af33879bf3ab82296"


def test_simulate_pass_and_replay(tmp_path):
    args = ["simulate", "--slots", "400", "--replications", "60", "--seed", "21",
            "--out", str(tmp_path), "--label", "s"]
    assert run(args) == 0
    stats = tmp_path / "simulate" / "s" / "stats.json"
    first = stats.read_bytes()
    assert json.loads(first)["verdict"] == "PASS"
    assert run(args) == 0
    assert stats.read_bytes() == first


def test_simulate_fails_on_the_edge_lens_alone(tmp_path, capsys, monkeypatch):
    # the disk estimate agrees with the analytic value and only the edge lens
    # is off by far more than 3 standard errors: the verdict is still FAIL
    def estimate(config):
        p = success_probability(config.geom, config.radio)
        return simkit.SimStats(slots=config.slots, replications=config.replications,
                               p_success=p, p_success_se=0.01,
                               p_edge_success=0.5, p_edge_success_se=0.01)

    monkeypatch.setattr(cli, "estimate_success_probability", estimate)
    code = run(["simulate", "--slots", "10", "--replications", "30", "--probe-radius", "15",
                "--out", str(tmp_path), "--label", "edge"])
    assert code == cli.EXIT_MISMATCH
    payload = json.loads((tmp_path / "simulate" / "edge" / "stats.json").read_text())
    assert payload["z"] == 0.0 and abs(payload["edge_z"]) > 3.0
    assert payload["verdict"] == "FAIL"
    assert capsys.readouterr().out.endswith("(z = +0.00) -> FAIL\n")


def test_simulate_stats_at_unit_shape_match_gamma_draws(tmp_path, monkeypatch):
    # the default link is Rayleigh (m = 1): stats.json must be what the
    # Gamma(1) draws of the dense reference simulator give, byte for byte
    args = ["simulate", "--slots", "300", "--replications", "30", "--seed", "23",
            "--out", str(tmp_path), "--label", "m1"]
    stats = tmp_path / "simulate" / "m1" / "stats.json"
    run(args)
    got = stats.read_bytes()
    assert json.loads(got)["config"]["nakagami_m"] == 1
    monkeypatch.setattr(simkit, "_simulate_batch", _simulate_batch_dense)
    run(args)
    assert stats.read_bytes() == got


def test_simulate_uses_beamwidth_altitude(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beamwidth_deg = 60\n")
    code = run(["simulate", "--config", str(cfg), "--slots", "50", "--replications", "30",
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


def test_sweep_probe_radius_at_the_diameter_is_the_radius_sweep(tmp_path):
    # a probe disk of radius 2R holds the whole hover disk, so the edge capture
    # probability is the disk's, on the same tuned link
    rows = {}
    for axis, grid in (("R", "20:20:1"), ("R_mse", "40:40:1")):
        args = ["sweep", "--axis", axis, "--grid", grid, "--radius", "20",
                "--out", str(tmp_path), "--label", axis]
        assert run(args) == 0
        line = (tmp_path / "sweep" / axis / "sweep.csv").read_text().splitlines()[2]
        rows[axis] = [float(v) for v in line.split(",")]
    assert rows["R_mse"][1] == pytest.approx(rows["R"][2], abs=1e-12)


def test_default_labels_keep_sweeps_of_one_config_apart(tmp_path):
    for axis, grid in (("beta", "1:2:2"), ("a", "0.01:0.02:2")):
        assert run(["sweep", "--axis", axis, "--grid", grid, "--out", str(tmp_path)]) == 0
    files = sorted((tmp_path / "sweep").glob("*/sweep.csv"))
    assert len(files) == 2
    # one config: both are stamped with its digest, and both labels begin with it
    digest = files[0].read_text().split()[1].removeprefix("config=")
    for f in files:
        assert f.read_text().startswith(f"# config={digest} ")
        assert f.parent.name.startswith(f"{digest}-")


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


def test_sweep_area_plans_the_configured_mission_and_fleet(tmp_path):
    # the sweep row at the configured side is plan's best mission: an
    # estimation plan with two UAVs, not a one-UAV aggregation plan
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mission = estimation\nuavs = 2\nm_min = 8\nm_max = 10\n")
    common = ["--config", str(cfg), "--out", str(tmp_path), "--label", "x"]
    assert run(["plan", *common]) == 0
    best = json.loads((tmp_path / "plan" / "x" / "report.json").read_text())["best"]
    assert run(["sweep", "--axis", "area", "--grid", "100:100:1", *common]) == 0
    lines = (tmp_path / "sweep" / "x" / "sweep.csv").read_text().splitlines()
    assert lines[2:] == [",".join(repr(float(v)) for v in (100.0, best["M"], best["total_s"]))]


def test_sweep_area_with_a_missing_table_exits_as_usage_error(tmp_path, capsys,
                                                              covering_solves):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"table = {tmp_path / 'missing.csv'}\n")
    args = ["sweep", "--config", str(cfg), "--axis", "area", "--grid", "100:200:3",
            "--out", str(tmp_path), "--label", "area"]
    assert run(args) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith("usage error:")
    assert covering_solves == []
    assert not (tmp_path / "sweep").exists()


def test_sweep_area_honours_paper_literal_kinematics(tmp_path):
    # on 20-30 m sides the hops fall below the 11.1 m ramp distance, where the
    # printed short-hop formula differs from the consistent one
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m_min = 3\nm_max = 5\npaper_literal_kinematics = true\n")
    args = ["sweep", "--config", str(cfg), "--axis", "area", "--grid", "20:30:2",
            "--out", str(tmp_path), "--label", "area"]
    assert run(args) == 0
    lines = (tmp_path / "sweep" / "area" / "sweep.csv").read_text().splitlines()
    conf = load_config(cfg)
    assert conf.drone().paper_literal
    for line, side in zip(lines[2:], (20.0, 30.0), strict=True):
        literal, consistent = (
            plan_aggregation(
                FieldSpec(side=side, density=conf.density), replace(conf.drone(), paper_literal=flag),
                conf.radio(), conf.zeta, m_range=range(3, 6), table=cli.load_table(conf),
                seed=conf.seed,
            ).best
            for flag in (True, False)
        )
        assert line == ",".join(repr(float(v)) for v in (side, literal.m, literal.total))
        assert literal.total != consistent.total


@pytest.mark.parametrize("line", ["side_m = -5", "warp_factor = 9", "nakagami_m = 1.5",
                                  "side_m = wide", "beamwidth_deg = 200", "uavs = 0",
                                  # NaN passes every `<= 0` check, inf plans a mission
                                  "side_m = nan", "density_per_m2 = nan", "zeta = nan",
                                  "speed_mps = inf", "depots = 50,nan"])
def test_config_errors_exit_as_usage_errors(tmp_path, line, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code = run(["plan", "--config", str(cfg), "--m-max", "1", "--out", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE
    assert "usage error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["plan", "--m-min", "0", "--m-max", "0"],
                                  ["plan", "--m-max", "0"],
                                  ["coverage-table", "--m-max", "0"]])
def test_zero_m_range_exits_as_usage_error(tmp_path, args):
    code = run([*args, "--out", str(tmp_path), "--label", "zero"])
    assert code == cli.EXIT_INFEASIBLE
    assert not (tmp_path / args[0] / "zero").exists()


@pytest.mark.parametrize("density", ["0", "-0.1"])
def test_a_field_without_sensors_exits_with_the_field_spec_message(tmp_path, capsys,
                                                                   monkeypatch, density):
    work = []
    monkeypatch.setattr(cli, "plan_aggregation", lambda *a, **k: work.append(a))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"density_per_m2 = {density}\n")
    code = run(["plan", "--config", str(cfg), "--m-max", "1", "--out", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        "usage error: side and density must be positive and finite\n")
    assert work == []


def test_config_line_without_equals_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# reference field\nside_m = 100\ndensity_per_m2 0.1\n")
    code = run(["plan", "--config", str(cfg), "--m-max", "1", "--out", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith(f"usage error: {cfg}:3: expected key = value")


@pytest.mark.parametrize("value, flag", [("1", True), ("TRUE", True), ("yes", True),
                                         ("0", False), ("False", False), ("NO", False)])
def test_config_paper_literal_kinematics_values(tmp_path, value, flag):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"paper_literal_kinematics = {value}\n")
    assert load_config(cfg_file).paper_literal_kinematics is flag


def test_config_rejects_misspelt_boolean(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("paper_literal_kinematics = ture\n")
    with pytest.raises(ConfigError, match="run.cfg:1: bad value for 'paper_literal_kinematics'"):
        load_config(cfg_file)


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
    assert run(["simulate", "--replications", "0", "--out", str(tmp_path)]) == cli.EXIT_INFEASIBLE


def test_simulate_needs_the_minimum_replications_before_any_slot(tmp_path, capsys, monkeypatch):
    # with few replications the |z| <= 3 verdict fails far above its nominal rate
    slots = []
    monkeypatch.setattr(simkit, "_simulate_batch", lambda *args: slots.append(args))
    code = run(["simulate", "--replications", str(cli._MIN_REPLICATIONS - 1),
                "--out", str(tmp_path), "--label", "few"])
    assert code == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith("usage error:")
    assert slots == []
    assert not (tmp_path / "simulate").exists()


def test_sweep_with_mc_needs_the_minimum_replications_before_any_slot(tmp_path, capsys,
                                                                     monkeypatch):
    # a standard error from a handful of clusters is no error bar
    slots = []
    monkeypatch.setattr(simkit, "_simulate_batch", lambda *args: slots.append(args))
    code = run(["sweep", "--axis", "a", "--grid", "0.01:0.1:3", "--with-mc", "--slots", "300",
                "--replications", str(cli._MIN_REPLICATIONS - 1), "--out", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith("usage error:")
    assert slots == []
    assert not (tmp_path / "sweep").exists()


def test_plan_past_the_table_writes_the_m_it_priced(tmp_path, capsys, covering_solves):
    # M = 24 is the packaged table's last row: it is priced and written, M = 25 is
    # still a usage error
    code = run(["plan", "--mission", "estimation", "--m-min", "24", "--m-max", "26",
                "--out", str(tmp_path), "--label", "past"])
    assert code == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith("usage error:")
    assert covering_solves == []
    assert run(["plan", "--mission", "estimation", "--m-min", "24", "--m-max", "24",
                "--out", str(tmp_path), "--label", "last"]) == cli.EXIT_OK
    # what a plan of M = 24 alone writes, but for the config block and its stamp
    past, last = tmp_path / "plan" / "past", tmp_path / "plan" / "last"
    reports = [json.loads((d / "report.json").read_text()) for d in (past, last)]
    assert [r["M"] for r in reports[0]["records"]] == [24]
    for report in reports:
        del report["config"]
    assert reports[0] == reports[1]
    rows = [(d / "sweep.csv").read_text().splitlines()[1:] for d in (past, last)]
    assert rows[0] == rows[1]


@pytest.mark.parametrize("args", [
    ["simulate", "--slots", "0"],
    ["simulate", "--radius", "nan"],
    ["simulate", "--radius", "-5"],
    ["simulate", "--radius", "inf"],
    ["simulate", "--probe-radius", "0"],
    ["simulate", "--probe-radius", "nan"],
    ["sweep", "--axis", "a", "--grid", "0.01:0.1:0"],
    ["sweep", "--axis", "a", "--grid", "0.01:0.1"],
    ["sweep", "--axis", "a", "--grid", "0.01:nan:3"],
    ["sweep", "--axis", "a", "--grid", "0.01:0.1:3", "--radius", "nan"],
    ["sweep", "--axis", "a", "--grid", "0.01:0.1:3", "--with-mc", "--slots", "0"],
    ["sweep", "--axis", "beta", "--grid", "0.5:2:3"],
    ["sweep", "--axis", "a", "--grid", "0.5:1.5:3"],
    ["sweep", "--axis", "R", "--grid=-5:10:2"],
    ["sweep", "--axis", "R_mse", "--grid=-5:10:2"],
    ["sweep", "--axis", "area", "--grid=-5:10:2"],
    ["coverage-table", "--m-max", "3", "--extend", "absent_table.csv"],
    # a covering table the run cannot read is never solved in its place
    ["plan", "--table", "absent_table.csv"],
    ["fit-alpha", "--table", "absent_table.csv"],
    ["plan", "--m-min", "25", "--m-max", "25"],  # past the packaged table's M = 24
])
def test_bad_simulate_and_sweep_arguments_exit_as_usage_errors(tmp_path, capsys,
                                                               covering_solves, args):
    code = run([*args, "--out", str(tmp_path), "--label", "bad"])
    assert code == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / args[0] / "bad").exists()
    assert covering_solves == []


def test_analytic_sweep_label_ignores_the_monte_carlo_options(tmp_path):
    # without --with-mc, --slots and --replications change no byte, so no label
    base = ["sweep", "--axis", "a", "--grid", "0.01:0.02:2", "--out", str(tmp_path)]
    for extra in ([], ["--slots", "7"], ["--replications", "40"]):
        assert run([*base, *extra]) == 0
    assert len(list((tmp_path / "sweep").glob("*/sweep.csv"))) == 1
    # with it they are inputs, and runs that differ in them write apart
    for slots in ("300", "400"):
        assert run([*base, "--with-mc", "--slots", slots]) == 0
    assert len(list((tmp_path / "sweep").glob("*/sweep.csv"))) == 3


@pytest.mark.parametrize("axis, grid", [("R", "15:20:2"), ("area", "100:100:1")])
def test_sweep_label_ignores_radius_on_axes_that_do_not_read_it(tmp_path, axis, grid):
    # R prices each grid radius and area plans whole missions, so --radius
    # changes no byte there and names no second directory
    base = ["sweep", "--axis", axis, "--grid", grid, "--out", str(tmp_path)]
    assert run(base) == 0
    assert run([*base, "--radius", "30"]) == 0
    files = list((tmp_path / "sweep").glob("*/sweep.csv"))
    assert len(files) == 1
    # on a disk axis it is an input, and runs that differ in it write apart
    disk = ["sweep", "--axis", "R_mse", "--grid", "10:20:2", "--out", str(tmp_path)]
    assert run(disk) == 0
    assert run([*disk, "--radius", "30"]) == 0
    assert len(list((tmp_path / "sweep").glob("*/sweep.csv"))) == 3


@pytest.mark.parametrize("axis, grid", [("R", "15:20:2"), ("R_mse", "10:20:2"),
                                        ("area", "100:100:1")])
def test_sweep_with_mc_on_an_axis_it_cannot_simulate_is_a_usage_error(tmp_path, capsys,
                                                                       monkeypatch, axis, grid):
    priced = []
    monkeypatch.setitem(cli._SWEEP_AXES, axis, lambda *args, **kwargs: priced.append(args))
    code = run(["sweep", "--axis", axis, "--grid", grid, "--with-mc", "--out", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE
    assert "--with-mc" in capsys.readouterr().err
    assert priced == []
    assert not (tmp_path / "sweep").exists()


_TABLE_HEAD = "# fieldhopper-coverage-table v1 seed=42 restarts=60\nM,delta,alpha,centers\n"
_ROW_ONE = "1,0.7071067811865476,0.0,0.5;0.5\n"


@pytest.mark.parametrize("bad_row", [
    "2",  # truncated
    "2,0.56,1.0",  # no centers
    "2,0.56,wide,0.5;0.25,0.5;0.75",  # a value that is no number
    "two,0.56,1.0,0.5;0.25,0.5;0.75",
    "2,0.56,1.0,0.5;0.25,0.5",  # a center that is not x;y
    "2,0.56,1.0,0.5;0.25,0.5;0.75;0.1",
    "2,0.56,1.0,0.5;0.25",  # one center for M = 2
    "2,0.56,1.0,0.5;0.25,0.5;0.75,0.5;0.5",
    "1,nan,0.0,0.5;0.5",  # a value that is not finite
    "2,0.56,inf,0.5;0.25,0.5;0.75",
    "2,0.56,1.0,0.5;-inf,0.5;0.75",
])
@pytest.mark.parametrize("how", ["--table", "table =", "--extend"])
def test_malformed_table_row_exits_as_usage_error(tmp_path, capsys, covering_solves,
                                                  bad_row, how):
    path = tmp_path / "t.csv"
    path.write_text(_TABLE_HEAD + _ROW_ONE + bad_row + "\n")
    if how == "--table":
        args = ["plan", "--table", str(path), "--m-max", "1"]
    elif how == "table =":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"table = {path}\nm_max = 1\n")
        args = ["plan", "--config", str(cfg)]
    else:
        args = ["coverage-table", "--m-max", "3", "--extend", str(path)]
    code = run([*args, "--out", str(tmp_path), "--label", "bad"])
    assert code == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"{path}:4:" in err
    assert not (tmp_path / args[0] / "bad").exists()
    assert covering_solves == []


def test_fit_alpha_on_a_table_with_one_tour_exits_as_usage_error(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text(_TABLE_HEAD + _ROW_ONE + "2,0.5590169943749475,1.0,0.5;0.25,0.5;0.75\n")
    code = run(["fit-alpha", "--table", str(path), "--out", str(tmp_path), "--label", "f"])
    assert code == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "fit-alpha" / "f").exists()


@pytest.mark.parametrize("args", [["plan", "--m-max", "1"],
                                  ["simulate", "--slots", "10", "--replications", "30"]])
def test_negative_seed_exits_as_usage_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                            args):
    work = []
    monkeypatch.setattr(cli, "plan_aggregation", lambda *a, **k: work.append(a))
    monkeypatch.setattr(cli, "tuned_link", lambda *a, **k: work.append(a))
    code = run([*args, "--seed", "-3", "--out", str(tmp_path), "--label", "neg"])
    assert code == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith("usage error:")
    assert work == []
    assert not (tmp_path / args[0]).exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_restarts_exits_as_usage_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                                source):
    work = []
    monkeypatch.setattr(cli.NormalizedCoverageTable, "ensure", lambda *a, **k: work.append(a))
    args = ["coverage-table", "--m-max", "2"]
    if source == "flag":
        args += ["--restarts", "-1"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("restarts = -1\n")
        args += ["--config", str(cfg)]
    code = run([*args, "--out", str(tmp_path), "--label", "neg"])
    assert code == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith("usage error:")
    assert work == []
    assert not (tmp_path / "coverage-table").exists()


# Runs in a fresh interpreter: the test session itself has SciPy loaded
_NO_SCIPY_SCRIPT = """
import json, sys
from fieldhopper import cli
from fieldhopper.field import CovarianceSpec, ObservationSet, covariance, krige

out = ["--out", sys.argv[1]]
codes = [cli.main(args + out) for args in (
    ["plan", "--m-min", "2", "--m-max", "2"],
    ["plan", "--mission", "estimation", "--m-min", "2", "--m-max", "2"],
    ["plan", "-K", "2", "--m-min", "3", "--m-max", "3"],
    ["simulate", "--slots", "200", "--replications", "30"],
    ["sweep", "--axis", "beta", "--grid", "1:2:2"],
    ["fit-alpha"],
    ["coverage-table", "--m-max", "3", "--restarts", "4"],
)]
after_cli = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
obs = ObservationSet([[0.0, 0.0], [10.0, 0.0]], [0.3, -0.2])
estimates, mse = krige(obs, [[5.0, 0.0]], CovarianceSpec(1.0, 0.5, 75.0))
after_krige = ("scipy.linalg" in sys.modules, "scipy.special" in sys.modules)
bessel = covariance(CovarianceSpec(1.0, 0.8, 75.0), 10.0)
print(json.dumps({
    "codes": codes, "after_cli": after_cli, "after_krige": after_krige,
    "krige": [float(estimates[0]), float(mse[0])],
    "bessel": bessel, "special_loaded": "scipy.special" in sys.modules,
}))
"""


def test_cli_commands_never_load_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    # a short simulate runs to its verdict, which may be a mismatch
    assert got["codes"][3] in (cli.EXIT_OK, cli.EXIT_MISMATCH)
    assert got["codes"][:3] + got["codes"][4:] == [cli.EXIT_OK] * 6
    assert got["after_cli"] == []
    # kriging loads scipy.linalg, and the Bessel branch scipy.special, on first use
    assert got["after_krige"] == [True, False]
    assert got["special_loaded"]
    assert math.isfinite(got["krige"][0]) and 0.0 < got["krige"][1] < 1.0
    assert 0.0 < got["bessel"] < 1.0


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


# every float field of the four specs a RunConfig builds
SPEC_FIELDS = [
    (build, name)
    for build, names in (
        ("radio", ("power", "noise", "eta", "bandwidth", "packet_bits", "beta", "aloha")),
        ("drone", ("speed", "accel", "decel", "reconf_time", "beamwidth")),
        ("field", ("side", "density")),
        ("covariance", ("sigma2", "nu", "b")),
    )
    for name in names
]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("build, name", SPEC_FIELDS)
def test_specs_reject_nan_and_inf(build, name, bad):
    spec = getattr(RunConfig(), build)()
    with pytest.raises(ValueError):
        replace(spec, **{name: bad})


def test_config_digest_stable():
    assert RunConfig().digest() == RunConfig().digest()
    assert RunConfig().digest() != RunConfig(seed=1).digest()
