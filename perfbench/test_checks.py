"""Each correctness check passes a right value and rejects a wrong one.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import math

import numpy as np
import pytest

import checks

PACKET, BANDWIDTH, ZETA = 40960.0, 2e5, 250.0
SIGMA2, B, DELTA = 1.0, 75.0, 0.2


def agg_record(m=6, beta=1.5, p=0.25, travel=110.0):
    hover = ZETA / (m * p) * checks.slot_seconds(PACKET, BANDWIDTH, beta)
    return {"M": m, "beta": beta, "p_success": p, "hover_per_hl_s": hover,
            "hover_total_s": m * hover, "travel_s": travel, "total_s": m * hover + travel,
            "feasible": True, "radius_m": 30.0}


def est_record(p_edge=0.02, r=7.46, radius=30.0, beta=1.3):
    rho = checks.lens_area(radius, r) / (math.pi * r * r)
    j = 1
    while checks.edge_mse_bound(p_edge, j, rho, r, SIGMA2, B) > DELTA:
        j += 1
    hover = j * checks.slot_seconds(PACKET, BANDWIDTH, beta)
    return {"M": 9, "beta": beta, "slots_per_hl": j, "hover_per_hl_s": hover,
            "hover_total_s": 9 * hover, "travel_s": 150.0, "total_s": 9 * hover + 150.0,
            "feasible": True, "radius_m": radius, "r_mse_m": r, "rho": rho,
            "p_edge_success": p_edge}


def test_record_totals():
    rec = agg_record()
    assert checks.record_totals(rec) == []
    assert checks.record_totals({**rec, "total_s": rec["total_s"] * (1 + 1e-6)})
    assert checks.record_totals({**rec, "hover_total_s": rec["hover_total_s"] + 1.0})


def test_aggregation_hover():
    rec = agg_record()
    assert checks.aggregation_hover(rec, ZETA, PACKET, BANDWIDTH) == []
    wrong = {**rec, "hover_per_hl_s": rec["hover_per_hl_s"] * (1 + 1e-6)}
    assert checks.aggregation_hover(wrong, ZETA, PACKET, BANDWIDTH)
    assert checks.aggregation_hover({**rec, "beta": 1.6}, ZETA, PACKET, BANDWIDTH)


def test_estimation_hover():
    rec = est_record()
    assert checks.estimation_hover(rec, PACKET, BANDWIDTH) == []
    assert checks.estimation_hover({**rec, "slots_per_hl": rec["slots_per_hl"] + 1}, PACKET, BANDWIDTH)


def test_sweep_best():
    totals = [400, 300, 250, 220, 230, 240, 260]
    recs = [{**agg_record(m=i + 1), "total_s": t} for i, t in enumerate(totals)]
    assert checks.sweep_best(recs, recs[3], m_max=24) == []
    assert checks.sweep_best(recs, recs[4], m_max=24)  # not the argmin
    dip = [{**r} for r in recs]
    dip[5]["total_s"] = 225  # only two rises at the end when the sweep stopped
    assert checks.sweep_best(dip, dip[3], m_max=24)
    below = [{**r} for r in recs]
    below[6]["total_s"] = 210  # a later total beats the reported best
    assert checks.sweep_best(below, below[3], m_max=24)
    assert checks.sweep_best(recs[:5], recs[3], m_max=5) == []  # range exhausted


def test_published_optimum():
    best = {"M": 6, "total_s": 219.9}
    assert checks.published_optimum(best, checks.AGGREGATION_M_STAR, 223.0) == []
    assert checks.published_optimum({**best, "M": 4}, checks.AGGREGATION_M_STAR, 223.0)
    assert checks.published_optimum({**best, "total_s": 260.0}, checks.AGGREGATION_M_STAR, 223.0)
    assert checks.published_optimum({"M": 11, "total_s": 1.0}, checks.ESTIMATION_M_STAR)


def test_lens_area_closed_form():
    big = 30.0
    assert checks.lens_area(big, 2 * big) == pytest.approx(math.pi * big * big)
    assert checks.lens_area(big, 1e-3) == pytest.approx(math.pi * 1e-6 / 2, rel=1e-4)  # half the probe
    # against a Monte Carlo estimate of the intersection of the two disks
    rng = np.random.default_rng(0)
    r = 17.0
    pts = rng.uniform(-r, r, size=(400_000, 2))
    inside = (np.hypot(pts[:, 0], pts[:, 1]) <= r) & (np.hypot(pts[:, 0] + big, pts[:, 1]) <= big)
    assert checks.lens_area(big, r) == pytest.approx(inside.mean() * (2 * r) ** 2, rel=0.01)


def test_lens_ratio():
    rec = est_record()
    assert checks.lens_ratio(rec) == []
    assert checks.lens_ratio({**rec, "rho": rec["rho"] + 1e-6})


def test_edge_mse_budget():
    rec = est_record()
    assert checks.edge_mse_budget(rec, SIGMA2, B, DELTA) == []
    # one slot short leaves the bound above delta; one slot more is not minimal
    assert checks.edge_mse_budget({**rec, "slots_per_hl": rec["slots_per_hl"] - 1}, SIGMA2, B, DELTA)
    assert checks.edge_mse_budget({**rec, "slots_per_hl": rec["slots_per_hl"] + 1}, SIGMA2, B, DELTA)


def test_probe_radius_range():
    rec = est_record()
    assert checks.probe_radius_range(rec, SIGMA2, B, DELTA) == []
    limit = 0.5 * B * math.log(1.0 / ((SIGMA2 - DELTA) * SIGMA2))
    assert limit == pytest.approx(8.37, abs=5e-3)
    assert checks.probe_radius_range({**rec, "r_mse_m": limit + 1e-9}, SIGMA2, B, DELTA)
    assert checks.probe_radius_range({**rec, "r_mse_m": 0.0}, SIGMA2, B, DELTA)


def test_published_cover_radii():
    good = {1: math.sqrt(0.5), 2: 0.5590169943749475, 3: 0.50389, 4: math.sqrt(2) / 4, 5: 0.32616}
    assert checks.published_cover_radii(good) == []
    assert checks.published_cover_radii({**good, 5: 0.3261 * 1.03})
    assert checks.published_cover_radii({**good, 4: math.sqrt(2) / 4 + 1.1e-3})
    assert checks.published_cover_radii({**good, 1: math.sqrt(0.5) - 1.1e-3})


def test_grid_bracket():
    quad = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
    exact = math.sqrt(2) / 4
    assert checks.grid_bracket(exact, quad) == []
    assert checks.grid_bracket(math.sqrt(0.5), np.array([[0.5, 0.5]])) == []
    assert checks.grid_bracket(exact * 0.99, quad)  # understated radius
    assert checks.grid_bracket(exact + 0.01, quad)  # overstated beyond the grid slack


def test_tour_seconds():
    speed, accel = 20 / 3.6, 10 / 3.6
    ramp = speed * speed / accel  # both ramps
    assert checks.hop_seconds(ramp + speed, speed, accel, accel) == pytest.approx(2 * speed / accel + 1)
    short = ramp / 4  # never reaches cruise: time is sqrt(4u/accel)
    assert checks.hop_seconds(short, speed, accel, accel) == pytest.approx(math.sqrt(4 * short / accel))
    # a square of side 100 around a depot at its corner: four equal legs
    stops = np.array([[100.0, 0.0], [100.0, 100.0], [0.0, 100.0]])
    t = checks.tour_seconds(stops, (0.0, 0.0), speed, accel, accel, 8.0)
    assert t == pytest.approx(4 * checks.hop_seconds(100.0, speed, accel, accel) + 3 * 8.0)


def test_tours_partition():
    assert checks.tours_partition([[0, 2, 4], [1, 3]], 5, 2) == []
    assert checks.tours_partition([[0, 2], [1, 3]], 5, 2)  # stop 4 missing
    assert checks.tours_partition([[0, 2, 4], [1, 3, 4]], 5, 2)  # stop 4 twice
    assert checks.tours_partition([[0, 1, 2, 3, 4]], 5, 2)  # one tour for two UAVs


def test_fleet_totals():
    per_uav = [{"stops": 10, "travel_s": 140.0, "total_s": 170.0},
               {"stops": 10, "travel_s": 145.0, "total_s": 175.0}]
    assert checks.fleet_totals(per_uav, [140.0, 145.0], 3.0, 175.0) == []
    assert checks.fleet_totals(per_uav, [140.0, 144.0], 3.0, 175.0)
    assert checks.fleet_totals(per_uav, [140.0, 145.0], 3.1, 175.0)
    assert checks.fleet_totals(per_uav, [140.0, 145.0], 3.0, 170.0)


def test_fleet_vs_single():
    assert checks.fleet_vs_single(180.0, 346.0) == []
    assert checks.fleet_vs_single(1.03 * 346.0, 346.0)


def test_capture_agrees():
    assert checks.capture_agrees(0.271, 0.270, 0.001, "disk") == []
    assert checks.capture_agrees(0.271, 0.2675, 0.001, "disk")


def test_single_capture():
    assert checks.single_capture(0) == []
    assert checks.single_capture(1)


def test_edge_mse_guarantee():
    samples = np.full(20, 0.05)
    assert checks.edge_mse_guarantee(samples, DELTA) == []
    one = samples.copy()
    one[0] = 0.25  # 95% still within delta
    assert checks.edge_mse_guarantee(one, DELTA) == []
    two = one.copy()
    two[1] = 0.21
    assert checks.edge_mse_guarantee(two, DELTA)
