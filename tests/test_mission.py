import hashlib
import json
import math

import numpy as np
import pytest

from fieldhopper.field import CovarianceSpec, optimal_slots_estimation
from fieldhopper.mission import (
    FieldSpec,
    multi_uav_total,
    plan_aggregation,
    plan_estimation,
)
from fieldhopper.tours import solve_minmax_mdmtsp, solve_tsp


@pytest.mark.parametrize("mission", ["aggregation", "estimation"])
def test_default_table_is_the_packaged_one(deployment, drone, radio, cov75, table,
                                           covering_solves, mission):
    if mission == "aggregation":
        def plan(**kwargs):
            return plan_aggregation(deployment, drone, radio, 250.0, **kwargs)
    else:
        def plan(**kwargs):
            return plan_estimation(deployment, drone, radio, cov75, 0.2,
                                   m_range=range(8, 11), **kwargs)
    report = plan()
    assert report.to_dict() == plan(table=table).to_dict()
    assert covering_solves == []
    if mission == "aggregation":  # the reference deployment's optimum
        assert (report.best.m, round(report.best.total, 3)) == (6, 219.907)


# sha256 of json.dumps(report.to_dict(), sort_keys=True): a refactor of the
# planners that moves any value of these plans, or a key, fails here
PLAN_DIGESTS = {
    "aggregation": "4f7ad7a55a2a87f71e305f2f3c900b22253fbe8e9a2b5c167de8a1aa29751d81",
    "estimation M 8-10": "ee62511458e601b073a1c86bed8bd69ea38ecd924aa722d09b9e03144b7ad6f4",
    "K=2 M=18": "d220df89f1eda6cb3ff5c980881d0cbd8d2392646e97f0a8af2d3a1dfceb73e3",
}


@pytest.mark.parametrize("case", list(PLAN_DIGESTS))
def test_plans_bit_identical(case, deployment, drone, radio, cov75, table):
    if case == "aggregation":
        report = plan_aggregation(deployment, drone, radio, 250.0, table=table)
    elif case == "estimation M 8-10":
        report = plan_estimation(deployment, drone, radio, cov75, 0.2,
                                 m_range=range(8, 11), table=table)
    else:
        report = plan_aggregation(deployment, drone, radio, 250.0, m_range=[18], k=2,
                                  depots=[(50.0, 0.0), (50.0, 100.0)], table=table)
    payload = json.dumps(report.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == PLAN_DIGESTS[case]


def test_fixed_aloha_is_applied_before_the_beta_search(deployment, drone, radio, cov75, table):
    def plan(mission, radio_aloha):
        link = radio.with_(aloha=radio_aloha)
        if mission == "aggregation":
            report = plan_aggregation(deployment, drone, link, 250.0, m_range=[6],
                                      table=table, fixed_aloha=5e-4)
        else:
            report = plan_estimation(deployment, drone, link, cov75, 0.2, m_range=[9],
                                     table=table, fixed_aloha=5e-4)
        assert report.records[0].feasible
        return report.to_dict()

    for mission in ("aggregation", "estimation"):
        assert plan(mission, 0.01) == plan(mission, 5e-4)


def test_estimation_prices_one_slot_budget_per_m(deployment, drone, radio, cov75, table,
                                                 monkeypatch):
    priced = []

    def counted(geom, *args):
        priced.append(geom.radius)
        return optimal_slots_estimation(geom, *args)

    monkeypatch.setattr("fieldhopper.mission.optimal_slots_estimation", counted)
    report = plan_estimation(deployment, drone, radio, cov75, 0.2, m_range=range(8, 11),
                             table=table)
    assert priced == [r.radius for r in report.records]


def test_both_missions_plan_on_one_link(deployment, drone, radio, cov75, table):
    def links(report):
        return {r.m: (r.beta, r.aloha, r.p_success) for r in report.records}

    agg = links(plan_aggregation(deployment, drone, radio, 250.0, table=table))
    est = links(plan_estimation(deployment, drone, radio, cov75, 0.2, table=table))
    common = sorted(agg.keys() & est.keys())
    assert common == list(range(1, 10))
    assert [est[m] for m in common] == [agg[m] for m in common]


def test_zero_samples_reduces_to_travel(deployment, drone, radio, table):
    report = plan_aggregation(
        deployment, drone, radio, zeta=0.0, m_range=range(1, 8), table=table,
        fixed_beta=1.8, fixed_aloha=0.02,
    )
    assert all(r.hover_total == 0.0 for r in report.records)
    assert report.best.m == 1  # pure travel minimization


def test_doubling_zeta_doubles_hover_only(deployment, drone, radio, table):
    kwargs = dict(m_range=range(4, 7), table=table, fixed_beta=1.8, fixed_aloha=0.02)
    a = plan_aggregation(deployment, drone, radio, zeta=250.0, **kwargs)
    b = plan_aggregation(deployment, drone, radio, zeta=500.0, **kwargs)
    for ra, rb in zip(a.records, b.records):
        assert rb.hover_per_hl == pytest.approx(2.0 * ra.hover_per_hl, rel=1e-12)
        assert rb.travel == ra.travel


def test_total_identity_single_uav(deployment, drone, radio, table):
    report = plan_aggregation(
        deployment, drone, radio, zeta=250.0, m_range=range(4, 8), table=table,
        fixed_beta=1.8, fixed_aloha=0.02,
    )
    for r in report.records:
        assert r.total == pytest.approx(r.hover_total + r.travel, rel=1e-12)
        assert r.hover_total == pytest.approx(r.m * r.hover_per_hl, rel=1e-12)


def test_hover_falls_travel_rises(deployment, drone, radio, table):
    report = plan_aggregation(
        deployment, drone, radio, zeta=250.0, m_range=range(1, 11), table=table,
    )
    hovers = [r.hover_total for r in report.records]
    travels = [r.travel for r in report.records]
    hover_up = sum(b > a * 1.001 for a, b in zip(hovers[:-1], hovers[1:]))
    travel_down = sum(b < a * 0.999 for a, b in zip(travels[:-1], travels[1:]))
    assert hover_up <= 1  # one heuristic outlier allowed
    assert travel_down <= 1


def test_reports_are_deterministic(deployment, drone, radio, table):
    kwargs = dict(m_range=range(3, 7), table=table)
    a = plan_aggregation(deployment, drone, radio, zeta=250.0, **kwargs)
    b = plan_aggregation(deployment, drone, radio, zeta=250.0, **kwargs)
    assert a.to_dict() == b.to_dict()


def test_infeasible_m_recorded_and_skipped(deployment, drone, radio, table):
    silent = radio.with_(aloha=0.0)
    report = plan_aggregation(
        deployment, drone, silent, zeta=250.0, m_range=range(1, 4), table=table,
        fixed_beta=1.8, fixed_aloha=0.0,
    )
    assert all(not r.feasible for r in report.records)
    assert len(report.records) == 3
    with pytest.raises(Exception):
        report.best.m


def test_infeasible_estimation_m_recorded_and_skipped(deployment, drone, radio, cov75, table):
    # a link that never transmits meets no MSE target: the record carries the
    # infinite slot count and hover, and no budget fields
    report = plan_estimation(deployment, drone, radio, cov75, 0.2, m_range=range(1, 4),
                             table=table, fixed_aloha=0.0)
    assert all(not r.feasible for r in report.records)
    assert len(report.records) == 3
    with pytest.raises(Exception):
        report.best.m
    for rec in report.records:
        assert rec.slots_per_hl == rec.hover_per_hl == rec.hover_total == rec.total == math.inf
        assert math.isnan(rec.travel)
        assert rec.r_mse is None and rec.rho is None and rec.p_edge_success is None
        assert not {"r_mse_m", "rho", "p_edge_success"} & rec.to_dict().keys()


def test_estimation_hover_monotone_in_target(deployment, drone, radio, cov75, table):
    hovers = []
    for delta in (0.3, 0.2, 0.1):
        rep = plan_estimation(
            deployment, drone, radio, cov75, delta, m_range=[6], table=table,
            fixed_beta=1.8, fixed_aloha=0.0127,
        )
        hovers.append(rep.records[0].hover_per_hl)
    assert hovers[0] <= hovers[1] <= hovers[2]


def test_estimation_records_budget_fields(deployment, drone, radio, cov75, table):
    rep = plan_estimation(
        deployment, drone, radio, cov75, 0.2, m_range=[8], table=table,
        fixed_beta=1.3, fixed_aloha=0.011,
    )
    rec = rep.records[0]
    assert rec.r_mse is not None and 0.0 < rec.r_mse < 8.4
    assert rec.rho is not None and 0.0 < rec.rho <= 1.0
    assert rec.slots_per_hl == int(rec.slots_per_hl) >= 1
    assert rec.hover_per_hl > 0.0


@pytest.mark.parametrize("k", [0.5, 2.0, 4.0])
def test_estimation_plan_reads_delta_over_sigma2_only(k, deployment, drone, radio, cov75,
                                                      table):
    # scaling sigma2 and delta by a power of two is exact, so the plans agree
    # bit for bit
    def plan(spec, delta):
        return plan_estimation(deployment, drone, radio, spec, delta,
                               m_range=range(8, 11), table=table).to_dict()

    scaled = CovarianceSpec(sigma2=k * cov75.sigma2, nu=cov75.nu, b=cov75.b)
    assert plan(scaled, k * 0.2) == plan(cov75, 0.2)


@pytest.mark.parametrize("density", [0.0, -0.1])
def test_a_planned_field_has_sensors(density):
    # an empty field has no link to tune: no M of it may be planned
    with pytest.raises(ValueError, match="side and density must be positive and finite"):
        FieldSpec(side=100.0, density=density)


def test_multi_uav_total_reduces_to_single(drone, table):
    centers = table.centers(8) * 100.0
    depot = (50.0, 50.0)
    tour = solve_tsp(centers, depot)
    total, per_uav, worst = multi_uav_total([tour], 12.0, drone)
    assert worst == 0
    assert total == pytest.approx(per_uav[0].travel_time + 8 * 12.0)


def test_multi_uav_symmetric_split(drone):
    centers = np.array([[25.0, 50.0], [75.0, 50.0]])
    tours = solve_minmax_mdmtsp(centers, [(50.0, 50.0)], 2)
    total, per_uav, _ = multi_uav_total(tours, 5.0, drone)
    assert per_uav[0].total_time == pytest.approx(per_uav[1].total_time)
    assert total == pytest.approx(per_uav[0].total_time)


def test_multi_uav_plan_runs(deployment, drone, radio, table):
    report = plan_aggregation(
        deployment, drone, radio, zeta=250.0, m_range=range(6, 8), k=3,
        table=table, fixed_beta=1.8, fixed_aloha=0.0075,
    )
    rec = report.records[0]
    assert rec.per_uav is not None and len(rec.per_uav) == 3
    assert sum(u.stops for u in rec.per_uav) == rec.m
    assert rec.total == pytest.approx(max(u.total_time for u in rec.per_uav))


def test_k_larger_than_m_skipped(deployment, drone, radio, table):
    report = plan_aggregation(
        deployment, drone, radio, zeta=250.0, m_range=range(1, 5), k=3,
        table=table, fixed_beta=1.8, fixed_aloha=0.0075,
    )
    assert [r.m for r in report.records] == [3, 4]


def _best_m_per_side(sides, drone, radio, table, m_range):
    return [
        plan_aggregation(
            FieldSpec(side=side, density=0.1), drone, radio, zeta=250.0,
            m_range=m_range, table=table,
        ).best.m
        for side in sides
    ]


def test_optimal_m_identical_sizes(drone, radio, table):
    best = _best_m_per_side((100.0, 100.0), drone, radio, table, range(1, 11))
    assert best[0] == best[1]


def test_optimal_m_monotone_in_area(drone, radio, table):
    best = _best_m_per_side((100.0, 200.0), drone, radio, table, range(1, 19))
    assert best[1] >= best[0]
