import math

import numpy as np
import pytest
from scipy import special, stats

from fieldhopper.field import CovarianceSpec, ObservationSet, krige, sample_field
from fieldhopper.simkit import (
    Disk,
    SimConfig,
    SquareRegion,
    _collect_hover,
    _simulate_batch,
    _slant,
    estimate_plan_edge_mse,
    estimate_success_probability,
    sample_ppp,
)


def test_ppp_zero_density_empty():
    assert len(sample_ppp(Disk((0.0, 0.0), 20.0), 0.0, seed=1)) == 0


def test_ppp_disk_mean_count():
    disk = Disk((0.0, 0.0), 20.0)
    rng = np.random.default_rng(2)
    counts = [len(sample_ppp(disk, 0.1, rng)) for _ in range(10_000)]
    want = 0.1 * math.pi * 400.0
    assert np.mean(counts) == pytest.approx(want, rel=0.02)


def test_ppp_poisson_dispersion():
    square = SquareRegion(30.0)
    rng = np.random.default_rng(3)
    counts = np.array([len(sample_ppp(square, 0.05, rng)) for _ in range(10_000)])
    assert counts.var() == pytest.approx(counts.mean(), rel=0.05)


def test_ppp_points_inside_region():
    disk = Disk((5.0, -3.0), 10.0)
    pts = sample_ppp(disk, 0.2, seed=4)
    assert np.all(np.linalg.norm(pts - np.array([5.0, -3.0]), axis=1) <= 10.0)
    square = SquareRegion(50.0)
    pts = sample_ppp(square, 0.01, seed=5)
    assert np.all((pts >= 0.0) & (pts <= 50.0))


def _disk_slant(geom, seed):
    nodes = sample_ppp(Disk((0.0, 0.0), geom.radius), geom.density, seed)
    return _slant(nodes, np.zeros(2), geom.altitude)


def test_slot_no_transmissions(geom20, radio):
    slant = _disk_slant(geom20, seed=6)
    winners, multi = _simulate_batch(
        slant, radio.with_(aloha=0.0), np.random.default_rng(7), slots=1
    )
    assert np.all(winners == -1) and multi == 0


def test_slot_single_node_gamma_tail(geom20, radio):
    # one node at nadir, always transmitting: capture iff its fade beats the
    # noise-scaled threshold, i.e. a Gamma(m, m) tail
    slant = np.array([geom20.altitude])
    for m in (1, 3):
        spec = radio.with_(m=m, aloha=1.0)
        threshold = spec.beta * geom20.altitude**spec.eta * spec.noise / spec.power
        want = special.gammaincc(m, m * threshold)
        n = 4000
        winners, _ = _simulate_batch(slant, spec, np.random.default_rng(100 + m), n)
        hits = int((winners >= 0).sum())
        se = math.sqrt(want * (1.0 - want) / n)
        assert abs(hits / n - want) <= 3.0 * se


def test_capture_uniqueness_above_unit_threshold(geom20, radio):
    rng = np.random.default_rng(8)
    slant = _disk_slant(geom20, rng)
    _, multi = _simulate_batch(slant, radio.with_(aloha=0.05), rng, 2000)
    assert multi == 0


def test_batch_capture_uniqueness(geom20, radio):
    cfg = SimConfig(geom=geom20, radio=radio, slots=20_000, replications=5, seed=9)
    stats_ = estimate_success_probability(cfg)
    assert stats_.multi_capture_slots == 0


def test_estimate_zero_aloha(geom20, radio):
    cfg = SimConfig(geom=geom20, radio=radio.with_(aloha=0.0), slots=200,
                    replications=3, seed=10)
    assert estimate_success_probability(cfg).p_success == 0.0


def test_deterministic_replay(geom20, radio):
    cfg = SimConfig(geom=geom20, radio=radio, slots=500, replications=10, seed=11)
    a = estimate_success_probability(cfg)
    b = estimate_success_probability(cfg)
    assert a.p_success == b.p_success
    assert a.p_success_se == b.p_success_se
    assert np.array_equal(a.success_radii, b.success_radii)
    c = estimate_success_probability(
        SimConfig(geom=geom20, radio=radio, slots=500, replications=10, seed=12)
    )
    assert a.p_success != c.p_success


def test_success_density_drops_toward_edge(geom20, radio):
    cfg = SimConfig(geom=geom20, radio=radio, slots=5000, replications=20, seed=13)
    st = estimate_success_probability(cfg)
    r = st.success_radii
    R = geom20.radius
    n_inner = int((r <= R / 3.0).sum())
    n_outer = int((r >= 2.0 * R / 3.0).sum())
    a_inner = math.pi * (R / 3.0) ** 2
    a_outer = math.pi * (R**2 - (2.0 * R / 3.0) ** 2)
    # under uniform per-area success density the inner share would be a_inner/(a_inner+a_outer)
    p0 = a_inner / (a_inner + a_outer)
    n = n_inner + n_outer
    chi2 = (n_inner - n * p0) ** 2 / (n * p0) + (n_outer - n * (1 - p0)) ** 2 / (n * (1 - p0))
    p_value = stats.chi2.sf(chi2, df=1)
    assert n_inner / n > p0  # denser near the hover point
    assert p_value < 0.01


def test_edge_probe_counts(geom20, radio):
    cfg = SimConfig(geom=geom20, radio=radio, slots=2000, replications=10, seed=14,
                    probe_radius=10.0)
    st = estimate_success_probability(cfg)
    assert 0 < st.edge_successes < st.successes
    assert 0.0 < st.p_edge_success < st.p_success


def _edge_mse(geom, config, j_slots):
    # one hover at (R, R) in a 2R square, kriged at the disk-edge probe (2R, R)
    R = geom.radius
    return estimate_plan_edge_mse(config, [(R, R)], 2.0 * R, j_slots, [(2.0 * R, R)])


def test_edge_mse_no_slots_is_prior(geom20, radio, cov75):
    cfg = SimConfig(geom=geom20, radio=radio, replications=60, seed=15, covariance=cov75)
    st = _edge_mse(geom20, cfg, j_slots=0)
    assert st.mse_mean == pytest.approx(cov75.sigma2, abs=0.25)


def test_edge_mse_saturates_below_target(geom20, radio, cov75):
    # ten times the designed budget drives the error well under the target
    cfg = SimConfig(geom=geom20, radio=radio.with_(aloha=0.0127), replications=60,
                    seed=16, covariance=cov75)
    st = _edge_mse(geom20, cfg, j_slots=800)
    assert st.mse_mean < 0.1


def test_plan_edge_mse_replays(geom20, radio, cov75):
    # bit for bit at the suite's pinned BLAS thread count
    def run(seed):
        cfg = SimConfig(geom=geom20, radio=radio, replications=3, seed=seed, covariance=cov75)
        centers = [(20.0, 20.0), (60.0, 20.0)]
        return estimate_plan_edge_mse(cfg, centers, 80.0, 50, [(40.0, 20.0), (80.0, 20.0)])

    a, b, c = run(21), run(21), run(22)
    assert np.array_equal(a.mse_samples, b.mse_samples)
    assert not np.array_equal(a.mse_samples, c.mse_samples)


def _plan_edge_mse_reference(config, centers, side, j_slots, probe_points):
    # the whole-square composition estimate_plan_edge_mse once ran: sample the
    # field at every node and the probes, build an ObservationSet of the heard
    # nodes, krige the probes from it
    spec, errors = config.covariance, []
    for stream in np.random.SeedSequence(config.seed).spawn(config.replications):
        rng = np.random.default_rng(stream)
        nodes = sample_ppp(SquareRegion(side), config.geom.density, rng)
        heard = [_collect_hover(nodes, np.asarray(c, dtype=float), config.geom,
                                config.radio, j_slots, rng) for c in centers]
        heard_idx = np.unique(np.concatenate(heard))
        values = sample_field(np.vstack([nodes, probe_points]), spec, rng)
        est, _ = krige(ObservationSet(nodes[heard_idx], values[heard_idx]), probe_points, spec)
        errors.append(float(np.mean((est - values[len(nodes):]) ** 2)))
    return np.array(errors)


@pytest.mark.parametrize("nu", [0.5, 1.5])
def test_plan_edge_mse_matches_sample_then_krige(geom20, radio, nu):
    # drawing the field at heard nodes and probes alone is the marginal of the
    # whole-square draw, so both give the same MSE distribution; with one
    # seed the node fields and heard sets coincide and only the draws differ
    cfg = SimConfig(geom=geom20, radio=radio, replications=150, seed=23,
                    covariance=CovarianceSpec(sigma2=1.0, nu=nu, b=75.0))
    centers = [(20.0, 20.0), (60.0, 20.0), (40.0, 50.0)]
    probes = np.array([(40.0, 20.0), (80.0, 20.0), (40.0, 70.0)])
    got = estimate_plan_edge_mse(cfg, centers, 80.0, 60, probes)
    want = _plan_edge_mse_reference(cfg, centers, 80.0, 60, probes)
    se = math.hypot(got.mse_se, want.std(ddof=1) / math.sqrt(len(want)))
    assert abs(got.mse_mean - want.mean()) <= 3.0 * se


def test_plan_edge_mse_keeps_factorization_cap(geom20, radio, cov75):
    # heard nodes plus 5001 probes exceed the 5000-point dense cap
    cfg = SimConfig(geom=geom20, radio=radio, replications=1, seed=24, covariance=cov75)
    probes = np.full((5001, 2), 40.0)
    with pytest.raises(ValueError, match="dense-factorization cap"):
        estimate_plan_edge_mse(cfg, [(20.0, 20.0)], 40.0, 0, probes)


def test_plan_edge_mse_draws_only_heard_nodes(geom20, radio, cov75):
    # about 6250 nodes in a 250 m square, over the 5000-point dense cap; none
    # is heard without slots, so each replication krigs from the prior
    cfg = SimConfig(geom=geom20, radio=radio, replications=100, seed=24, covariance=cov75)
    st = estimate_plan_edge_mse(cfg, [(20.0, 20.0)], 250.0, 0, [(40.0, 20.0)])
    assert abs(st.mse_mean - cov75.sigma2) <= 3.0 * st.mse_se


@pytest.mark.parametrize("j_slots", [-3, 2.5, 3.0, "3"])
def test_plan_edge_mse_rejects_bad_slot_budget(geom20, radio, cov75, j_slots):
    cfg = SimConfig(geom=geom20, radio=radio, replications=2, seed=25, covariance=cov75)
    with pytest.raises(ValueError, match="j_slots must be a non-negative integer"):
        _edge_mse(geom20, cfg, j_slots)


def test_plan_edge_mse_takes_numpy_slot_budget(geom20, radio, cov75):
    cfg = SimConfig(geom=geom20, radio=radio, replications=2, seed=26, covariance=cov75)
    a = _edge_mse(geom20, cfg, np.int64(5))
    b = _edge_mse(geom20, cfg, 5)
    assert a.slots == 5 and np.array_equal(a.mse_samples, b.mse_samples)


def test_sim_config_validation(geom20, radio):
    with pytest.raises(ValueError):
        SimConfig(geom=geom20, radio=radio, slots=0)
    with pytest.raises(ValueError):
        SimConfig(geom=geom20, radio=radio, replications=0)
