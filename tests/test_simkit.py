import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from fieldhopper import simkit
from fieldhopper.channel import RadioSpec
from fieldhopper.field import CovarianceSpec, ObservationSet, krige, sample_field
from fieldhopper.simkit import (
    SLOT_CHUNK,
    Disk,
    SimConfig,
    SimStats,
    SquareRegion,
    _collect_hover,
    _simulate_batch,
    _slant,
    estimate_plan_edge_mse,
    estimate_success_probability,
    sample_ppp,
)

from conftest import BLAS_POOL_SET_BY_CALLER, NUMPY_LOADED_BEFORE_PIN


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


def _simulate_batch_dense(slant, radio, rng, slots):
    # dense reference for _simulate_batch: the same draws, then the SINR of
    # every (node, slot) entry, silent ones at zero power, and the per-slot
    # argmax wherever some entry clears the threshold
    n = len(slant)
    winners = np.full(slots, -1, dtype=np.int64)
    multi = 0
    if n == 0:
        return winners, multi
    decay = slant ** (-radio.eta)
    noise_ratio = radio.noise / radio.power
    done = 0
    while done < slots:
        c = min(SLOT_CHUNK, slots - done)
        active = rng.random((n, c)) < radio.aloha
        gains = rng.standard_gamma(radio.m, (n, c)) / radio.m
        rx = decay[:, None] * gains * active
        total = rx.sum(axis=0)
        sinr = rx / (total - rx + noise_ratio)
        above = sinr >= radio.beta
        counts = above.sum(axis=0)
        multi += int((counts > 1).sum())
        idx = np.argmax(sinr, axis=0)
        winners[done : done + c] = np.where(counts >= 1, idx, -1)
        done += c
    return winners, multi


@settings(max_examples=100, deadline=None)
@example(n=300, slots=SLOT_CHUNK + 1, m=3, beta=1.0, aloha=1.0, altitude=5.0, seed=0)
@given(
    n=st.integers(0, 300),
    slots=st.integers(1, 2 * SLOT_CHUNK + 50),
    m=st.integers(1, 3),
    beta=st.floats(1.0, 20.0),
    aloha=st.sampled_from([0.0, 1e-3, 0.01, 0.3, 1.0]),
    altitude=st.floats(5.0, 60.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_slot_winners_bit_identical_to_dense_loop(n, slots, m, beta, aloha, altitude, seed):
    radio = RadioSpec(power=1e-6, noise=1e-11, eta=3.0, m=m, bandwidth=2e5,
                      packet_bits=40960.0, beta=beta, aloha=aloha)
    layout = np.random.default_rng(seed)
    slant = np.hypot(30.0 * np.sqrt(layout.random(n)), altitude)
    got = _simulate_batch(slant, radio, np.random.default_rng(seed), slots)
    want = _simulate_batch_dense(slant, radio, np.random.default_rng(seed), slots)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]


def test_success_estimate_matches_dense_composition(geom20, radio, monkeypatch):
    # 5000 slots run a full chunk and a shorter last one
    cfg = SimConfig(geom=geom20, radio=radio, slots=5000, replications=4, seed=31,
                    probe_radius=10.0)
    got = estimate_success_probability(cfg)
    monkeypatch.setattr(simkit, "_simulate_batch", _simulate_batch_dense)
    want = estimate_success_probability(cfg)
    assert got.edge_successes > 0
    for name in ("successes", "p_success_se", "edge_successes", "p_edge_success_se",
                 "multi_capture_slots"):
        assert getattr(got, name) == getattr(want, name)
    assert np.array_equal(got.success_radii, want.success_radii)


def test_plan_edge_mse_matches_dense_composition(geom20, radio, cov75, monkeypatch):
    cfg = SimConfig(geom=geom20, radio=radio, replications=3, seed=32, covariance=cov75)
    centers = [(20.0, 20.0), (60.0, 20.0)]
    probes = [(40.0, 20.0), (80.0, 20.0)]
    got = estimate_plan_edge_mse(cfg, centers, 80.0, 120, probes)
    monkeypatch.setattr(simkit, "_simulate_batch", _simulate_batch_dense)
    want = estimate_plan_edge_mse(cfg, centers, 80.0, 120, probes)
    assert np.array_equal(got.mse_samples, want.mse_samples)


def test_unit_shape_gamma_draws_are_exponential_draws():
    # at m = 1 the slot simulator draws its fades with standard_exponential;
    # numpy's Gamma(1) sampler is that call, value for value and leaving the
    # generator at the same next draw (a numpy upgrade that breaks this
    # changes seeded m = 1 results, which the dense-reference tests above
    # pin at m = 1 through their Gamma draws)
    gamma, expo = np.random.default_rng(41), np.random.default_rng(41)
    a, b = np.empty((40, 281, 20)), np.empty((40, 281, 20))
    gamma.standard_gamma(1, out=a)
    expo.standard_exponential(out=b)
    assert np.array_equal(a, b)
    assert gamma.random() == expo.random()


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


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("slots", [1, SLOT_CHUNK + 7])
def test_empty_disk_draws_nothing(radio, m, slots):
    # a size-0 draw leaves the bit generator where it was, so the slots of an
    # empty disk cost the replication's stream nothing
    rng = np.random.default_rng(40 + m)
    before = rng.bit_generator.state
    winners, multi = _simulate_batch(np.empty(0), radio.with_(m=m, aloha=1.0), rng, slots)
    assert np.array_equal(winners, np.full(slots, -1)) and multi == 0
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("nodes", [np.empty((0, 2)), np.array([[50.0, 0.0], [0.0, -21.0]])])
def test_hover_over_no_covered_node_hears_nothing(geom20, radio, nodes):
    rng = np.random.default_rng(41)
    before = rng.bit_generator.state
    heard = _collect_hover(nodes, np.zeros(2), geom20, radio.with_(aloha=1.0), 50, rng)
    assert heard.shape == (0,) and heard.dtype == np.int64
    assert rng.bit_generator.state == before


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


def test_blas_pool_pinned_before_numpy_loaded():
    # seeded kriging replays bit for bit only at the pool size the suite pins;
    # an import of numpy ahead of tests/conftest.py (say, by a pytest plugin
    # or a warning filter naming a scipy class) leaves OpenBLAS at its default
    assert BLAS_POOL_SET_BY_CALLER or not NUMPY_LOADED_BEFORE_PIN


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


@pytest.mark.parametrize("probe_radius", [-1.0, 0.0, math.nan, math.inf])
def test_sim_config_rejects_a_bad_probe_radius(geom20, radio, probe_radius):
    with pytest.raises(ValueError, match="probe radius"):
        SimConfig(geom=geom20, radio=radio, probe_radius=probe_radius)


def test_rate_se_of_one_replication_is_binomial():
    # one replication has no spread of rates, so the error is sqrt(p (1 - p) / n)
    assert SimStats._rate_se(np.array([25.0]), 100) == pytest.approx(
        math.sqrt(0.25 * 0.75 / 100), rel=1e-15)
    assert SimStats._rate_se(np.array([0.0]), 100) == 0.0
    assert SimStats._rate_se(np.array([100.0]), 100) == 0.0
