import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from fieldhopper.channel import edge_success_probability, theta_lens
from fieldhopper.field import (
    CovarianceSpec,
    EstimationInfeasible,
    MseBudget,
    ObservationSet,
    area_ratio_rho,
    covariance,
    covariance_matrix,
    edge_mse_bound,
    estimation_slots,
    krige,
    no_success_probability,
    optimal_slots_estimation,
    probe_radius_limit,
    sample_field,
)

from conftest import REFERENCE_RTOL, reference_lens_quad


def lens_area(cover_r: float, probe_r: float) -> float:
    """Closed-form intersection area of two circles whose centers are
    ``cover_r`` apart (the probe disk is centered on the cover edge)."""
    d = cover_r
    r1, r2 = cover_r, probe_r
    if probe_r >= 2.0 * cover_r:
        return math.pi * cover_r**2
    a1 = r1**2 * math.acos((d**2 + r1**2 - r2**2) / (2.0 * d * r1))
    a2 = r2**2 * math.acos((d**2 + r2**2 - r1**2) / (2.0 * d * r2))
    tri = 0.5 * math.sqrt(
        (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
    )
    return a1 + a2 - tri


def test_covariance_zero_lag_is_variance():
    spec = CovarianceSpec(sigma2=2.5, nu=1.2, b=30.0)
    assert covariance(spec, 0.0) == 2.5


def test_covariance_matches_exponential_at_half_smoothness():
    spec = CovarianceSpec(sigma2=1.7, nu=0.5, b=40.0)
    for d in np.linspace(0.5, 200.0, 20):
        want = 1.7 * math.exp(-d / 40.0)
        assert covariance(spec, float(d)) == pytest.approx(want, rel=1e-10)


def test_covariance_three_halves_closed_form():
    # K_{3/2}(x) = sqrt(pi/(2x)) e^-x (1 + 1/x) collapses the value at d = b
    spec = CovarianceSpec(sigma2=1.0, nu=1.5, b=25.0)
    assert covariance(spec, 25.0) == pytest.approx(2.0 / math.e, rel=1e-10)
    for d in (5.0, 60.0):
        x = d / spec.b
        kv = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * (1.0 + 1.0 / x)
        want = (2.0 ** (1 - 1.5) / math.gamma(1.5)) * x**1.5 * kv
        assert covariance(spec, d) == pytest.approx(want, rel=1e-10)


def test_covariance_strictly_decreasing(cov75):
    grid = np.linspace(0.0, 300.0, 120)
    vals = covariance(cov75, grid)
    assert np.all(np.diff(vals) < 0.0)


def test_covariance_rejects_negative_distance(cov75):
    with pytest.raises(ValueError):
        covariance(cov75, -1.0)


def _matern_kv(spec, d):
    # the Bessel-function Matern formula, as every smoothness once ran
    x = d / spec.b
    with np.errstate(invalid="ignore"):
        val = (
            spec.sigma2
            * (2.0 ** (1.0 - spec.nu) / special.gamma(spec.nu))
            * x**spec.nu
            * special.kv(spec.nu, x)
        )
    return np.where(d == 0.0, spec.sigma2, val)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
def test_covariance_closed_forms_match_bessel_formula(nu):
    spec = CovarianceSpec(sigma2=1.7, nu=nu, b=40.0)
    d = np.concatenate([np.geomspace(1e-12, 1.0, 200), np.linspace(1.0, 20.0, 2000)]) * spec.b
    want = _matern_kv(spec, d)
    got = covariance(spec, d)
    assert np.max(np.abs(got - want) / want) <= 1e-13
    assert covariance(spec, 0.0) == spec.sigma2
    assert covariance(spec, np.zeros(3)).tolist() == [spec.sigma2] * 3


@pytest.mark.parametrize("nu", [0.8, 1.0, 3.2])
def test_covariance_other_smoothness_is_bessel_formula(nu, rng):
    spec = CovarianceSpec(sigma2=2.3, nu=nu, b=30.0)
    d = np.concatenate([[0.0], rng.random(500) * 600.0])
    assert np.array_equal(covariance(spec, d), _matern_kv(spec, d))


def test_covariance_leaves_its_argument_alone(cov75):
    d = np.array([0.0, 10.0, 75.0])
    covariance(cov75, d)
    assert d.tolist() == [0.0, 10.0, 75.0]


@pytest.mark.parametrize("nu", [0.5, 0.8, 1.5])
@pytest.mark.parametrize("rounding", [None, 0.5])
def test_covariance_matrix_is_norm_of_differences(nu, rounding, rng):
    # bit for bit the covariance of np.linalg.norm over the difference array
    spec = CovarianceSpec(sigma2=1.3, nu=nu, b=20.0)
    a, b = rng.random((60, 2)) * 90.0, rng.random((45, 2)) * 90.0
    if rounding is not None:
        a, b = np.round(a / rounding) * rounding, np.round(b / rounding) * rounding
    for x, y in ((a, b), (a, a), (b[:1], a)):
        norm = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
        assert np.array_equal(covariance_matrix(spec, x, y), covariance(spec, norm))
    assert np.array_equal(covariance_matrix(spec, a), covariance_matrix(spec, a, a))


def _dedup_reference(locations, values):
    # the greedy loop ObservationSet once ran: keep the first occurrence and
    # compare each later point only against the points already kept
    keep: list[int] = []
    for i in range(len(locations)):
        dup = False
        for j in keep:
            if np.linalg.norm(locations[i] - locations[j]) <= 1e-9:
                dup = True
                break
        if not dup:
            keep.append(i)
    return locations[keep], values[keep]


def test_observation_merging():
    obs = ObservationSet(
        [[0.0, 0.0], [0.0, 1e-12], [5.0, 5.0]], [1.0, 1.0, 2.0]
    )
    assert len(obs) == 2


def test_observation_merging_keeps_first_occurrence():
    pts = np.array([[1.0, 2.0], [4.0, 4.0], [1.0, 2.0], [4.0, 4.0], [1.0, 2.0]])
    obs = ObservationSet(pts, [10.0, 11.0, 12.0, 13.0, 14.0])
    assert obs.locations.tolist() == [[1.0, 2.0], [4.0, 4.0]]
    assert obs.values.tolist() == [10.0, 11.0]


def test_observation_merging_chain_keeps_both_ends():
    # a-b and b-c are 0.6e-9 apart, a-c 1.2e-9: b merges into a, and c is
    # compared only with the kept a, so it stays
    pts = np.array([[0.0, 0.0], [0.6e-9, 0.0], [1.2e-9, 0.0]])
    obs = ObservationSet(pts, [1.0, 2.0, 3.0])
    assert obs.values.tolist() == [1.0, 3.0]
    reordered = ObservationSet(pts[[1, 0, 2]], [2.0, 1.0, 3.0])
    assert reordered.values.tolist() == [2.0]


@pytest.mark.parametrize("n", [0, 1])
def test_observation_set_of_zero_or_one_point(n):
    obs = ObservationSet(np.ones((n, 2)), np.arange(n, dtype=float))
    assert len(obs) == n and obs.locations.shape == (n, 2)


_OFFSETS = [0.0, 3e-10, 6e-10, -6e-10, 8e-10, 1e-9, -1e-9, 1.2e-9, 2e-9]


@st.composite
def _clustered_points(draw):
    scale = draw(st.sampled_from([1.0, 37.3, 1e4]))
    anchors = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=1, max_size=4))
    n = draw(st.integers(0, 24))
    rows = []
    for _ in range(n):
        ax, ay = draw(st.sampled_from(anchors))
        dx, dy = draw(st.sampled_from(_OFFSETS)), draw(st.sampled_from(_OFFSETS))
        rows.append((ax * scale + dx, ay * scale + dy))
    return np.array(rows, dtype=float).reshape(n, 2)


@settings(max_examples=300, deadline=None)
@given(_clustered_points())
def test_observation_merging_matches_greedy_loop(pts):
    vals = np.arange(len(pts), dtype=float)
    obs = ObservationSet(pts, vals)
    want_locs, want_vals = _dedup_reference(pts, vals)
    assert np.array_equal(obs.locations, want_locs)
    assert np.array_equal(obs.values, want_vals)


@pytest.mark.parametrize("offset", [
    (5.572748615467132e-10, 8.303280849688826e-10),
    (7.489561610105349e-10, 6.626195506354774e-10),
])
def test_observation_merging_at_the_merge_distance_matches_greedy_loop(offset):
    # pairs 1e-9 apart to the last bit, where a fused multiply-add in the
    # BLAS dot product and separately rounded squares disagree on some hosts
    pts = np.array([[0.0, 0.0], offset, [-offset[0], offset[1]]])
    vals = np.arange(3.0)
    obs = ObservationSet(pts, vals)
    want_locs, want_vals = _dedup_reference(pts, vals)
    assert np.array_equal(obs.locations, want_locs)
    assert np.array_equal(obs.values, want_vals)


def test_observation_merging_matches_greedy_loop_on_scattered_points(rng):
    pts = rng.random((400, 2)) * 100.0
    pts = np.vstack([pts, pts[:50] + rng.uniform(-8e-10, 8e-10, (50, 2)), pts[60:70]])
    order = rng.permutation(len(pts))
    pts, vals = pts[order], order.astype(float)
    obs = ObservationSet(pts, vals)
    want_locs, want_vals = _dedup_reference(pts, vals)
    assert len(obs) < len(pts)
    assert np.array_equal(obs.locations, want_locs)
    assert np.array_equal(obs.values, want_vals)


def test_krige_interpolates_observations(cov75, rng):
    pts = rng.random((6, 2)) * 50.0
    vals = rng.standard_normal(6)
    obs = ObservationSet(pts, vals)
    est, mse = krige(obs, pts, cov75)
    assert np.allclose(est, vals, atol=1e-6)
    assert np.all(mse <= 1e-8 * cov75.sigma2)


@st.composite
def _grid_observations(draw):
    cells = draw(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)),
                          min_size=1, max_size=30, unique=True))
    values = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(cells),
                           max_size=len(cells)))
    return np.array(cells, dtype=float), np.array(values)


@settings(max_examples=100, deadline=None)
@given(_grid_observations(), st.sampled_from([1.0, 5.0, 75.0, 150.0]),
       st.floats(0.1, 3.0))
def test_krige_interpolates_any_grid_observations(obs_xy, b, sigma2):
    pts, vals = obs_xy
    spec = CovarianceSpec(sigma2=sigma2, nu=0.5, b=b)
    est, mse = krige(ObservationSet(pts, vals), pts, spec)
    assert np.all(np.abs(est - vals) <= 1e-6)
    assert np.all(mse <= 1e-9 * sigma2)


def test_krige_empty_returns_prior(cov75):
    est, mse = krige(ObservationSet.empty(), [[1.0, 2.0], [3.0, 4.0]], cov75)
    assert np.all(est == 0.0)
    assert np.all(mse == cov75.sigma2)


def test_krige_three_point_line_against_direct_solve():
    spec = CovarianceSpec(sigma2=1.0, nu=0.5, b=10.0)
    locs = np.array([[0.0, 0.0], [5.0, 0.0], [12.0, 0.0]])
    vals = np.array([1.0, -0.5, 2.0])
    target = np.array([[7.0, 0.0]])
    # direct oracle built from the exponential kernel, no library code
    def k(a, b):
        return math.exp(-abs(a - b) / 10.0)
    xs = [0.0, 5.0, 12.0]
    sigma = np.array([[k(a, b) for b in xs] for a in xs])
    cross = np.array([k(7.0, x) for x in xs])
    w = np.linalg.solve(sigma, cross)
    want_est = w @ vals
    want_mse = 1.0 - cross @ w
    est, mse = krige(ObservationSet(locs, vals), target, spec)
    assert est[0] == pytest.approx(want_est, rel=1e-6)
    assert mse[0] == pytest.approx(want_mse, rel=1e-5)


def test_krige_mse_never_increases_with_observations(cov75, rng):
    for _ in range(200):
        pts = rng.random((5, 2)) * 60.0
        vals = rng.standard_normal(5)
        target = rng.random((1, 2)) * 60.0
        _, before = krige(ObservationSet(pts[:4], vals[:4]), target, cov75)
        _, after = krige(ObservationSet(pts, vals), target, cov75)
        assert after[0] <= before[0] + 1e-9
        assert 0.0 <= after[0] <= cov75.sigma2


def test_sample_field_deterministic(cov75, rng):
    locs = rng.random((40, 2)) * 80.0
    a = sample_field(locs, cov75, seed=77)
    b = sample_field(locs, cov75, seed=77)
    c = sample_field(locs, cov75, seed=78)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_field_single_point_variance(cov75):
    spec = CovarianceSpec(sigma2=2.0, nu=0.5, b=10.0)
    draws = np.array([sample_field([[0.0, 0.0]], spec, seed=i)[0] for i in range(30_000)])
    assert draws.var() == pytest.approx(2.0, rel=0.02)


def test_sample_field_coincident_points_agree(cov75):
    vals = sample_field([[3.0, 3.0], [3.0, 3.0 + 1e-9]], cov75, seed=5)
    assert abs(vals[0] - vals[1]) < 1e-4


def test_sample_field_pair_correlation(cov75):
    # empirical covariance at one range apart ~ sigma^2 / e
    rng = np.random.default_rng(42)
    locs = np.array([[0.0, 0.0], [75.0, 0.0]])
    cov = covariance_matrix(cov75, locs)
    cov[np.diag_indices_from(cov)] += 1e-10
    chol = np.linalg.cholesky(cov)
    draws = (chol @ rng.standard_normal((2, 10_000)))
    a, b = draws
    emp = np.mean(a * b)
    se = np.std(a * b, ddof=1) / math.sqrt(len(a))
    want = math.exp(-1.0)
    assert abs(emp - want) <= 3.0 * se
    # and the sampler itself reproduces it on a smaller budget
    pair = np.array([sample_field(locs, cov75, seed=i) for i in range(4000)])
    emp2 = np.mean(pair[:, 0] * pair[:, 1])
    se2 = np.std(pair[:, 0] * pair[:, 1], ddof=1) / math.sqrt(len(pair))
    assert abs(emp2 - want) <= 3.0 * se2


def test_sample_field_caps_size(cov75):
    with pytest.raises(ValueError):
        sample_field(np.zeros((5001, 2)), cov75, seed=0)


def test_edge_bound_no_observation_case(cov75):
    assert edge_mse_bound(1.0, 5.0, cov75) == pytest.approx(cov75.sigma2)


def test_edge_bound_perfect_nearby_observation():
    spec = CovarianceSpec(sigma2=1.0, nu=0.5, b=75.0)
    assert edge_mse_bound(0.0, 1e-9, spec) == pytest.approx(0.0, abs=1e-9)


def test_edge_bound_reference_arithmetic():
    spec = CovarianceSpec(sigma2=1.0, nu=0.5, b=75.0)
    want = 0.1 + 0.9 * (1.0 - math.exp(-40.0 / 75.0))
    assert edge_mse_bound(0.1, 20.0, spec) == pytest.approx(want, rel=1e-12)


def test_edge_bound_flags_nonunit_variance():
    spec = CovarianceSpec(sigma2=0.5, nu=0.5, b=75.0)
    with pytest.warns(UserWarning):
        value = edge_mse_bound(0.0, 50.0, spec)
    assert value >= 0.0  # clamped where the expression goes negative


def test_no_success_probability_cases():
    assert no_success_probability(0.3, 0.0, 0.5) == 1.0
    assert no_success_probability(1.0, 3.0, 0.5) == 0.0
    assert no_success_probability(0.1, 10.0, 0.5) == pytest.approx(0.9**20)
    with pytest.raises(ValueError):
        no_success_probability(0.1, 5.0, 0.0)


def test_rho_limits():
    assert area_ratio_rho(20.0, 1e-4) == pytest.approx(0.5, abs=1e-4)
    assert area_ratio_rho(20.0, 40.0) == pytest.approx(0.25, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.floats(1.0, 100.0), st.sampled_from([-1e-9, 1e-9]))
def test_rho_continuous_at_full_lens(cover, eps):
    assert abs(area_ratio_rho(cover, 2.0 * cover * (1.0 + eps)) - 0.25) <= 1e-9


def test_rho_matches_closed_form_lens(rng):
    for _ in range(100):
        cover = float(rng.uniform(5.0, 50.0))
        probe = float(rng.uniform(0.2, 2.2)) * cover
        want = lens_area(cover, probe) / (math.pi * probe**2)
        assert area_ratio_rho(cover, probe) == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("cover", [20.0, 15.0, 40.0])
def test_rho_matches_lens_angle_integral(cover):
    probes = [
        0.05, cover / 2, cover * (1 - 1e-3), cover, cover * (1 + 1e-3),
        1.5 * cover, 2 * cover - 1e-9, 2.2 * cover,
    ]
    for probe in probes:
        def integrand(w):
            return w * theta_lens(w, cover, probe)

        lens, err = reference_lens_quad(integrand, cover, probe)
        assert err <= REFERENCE_RTOL * lens
        want = lens / (math.pi * probe**2)
        assert area_ratio_rho(cover, probe) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_rho_array_matches_scalar_calls():
    probes = np.array([0.05, 10.0, 20.0, 39.9, 40.0, 41.0])
    got = area_ratio_rho(20.0, probes)
    assert got.shape == probes.shape
    assert all(got[i] == area_ratio_rho(20.0, float(r)) for i, r in enumerate(probes))
    with pytest.raises(ValueError):
        area_ratio_rho(20.0, np.array([1.0, 0.0]))


def test_rho_rejection_sampling_oracle():
    cover, probe = 20.0, 20.0
    rng = np.random.default_rng(9)
    pts = rng.random((1_000_000, 2)) * 2.0 * probe - probe
    pts = pts[np.linalg.norm(pts, axis=1) <= probe]
    inside = np.linalg.norm(pts - np.array([-cover, 0.0]), axis=1) <= cover
    want = inside.mean()
    assert area_ratio_rho(cover, probe) == pytest.approx(want, abs=2e-3)


def test_probe_radius_limit():
    spec = CovarianceSpec(sigma2=1.0, nu=0.5, b=75.0)
    want = 0.5 * 75.0 * math.log(1.0 / 0.8)
    assert probe_radius_limit(spec, 0.2) == pytest.approx(want)
    tight = CovarianceSpec(sigma2=2.0, nu=0.5, b=75.0)
    assert probe_radius_limit(tight, 0.1) == 0.0
    with pytest.raises(ValueError):
        probe_radius_limit(spec, 1.5)


def test_optimal_slots_shape(geom20, radio, cov75):
    budget = optimal_slots_estimation(geom20, radio, cov75, delta=0.2)
    assert isinstance(budget, MseBudget)
    assert budget.j_star >= 1
    upper = probe_radius_limit(cov75, 0.2)
    assert 0.0 < budget.r_mse < upper
    # diverges at both interval ends (reference curve shape); the upper-end
    # blowup is logarithmic, so probe deep inside its boundary layer
    j_lo = estimation_slots(0.02 * upper, geom20, radio, cov75, 0.2)
    j_hi = estimation_slots((1.0 - 1e-12) * upper, geom20, radio, cov75, 0.2)
    interior = estimation_slots(budget.r_mse, geom20, radio, cov75, 0.2)
    assert j_lo > 5.0 * interior
    assert j_hi > 5.0 * interior
    # and the curve is already rising again well before the upper end
    assert estimation_slots(0.98 * upper, geom20, radio, cov75, 0.2) > interior
    # convexity probe around the minimizer
    assert interior <= estimation_slots(0.8 * budget.r_mse, geom20, radio, cov75, 0.2) + 1e-9
    assert interior <= estimation_slots(1.2 * budget.r_mse, geom20, radio, cov75, 0.2) + 1e-9


def test_slots_grid_has_single_minimum(geom20, radio, cov75):
    upper = probe_radius_limit(cov75, 0.2)
    grid = np.linspace(upper / 201, upper * 0.995, 200)
    vals = np.array([estimation_slots(float(r), geom20, radio, cov75, 0.2) for r in grid])
    finite = vals[np.isfinite(vals)]
    drops = np.flatnonzero(np.diff((np.diff(finite) > 0).astype(int)) == 1)
    assert len(drops) <= 1  # one valley (plateau ties collapse)


def test_loose_target_needs_few_slots(geom20, radio, cov75):
    budget = optimal_slots_estimation(geom20, radio, cov75, delta=0.95)
    assert budget.j_star <= 3


def test_infeasible_variance_raises(geom20, radio):
    spec = CovarianceSpec(sigma2=2.0, nu=0.5, b=75.0)
    with pytest.raises(EstimationInfeasible):
        optimal_slots_estimation(geom20, radio, spec, delta=0.1)


def test_estimation_slots_array_matches_scalar_calls(geom20, radio, cov75):
    radii = np.linspace(0.05, probe_radius_limit(cov75, 0.2), 17)
    got = estimation_slots(radii, geom20, radio, cov75, 0.2)
    assert got.shape == radii.shape
    for i, r in enumerate(radii):
        assert got[i] == estimation_slots(float(r), geom20, radio, cov75, 0.2)
    assert math.isinf(got[-1])  # the target is unreachable at the admissible limit


def test_slot_count_meets_edge_mse_target_exactly(geom20, radio, cov75):
    # estimation_slots inverts edge_mse_bound o no_success_probability
    upper = probe_radius_limit(cov75, 0.2)
    for r_mse in np.linspace(0.05, 0.99, 7) * upper:
        j = estimation_slots(float(r_mse), geom20, radio, cov75, 0.2)
        p_edge = edge_success_probability(geom20, radio, float(r_mse))
        rho = area_ratio_rho(geom20.radius, float(r_mse))
        p_ns = no_success_probability(p_edge, j, rho)
        assert edge_mse_bound(p_ns, float(r_mse), cov75) == pytest.approx(0.2, rel=1e-12)
