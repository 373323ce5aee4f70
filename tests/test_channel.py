import math
import warnings
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev
from scipy.integrate import IntegrationWarning

from fieldhopper import channel, cli, mission, quadrature
from fieldhopper.channel import (
    HoverGeometry,
    RadioSpec,
    aggregation_slots,
    edge_success_probability,
    optimal_aloha,
    optimal_beta,
    slot_duration,
    success_probability,
    tuned_link,
)
from fieldhopper.field import PROBE_GRID, optimal_slots_estimation, probe_radius_limit
from fieldhopper.mission import plan_aggregation, plan_estimation

from conftest import REFERENCE_RTOL, reference_lens_quad, reference_quad


def theta_lens(w, cover_radius: float, probe_radius: float):
    """Angle subtended inside the edge probe disk at in-disk radius ``w``.

    The probe disk of radius ``probe_radius`` is centered on the boundary of
    the covered disk (radius ``cover_radius``); a circle of radius ``w``
    around the disk center intersects it over this angle.  A reference: the
    lens band goes through ``channel._lens_angle``, the edge rule's own angle.
    """
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    inner = probe_radius - cover_radius
    if inner > 0:
        out = np.where(w <= inner, 2.0 * math.pi, out)
    lo, hi = abs(inner), probe_radius + cover_radius
    band = (w >= lo) & (w <= hi) & (w > 0)
    if np.any(band):
        wb = w[band]
        out[band] = channel._lens_angle(wb, wb - lo, cover_radius, probe_radius)
    return out


def laplace_derivatives(s, geom, radio, max_order):
    """Reference [L, L', ..., L^(max_order)] at ``s``: each interference integral
    Q_0^(j) is taken by quadrature at ``s`` itself, with no interpolant."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    q = [channel._q_derivative(j, s, geom, radio.m, radio.eta) for j in range(max_order + 1)]
    noise_ratio = radio.noise / radio.power
    area_rate = 2.0 * math.pi * geom.density * radio.aloha
    return channel._laplace_from_g(channel._exponent(-s * noise_ratio, q, area_rate, noise_ratio))


def laplace_interference(s, geom, radio):
    """Laplace transform of normalized interference-plus-noise at ``s`` >= 0."""
    value = laplace_derivatives(s, geom, radio, 0)[0]
    return float(value[0]) if np.ndim(s) == 0 else value


def laplace_derivative(k, s, geom, radio):
    """k-th derivative in ``s`` of the Laplace transform, for 0 <= k < m."""
    value = laplace_derivatives(s, geom, radio, k)[k]
    return float(value[0]) if np.ndim(s) == 0 else value


def test_radio_validation():
    good = dict(power=1e-6, noise=1e-11, eta=3.0, m=1, bandwidth=2e5, packet_bits=40960)
    RadioSpec(**good)
    with pytest.raises(ValueError):
        RadioSpec(**{**good, "m": 0})
    with pytest.raises(ValueError):
        RadioSpec(**{**good, "m": 1.5})
    with pytest.raises(ValueError):
        RadioSpec(**good, beta=0.5)
    with pytest.raises(ValueError):
        RadioSpec(**good, aloha=1.2)
    with pytest.raises(ValueError):
        RadioSpec(**{**good, "eta": 2.0})


def test_geometry_slant():
    geom = HoverGeometry(radius=20.0, altitude=20.0, density=0.1)
    assert geom.slant**2 == pytest.approx(geom.radius**2 + geom.altitude**2, rel=1e-15)
    assert geom.mean_nodes == pytest.approx(0.1 * math.pi * 400.0)


@pytest.mark.parametrize("field, value", [("radius", math.nan), ("radius", math.inf),
                                          ("altitude", math.nan), ("altitude", -1.0),
                                          ("density", math.nan), ("density", math.inf)])
def test_geometry_rejects_values_outside_the_model(field, value):
    # NaN fails no `<= 0` check, so the bounds are written as ranges it fails
    with pytest.raises(ValueError):
        HoverGeometry(**{"radius": 20.0, "altitude": 20.0, "density": 0.1, field: value})


def test_laplace_at_zero_is_one(geom20, radio):
    assert laplace_interference(0.0, geom20, radio) == pytest.approx(1.0, rel=1e-12)


def test_laplace_no_transmitters_is_noise_only(geom20, radio):
    quiet = radio.with_(aloha=0.0)
    for s in (0.0, 1e3, 1e5):
        want = math.exp(-s * quiet.noise / quiet.power)
        assert laplace_interference(s, geom20, quiet) == pytest.approx(want, rel=1e-10)


def test_laplace_decreasing_in_unit_interval(geom20, radio):
    s = np.logspace(1, 6, 30)
    values = laplace_interference(s, geom20, radio)
    assert np.all(values > 0.0) and np.all(values <= 1.0)
    assert np.all(np.diff(values) < 0.0)


def test_laplace_vs_monte_carlo(geom20, radio, rng):
    # E[exp(-s I)] over fresh node fields, transmit masks and fades
    s = 1.8 * 24.0**3  # threshold at a mid-disk slant range
    n_draws = 100_000
    total = 0.0
    noise_ratio = radio.noise / radio.power
    for _ in range(20):
        k = n_draws // 20
        n = rng.poisson(geom20.mean_nodes, size=k)
        nmax = n.max()
        radii = geom20.radius * np.sqrt(rng.random((k, nmax)))
        slant = np.sqrt(radii**2 + geom20.altitude**2)
        active = rng.random((k, nmax)) < radio.aloha
        active &= np.arange(nmax)[None, :] < n[:, None]
        gains = rng.standard_gamma(radio.m, (k, nmax)) / radio.m
        interference = (gains * slant ** (-radio.eta) * active).sum(axis=1)
        total += np.exp(-s * (interference + noise_ratio)).sum()
    empirical = total / n_draws
    assert laplace_interference(s, geom20, radio) == pytest.approx(empirical, rel=0.01)


def test_derivative_order_zero_is_value(geom20, radio):
    r2 = radio.with_(m=2)
    s = 5e4
    assert laplace_derivative(0, s, geom20, r2) == pytest.approx(
        laplace_interference(s, geom20, r2), rel=1e-12
    )


def test_derivative_no_interference_closed_form(geom20, radio):
    quiet = radio.with_(aloha=0.0, m=2)
    for s in (1e3, 1e5):
        want = -(quiet.noise / quiet.power) * math.exp(-s * quiet.noise / quiet.power)
        assert laplace_derivative(1, s, geom20, quiet) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (3, 2)])
def test_derivatives_match_finite_differences(geom20, radio, m, k):
    spec = radio.with_(m=m)
    for s in (2e3, 5e4, 3e5):
        h = 5e-6 * s if k == 1 else 5e-5 * s
        if k == 1:
            fd = (
                laplace_interference(s + h, geom20, spec)
                - laplace_interference(s - h, geom20, spec)
            ) / (2.0 * h)
        else:
            fd = (
                laplace_interference(s + h, geom20, spec)
                - 2.0 * laplace_interference(s, geom20, spec)
                + laplace_interference(s - h, geom20, spec)
            ) / h**2
        got = laplace_derivative(k, s, geom20, spec)
        assert got == pytest.approx(fd, rel=1e-4)


def test_success_zero_cases(geom20, radio):
    assert success_probability(geom20, radio.with_(aloha=0.0)) == 0.0
    empty = HoverGeometry(radius=20.0, altitude=20.0, density=0.0)
    assert success_probability(empty, radio) == 0.0


def test_success_within_unit_interval(geom20, radio):
    for beta in (1.0, 3.0, 10.0):
        p = success_probability(geom20, radio.with_(beta=beta))
        assert 0.0 <= p <= 1.0


def test_success_decreasing_in_radius(radio):
    values = []
    for r in (10.0, 20.0, 30.0, 45.0, 60.0):
        geom = HoverGeometry(radius=r, altitude=r, density=0.1)
        values.append(success_probability(geom, radio))
    assert all(b < a for a, b in zip(values[:-1], values[1:]))


def test_noise_factor_monotone_in_aloha(geom20, radio):
    s = 5e4
    scaled = []
    for a in (0.0, 0.01, 0.05, 0.2, 1.0):
        val = laplace_interference(s, geom20, radio.with_(aloha=a))
        scaled.append(val * math.exp(s * radio.noise / radio.power))
    assert all(b <= a + 1e-12 for a, b in zip(scaled[:-1], scaled[1:]))


def disk_rule_reference(geom, radio):
    """Disk capture probability with the Laplace recurrence and the Gamma tail
    written out term by term from zero, on the disk rule's 64 Gauss nodes."""
    if radio.aloha == 0.0 or geom.density == 0.0:
        return 0.0
    w = geom.radius * quadrature.UNIT_NODES
    weight = geom.radius * quadrature.UNIT_WEIGHTS * w
    s, q = channel._interference_lookup(
        np.sqrt(w**2 + geom.altitude**2), geom, radio.m, radio.eta, radio.beta
    )
    noise_ratio = radio.noise / radio.power
    area_rate = 2.0 * math.pi * geom.density * radio.aloha
    g = [-s * noise_ratio - area_rate * q[0]]
    for j in range(1, radio.m):
        g.append(-area_rate * q[j] - (noise_ratio if j == 1 else 0.0))
    ell = [np.exp(g[0])]
    for k in range(1, radio.m):
        acc = np.zeros_like(s)
        for j in range(k):
            acc = acc + math.comb(k - 1, j) * g[k - j] * ell[j]
        ell.append(acc)
    kernel = np.zeros_like(s)
    for k in range(radio.m):
        kernel = kernel + ((-s) ** k / math.factorial(k)) * ell[k]
    p = 2.0 * radio.aloha * math.pi * geom.density * float(kernel @ weight)
    return min(max(p, 0.0), 1.0)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("density", [0.1, 1.0, 0.0])
def test_aloha_trial_is_success_probability_bit_for_bit(radio, m, density):
    geom = HoverGeometry(radius=20.0, altitude=20.0, density=density)
    link = radio.with_(m=m)
    trial = channel._disk_trial(geom, link)
    for a in [0.0, *np.geomspace(1e-4, 1.0, 49).tolist()]:
        want = disk_rule_reference(geom, link.with_(aloha=a))
        got = success_probability(geom, link.with_(aloha=a))
        assert trial(a) == got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("density", [0.1, 1.0])
def test_disk_rule_sums_the_lens_rule_kernel_bit_for_bit(radio, m, density):
    # both capture probabilities evaluate one kernel assembly; the disk rule
    # only sums it on its 64 nodes
    geom = HoverGeometry(radius=20.0, altitude=20.0, density=density)
    w = geom.radius * quadrature.UNIT_NODES
    weight = geom.radius * quadrature.UNIT_WEIGHTS * w
    for a in np.geomspace(1e-4, 1.0, 13).tolist():
        link = radio.with_(m=m, aloha=a)
        kernel = channel._capture_kernel(np.sqrt(w**2 + geom.altitude**2), geom, link)
        p = 2.0 * a * math.pi * geom.density * float(kernel @ weight)
        assert success_probability(geom, link) == min(max(p, 0.0), 1.0)


def test_warm_beta_search_builds_one_link_per_beta_trial(geom20, radio, monkeypatch):
    optimal_beta(geom20, radio)  # warm: every interpolant of the search is cached
    built, searches, trials = [], [], []
    init, best_aloha, golden = RadioSpec.__post_init__, channel._best_aloha, channel.golden_max

    def counted_init(self):
        built.append(self)
        init(self)

    def counted_best_aloha(*args, **kwargs):
        searches.append(args)
        return best_aloha(*args, **kwargs)

    def counted_golden(f, lo, hi, tol):
        def counted_f(x):
            trials.append(x)
            return f(x)
        return golden(counted_f, lo, hi, tol=tol)

    monkeypatch.setattr(RadioSpec, "__post_init__", counted_init)
    monkeypatch.setattr(channel, "_best_aloha", counted_best_aloha)
    monkeypatch.setattr(channel, "golden_max", counted_golden)
    optimal_beta(geom20, radio)
    # one link per beta trial, each with one ALOHA search, and the link returned
    assert len(searches) >= 10
    assert len(built) == len(searches) + 1
    assert len(trials) > 10 * len(built)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("optimize_a", [True, False])
def test_beta_trials_measure_success_probability_bit_for_bit(geom20, radio, m, optimize_a, monkeypatch):
    link = radio.with_(m=m)
    measured = []  # (beta, a, P_s) that each beta trial scored
    disk_trial, best_aloha = channel._disk_trial, channel._best_aloha

    def labelled_trial(geom, trial_link):
        trial = disk_trial(geom, trial_link)

        def scored(a):
            p = trial(a)
            if not optimize_a:  # a fixed transmit probability is scored by one trial
                measured.append((trial_link.beta, a, p))
            return p

        scored.beta = trial_link.beta
        return scored

    def recorded_best_aloha(trial, tol):
        a, p = best_aloha(trial, tol)
        measured.append((trial.beta, a, p))
        return a, p

    monkeypatch.setattr(channel, "_disk_trial", labelled_trial)
    monkeypatch.setattr(channel, "_best_aloha", recorded_best_aloha)
    best = optimal_beta(geom20, link, optimize_a=optimize_a)
    monkeypatch.undo()
    assert len(measured) >= 10
    for beta, a, p in measured:
        assert p == success_probability(geom20, link.with_(beta=beta, aloha=a))
    assert best.aloha in {a for _, a, _ in measured}


def test_optimal_aloha_degenerate_sparse_field(radio):
    sparse = HoverGeometry(radius=20.0, altitude=20.0, density=5e-4)  # ~0.6 nodes
    assert optimal_aloha(sparse, radio) == 1.0


def test_optimal_aloha_beats_collision_design(geom20, radio):
    a_star = optimal_aloha(geom20, radio)
    conventional = 1.0 / geom20.mean_nodes
    assert a_star > conventional
    p_star = success_probability(geom20, radio.with_(aloha=a_star))
    for eps in (-0.01, 0.01):
        a = min(max(a_star + eps, 1e-6), 1.0)
        assert p_star >= success_probability(geom20, radio.with_(aloha=a)) - 1e-6


def test_optimal_beta_unimodal_neighborhood(geom20, radio):
    best = optimal_beta(geom20, radio, optimize_a=True)
    assert 1.0 <= best.beta <= 20.0

    def objective(beta):
        trial = radio.with_(beta=beta)
        a = optimal_aloha(geom20, trial)
        return success_probability(geom20, trial.with_(aloha=a)) * math.log2(1 + beta)

    best_objective = success_probability(geom20, best) * math.log2(1 + best.beta)
    assert best_objective >= objective(max(best.beta / 1.5, 1.0)) - 1e-3
    assert best_objective >= objective(min(best.beta * 1.5, 20.0)) - 1e-3


def test_optimal_beta_reports_its_search_point(geom20, radio):
    best = optimal_beta(geom20, radio, optimize_a=True)
    trial = radio.with_(beta=best.beta)
    # the returned link is the search point itself, so its objective is the one searched
    assert best == trial.with_(aloha=optimal_aloha(geom20, trial, tol=1e-3))


def test_optimal_beta_constant_success_goes_to_cap(geom20, radio, monkeypatch):
    monkeypatch.setattr(channel, "_disk_trial", lambda g, r: lambda a: 0.5)
    best = optimal_beta(geom20, radio, optimize_a=False)
    assert best.beta == channel.BETA_MAX == 20.0


def test_tuned_link_applies_given_values_before_tuning_free_ones(geom20, radio):
    assert tuned_link(geom20, radio, 3.0, 0.005) == radio.with_(beta=3.0, aloha=0.005)
    trial = radio.with_(beta=3.0)
    assert tuned_link(geom20, radio, 3.0, None) == trial.with_(aloha=optimal_aloha(geom20, trial))
    # a free threshold is searched at the given transmit probability, not radio's
    fixed = radio.with_(aloha=5e-4)
    best = optimal_beta(geom20, fixed, optimize_a=False)
    assert best.beta != optimal_beta(geom20, radio, optimize_a=False).beta
    assert tuned_link(geom20, radio, None, 5e-4) == best == fixed.with_(beta=best.beta)
    assert tuned_link(geom20, radio, None, None) == optimal_beta(geom20, radio)


def test_theta_lens_regions():
    # probe disk smaller than the covered disk
    assert theta_lens(0.0, 20.0, 10.0) == 0.0
    assert theta_lens(5.0, 20.0, 10.0) == 0.0  # inside the uncovered core
    assert theta_lens(10.0, 20.0, 10.0) == pytest.approx(0.0, abs=1e-9)  # tangent
    # probe disk engulfing the covered disk: full angle out to R_mse - R
    assert theta_lens(5.0, 20.0, 60.0) == pytest.approx(2 * math.pi)
    assert theta_lens(20.0, 20.0, 40.0) == pytest.approx(2 * math.pi, rel=1e-12)
    # generic lens angle against the planar construction
    w, R, rm = 15.0, 20.0, 10.0
    want = 2.0 * math.acos((R**2 + w**2 - rm**2) / (2 * R * w))
    assert theta_lens(w, R, rm) == pytest.approx(want, rel=1e-12)


def test_edge_success_limits(geom20, radio):
    full = edge_success_probability(geom20, radio, 2.0 * geom20.radius)
    assert full == pytest.approx(success_probability(geom20, radio), rel=1e-6)
    tiny = edge_success_probability(geom20, radio, 0.05)
    assert tiny < 1e-4
    empty = HoverGeometry(radius=20.0, altitude=20.0, density=0.0)
    for geom, link in ((empty, radio), (geom20, radio.with_(aloha=0.0))):
        none = edge_success_probability(geom, link, 15.0)
        assert none == 0.0 and math.copysign(1.0, none) == 1.0
        assert np.array_equal(edge_success_probability(geom, link, np.array([5.0, 50.0])),
                              np.zeros(2))
    with pytest.raises(ValueError):
        edge_success_probability(geom20, radio, 0.0)
    with pytest.raises(ValueError):
        edge_success_probability(geom20, radio, math.nan)
    with pytest.raises(ValueError, match="positive and finite"):
        edge_success_probability(geom20, radio, math.inf)
    with pytest.raises(ValueError):
        edge_success_probability(geom20, radio, np.array([5.0, math.nan]))


def test_edge_success_bounded_by_total(geom20, radio):
    for r_mse in (5.0, 15.0, 25.0, 40.0):
        pe = edge_success_probability(geom20, radio, r_mse)
        assert 0.0 <= pe <= success_probability(geom20, radio) + 1e-9


def test_slot_duration_reference(radio):
    assert slot_duration(radio.with_(beta=1.0)) == pytest.approx(0.2048)


def test_hover_time_unit_case(radio):
    # a slot that always delivers collects zeta/M = 1 sample in one slot
    m = 4
    t = aggregation_slots(m, float(m), 1.0) * slot_duration(radio)
    assert t == pytest.approx(slot_duration(radio))


def test_hover_time_infeasible_is_infinite(geom20, radio):
    silent = radio.with_(aloha=0.0)
    p = success_probability(geom20, silent)
    assert math.isinf(aggregation_slots(3, 100.0, p) * slot_duration(silent))


# (R, h): the reference disk, two more 90-degree disks, a wide flat disk and
# a 170-degree beam (altitude R / tan 85 deg)
GEOMETRIES = [
    (20.0, 20.0), (15.0, 15.0), (40.0, 23.0), (20.0, 20.0 / math.tan(math.radians(85.0))),
]


def mpmath_laplace_derivative(k, s, geom, radio):
    """L^(k)(s) at 40 digits: mpmath differentiates exp(-s N/P - 2 pi lambda a Q_0(s)),
    with Q_0 by ``mpmath.quad`` on [h, d]."""
    h = mpmath.mpf(geom.altitude)
    d = mpmath.sqrt(mpmath.mpf(geom.radius) ** 2 + h**2)
    m, eta = radio.m, mpmath.mpf(radio.eta)
    area_rate = 2 * mpmath.pi * mpmath.mpf(geom.density) * mpmath.mpf(radio.aloha)
    noise_ratio = mpmath.mpf(radio.noise) / mpmath.mpf(radio.power)

    def laplace(t):
        q = mpmath.quad(lambda r: (1 - (1 + t * r ** (-eta) / m) ** (-m)) * r, [h, d])
        return mpmath.exp(-t * noise_ratio - area_rate * q)

    return mpmath.diff(laplace, mpmath.mpf(s), k)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("cover,altitude", GEOMETRIES)
def test_laplace_functions_match_mpmath(radio, m, cover, altitude):
    geom = HoverGeometry(cover, altitude, 0.1)
    # every sensor transmits, so log L reaches -500 and a relative error in
    # Q_0 shows in L up to 500 times larger
    link = radio.with_(m=m, aloha=1.0)
    with mpmath.workdps(40):
        # capture thresholds at the near, middle and far slant ranges
        for r in (geom.altitude, 0.5 * (geom.altitude + geom.slant), geom.slant):
            s = m * link.beta * r**link.eta
            want = [float(mpmath_laplace_derivative(k, s, geom, link)) for k in range(m)]
            got = [laplace_interference(s, geom, link)]
            got += [laplace_derivative(k, s, geom, link) for k in range(1, m)]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def exact_kernel(r, geom, radio):
    """Gamma-tail capture kernel from the nested-quadrature Laplace derivatives."""
    s = radio.m * radio.beta * r**radio.eta
    return sum(
        (-s) ** k / math.factorial(k) * laplace_derivative(k, s, geom, radio)
        for k in range(radio.m)
    )


def edge_reference(geom, radio, r_mse):
    """Adaptive integral over ground distance at 1e-13 relative, split at the lens kink
    and free of the lens angle's square-root endpoint."""
    h, cover = geom.altitude, geom.radius

    def integrand(w):
        slant = np.sqrt(w**2 + h**2)
        return channel._capture_kernel(slant, geom, radio) * w * theta_lens(w, cover, r_mse)

    total, err = reference_lens_quad(integrand, cover, r_mse)
    assert err <= REFERENCE_RTOL * total
    return radio.aloha * geom.density * total


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("cover,altitude", GEOMETRIES)
def test_interpolated_kernel_matches_nested_quadrature(radio, m, cover, altitude):
    geom = HoverGeometry(cover, altitude, 0.1)
    r = np.linspace(geom.altitude, geom.slant, 101)
    for beta in (1.0, 1.8, 20.0):
        link = radio.with_(m=m, beta=beta)
        want = exact_kernel(r, geom, link)
        assert np.max(np.abs(channel._capture_kernel(r, geom, link) / want - 1.0)) <= 1e-12
        # a dense, busy field: the kernel is tiny but still tracks the exact one
        busy = link.with_(aloha=0.3)
        got = channel._capture_kernel(r, geom, busy)
        assert np.max(np.abs(got - exact_kernel(r, geom, busy))) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("cover,altitude", GEOMETRIES)
def test_edge_rule_matches_adaptive_reference(radio, m, cover, altitude):
    geom = HoverGeometry(cover, altitude, 0.1)
    link = radio.with_(m=m)
    probes = [
        0.05, cover / 2, cover * (1 - 1e-3), cover, cover * (1 + 1e-3),
        1.5 * cover, 2 * cover - 1e-9, 2.2 * cover,
    ]
    for r_mse in probes:
        got = edge_success_probability(geom, link, r_mse)
        assert got == pytest.approx(edge_reference(geom, link, r_mse), rel=1e-12, abs=0.0)


def test_edge_array_matches_scalar_calls(geom20, radio):
    probes = np.array([[0.05, 7.0, 19.98, 20.0], [20.02, 30.0, 40.0, 44.0]])
    got = edge_success_probability(geom20, radio, probes)
    assert got.shape == probes.shape
    for idx, r_mse in np.ndenumerate(probes):
        assert got[idx] == edge_success_probability(geom20, radio, float(r_mse))
    assert np.all(edge_success_probability(geom20, radio.with_(aloha=0.0), probes) == 0.0)
    with pytest.raises(ValueError):
        edge_success_probability(geom20, radio, np.array([5.0, -1.0]))


def cosine_lookup(r, geom, m, eta, beta):
    """[Q_0, ..., Q_0^(m-1)] at slant range r from the cached coefficients with
    T_k(x) = cos(k acos x), and the scale sum_k |c_k T_k(x)| / scale_j of each
    column, the size of the rounding any evaluation order of the series makes."""
    beta_hi = max(beta, channel.BETA_MAX)
    coef = channel._interference_coefficients(geom, m, eta, beta_hi)
    lo, hi = channel._log_s_range(geom, m, eta, beta_hi)
    s = m * beta * r**eta
    angle = np.arccos(np.clip((2.0 * np.log(s) - (hi + lo)) / (hi - lo), -1.0, 1.0))
    basis = np.cos(angle[:, None] * np.arange(len(coef)))
    col = [channel._column_scale(j, s, geom, m, eta) for j in range(m)]
    values = [np.sum(basis * coef[:, j], axis=1) / col[j] for j in range(m)]
    scales = [np.sum(np.abs(basis * coef[:, j]), axis=1) / col[j] for j in range(m)]
    return values, scales


@pytest.mark.parametrize("degree", channel._CHEB_DEGREES)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_recurrence_basis_matches_cosine_sum(radio, monkeypatch, degree, m):
    # every geometry whose interpolant is resolved at or below ``degree``,
    # rebuilt at exactly that degree; both ends r = h and r = d included
    checked = 0
    for cover, altitude in GEOMETRIES:
        geom = HoverGeometry(cover, altitude, 0.1)
        for beta in (1.0, 1.8, 20.0):
            beta_hi = max(beta, channel.BETA_MAX)
            if len(channel._interference_coefficients(geom, m, radio.eta, beta_hi)) - 1 > degree:
                continue
            r = np.linspace(geom.altitude, geom.slant, 101)
            with monkeypatch.context() as patch:
                patch.setattr(channel, "_CHEB_DEGREES", (degree,))
                channel._interference_coefficients.cache_clear()
                try:
                    coef = channel._interference_coefficients(geom, m, radio.eta, beta_hi)
                    assert len(coef) == degree + 1
                    want, scale = cosine_lookup(r, geom, m, radio.eta, beta)
                    s, got = channel._interference_lookup(r, geom, m, radio.eta, beta)
                finally:
                    channel._interference_coefficients.cache_clear()
            assert np.array_equal(s, m * beta * r**radio.eta)
            for j in range(m):
                # relative where the series does not cancel; where it does (the
                # 170-degree beam at beta = 20), relative to the terms it adds
                assert np.all(np.abs(got[j] - want[j]) <= 1e-14 * scale[j])
            checked += 1
    assert checked >= 6


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("cover,altitude", [GEOMETRIES[0], GEOMETRIES[3]])
def test_lookup_value_does_not_depend_on_array_shape(radio, m, cover, altitude):
    geom = HoverGeometry(cover, altitude, 0.1)
    r = np.linspace(geom.altitude, geom.slant, 512)
    s, flat = channel._interference_lookup(r, geom, m, radio.eta, radio.beta)
    s_grid, grid = channel._interference_lookup(r.reshape(8, 64), geom, m, radio.eta, radio.beta)
    assert np.array_equal(s_grid.ravel(), s)
    for j in range(m):
        assert grid[j].shape == (8, 64)
        assert np.array_equal(grid[j].ravel(), flat[j])
    for i in range(len(r)):
        _, single = channel._interference_lookup(r[i : i + 1], geom, m, radio.eta, radio.beta)
        assert [q[0] for q in single] == [q[i] for q in flat]


def record_kernel_shapes(monkeypatch):
    shapes = []
    kernel = channel._capture_kernel

    def recording(r, geom, radio):
        shapes.append(r.shape)
        return kernel(r, geom, radio)

    monkeypatch.setattr(channel, "_capture_kernel", recording)
    return shapes


def test_probe_search_short_of_center_sends_only_lens_nodes(geom20, radio, cov75, monkeypatch):
    # the probe-radius limit 0.5 b ln(1/0.8) = 8.37 m stays short of the 20 m
    # disk center, so no core node would carry weight
    assert probe_radius_limit(cov75, 0.2) < geom20.radius
    shapes = record_kernel_shapes(monkeypatch)
    optimal_slots_estimation(geom20, radio, cov75, 0.2)
    assert shapes[0] == (PROBE_GRID, 64)
    assert len(shapes) > 1 and set(shapes[1:]) == {(1, 64)}


def test_probe_search_past_center_runs_the_core_rule(radio, cov75, monkeypatch):
    geom = HoverGeometry(5.0, 5.0, 0.1)
    upper = probe_radius_limit(cov75, 0.2)
    assert upper > geom.radius
    shapes = record_kernel_shapes(monkeypatch)
    optimal_slots_estimation(geom, radio, cov75, 0.2)
    assert shapes[0] == (PROBE_GRID, 128)
    radii = upper * (np.arange(1, PROBE_GRID + 1) - 0.5) / PROBE_GRID
    got = edge_success_probability(geom, radio, radii)
    assert shapes[-1] == (PROBE_GRID, 128)
    for idx in (0, 20, 40, 63):  # below and above R, up to the limit
        assert got[idx] == pytest.approx(edge_reference(geom, radio, radii[idx]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("degree", channel._CHEB_DEGREES)
def test_coefficients_are_chebinterpolate_bit_for_bit(radio, monkeypatch, degree):
    monkeypatch.setattr(channel, "_CHEB_DEGREES", (degree,))
    for cover, altitude in GEOMETRIES:
        geom = HoverGeometry(cover, altitude, 0.1)
        for m in (1, 2, 3):
            lo, hi = channel._log_s_range(geom, m, radio.eta, channel.BETA_MAX)

            def values(x):
                s = np.exp(0.5 * (hi + lo) + 0.5 * (hi - lo) * x)
                return np.stack(
                    [channel._column_scale(j, s, geom, m, radio.eta)
                     * channel._q_derivative(j, s, geom, m, radio.eta) for j in range(m)],
                    axis=-1,
                )

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # a low degree may not resolve
                got = channel._interference_coefficients.__wrapped__(
                    geom, m, radio.eta, channel.BETA_MAX
                )
            want = chebyshev.chebinterpolate(values, degree)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("cover,altitude", GEOMETRIES)
def test_lookup_matches_direct_quadrature_at_the_disk_nodes(radio, m, cover, altitude):
    geom = HoverGeometry(cover, altitude, 0.1)
    w = geom.radius * quadrature.UNIT_NODES
    r = np.sqrt(w**2 + geom.altitude**2)
    # 35 is a given threshold above the search range, read from its own interpolant
    for beta in (1.0, 1.8, 5.0, 20.0, 35.0):
        s, got = channel._interference_lookup(r, geom, m, radio.eta, beta)
        for j in range(m):
            want = channel._q_derivative(j, s, geom, m, radio.eta)
            assert np.max(np.abs(got[j] / want - 1.0)) <= 1e-12


def test_one_interpolant_serves_every_aloha(radio):
    geom = HoverGeometry(radius=21.5, altitude=21.5, density=0.1)
    channel._interference_coefficients.cache_clear()
    optimal_aloha(geom, radio)
    edge_success_probability(geom, radio.with_(aloha=0.2), np.linspace(1.0, 40.0, 64))
    assert channel._interference_coefficients.cache_info().currsize == 1


def test_plan_builds_one_interpolant_per_geometry(deployment, drone, radio, cov75, table,
                                                  monkeypatch):
    priced = set()
    tuned = mission.tuned_link

    def recorded(geom, *args):
        priced.add(geom)
        return tuned(geom, *args)

    monkeypatch.setattr(mission, "tuned_link", recorded)
    for plan in (lambda: plan_aggregation(deployment, drone, radio, 250.0, table=table),
                 lambda: plan_estimation(deployment, drone, radio, cov75, 0.2, table=table)):
        priced.clear()
        channel._interference_coefficients.cache_clear()
        plan()
        # every beta trial of a geometry's link search, and every probe radius
        # of its estimation budget, reads the same interpolant
        assert len(priced) >= 5
        assert channel._interference_coefficients.cache_info().misses == len(priced)


def test_beta_searches_build_one_interpolant(geom20, radio, tmp_path):
    channel._interference_coefficients.cache_clear()
    optimal_beta(geom20, radio)
    assert channel._interference_coefficients.cache_info().misses == 1
    channel._interference_coefficients.cache_clear()
    assert cli.main(["sweep", "--axis", "beta", "--grid", "1:10:10", "--out", str(tmp_path)]) == 0
    assert channel._interference_coefficients.cache_info().misses == 1


def test_interpolant_warns_at_degree_cap(radio, monkeypatch):
    monkeypatch.setattr(channel, "_CHEB_DEGREES", (4,))
    geom = HoverGeometry(radius=20.0, altitude=1.0, density=0.1)
    try:
        with pytest.warns(RuntimeWarning, match="degree 4"):
            channel._interference_coefficients(geom, 1, 3.0, 1.8)
    finally:
        channel._interference_coefficients.cache_clear()  # drop the capped interpolant


@pytest.mark.parametrize("warning", ["degree cap", "quadrature check"])
def test_accuracy_warnings_fail_the_suite_outside_warns(warning, monkeypatch):
    # pyproject.toml's filters turn these warnings into errors; a reworded
    # warning that slips past its filter would pass silently, and fails here
    monkeypatch.setattr(channel, "_CHEB_DEGREES", (4,))
    geom = HoverGeometry(radius=20.0, altitude=1.0, density=0.1)
    try:
        with pytest.raises(RuntimeWarning):
            if warning == "degree cap":
                channel._interference_coefficients(geom, 1, 3.0, 1.8)
            else:
                quadrature.integrate(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0)
    finally:
        channel._interference_coefficients.cache_clear()


def test_theta_lens_thin_lens_is_accurate():
    # the probe disk is 400x smaller than the hover disk, so the lens cosine
    # sits within 1e-5 of 1; the reference is tan^2(theta/4) = (1-cos)/(1+cos)
    # from the law of cosines in exact rational arithmetic
    cover, probe = 20.0, 0.05
    for w in np.linspace(cover - probe, cover, 9)[1:]:
        c, x, p = Fraction(cover), Fraction(float(w)), Fraction(probe)
        cos = (c * c + x * x - p * p) / (2 * c * x)
        want = 4.0 * math.atan(math.sqrt(float((1 - cos) / (1 + cos))))
        assert theta_lens(w, cover, probe) == pytest.approx(want, rel=1e-13, abs=0.0)


def disk_reference(geom, radio):
    """2 pi a lambda int_h^d K(r) r dr, adaptive at 1e-13 relative with the same kernel."""
    def integrand(r):
        return channel._capture_kernel(r, geom, radio) * r

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        value, err = reference_quad(integrand, geom.altitude, geom.slant)
    p = 2.0 * math.pi * radio.aloha * geom.density * value
    # near the underflow floor the kernel's own rounding exceeds 1e-13
    # relative, so the reference may report that it missed its tolerance;
    # only the absolute bar applies to values that small
    assert not caught or p < 1e-200
    assert err <= REFERENCE_RTOL * value or p < 1e-200
    return p


# the edge geometries with the far 75 m disk, and the 170-degree beam at R = 10
DISK_GEOMETRIES = [
    (20.0, 20.0), (15.0, 15.0), (40.0, 23.0), (75.0, 75.0),
    (10.0, 10.0 / math.tan(math.radians(85.0))),
]


@pytest.mark.parametrize("density", [0.1, 1.0])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("cover,altitude", DISK_GEOMETRIES)
def test_disk_rule_matches_adaptive_reference(radio, cover, altitude, m, density):
    geom = HoverGeometry(cover, altitude, density)
    for beta in (1.0, 1.8, 5.0, 20.0):
        for aloha in (1e-3, 0.05, 1.0):
            link = radio.with_(m=m, beta=beta, aloha=aloha)
            want = disk_reference(geom, link)
            got = success_probability(geom, link)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-16)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("cover,altitude", GEOMETRIES)
def test_edge_at_full_lens_equals_disk(radio, cover, altitude, m):
    geom = HoverGeometry(cover, altitude, 0.1)
    link = radio.with_(m=m)
    want = success_probability(geom, link)
    assert edge_success_probability(geom, link, 2.0 * cover) == pytest.approx(
        want, rel=1e-12, abs=0.0
    )


# (R, h) and beta from bounded boxes, so an example builds
# two small interpolants (at beta and 4 beta) and the test stays well under 10 s
_LINKS = st.fixed_dictionaries(
    {
        "cover": st.floats(10.0, 40.0),
        "tilt": st.floats(0.3, 1.5),
        "m": st.integers(1, 3),
        "beta": st.floats(1.0, 5.0),
        "density": st.floats(0.01, 1.0),
        "aloha": st.floats(1e-4, 1.0),
    }
)


@settings(deadline=None)
@given(_LINKS)
def test_success_probability_invariants(link):
    geom = HoverGeometry(link["cover"], link["cover"] * link["tilt"], link["density"])
    radio = RadioSpec(
        power=1e-6, noise=1e-11, eta=3.0, m=link["m"], bandwidth=2e5,
        packet_bits=40960.0, beta=link["beta"], aloha=link["aloha"],
    )
    p = success_probability(geom, radio)
    assert 0.0 <= p <= 1.0
    assert success_probability(geom, radio.with_(beta=4.0 * radio.beta)) <= p
    assert success_probability(geom, radio.with_(aloha=0.0)) == 0.0
    assert success_probability(replace(geom, density=0.0), radio) == 0.0
