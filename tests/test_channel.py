import math
import warnings
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning

from fieldhopper import channel
from fieldhopper.channel import (
    HoverGeometry,
    RadioSpec,
    edge_success_probability,
    hover_time_aggregation,
    laplace_derivative,
    laplace_interference,
    optimal_aloha,
    optimal_beta,
    slot_duration,
    success_probability,
    theta_lens,
)

from conftest import REFERENCE_RTOL, reference_lens_quad, reference_quad


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


def test_derivative_rejects_high_order(geom20, radio):
    with pytest.raises(ValueError):
        laplace_derivative(1, 10.0, geom20, radio)  # m = 1 has only order 0
    with pytest.raises(ValueError):
        laplace_derivative(3, 10.0, geom20, radio.with_(m=3))


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

    assert best.objective >= objective(max(best.beta / 1.5, 1.0)) - 1e-3
    assert best.objective >= objective(min(best.beta * 1.5, 20.0)) - 1e-3


def test_optimal_beta_reports_its_search_point(geom20, radio):
    best = optimal_beta(geom20, radio, optimize_a=True)
    trial = radio.with_(beta=best.beta)
    aloha = optimal_aloha(geom20, trial, tol=1e-3)
    assert best.aloha == aloha
    assert best.objective == (
        success_probability(geom20, trial.with_(aloha=aloha)) * math.log2(1.0 + best.beta)
    )


def test_optimal_beta_constant_success_goes_to_cap(geom20, radio, monkeypatch):
    monkeypatch.setattr(channel, "success_probability", lambda g, r: 0.5)
    best = optimal_beta(geom20, radio, optimize_a=False)
    assert best.beta == channel.BETA_MAX == 20.0


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
    with pytest.raises(ValueError):
        edge_success_probability(geom20, radio, 0.0)


def test_edge_success_bounded_by_total(geom20, radio):
    for r_mse in (5.0, 15.0, 25.0, 40.0):
        pe = edge_success_probability(geom20, radio, r_mse)
        assert 0.0 <= pe <= success_probability(geom20, radio) + 1e-9


def test_slot_duration_reference(radio):
    assert slot_duration(radio.with_(beta=1.0)) == pytest.approx(0.2048)


def test_hover_time_unit_case(geom20, radio, monkeypatch):
    monkeypatch.setattr(channel, "success_probability", lambda g, r: 1.0)
    m = 4
    t = channel.hover_time_aggregation(m, float(m), geom20, radio)
    assert t == pytest.approx(slot_duration(radio))


def test_hover_time_infeasible_is_infinite(geom20, radio):
    assert math.isinf(hover_time_aggregation(3, 100.0, geom20, radio.with_(aloha=0.0)))


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


def test_one_interpolant_serves_every_aloha(radio):
    geom = HoverGeometry(radius=21.5, altitude=21.5, density=0.1)
    channel._interference_coefficients.cache_clear()
    optimal_aloha(geom, radio)
    edge_success_probability(geom, radio.with_(aloha=0.2), np.linspace(1.0, 40.0, 64))
    assert channel._interference_coefficients.cache_info().currsize == 1


def test_interpolant_warns_at_degree_cap(radio, monkeypatch):
    monkeypatch.setattr(channel, "_CHEB_DEGREES", (4,))
    geom = HoverGeometry(radius=20.0, altitude=1.0, density=0.1)
    try:
        with pytest.warns(RuntimeWarning, match="degree 4"):
            channel._interference_coefficients(geom, 1, 3.0, 1.8)
    finally:
        channel._interference_coefficients.cache_clear()  # drop the capped interpolant


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
