"""Analytic uplink model for a drone hovering over a random sensor field.

Sensors form a Poisson field; during a hover every covered sensor transmits
in each slot with probability ``aloha`` over a Nakagami-m fading channel, and
the packet with the highest SINR is captured when it clears the threshold
``beta``.  The capture probability follows from the Laplace transform of the
normalized interference-plus-noise power; for integer m the Gamma tail turns
into a finite sum over its derivatives, which are evaluated through an exact
exponential recurrence (no finite differences).

The capture probabilities integrate a per-transmitter kernel over the disk.
Its interference integrals depend on the link only through (m, eta, beta), so
the kernel reads them from a Chebyshev interpolant in slant range, built once
per geometry and link and cached; the public Laplace functions integrate them
directly with the fixed Gauss rule of :mod:`fieldhopper.quadrature` (two
64-point panels on [h, d], checked against one).  The disk capture
probability sums the kernel on fixed nodes whose interference values are
cached per link too, so a transmit-probability trial costs one exponential
per node.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev

from . import quadrature
from .search import golden_max

__all__ = [
    "RadioSpec",
    "HoverGeometry",
    "laplace_interference",
    "laplace_derivative",
    "success_probability",
    "edge_success_probability",
    "theta_lens",
    "optimal_aloha",
    "optimal_beta",
    "OptimalBeta",
    "slot_duration",
    "hover_time_aggregation",
]

@dataclass(frozen=True)
class RadioSpec:
    """Link-layer parameters, all SI (watts, hertz, bits).

    ``m`` is the Nakagami shape (integer; 1 is Rayleigh), ``beta`` the SINR
    capture threshold (>= 1 so at most one packet per slot can clear it) and
    ``aloha`` the per-slot transmit probability.
    """

    power: float
    noise: float
    eta: float
    m: int
    bandwidth: float
    packet_bits: float
    beta: float = 1.8
    aloha: float = 0.01

    def __post_init__(self) -> None:
        if self.power <= 0 or self.noise < 0:
            raise ValueError("power must be positive and noise non-negative")
        if self.eta <= 2:
            raise ValueError("path-loss exponent must exceed 2")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValueError("Nakagami m must be a positive integer")
        if self.beta < 1:
            raise ValueError("SINR threshold must be at least 1")
        if not 0.0 <= self.aloha <= 1.0:
            raise ValueError("ALOHA probability must lie in [0, 1]")
        if self.bandwidth <= 0 or self.packet_bits <= 0:
            raise ValueError("bandwidth and packet size must be positive")

    def with_(self, **kwargs) -> "RadioSpec":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class HoverGeometry:
    """One hovering disk: ground radius, drone altitude, sensor density."""

    radius: float
    altitude: float
    density: float

    def __post_init__(self) -> None:
        if self.radius <= 0 or self.altitude <= 0:
            raise ValueError("radius and altitude must be positive")
        if self.density < 0:
            raise ValueError("density must be non-negative")

    @property
    def slant(self) -> float:
        """Distance from the drone to the edge of the covered disk."""
        return math.hypot(self.radius, self.altitude)

    @property
    def mean_nodes(self) -> float:
        return self.density * math.pi * self.radius**2


# ---------------------------------------------------------------------------
# Laplace transform of normalized interference + noise

def _q_derivative(j: int, s: np.ndarray, geom: HoverGeometry, m: int, eta: float) -> np.ndarray:
    """j-th derivative in s of the interference exponent integral.

    Q_0(s) = int_h^d (1 - (1 + s r^-eta / m)^-m) r dr and, for j >= 1,
    Q_0^(j)(s) = (-1)^(j+1) (m)_j m^-j int r^(1-eta*j) (1+s r^-eta/m)^(-m-j) dr.
    """
    h, d = geom.altitude, geom.slant
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if j == 0:
        def f(r: np.ndarray) -> np.ndarray:
            x = r[None, :] ** (-eta) / m
            return (1.0 - (1.0 + s[:, None] * x) ** (-m)) * r[None, :]
        return quadrature.integrate(f, h, d)
    rising = 1.0
    for i in range(j):
        rising *= m + i
    sign = 1.0 if j % 2 else -1.0

    def f(r: np.ndarray) -> np.ndarray:
        x = r[None, :] ** (-eta) / m
        return x**j * (1.0 + s[:, None] * x) ** (-(m + j)) * r[None, :]

    return sign * rising * quadrature.integrate(f, h, d)


def _laplace_from_q(
    s: np.ndarray, q: Sequence[np.ndarray], geom: HoverGeometry, radio: RadioSpec
) -> list[np.ndarray]:
    """[L, L', ..., L^(k)] from the interference integrals q = [Q_0, ..., Q_0^(k)].

    With g = log L = -s N/P - 2 pi lambda a Q_0(s), the transmit probability
    and the noise enter only here, and L = exp(g) gives
    L^(k) = sum_j C(k-1, j) g^(k-j) L^(j), which is exact.
    """
    noise_ratio = radio.noise / radio.power
    area_rate = 2.0 * math.pi * geom.density * radio.aloha
    g = [-s * noise_ratio - area_rate * q[0]]
    for j in range(1, len(q)):
        g_j = -area_rate * q[j]
        if j == 1:
            g_j = g_j - noise_ratio
        g.append(g_j)
    ell = [np.exp(g[0])]
    for k in range(1, len(q)):
        acc = np.zeros_like(ell[0])
        for j in range(k):
            acc = acc + math.comb(k - 1, j) * g[k - j] * ell[j]
        ell.append(acc)
    return ell


def _laplace_derivatives(
    s: np.ndarray, geom: HoverGeometry, radio: RadioSpec, max_order: int
) -> list[np.ndarray]:
    """[L, L', ..., L^(max_order)] with every Q_0^(j) integrated at ``s``."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    q = [_q_derivative(j, s, geom, radio.m, radio.eta) for j in range(max_order + 1)]
    return _laplace_from_q(s, q, geom, radio)


def laplace_interference(s, geom: HoverGeometry, radio: RadioSpec):
    """Laplace transform of normalized interference-plus-noise at ``s`` >= 0."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr < 0):
        raise ValueError("s must be non-negative")
    value = _laplace_derivatives(s_arr, geom, radio, 0)[0]
    return float(value[0]) if np.isscalar(s) or np.ndim(s) == 0 else value


def laplace_derivative(k: int, s, geom: HoverGeometry, radio: RadioSpec):
    """Exact k-th derivative of the interference Laplace transform.

    Only orders up to m-1 are meaningful for the capture expressions, so
    k >= m is rejected.
    """
    if k < 0 or k >= radio.m:
        raise ValueError(f"derivative order must satisfy 0 <= k <= m-1, got {k}")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    value = _laplace_derivatives(s_arr, geom, radio, k)[k]
    return float(value[0]) if np.isscalar(s) or np.ndim(s) == 0 else value


# ---------------------------------------------------------------------------
# capture probabilities

_CHEB_DEGREES = (32, 64, 128, 256)
_CHEB_TOL = 1e-13


@functools.lru_cache(maxsize=512)
def _interference_coefficients(
    geom: HoverGeometry, m: int, eta: float, beta: float
) -> np.ndarray:
    """Chebyshev coefficients on [h, d] of r -> s^j Q_0^(j)(s), s = m beta r^eta, j < m.

    The capture threshold s(r) is fixed by the link, so these integrals do
    not depend on the transmit probability or the noise; one interpolant
    serves every ALOHA value and every probe radius.  The factor s^j keeps
    each column on one relative scale across [h, d]; Q_0^(j) alone spans
    orders of magnitude when h << d.  The degree doubles until the last
    coefficients of each column fall below ``_CHEB_TOL`` of its largest one
    (geometric decay for analytic functions); at the cap the interpolant is
    kept and a warning says so.
    """
    h, d = geom.altitude, geom.slant

    def values(x: np.ndarray) -> np.ndarray:
        s = m * beta * (0.5 * (d + h) + 0.5 * (d - h) * x) ** eta
        return np.stack([s**j * _q_derivative(j, s, geom, m, eta) for j in range(m)], axis=-1)

    for deg in _CHEB_DEGREES:
        coef = chebyshev.chebinterpolate(values, deg)
        tail = np.max(np.abs(coef[-4:]), axis=0)
        if np.all(tail <= _CHEB_TOL * np.max(np.abs(coef), axis=0)):
            break
    else:
        warnings.warn(
            f"interference interpolant on slant ranges [{h:g}, {d:g}] m not "
            f"resolved at degree {deg} (m={m}, eta={eta:g}, beta={beta:g}); "
            "capture probabilities may lose accuracy",
            RuntimeWarning,
            stacklevel=3,
        )
    coef.flags.writeable = False
    return coef


def _interference_lookup(
    r: np.ndarray, geom: HoverGeometry, m: int, eta: float, beta: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Capture threshold s = m beta r^eta and [Q_0(s), ..., Q_0^(m-1)(s)] at slant range r.

    The interference integrals come from the cached interpolant, so no
    quadrature runs here.
    """
    h, d = geom.altitude, geom.slant
    coef = _interference_coefficients(geom, m, eta, beta)
    s = m * beta * r**eta
    # T_k(x) = cos(k acos x), summed in a fixed order per point (no BLAS),
    # so a point's value does not depend on the shape of ``r``
    angle = np.arccos(np.clip((2.0 * r - (d + h)) / (d - h), -1.0, 1.0))
    basis = angle[..., None] * np.arange(len(coef))
    scaled = np.einsum("...k,kj->...j", np.cos(basis, out=basis), coef)
    return s, [scaled[..., j] / s**j for j in range(m)]


def _kernel_from_q(
    s: np.ndarray, q: Sequence[np.ndarray], geom: HoverGeometry, radio: RadioSpec
) -> np.ndarray:
    """Per-transmitter capture probability (Gamma tail) from the interference integrals.

    Equals sum_{k<m} ((-s)^k / k!) L^(k)(s) with s = m beta r^eta; every term
    is non-negative because (-1)^k L^(k) = E[I^k exp(-sI)].
    """
    ell = _laplace_from_q(s, q, geom, radio)
    total = np.zeros_like(s)
    fact = 1.0
    for k in range(radio.m):
        if k > 0:
            fact *= k
        total = total + ((-s) ** k / fact) * ell[k]
    return total


def _capture_kernel(r: np.ndarray, geom: HoverGeometry, radio: RadioSpec) -> np.ndarray:
    """Per-transmitter capture probability at slant range r."""
    s, q = _interference_lookup(r, geom, radio.m, radio.eta, radio.beta)
    return _kernel_from_q(s, q, geom, radio)


@functools.lru_cache(maxsize=512)
def _disk_nodes(
    geom: HoverGeometry, m: int, eta: float, beta: float
) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """(s, q, weights) of the fixed disk rule: 64 Gauss nodes in ground distance.

    With w in [0, R] and r dr = w dw, int_h^d K(r) r dr = sum_i K(r_i) w_i c_i.
    The nodes' thresholds and interference integrals depend only on the
    link, so every ALOHA trial reads them from here.
    """
    w = geom.radius * quadrature.UNIT_NODES
    s, q = _interference_lookup(np.sqrt(w**2 + geom.altitude**2), geom, m, eta, beta)
    weight = geom.radius * quadrature.UNIT_WEIGHTS * w
    for arr in (s, *q, weight):
        arr.flags.writeable = False
    return s, tuple(q), weight


def success_probability(geom: HoverGeometry, radio: RadioSpec) -> float:
    """Probability that a slot delivers one packet from the covered disk.

    2 pi a lambda int_h^d K(r) r dr on the fixed 64-point rule over ground
    distance; the kernel at the cached nodes costs one exponential per node.
    """
    if radio.aloha == 0.0 or geom.density == 0.0:
        return 0.0
    s, q, weight = _disk_nodes(geom, radio.m, radio.eta, radio.beta)
    kernel = _kernel_from_q(s, q, geom, radio)
    p = 2.0 * radio.aloha * math.pi * geom.density * float(kernel @ weight)
    return min(max(p, 0.0), 1.0)


def _lens_angle(w, near, cover_radius, probe_radius):
    """Lens angle at in-disk radius ``w``, given ``near`` = w - |R - r_mse| >= 0.

    Uses 4 atan(sqrt((1 - cos)/(1 + cos))) with 1 -/+ cos factored into
    sums and differences of the radii; the factor that vanishes at the inner
    tangency is ``near`` itself, so no arccos of a rounded cosine near +-1
    loses digits, even for thin lenses.
    """
    beyond = probe_radius > cover_radius
    far = w + np.abs(probe_radius - cover_radius)
    minus = np.where(beyond, far, near) * (probe_radius + cover_radius - w)
    plus = np.where(beyond, near, far) * (w + cover_radius + probe_radius)
    return 4.0 * np.arctan2(np.sqrt(minus), np.sqrt(plus))


def theta_lens(w, cover_radius: float, probe_radius: float):
    """Angle subtended inside the edge probe disk at in-disk radius ``w``.

    The probe disk of radius ``probe_radius`` is centered on the boundary of
    the covered disk (radius ``cover_radius``); a circle of radius ``w``
    around the disk center intersects it over this angle.
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
        out[band] = _lens_angle(wb, wb - lo, cover_radius, probe_radius)
    return out


def edge_success_probability(geom: HoverGeometry, radio: RadioSpec, r_mse):
    """Probability that a slot delivers a packet sent from within the edge lens.

    The lens is the part of the covered disk within ``r_mse`` of a point on
    its boundary; for r_mse >= 2R it is the whole disk and this reduces to
    :func:`success_probability`.  ``r_mse`` may be a scalar or an array of
    probe radii (the result has its shape).

    The integral runs over ground distance w from the disk center (r dr =
    w dw) with fixed 64-point Gauss rules: on the lens segment
    [|R - r_mse|, R], where the lens angle has a square-root endpoint, in
    u with w = lo + (R - lo) u^2, and on the full-angle core [0, r_mse - R]
    when the probe disk reaches past the center.
    """
    r_arr = np.asarray(r_mse, dtype=float)
    if np.any(r_arr <= 0):
        raise ValueError("probe radius must be positive")
    if radio.aloha == 0.0 or geom.density == 0.0:
        return 0.0 if r_arr.ndim == 0 else np.zeros(r_arr.shape)
    cover, h = geom.radius, geom.altitude
    probe = r_arr.reshape(-1, 1)
    lo = np.minimum(np.abs(probe - cover), cover)
    core = np.clip(probe - cover, 0.0, cover)
    u, u_weight = quadrature.UNIT_NODES, quadrature.UNIT_WEIGHTS
    near = (cover - lo) * u**2  # w - lo, free of cancellation
    w_lens = lo + near
    theta = _lens_angle(w_lens, near, cover, probe)
    w = np.concatenate([w_lens, core * u], axis=1)
    weight = np.concatenate(
        [theta * 2.0 * (cover - lo) * u * u_weight, 2.0 * math.pi * core * u_weight], axis=1
    )
    kernel = _capture_kernel(np.sqrt(w**2 + h**2), geom, radio)
    p = radio.aloha * geom.density * np.sum(kernel * w * weight, axis=1)
    p = np.clip(p, 0.0, 1.0)
    return float(p[0]) if r_arr.ndim == 0 else p.reshape(r_arr.shape)


# ---------------------------------------------------------------------------
# parameter optimization and hover time

def optimal_aloha(geom: HoverGeometry, radio: RadioSpec, tol: float = 1e-4) -> float:
    """Transmit probability maximizing the capture probability, capped at 1.

    The saddle-point condition has no closed solution once the noise term is
    kept, so the maximum is located by golden-section search on (0, 1].
    """
    def f(a: float) -> float:
        return success_probability(geom, radio.with_(aloha=a))

    a_star, p_star = golden_max(f, tol, 1.0, tol=tol)
    if f(1.0) >= p_star:
        return 1.0
    return a_star


@dataclass(frozen=True)
class OptimalBeta:
    beta: float
    aloha: float
    objective: float  # success probability x spectral efficiency [bit/s/Hz]


def optimal_beta(
    geom: HoverGeometry,
    radio: RadioSpec,
    beta_max: float = 20.0,
    optimize_a: bool = True,
    tol: float = 1e-3,
) -> OptimalBeta:
    """SINR threshold minimizing hover time per collected sample.

    Hover time scales as 1/(P_s log2(1+beta)), so the search maximizes
    P_s log2(1+beta).  It runs on log beta over [1, beta_max]; the transmit
    probability is re-optimized per beta unless ``optimize_a`` is False.
    """

    def value(log_beta: float) -> tuple[float, float]:
        beta = math.exp(log_beta)
        trial = radio.with_(beta=beta)
        a = optimal_aloha(geom, trial, tol=1e-3) if optimize_a else radio.aloha
        p = success_probability(geom, trial.with_(aloha=a))
        return p * math.log2(1.0 + beta), a

    evaluated: dict[float, tuple[float, float]] = {}

    def objective(log_beta: float) -> float:
        evaluated[log_beta] = value(log_beta)
        return evaluated[log_beta][0]

    log_best, obj = golden_max(objective, 0.0, math.log(beta_max), tol=tol)
    # the capacity term grows without bound, so check the upper edge too
    edge_obj, edge_a = value(math.log(beta_max))
    if edge_obj >= obj:
        return OptimalBeta(beta=beta_max, aloha=edge_a, objective=edge_obj)
    obj, a = evaluated[log_best]
    return OptimalBeta(beta=math.exp(log_best), aloha=a, objective=obj)


def slot_duration(radio: RadioSpec) -> float:
    """Slot length carrying one packet at the Shannon rate for ``beta``."""
    return radio.packet_bits / (radio.bandwidth * math.log2(1.0 + radio.beta))


def aggregation_slots(m: int, zeta: float, p_success: float) -> float:
    """Expected slots per hover to average zeta/M captured samples."""
    if p_success <= 0.0:
        return math.inf
    return zeta / (m * p_success)


def hover_time_aggregation(
    m: int, zeta: float, geom: HoverGeometry, radio: RadioSpec
) -> float:
    """Hover duration per location for the sample-collection mission.

    Infinite (infeasible) when the capture probability is zero; not an error.
    """
    p = success_probability(geom, radio)
    return aggregation_slots(m, zeta, p) * slot_duration(radio)
