"""Analytic uplink model for a drone hovering over a random sensor field.

Sensors form a Poisson field; during a hover every covered sensor transmits
in each slot with probability ``aloha`` over a Nakagami-m fading channel, and
the packet with the highest SINR is captured when it clears the threshold
``beta``.  The capture probability follows from the Laplace transform of the
normalized interference-plus-noise power; for integer m the Gamma tail turns
into a finite sum over its derivatives, which are evaluated through an exact
exponential recurrence (no finite differences).

The capture probabilities integrate a per-transmitter kernel over the disk.
Its interference integrals depend on the threshold only through the capture
threshold s = m beta r^eta, so the kernel reads them from a Chebyshev
interpolant in log s, built once per geometry (and m, eta) and cached; it
covers every threshold of the search up to ``BETA_MAX``, so a threshold
search builds one.  Its basis polynomials come from the product recurrence
T_{n+j} = 2 T_n T_j - T_{n-j} rather than from cosines.  The interpolant is
built from interference integrals taken with the fixed Gauss rule of
:mod:`fieldhopper.quadrature` (two 64-point panels on [h, d], checked
against one); that interpolant is the one cache of the link layer.  One
function, :func:`_kernel_trial`, assembles the kernel at given slant ranges:
it reads the interpolant once per link and hoists -s N/P and the Gamma-tail
factors, so a transmit-probability trial costs one exponential per node.
The disk capture probability sums it on 64 fixed nodes with one dot
(:func:`_disk_trial`).  :func:`success_probability` is one such trial, so a
search and a direct call agree bit for bit, and :func:`_best_aloha` returns
the capture probability its search measured with the transmit probability
it picked.
The edge-lens capture probability evaluates the kernel on the lens nodes,
and on the full-angle core nodes only when a probe disk reaches past the
disk center.

The link is picked in one place, :func:`tuned_link`: a given threshold or
transmit probability is applied as it is, and a free one is tuned, the
transmit probability by :func:`optimal_aloha` and the threshold by
:func:`optimal_beta`.  ``RadioSpec``'s defaults (beta 1.8, ALOHA 0.01) are
the placeholder link that stands in for a free value.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev

from . import quadrature
from .search import golden_max

__all__ = [
    "RadioSpec",
    "HoverGeometry",
    "success_probability",
    "edge_success_probability",
    "optimal_aloha",
    "optimal_beta",
    "tuned_link",
    "slot_duration",
]

BETA_MAX = 20.0  # upper end of every SINR-threshold search; the lower end is 1
BETA_TOL = 1e-3  # log-beta tolerance of the SINR-threshold search


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
        # each check is written so that NaN fails it
        if not (0 < self.power < math.inf and 0 <= self.noise < math.inf):
            raise ValueError("power must be positive and noise non-negative, both finite")
        if not 2 < self.eta < math.inf:
            raise ValueError("path-loss exponent must exceed 2 and be finite")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValueError("Nakagami m must be a positive integer")
        if not 1 <= self.beta < math.inf:
            raise ValueError("SINR threshold must be at least 1 and finite")
        if not 0.0 <= self.aloha <= 1.0:
            raise ValueError("ALOHA probability must lie in [0, 1]")
        if not (0 < self.bandwidth < math.inf and 0 < self.packet_bits < math.inf):
            raise ValueError("bandwidth and packet size must be positive and finite")

    def with_(self, **kwargs) -> "RadioSpec":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class HoverGeometry:
    """One hovering disk: ground radius, drone altitude, sensor density."""

    radius: float
    altitude: float
    density: float

    def __post_init__(self) -> None:
        if not (0 < self.radius < math.inf and 0 < self.altitude < math.inf):
            raise ValueError("radius and altitude must be positive and finite")
        if not 0 <= self.density < math.inf:
            raise ValueError("density must be non-negative and finite")

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


def _exponent(
    base: np.ndarray, q: Sequence[np.ndarray], area_rate: float, noise_ratio: float
) -> list[np.ndarray]:
    """[g, g', ..., g^(k)] of g = log L = -s N/P - 2 pi lambda a Q_0(s).

    ``base`` is -s N/P and ``area_rate`` is 2 pi lambda a, so the transmit
    probability and the noise enter only here.
    """
    g = [base - area_rate * q[0]]
    for j in range(1, len(q)):
        g_j = -area_rate * q[j]
        if j == 1:
            g_j = g_j - noise_ratio
        g.append(g_j)
    return g


def _laplace_from_g(g: Sequence[np.ndarray]) -> list[np.ndarray]:
    """[L, L', ..., L^(k)] from L = exp(g): L^(k) = sum_j C(k-1, j) g^(k-j) L^(j), exact."""
    ell = [np.exp(g[0])]
    for k in range(1, len(g)):
        acc = np.zeros_like(ell[0])
        for j in range(k):
            acc = acc + math.comb(k - 1, j) * g[k - j] * ell[j]
        ell.append(acc)
    return ell


# ---------------------------------------------------------------------------
# capture probabilities

_CHEB_DEGREES = (32, 64, 128, 256)
_CHEB_TOL = 1e-13


def _log_s_range(geom: HoverGeometry, m: int, eta: float, beta_hi: float) -> tuple[float, float]:
    """log s at r = h, beta = 1 and at r = d, beta = beta_hi: the interpolant's range."""
    return math.log(m * geom.altitude**eta), math.log(m * beta_hi * geom.slant**eta)


def _column_scale(j: int, s: np.ndarray, geom: HoverGeometry, m: int, eta: float):
    """1 for j = 0, else s^j (1 + s / (m d^eta))^m: the factor that puts the
    interpolant's column j on one relative scale over its whole range."""
    if j == 0:
        return 1.0
    return s**j * (1.0 + s / (m * geom.slant**eta)) ** m


@functools.lru_cache(maxsize=512)
def _interference_coefficients(
    geom: HoverGeometry, m: int, eta: float, beta_hi: float
) -> np.ndarray:
    """Chebyshev coefficients in log s of s -> Q_0^(j)(s) times its column scale, j < m.

    Q_0^(j) depends on the threshold beta only through the capture threshold
    s = m beta r^eta, so one interpolant on [m h^eta, m beta_hi d^eta] serves
    every beta in [1, beta_hi], every transmit probability, every noise level
    and every probe radius.  The variable is log s, in which a change of beta
    is a shift and whose nodes spread evenly over the decades s spans.  Q_0
    stays within a small factor over the range, but for j >= 1 Q_0^(j) falls
    about like s^-j while s lies among the disk's m r^eta and like s^-(m+j)
    once it exceeds them all; the column scale s^j (1 + s / (m d^eta))^m
    cancels both, so every column is resolved to one relative accuracy over
    the whole range.  The degree doubles until the last coefficients of each
    column fall below ``_CHEB_TOL`` of its largest one (geometric decay for
    analytic functions); at the cap the interpolant is kept and a warning
    says so.
    """
    lo, hi = _log_s_range(geom, m, eta, beta_hi)

    def values(x: np.ndarray) -> np.ndarray:
        s = np.exp(0.5 * (hi + lo) + 0.5 * (hi - lo) * x)
        return np.stack(
            [_column_scale(j, s, geom, m, eta) * _q_derivative(j, s, geom, m, eta)
             for j in range(m)],
            axis=-1,
        )

    for deg in _CHEB_DEGREES:
        coef = chebyshev.chebinterpolate(values, deg)
        tail = np.max(np.abs(coef[-4:]), axis=0)
        if np.all(tail <= _CHEB_TOL * np.max(np.abs(coef), axis=0)):
            break
    else:
        warnings.warn(
            f"interference interpolant on capture thresholds s in "
            f"[{math.exp(lo):g}, {math.exp(hi):g}] (slant ranges "
            f"[{geom.altitude:g}, {geom.slant:g}] m) "
            f"not resolved at degree {deg} (m={m}, eta={eta:g}, beta up to "
            f"{beta_hi:g}); capture probabilities may lose accuracy",
            RuntimeWarning,
            stacklevel=3,
        )
    coef.flags.writeable = False
    return coef


def _interference_lookup(
    r: np.ndarray, geom: HoverGeometry, m: int, eta: float, beta: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Capture threshold s = m beta r^eta and [Q_0(s), ..., Q_0^(m-1)(s)] at slant range r.

    The interference integrals come from the cached interpolant of the
    geometry, which covers every threshold up to ``BETA_MAX`` (a larger
    given one has its own), so no quadrature runs here.
    """
    beta_hi = max(beta, BETA_MAX)
    coef = _interference_coefficients(geom, m, eta, beta_hi)
    lo, hi = _log_s_range(geom, m, eta, beta_hi)
    s = m * beta * r**eta
    # V_k = 2 T_k(x) by the product rule T_{n+j} = 2 T_n T_j - T_{n-j}, which
    # for V reads V_{n+j} = V_n V_j - V_{n-j}: each vectorised step doubles
    # the known degrees, with no trigonometry, over whole degree rows.
    # Scaling by 2 is exact, so (c_k / 2) V_k is c_k T_k bit for bit.  The
    # terms are then added pairwise over the degrees, elementwise and with
    # the same tree for every point (no BLAS), so a point's value does not
    # depend on the shape of ``r``
    x = np.minimum(np.maximum((2.0 * np.log(s) - (hi + lo)) / (hi - lo), -1.0), 1.0).ravel()
    top = len(coef) - 1
    twice = np.empty((top + 1, x.size))
    twice[0] = 2.0
    np.add(x, x, out=twice[1])
    n = 1
    while n < top:
        width = min(n, top - n)
        block = twice[n + 1 : n + width + 1]
        np.multiply(twice[1 : width + 1], twice[n], out=block)
        block -= twice[n - width : n][::-1]
        n += width
    half_coef = 0.5 * coef
    q = []
    for j in range(m):
        terms = twice if j == m - 1 else twice.copy()  # the last column reuses the basis
        terms *= half_coef[:, j, None]
        n = top + 1
        while n > 1:
            half = (n + 1) // 2
            terms[: n - half] += terms[half:n]
            n = half
        total = terms[0].reshape(r.shape)
        q.append(total / _column_scale(j, s, geom, m, eta))
    return s, q


def _tail_factors(s: np.ndarray, m: int) -> list[np.ndarray]:
    """(-s)^k / k! for 0 < k < m, the Gamma-tail weights of L^(k); fixed by the link."""
    factors = []
    fact = 1.0
    for k in range(1, m):
        fact *= k
        factors.append((-s) ** k / fact)
    return factors


def _gamma_tail(factors: Sequence[np.ndarray], ell: Sequence[np.ndarray]) -> np.ndarray:
    """L + sum_{k>0} factors_k L^(k); every term is non-negative because
    (-1)^k L^(k) = E[I^k exp(-sI)].

    The sum starts at L itself: its factor (-s)^0 / 0! is exactly 1, and
    L = exp(g) is never -0, so 0 + 1 L is L bit for bit.
    """
    total = ell[0]
    for factor, ell_k in zip(factors, ell[1:]):
        total = total + factor * ell_k
    return total


def _kernel_trial(
    r: np.ndarray, geom: HoverGeometry, radio: RadioSpec
) -> Callable[[float], np.ndarray]:
    """a -> per-transmitter capture probability at slant range r, transmit probability a.

    The Gamma tail sum_{k<m} ((-s)^k / k!) L^(k)(s) with s = m beta r^eta.
    What a transmit probability does not change is computed here, once: the
    thresholds and interference integrals at r, -s N/P and the Gamma-tail
    factors, so a trial costs one exponential per point.
    """
    s, q = _interference_lookup(r, geom, radio.m, radio.eta, radio.beta)
    noise_ratio = radio.noise / radio.power
    base = -s * noise_ratio
    factors = _tail_factors(s, radio.m)
    rate = 2.0 * math.pi * geom.density

    def kernel(a: float) -> np.ndarray:
        return _gamma_tail(factors, _laplace_from_g(_exponent(base, q, rate * a, noise_ratio)))

    return kernel


def _capture_kernel(r: np.ndarray, geom: HoverGeometry, radio: RadioSpec) -> np.ndarray:
    """Per-transmitter capture probability at slant range r on ``radio``'s link."""
    return _kernel_trial(r, geom, radio)(radio.aloha)


def _disk_trial(geom: HoverGeometry, radio: RadioSpec) -> Callable[[float], float]:
    """a -> :func:`success_probability` of ``radio`` at transmit probability a.

    The disk rule has 64 fixed Gauss nodes in ground distance: with w in
    [0, R] and r dr = w dw, int_h^d K(r) r dr = sum_i K(r_i) w_i c_i.  The
    nodes' kernel comes from :func:`_kernel_trial` and the weights are
    computed here, once.
    """
    w = geom.radius * quadrature.UNIT_NODES
    kernel = _kernel_trial(np.sqrt(w**2 + geom.altitude**2), geom, radio)
    weight = geom.radius * quadrature.UNIT_WEIGHTS * w

    def trial(a: float) -> float:
        p = 2.0 * a * math.pi * geom.density * float(kernel(a) @ weight)
        return min(max(p, 0.0), 1.0)

    return trial


def success_probability(geom: HoverGeometry, radio: RadioSpec) -> float:
    """Probability that a slot delivers one packet from the covered disk.

    2 pi a lambda int_h^d K(r) r dr on the fixed 64-point rule over ground
    distance; the kernel at the cached nodes costs one exponential per node.
    """
    return _disk_trial(geom, radio)(radio.aloha)


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
    when the probe disk reaches past the center.  The core nodes are
    evaluated only when some probe radius of the call exceeds R; a probe
    that stops short of the center gives its core nodes weight 0.
    """
    r_arr = np.asarray(r_mse, dtype=float)
    if not np.all((r_arr > 0) & (r_arr < math.inf)):
        raise ValueError("probe radius must be positive and finite")
    cover, h = geom.radius, geom.altitude
    probe = r_arr.reshape(-1, 1)
    lo = np.minimum(np.abs(probe - cover), cover)
    core = np.clip(probe - cover, 0.0, cover)
    u, u_weight = quadrature.UNIT_NODES, quadrature.UNIT_WEIGHTS
    near = (cover - lo) * u**2  # w - lo, free of cancellation
    w = lo + near
    weight = _lens_angle(w, near, cover, probe) * 2.0 * (cover - lo) * u * u_weight
    if np.any(core > 0):
        # a core node of a probe that stops short of the center has weight
        # exactly 0, so leaving the block out changes no row sum
        w = np.concatenate([w, core * u], axis=1)
        weight = np.concatenate([weight, 2.0 * math.pi * core * u_weight], axis=1)
    kernel = _capture_kernel(np.sqrt(w**2 + h**2), geom, radio)
    p = radio.aloha * geom.density * np.sum(kernel * w * weight, axis=1)
    p = np.clip(p, 0.0, 1.0)
    return float(p[0]) if r_arr.ndim == 0 else p.reshape(r_arr.shape)


# ---------------------------------------------------------------------------
# parameter optimization and slot pricing

def _best_aloha(trial: Callable[[float], float], tol: float) -> tuple[float, float]:
    """(a, P_s) at the transmit probability maximizing ``trial``, capped at 1.

    The saddle-point condition has no closed solution once the noise term is
    kept, so the maximum is located by golden-section search on (0, 1].
    """
    a_star, p_star = golden_max(trial, tol, 1.0, tol=tol)
    p_one = trial(1.0)
    if p_one >= p_star:
        return 1.0, p_one
    return a_star, p_star


def optimal_aloha(geom: HoverGeometry, radio: RadioSpec, tol: float = 1e-4) -> float:
    """Transmit probability maximizing the capture probability, capped at 1."""
    return _best_aloha(_disk_trial(geom, radio), tol)[0]


def optimal_beta(
    geom: HoverGeometry,
    radio: RadioSpec,
    optimize_a: bool = True,
) -> RadioSpec:
    """``radio`` at the SINR threshold minimizing hover time per collected sample.

    Hover time scales as 1/(P_s log2(1+beta)), so the search maximizes
    P_s log2(1+beta).  It runs on log beta over [1, BETA_MAX]; the transmit
    probability is re-optimized per beta unless ``optimize_a`` is False.
    """

    def value(log_beta: float) -> tuple[float, float]:
        beta = math.exp(log_beta)
        trial = _disk_trial(geom, radio.with_(beta=beta))
        a, p = _best_aloha(trial, 1e-3) if optimize_a else (radio.aloha, trial(radio.aloha))
        return p * math.log2(1.0 + beta), a

    evaluated: dict[float, tuple[float, float]] = {}

    def objective(log_beta: float) -> float:
        evaluated[log_beta] = value(log_beta)
        return evaluated[log_beta][0]

    log_best, obj = golden_max(objective, 0.0, math.log(BETA_MAX), tol=BETA_TOL)
    # the capacity term grows without bound, so check the upper edge too
    edge_obj, edge_a = value(math.log(BETA_MAX))
    if edge_obj >= obj:
        return radio.with_(beta=BETA_MAX, aloha=edge_a)
    return radio.with_(beta=math.exp(log_best), aloha=evaluated[log_best][1])


def tuned_link(
    geom: HoverGeometry,
    radio: RadioSpec,
    beta: float | None,
    aloha: float | None,
) -> RadioSpec:
    """``radio`` with each given link value applied and each free one tuned.

    It picks the link for both missions: the estimation planner prices its
    slot budget on the link aggregation would use.  The given values are set
    before any search.  A free transmit probability under a given threshold
    is :func:`optimal_aloha`; a free threshold is :func:`optimal_beta`, which
    re-tunes the transmit probability per trial only when that is free too.
    """
    radio = radio.with_(**{k: v for k, v in (("beta", beta), ("aloha", aloha)) if v is not None})
    if beta is None:
        return optimal_beta(geom, radio, optimize_a=aloha is None)
    if aloha is None:
        return radio.with_(aloha=optimal_aloha(geom, radio))
    return radio


def slot_duration(radio: RadioSpec) -> float:
    """Slot length carrying one packet at the Shannon rate for ``beta``."""
    return radio.packet_bits / (radio.bandwidth * math.log2(1.0 + radio.beta))


def aggregation_slots(m: int, zeta: float, p_success: float) -> float:
    """Expected slots per hover to average zeta/M captured samples."""
    if p_success <= 0.0:
        return math.inf
    return zeta / (m * p_success)
