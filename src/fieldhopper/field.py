"""Spatially correlated field model: covariance, sampling, kriging.

The measured quantity is a zero-mean Gaussian field with a Matern covariance
(`nu = 0.5` gives the exponential kernel used by the estimation mission).
Prediction at unobserved points is simple kriging; the per-point posterior
variance is what the mission budget is written against.

The edge-MSE budget bounds the mean MSE at a hover-disk edge point by the
probability that no sample arrives from within a probe disk of radius
``r_mse`` centered on that point, and picks the probe radius / slot count
pair that meets the target with the fewest slots.  The budget assumes the
exponential covariance and reads the target only as ``delta / sigma2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    HoverGeometry,
    RadioSpec,
    edge_success_probability,
    slot_duration,
)
from .search import golden_min

__all__ = [
    "CovarianceSpec",
    "ObservationSet",
    "MseBudget",
    "DegenerateObservations",
    "EstimationInfeasible",
    "covariance",
    "covariance_matrix",
    "krige",
    "sample_field",
    "area_ratio_rho",
    "probe_radius_limit",
    "estimation_slots",
    "optimal_slots_estimation",
]

MAX_FACTOR_POINTS = 5000
JITTER_FACTOR = 1e-10
MERGE_DISTANCE = 1e-9
PROBE_GRID = 64  # probe radii that bracket the slot-count minimum


class DegenerateObservations(Exception):
    """Observation covariance not positive definite even after jitter."""


class EstimationInfeasible(Exception):
    """No probe radius / slot count can reach the requested MSE."""


@dataclass(frozen=True)
class CovarianceSpec:
    """Stationary isotropic Matern covariance: variance, smoothness, range."""

    sigma2: float
    nu: float
    b: float

    def __post_init__(self) -> None:
        if not (0 < self.sigma2 < math.inf and 0 < self.nu < math.inf and 0 < self.b < math.inf):
            raise ValueError("sigma2, nu and b must all be positive and finite")


def covariance(spec: CovarianceSpec, dist):
    """Covariance between two points ``dist`` apart; sigma2 at zero lag."""
    d = np.array(dist, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be non-negative")
    val = _matern(spec, d)
    return float(val) if np.ndim(dist) == 0 else val


def _matern(spec: CovarianceSpec, d: np.ndarray) -> np.ndarray:
    """Matern covariance at the distances ``d``, overwriting ``d`` where it can.

    nu = 1/2, 3/2 and 5/2 use the closed forms sigma2 exp(-x) times 1,
    1 + x and 1 + x + x^2/3 at x = d / b (Rasmussen & Williams, GPML 4.2);
    any other smoothness goes through the modified Bessel function.
    """
    if spec.nu not in (0.5, 1.5, 2.5):
        # SciPy loads here and in krige only, so planning never pays its import
        from scipy import special

        x = d / spec.b
        with np.errstate(invalid="ignore"):
            val = (
                spec.sigma2
                * (2.0 ** (1.0 - spec.nu) / special.gamma(spec.nu))
                * x**spec.nu
                * special.kv(spec.nu, x)
            )
        return np.where(d == 0.0, spec.sigma2, val)
    d /= spec.b
    poly = None
    if spec.nu == 1.5:
        poly = 1.0 + d
    elif spec.nu == 2.5:
        poly = 1.0 + d * (1.0 + d / 3.0)
    np.negative(d, out=d)
    np.exp(d, out=d)
    d *= spec.sigma2
    if poly is not None:
        d *= poly
    return d


def covariance_matrix(spec: CovarianceSpec, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = a if b is None else np.atleast_2d(np.asarray(b, dtype=float))
    # Euclidean distances one coordinate at a time, in place: the same sums of
    # squares as a norm over an (n, m, 2) difference array, without that array
    d = np.subtract.outer(a[:, 0], b[:, 0])
    d *= d
    for k in range(1, a.shape[1]):
        step = np.subtract.outer(a[:, k], b[:, k])
        step *= step
        d += step
    np.sqrt(d, out=d)
    return _matern(spec, d)


class ObservationSet:
    """Field readings tied to their ground locations.

    Locations within ``MERGE_DISTANCE`` (1e-9 m) of an earlier kept location
    are dropped (same sensor heard again reports the same value) so the
    kriging system stays well posed.  Greedy in input order: in a chain a-b-c
    with neighbours that close but a and c farther apart, b goes and a and c
    stay.  Distances are BLAS dot products of the difference vectors, the
    arithmetic of ``np.linalg.norm`` on one pair.
    """

    def __init__(self, locations, values):
        locations = np.atleast_2d(np.asarray(locations, dtype=float))
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if len(locations) != len(values):
            raise ValueError("need one value per location")
        keep = np.ones(len(locations), dtype=bool)
        for i in range(len(locations)):
            if keep[i]:
                diff = locations[i + 1:] - locations[i]
                dist = np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())
                keep[i + 1:][dist <= MERGE_DISTANCE] = False
        self.locations = locations[keep]
        self.values = values[keep]

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def empty(cls) -> "ObservationSet":
        return cls(np.empty((0, 2)), np.empty(0))


def krige(obs: ObservationSet, targets, spec: CovarianceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Simple-kriging estimates and per-target MSE of the zero-mean field.

    With no observations the prior is returned: zero everywhere, variance
    sigma2.  The observation covariance gets a relative jitter of 1e-10 on
    its diagonal; if its factorization still fails the input is degenerate.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if len(obs) == 0:
        return np.zeros(len(targets)), np.full(len(targets), spec.sigma2)
    sigma_oo = covariance_matrix(spec, obs.locations)
    sigma_oo[np.diag_indices_from(sigma_oo)] += JITTER_FACTOR * spec.sigma2
    sigma_to = covariance_matrix(spec, targets, obs.locations)
    from scipy import linalg

    try:
        factor = linalg.cho_factor(sigma_oo, lower=True)
    except linalg.LinAlgError as exc:
        raise DegenerateObservations(
            "observation covariance is not positive definite"
        ) from exc
    weights = linalg.cho_solve(factor, sigma_to.T)
    estimates = weights.T @ obs.values
    mse = spec.sigma2 - np.einsum("ij,ji->i", sigma_to, weights)
    return estimates, np.maximum(mse, 0.0)


def sample_field(locations, spec: CovarianceSpec, seed) -> np.ndarray:
    """One exact draw of the field at the given locations (zero mean).

    Dense factorization of the covariance with kriging's 1e-10 relative
    jitter, so the location count is capped.  Draw only the points that are
    read: the marginal of a Gaussian vector is exact, so a Monte Carlo that
    krigs probes from heard nodes draws at heard nodes and probes, not at
    every node.  Tile larger requests into conditional blocks.
    """
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    n = len(locations)
    if n == 0:
        return np.empty(0)
    if n > MAX_FACTOR_POINTS:
        raise ValueError(
            f"{n} locations exceed the dense-factorization cap of "
            f"{MAX_FACTOR_POINTS}; sample in tiles instead"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cov = covariance_matrix(spec, locations)
    cov[np.diag_indices_from(cov)] += JITTER_FACTOR * spec.sigma2
    return np.linalg.cholesky(cov) @ rng.standard_normal(n)


# ---------------------------------------------------------------------------
# edge-MSE budget
#
# A point on the hover-disk edge is kriged from the samples heard around it.
# Let p_ns be the probability that no sample arrives from within r of it.
# Without one its MSE is at most the prior sigma2; with one at distance at
# most r, simple kriging from that sample alone leaves at most
# sigma2 - C(r)^2 / sigma2 = sigma2 (1 - exp(-2r/b)) for the exponential
# covariance (Rasmussen & Williams, GPML 2.2).  So the mean edge MSE meets
#     sigma2 p_ns + (1 - p_ns) sigma2 (1 - exp(-2r/b)) <= delta
# whenever p_ns <= 1 - (1 - delta/sigma2) exp(2r/b), an allowance that
# depends on delta/sigma2 only and reaches 0 at r = (b/2) ln(sigma2 / (sigma2
# - delta)), the largest admissible probe radius.  J slots leave
# p_ns = (1 - p_edge)^(J/rho): p_edge is the per-slot capture probability
# from the lens the probe disk shares with the hover disk, rho the lens's
# share of the probe disk, and the rest of the probe disk is taken as covered
# by one neighbouring disk with the same per-slot statistics.

def _check_budget(spec: CovarianceSpec, delta: float) -> None:
    """The budget's preconditions: exponential covariance, 0 < delta < sigma2."""
    if spec.nu != 0.5:
        raise ValueError("the edge-MSE budget needs the exponential covariance (nu = 0.5)")
    if not 0.0 < delta < spec.sigma2:
        raise ValueError("delta must lie in (0, sigma2)")


def area_ratio_rho(cover_radius: float, r_mse):
    """|lens| / |probe disk| for a probe disk centered on the hover-disk edge.

    Closed form of the two-circle intersection: with t = r_mse / (2R),
    rho = (acos t + (asin t - t sqrt(1 - t^2)) / (2 t^2)) / pi for t < 1 and
    1 / (4 t^2) once the probe disk holds the whole hover disk.  ``r_mse``
    may be a scalar or an array.
    """
    r = np.asarray(r_mse, dtype=float)
    if not cover_radius > 0 or not np.all(r > 0):
        raise ValueError("radii must be positive")
    t = r / (2.0 * cover_radius)
    s = np.minimum(t, 1.0)
    rho = np.where(
        t < 1.0,
        (np.arccos(s) + (np.arcsin(s) - s * np.sqrt(1.0 - s * s)) / (2.0 * s * s)) / math.pi,
        0.25 / (t * t),
    )
    return float(rho) if rho.ndim == 0 else rho


def probe_radius_limit(spec: CovarianceSpec, delta: float) -> float:
    """Largest admissible probe radius for an MSE target ``delta``."""
    _check_budget(spec, delta)
    return 0.5 * spec.b * math.log(spec.sigma2 / (spec.sigma2 - delta))


def estimation_slots(
    r_mse,
    geom: HoverGeometry,
    radio: RadioSpec,
    spec: CovarianceSpec,
    delta: float,
):
    """Real-valued slot count meeting the edge-MSE target at probe radius.

    Solves (1 - p_edge)^(J/rho) = p_ns for J at the allowance p_ns above;
    infinite where no slot count can reach the target.  ``r_mse`` may be a
    scalar or an array of probe radii.
    """
    _check_budget(spec, delta)
    r = np.asarray(r_mse, dtype=float)
    p_edge = np.asarray(edge_success_probability(geom, radio, r))
    target = 1.0 + (delta - spec.sigma2) / spec.sigma2 * np.exp(2.0 * r / spec.b)
    rho = area_ratio_rho(geom.radius, r)
    ok = (p_edge > 0.0) & (p_edge < 1.0) & (target > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slots = np.where(ok, rho * np.log(target) / np.log1p(-p_edge), math.inf)
    return float(slots) if slots.ndim == 0 else slots


@dataclass(frozen=True)
class MseBudget:
    """Probe radius, lens ratio and slot count meeting an edge-MSE target."""

    delta: float
    r_mse: float
    rho: float
    j_star: int
    p_edge_success: float
    hover_time: float


def optimal_slots_estimation(
    geom: HoverGeometry,
    radio: RadioSpec,
    spec: CovarianceSpec,
    delta: float,
) -> MseBudget:
    """Fewest slots per hover that keep the edge MSE below ``delta``.

    The slot count diverges at both ends of the admissible probe-radius
    interval and has a single interior minimum; a coarse grid brackets it
    and golden-section search refines the real-valued count before the
    final ceiling.
    """
    upper = probe_radius_limit(spec, delta)
    if upper <= 0.0:
        raise EstimationInfeasible(
            f"MSE target {delta} unreachable for field variance {spec.sigma2}"
        )
    radii = upper * (np.arange(1, PROBE_GRID + 1) - 0.5) / PROBE_GRID

    def objective(r: float) -> float:
        return estimation_slots(r, geom, radio, spec, delta)

    values = estimation_slots(radii, geom, radio, spec, delta)
    if not np.any(np.isfinite(values)):
        raise EstimationInfeasible("no probe radius yields a nonzero sample rate")
    k = int(np.argmin(values))
    lo = radii[max(k - 1, 0)]
    hi = radii[min(k + 1, PROBE_GRID - 1)]
    r_star, j_real = golden_min(objective, lo, hi, tol=upper * 1e-4)
    if values[k] < j_real:
        r_star, j_real = float(radii[k]), float(values[k])
    j_star = max(int(math.ceil(j_real)), 1)
    return MseBudget(
        delta=delta,
        r_mse=float(r_star),
        rho=area_ratio_rho(geom.radius, r_star),
        j_star=j_star,
        p_edge_success=edge_success_probability(geom, radio, r_star),
        hover_time=j_star * slot_duration(radio),
    )
