"""Monte Carlo ground truth for the analytic channel and field expressions.

Everything here is brute force on purpose: nodes are drawn as a Poisson
field, every slot draws Bernoulli transmit decisions and Gamma fading gains
for every node, and the slot succeeds when the best SINR clears the
threshold.  The draws are dense, but the SINR arithmetic runs over the
transmitters alone; with a threshold of at least 1 a slot has at most one
entry above it, so that entry is the max-SINR winner.  Field
experiments run the library's own estimator: per replication they draw the
Gaussian field with ``sample_field`` at the heard nodes and the probes only
(the rest of the field is never read) and krige the probes from the heard
nodes with ``krige``.  A root seed expands into independent per-replication
substreams, so results replay exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from .channel import HoverGeometry, RadioSpec
from .field import CovarianceSpec, ObservationSet, krige, sample_field

__all__ = [
    "Disk",
    "SquareRegion",
    "SimConfig",
    "SimStats",
    "sample_ppp",
    "estimate_success_probability",
    "estimate_plan_edge_mse",
]

SLOT_CHUNK = 4096  # slots simulated per (nodes x slots) batch


@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float

    @property
    def area(self) -> float:
        return math.pi * self.radius**2


@dataclass(frozen=True)
class SquareRegion:
    side: float

    @property
    def area(self) -> float:
        return self.side**2


def sample_ppp(region: Disk | SquareRegion, density: float, seed) -> np.ndarray:
    """Node positions of a homogeneous Poisson field over the region."""
    if density < 0:
        raise ValueError("density must be non-negative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = rng.poisson(density * region.area)
    if isinstance(region, Disk):
        radii = region.radius * np.sqrt(rng.random(n))
        angles = rng.random(n) * 2.0 * math.pi
        return np.column_stack(
            [
                region.center[0] + radii * np.cos(angles),
                region.center[1] + radii * np.sin(angles),
            ]
        )
    return rng.random((n, 2)) * region.side


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo experiment: geometry, radio, replication budget."""

    geom: HoverGeometry
    radio: RadioSpec
    slots: int = 1000
    replications: int = 20
    seed: int = 0
    covariance: CovarianceSpec | None = None
    probe_radius: float | None = None  # lens radius for edge statistics

    def __post_init__(self) -> None:
        if self.slots < 1 or self.replications < 1:
            raise ValueError("slots and replications must both be at least 1")
        if self.probe_radius is not None and not 0 < self.probe_radius < math.inf:
            raise ValueError("probe radius must be positive and finite")


@dataclass
class SimStats:
    """Empirical outcomes with standard errors.

    Slots within one replication share a node draw, so success-probability
    standard errors come from the spread of per-replication rates (falling
    back to the binomial error when there is a single replication).
    """

    slots: int = 0
    replications: int = 0
    successes: int = 0
    p_success: float = 0.0
    p_success_se: float = 0.0
    edge_successes: int = 0
    p_edge_success: float = 0.0
    p_edge_success_se: float = 0.0
    multi_capture_slots: int = 0
    success_radii: np.ndarray = dc_field(default_factory=lambda: np.empty(0))
    mse_mean: float | None = None
    mse_se: float | None = None
    mse_samples: np.ndarray = dc_field(default_factory=lambda: np.empty(0))

    @staticmethod
    def _rate_se(counts: np.ndarray, slots: int) -> float:
        rates = counts / slots
        if len(rates) > 1:
            return float(rates.std(ddof=1) / math.sqrt(len(rates)))
        n = slots * len(rates)
        p = float(counts.sum()) / n
        return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _slant(nodes: np.ndarray, center: np.ndarray, altitude: float) -> np.ndarray:
    ground = np.linalg.norm(nodes - center, axis=1)
    return np.sqrt(ground**2 + altitude**2)


def _simulate_batch(
    slant: np.ndarray,
    radio: RadioSpec,
    rng: np.random.Generator,
    slots: int,
) -> tuple[np.ndarray, int]:
    """Winner node index per slot (-1 for none) and multi-capture count.

    The draws are dense: per chunk of slots, one uniform per (node, slot)
    decides who transmits, then one Gamma(m) fade per (node, slot)
    overwrites it.  The draw buffer is allocated once per call (the shorter
    last chunk gets its own), so no chunk maps fresh pages.  The arithmetic
    after the draws runs over the transmitting entries alone.  A slot's
    total adds its transmitters' powers in node order, which is what a sum
    over all nodes with zeros for the silent ones gives, bit for bit.
    Since ``beta >= 1``, an entry above the threshold receives at least as
    much as all other entries plus noise together, so at most one entry per
    slot clears it, and that entry has the slot's highest SINR: it is the
    winner.  ``multi`` counts slots where rounding let a second one through.
    """
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
        if done == 0 or c < SLOT_CHUNK:
            draws = np.empty((n, c))
            active = np.empty((n, c), dtype=bool)
        rng.random(out=draws)
        np.less(draws, radio.aloha, out=active)
        if radio.m == 1:
            rng.standard_exponential(out=draws)  # what Gamma(1) draws, faster
        else:
            rng.standard_gamma(radio.m, out=draws)
        flat = np.flatnonzero(active)
        node, slot = np.divmod(flat, c)
        rx = decay[node] * (draws.take(flat) / radio.m)
        total = np.bincount(slot, weights=rx, minlength=c)
        above = rx / (total[slot] - rx + noise_ratio) >= radio.beta
        captured = slot[above]
        multi += int((np.bincount(captured, minlength=c) > 1).sum())
        winners[done + captured] = node[above]
        done += c
    return winners, multi


def estimate_success_probability(config: SimConfig) -> SimStats:
    """Empirical capture probability over fresh node fields per replication.

    When ``probe_radius`` is set, successes whose transmitter lies within
    that distance of the disk-edge probe point are counted separately.
    """
    stats = SimStats(slots=config.slots, replications=config.replications)
    streams = np.random.SeedSequence(config.seed).spawn(config.replications)
    geom = config.geom
    probe = np.array([geom.radius, 0.0])
    radii_chunks: list[np.ndarray] = []
    hits = np.zeros(config.replications)
    edge_hits = np.zeros(config.replications)
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        nodes = sample_ppp(Disk((0.0, 0.0), geom.radius), geom.density, rng)
        slant = _slant(nodes, np.zeros(2), geom.altitude)
        winners, multi = _simulate_batch(slant, config.radio, rng, config.slots)
        ok = winners >= 0
        hits[i] = int(ok.sum())
        stats.multi_capture_slots += multi
        if ok.any():
            won = nodes[winners[ok]]
            radii_chunks.append(np.linalg.norm(won, axis=1))
            if config.probe_radius is not None:
                in_lens = np.linalg.norm(won - probe, axis=1) <= config.probe_radius
                edge_hits[i] = int(in_lens.sum())
    n = config.slots * config.replications
    stats.successes = int(hits.sum())
    stats.p_success = stats.successes / n
    stats.p_success_se = SimStats._rate_se(hits, config.slots)
    if config.probe_radius is not None:
        stats.edge_successes = int(edge_hits.sum())
        stats.p_edge_success = stats.edge_successes / n
        stats.p_edge_success_se = SimStats._rate_se(edge_hits, config.slots)
    stats.success_radii = (
        np.concatenate(radii_chunks) if radii_chunks else np.empty(0)
    )
    return stats


def _collect_hover(
    nodes: np.ndarray,
    center: np.ndarray,
    geom: HoverGeometry,
    radio: RadioSpec,
    slots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Indices (into nodes) heard at one hovering location over ``slots``."""
    covered = np.flatnonzero(np.linalg.norm(nodes - center, axis=1) <= geom.radius)
    if len(covered) == 0:
        return covered
    slant = _slant(nodes[covered], center, geom.altitude)
    winners, _ = _simulate_batch(slant, radio, rng, slots)
    return covered[np.unique(winners[winners >= 0])]


def estimate_plan_edge_mse(
    config: SimConfig,
    centers: np.ndarray,
    side: float,
    j_slots: int,
    probe_points: np.ndarray,
) -> SimStats:
    """Mission-level edge MSE: every hovering location runs ``j_slots``.

    One node field over the whole square per replication; each hover hears
    its covered nodes; all successes kriged together at the probe points.
    The field is drawn at the heard nodes and the probes alone, which is the
    marginal of the whole-field draw, so the dense-factorization cap applies
    to heard nodes plus probes, not to every node.  The recorded sample per
    replication is the mean squared error over the probes.  ``j_slots`` is
    the slot budget; ``config.slots`` is not read.
    """
    if config.covariance is None:
        raise ValueError("estimate_plan_edge_mse needs a covariance spec")
    if not isinstance(j_slots, numbers.Integral) or j_slots < 0:
        raise ValueError(f"j_slots must be a non-negative integer, got {j_slots!r}")
    geom, radio, spec = config.geom, config.radio, config.covariance
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    probe_points = np.atleast_2d(np.asarray(probe_points, dtype=float))
    errors = np.empty(config.replications)
    streams = np.random.SeedSequence(config.seed).spawn(config.replications)
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        nodes = sample_ppp(SquareRegion(side), geom.density, rng)
        heard = [_collect_hover(nodes, c, geom, radio, j_slots, rng) for c in centers]
        observed = nodes[np.unique(np.concatenate(heard))] if heard else np.empty((0, 2))
        values = sample_field(np.vstack([observed, probe_points]), spec, rng)
        h = len(observed)
        est, _ = krige(ObservationSet(observed, values[:h]), probe_points, spec)
        errors[i] = float(np.mean((est - values[h:]) ** 2))
    stats = SimStats(slots=j_slots, replications=config.replications)
    stats.mse_samples = errors
    stats.mse_mean = float(errors.mean())
    stats.mse_se = float(errors.std(ddof=1) / math.sqrt(len(errors))) if len(errors) > 1 else 0.0
    return stats
