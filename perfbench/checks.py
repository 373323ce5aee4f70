"""Correctness checks computed apart from the program.

Each check takes the program's outputs (report records as written to
``report.json``, table rows, tours, Monte Carlo statistics) and returns the
list of failures it found; an empty list is a pass.  The checks use only the
closed forms and reference values below and never call fieldhopper, so a
fault in the program cannot also hide in its check.
"""

from __future__ import annotations

import math

import numpy as np

REL = 1e-9  # identities that the program computes in floating point

# Unit-square covering radii as published in the source paper's covering
# table, which quotes Nurmela & Ostergard, "Covering a square with up to 30
# equal circles", Helsinki University of Technology, report HUT-TCS-A62
# (2000).  Index 0 is M = 1.
PUBLISHED_COVER_RADII = [0.707, 0.559, 0.504, 0.354, 0.326, 0.299, 0.274, 0.260, 0.231, 0.218]
# published optima at the reference deployment (100 m, 0.1 nodes/m^2)
AGGREGATION_M_STAR = (5, 6, 7)
AGGREGATION_TOTAL_S = 223.0
ESTIMATION_M_STAR = (8, 9, 10)


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def slot_seconds(packet_bits: float, bandwidth: float, beta: float) -> float:
    """One packet at the Shannon rate of the threshold beta."""
    return packet_bits / (bandwidth * math.log2(1.0 + beta))


# ---------------------------------------------------------------------------
# mission records

def record_totals(rec: dict) -> list[str]:
    """total = hover_total + travel and hover_total = M * hover_per_hl."""
    out = []
    if not _close(rec["total_s"], rec["hover_total_s"] + rec["travel_s"]):
        out.append(f"M={rec['M']}: total {rec['total_s']!r} != hover + travel")
    if not _close(rec["hover_total_s"], rec["M"] * rec["hover_per_hl_s"]):
        out.append(f"M={rec['M']}: hover_total {rec['hover_total_s']!r} != M * hover_per_hl")
    return out


def aggregation_hover(rec: dict, zeta: float, packet_bits: float, bandwidth: float) -> list[str]:
    """hover_per_hl = zeta / (M p) * packet_bits / (bandwidth log2(1 + beta))."""
    expect = zeta / (rec["M"] * rec["p_success"]) * slot_seconds(packet_bits, bandwidth, rec["beta"])
    if not _close(rec["hover_per_hl_s"], expect):
        return [f"M={rec['M']}: hover_per_hl {rec['hover_per_hl_s']!r}, formula gives {expect!r}"]
    return []


def estimation_hover(rec: dict, packet_bits: float, bandwidth: float) -> list[str]:
    """hover_per_hl = J* slots of one packet each."""
    expect = rec["slots_per_hl"] * slot_seconds(packet_bits, bandwidth, rec["beta"])
    if not _close(rec["hover_per_hl_s"], expect):
        return [f"M={rec['M']}: hover_per_hl {rec['hover_per_hl_s']!r}, J* slots give {expect!r}"]
    return []


def sweep_best(records: list[dict], best: dict, m_max: int, stop_after: int = 3) -> list[str]:
    """best is the argmin of the feasible totals and the totals rise after it."""
    feasible = [r for r in records if r["feasible"]]
    if not feasible:
        return ["no feasible record"]
    out = []
    low = min(feasible, key=lambda r: r["total_s"])
    if best["M"] != low["M"] or best["total_s"] != low["total_s"]:
        out.append(f"best M={best['M']} is not the argmin M={low['M']} of the feasible totals")
    after = [r for r in feasible if r["M"] > low["M"]]
    if any(r["total_s"] <= low["total_s"] for r in after):
        out.append(f"a total after M={low['M']} does not exceed the best")
    if feasible[-1]["M"] < m_max:  # the sweep stopped early: it must have seen the rise
        tail = [r["total_s"] for r in feasible[-(stop_after + 1):]]
        if len(tail) <= stop_after or any(b <= a for a, b in zip(tail[:-1], tail[1:])):
            out.append(f"sweep stopped at M={feasible[-1]['M']} without {stop_after} rises")
    return out


def published_optimum(best: dict, m_star: tuple[int, ...], total_s: float | None = None,
                      rel: float = 0.15) -> list[str]:
    out = []
    if best["M"] not in m_star:
        out.append(f"M*={best['M']} outside the published {m_star}")
    if total_s is not None and abs(best["total_s"] / total_s - 1.0) > rel:
        out.append(f"total {best['total_s']:.1f} s not within {rel:.0%} of {total_s} s")
    return out


# ---------------------------------------------------------------------------
# estimation budget

def lens_area(cover_radius: float, r: float) -> float:
    """Area of a disk of radius r centred on the edge of a disk of radius R."""
    big = cover_radius
    if r >= 2.0 * big:
        return math.pi * big * big
    half = r / (2.0 * big)
    # R^2 acos(1 - r^2/(2R^2)) written as 2R^2 asin(r/(2R)), exact for small r
    return (
        r * r * math.acos(half)
        + 2.0 * big * big * math.asin(half)
        - 0.5 * r * math.sqrt(4.0 * big * big - r * r)
    )


def lens_ratio(rec: dict, tol: float = 1e-9) -> list[str]:
    """rho equals the two-circle lens area over pi r^2."""
    r = rec["r_mse_m"]
    expect = lens_area(rec["radius_m"], r) / (math.pi * r * r)
    if abs(rec["rho"] - expect) > tol * expect:
        return [f"M={rec['M']}: rho {rec['rho']!r}, closed form {expect!r}"]
    return []


def edge_mse_bound(p_edge: float, slots: float, rho: float, r: float,
                   sigma2: float, b: float) -> float:
    """sigma2 p_ns + (1 - p_ns)(sigma2 - exp(-2r/b)/sigma2), p_ns = (1-p_edge)^(J/rho)."""
    p_ns = (1.0 - p_edge) ** (slots / rho)
    return sigma2 * p_ns + (1.0 - p_ns) * (sigma2 - math.exp(-2.0 * r / b) / sigma2)


def edge_mse_budget(rec: dict, sigma2: float, b: float, delta: float) -> list[str]:
    """The bound is <= delta at J* and > delta at J* - 1."""
    j = rec["slots_per_hl"]
    args = (rec["p_edge_success"], rec["rho"], rec["r_mse_m"], sigma2, b)
    at_j = edge_mse_bound(args[0], j, *args[1:])
    below = edge_mse_bound(args[0], j - 1, *args[1:])
    out = []
    if not at_j <= delta:
        out.append(f"M={rec['M']}: edge-MSE bound {at_j:.5f} > delta {delta} at J*={j}")
    if not below > delta:
        out.append(f"M={rec['M']}: edge-MSE bound {below:.5f} <= delta {delta} at J*-1; J* not minimal")
    return out


def probe_radius_range(rec: dict, sigma2: float, b: float, delta: float) -> list[str]:
    """0 < r_mse < b/2 ln(1 / ((sigma2 - delta) sigma2))."""
    limit = 0.5 * b * math.log(1.0 / ((sigma2 - delta) * sigma2))
    if not 0.0 < rec["r_mse_m"] < limit:
        return [f"M={rec['M']}: probe radius {rec['r_mse_m']!r} outside (0, {limit:.4f})"]
    return []


# ---------------------------------------------------------------------------
# covering table

def published_cover_radii(radii: dict[int, float], rel: float = 0.02) -> list[str]:
    """Within 2% of the published radii; M=1 and M=4 exact to 1e-3."""
    out = []
    for m, r in sorted(radii.items()):
        ref = PUBLISHED_COVER_RADII[m - 1]
        if abs(r / ref - 1.0) > rel:
            out.append(f"M={m}: radius {r:.5f} not within {rel:.0%} of published {ref}")
    for m, exact in ((1, math.sqrt(0.5)), (4, math.sqrt(2.0) / 4.0)):
        if m in radii and abs(radii[m] - exact) > 1e-3:
            out.append(f"M={m}: radius {radii[m]:.6f} is not the closed form {exact:.6f}")
    return out


def grid_gap(centers: np.ndarray, h: float) -> float:
    """Largest nearest-center distance over a grid of spacing h on the unit square."""
    ticks = np.linspace(0.0, 1.0, int(round(1.0 / h)) + 1)
    gap = 0.0
    for x in ticks:  # one grid column at a time keeps memory small
        col = np.column_stack([np.full_like(ticks, x), ticks])
        d = np.sqrt(((col[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
        gap = max(gap, float(d.min(axis=1).max()))
    return gap


def grid_bracket(radius: float, centers: np.ndarray, h: float = 1.0 / 400) -> list[str]:
    """grid gap <= radius <= grid gap + h / sqrt(2)."""
    gap = grid_gap(np.asarray(centers, dtype=float), h)
    if not gap <= radius * (1.0 + REL) <= gap + h / math.sqrt(2.0) + REL:
        return [f"M={len(centers)}: radius {radius:.6f} outside grid bracket "
                f"[{gap:.6f}, {gap + h / math.sqrt(2.0):.6f}]"]
    return []


# ---------------------------------------------------------------------------
# fleet

def hop_seconds(u: float, speed: float, accel: float, decel: float) -> float:
    """Rest-to-rest hop: trapezoidal speed profile, triangular when short."""
    ramp = 0.5 * speed * speed / accel + 0.5 * speed * speed / decel
    if u >= ramp:
        return speed / accel + speed / decel + (u - ramp) / speed
    return math.sqrt(2.0 * u * (1.0 / accel + 1.0 / decel))


def tour_seconds(stops: np.ndarray, depot, speed: float, accel: float,
                 decel: float, reconf: float) -> float:
    """Closed tour from the depot through the stops in order, plus per-stop overhead."""
    pts = np.asarray(stops, dtype=float)
    depot = np.asarray(depot, dtype=float)
    if not np.any(np.linalg.norm(pts - depot, axis=1) <= 1e-12):
        pts = np.vstack([depot, pts])
    legs = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    return sum(hop_seconds(float(u), speed, accel, decel) for u in legs) + len(stops) * reconf


def tours_partition(orders: list[list[int]], m: int, k: int) -> list[str]:
    """K tours that together visit every stop exactly once."""
    out = []
    if len(orders) != k:
        out.append(f"{len(orders)} tours for {k} UAVs")
    visits = sorted(i for order in orders for i in order)
    if visits != list(range(m)):
        out.append(f"tours do not visit each of the {m} stops exactly once")
    return out


def fleet_totals(per_uav: list[dict], travel: list[float], hover_per_hl: float,
                 mission: float) -> list[str]:
    """Each UAV's total is travel + stops x hover; the mission is the largest."""
    out = []
    for i, (uav, t) in enumerate(zip(per_uav, travel)):
        if not _close(uav["travel_s"], t):
            out.append(f"UAV {i}: travel {uav['travel_s']!r}, its tour takes {t!r}")
        if not _close(uav["total_s"], t + uav["stops"] * hover_per_hl):
            out.append(f"UAV {i}: total {uav['total_s']!r} != travel + stops x hover")
    if per_uav and not _close(mission, max(u["total_s"] for u in per_uav)):
        out.append(f"mission time {mission!r} is not the largest per-UAV total")
    return out


def fleet_vs_single(bottleneck: float, single: float, slack: float = 1.02) -> list[str]:
    if not bottleneck <= slack * single:
        return [f"K=2 bottleneck {bottleneck:.2f} s exceeds {slack} x the K=1 total {single:.2f} s"]
    return []


# ---------------------------------------------------------------------------
# Monte Carlo validation

def capture_agrees(analytic: float, empirical: float, se: float, what: str,
                   z_max: float = 3.0) -> list[str]:
    z = (analytic - empirical) / max(se, 1e-15)
    if not abs(z) <= z_max:
        return [f"{what}: analytic {analytic:.5f} vs Monte Carlo {empirical:.5f}"
                f" +- {se:.5f}, |z|={abs(z):.2f}"]
    return []


def single_capture(multi_capture_slots: int) -> list[str]:
    if multi_capture_slots != 0:
        return [f"{multi_capture_slots} slots captured more than one packet"]
    return []


def edge_mse_guarantee(samples, delta: float, share: float = 0.95) -> list[str]:
    samples = np.asarray(samples, dtype=float)
    met = float(np.mean(samples <= delta)) if samples.size else 0.0
    if not met >= share:
        return [f"edge MSE <= {delta} in {met:.1%} of {samples.size} replications (< {share:.0%})"]
    return []
