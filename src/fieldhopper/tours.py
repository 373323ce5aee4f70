"""Closed-tour construction over hovering locations.

Small instances are solved exactly with bitmask dynamic programming; larger
ones fall back to nearest-neighbor construction polished by 2-opt.  The
multi-vehicle variant splits the stops into balanced clusters, one per
vehicle, and exchanges stops between clusters while doing so shortens the
longest (cost-weighted) tour.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

EXACT_LIMIT = 15  # stops; above this the heuristic solver takes over


@dataclass(frozen=True)
class Tour:
    """A closed route through stops, optionally via a distinct depot.

    ``order`` is a permutation of the stop indices in visit sequence.
    ``hop_distances`` are the consecutive leg lengths, including the legs to
    and from the depot when the depot does not coincide with a stop.
    """

    order: tuple[int, ...]
    hop_distances: tuple[float, ...]
    depot: tuple[float, float] | None = None

    @property
    def total_distance(self) -> float:
        return float(sum(self.hop_distances))

    @property
    def num_stops(self) -> int:
        return len(self.order)


def _distance_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


_HK_BLOCK = 1024  # (subset, last node) pairs per array step of the Held-Karp DP


@functools.cache
def _held_karp_steps(m: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """(subsets, last nodes, predecessor subsets) per array step over m nodes.

    Subset sizes run from 2 to m.  Within one size the pairs run j-major
    (every subset ending at node 0, then at node 1, ...) and are cut into
    blocks of at most ``_HK_BLOCK`` pairs; a step reads only the subsets one
    node smaller, so the cut changes no value.  One entry per node count.
    """
    masks = np.arange(1 << m)
    popcount = np.zeros(1 << m, dtype=np.int64)
    for j in range(m):
        popcount += (masks >> j) & 1
    steps = []
    for s in range(2, m + 1):
        layer = np.flatnonzero(popcount == s)
        by_last = [layer[(layer >> j) & 1 == 1] for j in range(m)]
        last = np.repeat(np.arange(m), [len(ends) for ends in by_last])
        ends = np.concatenate(by_last)
        prev = ends ^ (1 << last)
        for arr in (ends, last, prev):
            arr.flags.writeable = False
        for i in range(0, len(ends), _HK_BLOCK):
            block = slice(i, i + _HK_BLOCK)
            steps.append((ends[block], last[block], prev[block]))
    return tuple(steps)


def held_karp(dist: np.ndarray) -> tuple[list[int], float]:
    """Exact minimum closed tour through all nodes, starting at node 0.

    The DP runs one array step per block of (subset, last node) pairs of one
    subset size: every pair takes its best predecessor k at once.  Entries
    outside a subset stay infinite, and ``argmin`` keeps the first minimum,
    so ties break towards the lowest k.
    """
    n = dist.shape[0]
    if n == 1:
        return [0], 0.0
    m = n - 1  # nodes 1..n-1 relative to the start node
    size = 1 << m
    sub_t = dist[1:, 1:].T  # row j: the leg from each k to j
    dp = np.full((size, m), np.inf)
    parent = np.full((size, m), -1, dtype=np.int32)
    dp[1 << np.arange(m), np.arange(m)] = dist[0, 1:]
    for ends, last, prev in _held_karp_steps(m):
        cand = dp[prev] + sub_t[last]
        k = np.argmin(cand, axis=1)
        dp[ends, last] = cand[np.arange(len(ends)), k]
        parent[ends, last] = k
    full = size - 1
    closing = dp[full] + dist[1:, 0]
    j = int(np.argmin(closing))
    best = float(closing[j])
    path = [j]
    mask = full
    while parent[mask, j] >= 0:
        k = parent[mask, j]
        mask ^= 1 << j
        j = int(k)
        path.append(j)
    path.reverse()
    return [0] + [p + 1 for p in path], best


def nearest_neighbor(dist: np.ndarray, start: int = 0, first: int | None = None) -> list[int]:
    n = dist.shape[0]
    unvisited = set(range(n))
    unvisited.discard(start)
    order = [start]
    if first is not None and first in unvisited:
        order.append(first)
        unvisited.discard(first)
    while unvisited:
        here = order[-1]
        nxt = min(unvisited, key=lambda j: dist[here, j])
        order.append(nxt)
        unvisited.discard(nxt)
    return order


def tour_length(dist: np.ndarray, order: Sequence[int]) -> float:
    idx = np.asarray(order)
    return float(dist[idx, np.roll(idx, -1)].sum())


def two_opt(dist: np.ndarray, order: Sequence[int]) -> list[int]:
    """Best-improvement 2-opt passes until no exchange shortens the tour."""
    order = list(order)
    n = len(order)
    if n < 4:
        return order
    improved = True
    while improved:
        improved = False
        idx = np.asarray(order)
        nxt = np.roll(idx, -1)
        d_edge = dist[idx, nxt]
        # delta[i, j] = gain of reversing order[i+1..j]
        a = dist[np.ix_(idx, idx)]
        b = dist[np.ix_(nxt, nxt)]
        delta = a + b - d_edge[:, None] - d_edge[None, :]
        iu = np.triu_indices(n, k=2)
        gains = delta[iu]
        k = int(np.argmin(gains))
        if gains[k] < -1e-12:
            i, j = int(iu[0][k]), int(iu[1][k])
            order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
            improved = True
    return order


def _closed_tour(nodes: np.ndarray) -> tuple[list[int], float]:
    dist = _distance_matrix(nodes)
    n = len(nodes)
    if n <= EXACT_LIMIT + 1:
        return held_karp(dist)
    best_order: list[int] | None = None
    best_len = np.inf
    firsts = np.argsort(dist[0])[1 : 11]
    for first in firsts:
        order = two_opt(dist, nearest_neighbor(dist, 0, int(first)))
        length = tour_length(dist, order)
        if length < best_len:
            best_len = length
            best_order = order
    assert best_order is not None
    # rotate so the tour starts at node 0
    k = best_order.index(0)
    return best_order[k:] + best_order[:k], float(best_len)


def solve_tsp(centers: np.ndarray, depot: Sequence[float]) -> Tour:
    """Shortest closed route visiting every center, from and to the depot.

    Exact for up to 15 centers; otherwise nearest-neighbor plus 2-opt from
    ten different first moves.  The tour runs over one node list whose node 0
    is the depot: a center within 1e-12 of it stands for the depot, otherwise
    the depot is an extra node.  A lone center at the depot has no hops.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if len(centers) < 1:
        raise ValueError("need at least one center")
    depot = np.asarray(depot, dtype=float)
    d_to_centers = np.sqrt(((centers - depot) ** 2).sum(axis=1))
    depot_idx = int(np.argmin(d_to_centers))
    if d_to_centers[depot_idx] <= 1e-12:
        labels = [depot_idx] + [i for i in range(len(centers)) if i != depot_idx]
    else:
        labels = [-1, *range(len(centers))]  # -1: the depot itself
    if len(labels) == 1:  # a lone center at the depot is never left
        return Tour(order=(0,), hop_distances=(), depot=tuple(depot))
    nodes = np.array([depot if i < 0 else centers[i] for i in labels])
    node_order, _ = _closed_tour(nodes)
    pts = nodes[node_order + [0]]
    hops = tuple(float(np.linalg.norm(b - a)) for a, b in zip(pts[:-1], pts[1:]))
    order = tuple(labels[i] for i in node_order if labels[i] >= 0)
    return Tour(order=order, hop_distances=hops, depot=tuple(depot))


def _tour_cost(tour: Tour, stop_cost: float) -> float:
    return tour.total_distance + stop_cost * tour.num_stops


def solve_minmax_mdmtsp(
    centers: np.ndarray,
    depots: Sequence[Sequence[float]],
    k: int,
    stop_cost: float = 0.0,
    seed: int = 0,
) -> list[Tour]:
    """Split stops over ``k`` vehicles minimizing the longest tour.

    Heuristic: balanced clustering seeded at the depots, an exact-or-2-opt
    tour per cluster, then single-stop relocations and pairwise swaps that
    reduce the bottleneck cost.  ``stop_cost`` (distance-equivalent cost per
    stop) lets callers minimize the longest mission rather than the longest
    path; with the default 0 the objective is pure tour length.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    m = len(centers)
    if k < 1:
        raise ValueError("need at least one vehicle")
    if k > m:
        raise ValueError(f"cannot split {m} stops across {k} vehicles")
    depots = np.atleast_2d(np.asarray(depots, dtype=float))
    uav_depots = depots[np.arange(k) % len(depots)]
    if k == 1:
        return [solve_tsp(centers, uav_depots[0])]

    rng = np.random.default_rng(seed)
    if len(depots) >= k:
        seeds = uav_depots.copy()
    else:
        seeds = centers[rng.choice(m, size=k, replace=False)].astype(float)
    assign = np.zeros(m, dtype=int)
    for _ in range(25):
        d = np.linalg.norm(centers[:, None, :] - seeds[None, :, :], axis=2)
        assign = np.argmin(d, axis=1)
        for c in range(k):
            pts = centers[assign == c]
            if len(pts):
                seeds[c] = pts.mean(axis=0)
    cap = math.ceil(m / k)
    d = np.linalg.norm(centers[:, None, :] - seeds[None, :, :], axis=2)
    counts = np.bincount(assign, minlength=k)
    # coincident stops can leave a cluster empty; fill empty clusters first,
    # then cap the oversized ones (k <= m, so a donor always keeps a stop)
    while counts.max() > cap or counts.min() == 0:
        c = int(np.argmax(counts))
        members = np.flatnonzero(assign == c)
        is_open = counts == 0 if counts.min() == 0 else counts < cap
        open_clusters = np.flatnonzero(is_open)
        # move the member that loses least by switching to an open cluster
        penalties = d[np.ix_(members, open_clusters)] - d[members, c][:, None]
        i, j = np.unravel_index(np.argmin(penalties), penalties.shape)
        assign[members[i]] = open_clusters[j]
        counts = np.bincount(assign, minlength=k)

    def build(c: int, members: np.ndarray) -> Tour:
        return solve_tsp(centers[members], uav_depots[c])

    groups = [np.flatnonzero(assign == c) for c in range(k)]
    tours = [build(c, g) for c, g in enumerate(groups)]

    def relabel(tour: Tour, members: np.ndarray) -> Tour:
        order = tuple(int(members[i]) for i in tour.order)
        return Tour(order=order, hop_distances=tour.hop_distances, depot=tour.depot)

    def moves(worst: int):
        """(other, new worst group, its tour, new other group) per trial:
        every relocation of one worst-cluster stop, then every swap."""
        g = groups[worst]
        others = [o for o in range(k) if o != worst]
        if len(g) > 1:
            for stop in list(g):
                g_w = g[g != stop]
                t_w = build(worst, g_w)  # shared by every receiving cluster
                for other in others:
                    yield other, g_w, t_w, np.append(groups[other], stop)
        for stop in list(g):
            for other in others:
                for swap in list(groups[other]):
                    g_w = np.append(g[g != stop], swap)
                    g_o = np.append(groups[other][groups[other] != swap], stop)
                    yield other, g_w, build(worst, g_w), g_o

    for _ in range(200):
        costs = [_tour_cost(t, stop_cost) for t in tours]
        worst = int(np.argmax(costs))
        best_max = max(costs)
        for other, g_w, t_w, g_o in moves(worst):
            t_o = build(other, g_o)
            trial = costs.copy()
            trial[worst] = _tour_cost(t_w, stop_cost)
            trial[other] = _tour_cost(t_o, stop_cost)
            if max(trial) < best_max - 1e-9:
                groups[worst], groups[other] = g_w, g_o
                tours[worst], tours[other] = t_w, t_o
                break
        else:
            break
    return [relabel(t, g) for t, g in zip(tours, groups)]
