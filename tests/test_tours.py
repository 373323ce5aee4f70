import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldhopper.tours import (
    held_karp,
    nearest_neighbor,
    solve_minmax_mdmtsp,
    solve_tsp,
    tour_length,
    two_opt,
)


def brute_force(dist):
    n = dist.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        length = sum(dist[order[i], order[(i + 1) % n]] for i in range(n))
        best = min(best, length)
    return best


def dmat(points):
    d = points[:, None, :] - points[None, :, :]
    return np.sqrt((d**2).sum(axis=2))


def _held_karp_reference(dist):
    """The mask-by-mask loop form of the Held-Karp DP."""
    n = dist.shape[0]
    if n == 1:
        return [0], 0.0
    if n == 2:
        return [0, 1], float(dist[0, 1] + dist[1, 0])
    m = n - 1
    size = 1 << m
    sub = dist[1:, 1:]
    dp = np.full((size, m), np.inf)
    parent = np.full((size, m), -1, dtype=np.int32)
    dp[1 << np.arange(m), np.arange(m)] = dist[0, 1:]
    for mask in range(1, size):
        js = [j for j in range(m) if mask & (1 << j)]
        if len(js) < 2:
            continue
        for j in js:
            prev = mask ^ (1 << j)
            cand = dp[prev] + sub[:, j]
            k = int(np.argmin(cand))
            if math.isfinite(cand[k]):
                dp[mask, j] = cand[k]
                parent[mask, j] = k
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


def test_single_center_at_depot():
    tour = solve_tsp(np.array([[1.0, 1.0]]), (1.0, 1.0))
    assert tour.total_distance == 0.0
    assert tour.order == (0,)


def test_single_center_remote_depot():
    tour = solve_tsp(np.array([[3.0, 4.0]]), (0.0, 0.0))
    assert tour.hop_distances == (5.0, 5.0)
    assert tour.total_distance == 10.0


def test_unit_square_perimeter():
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tour = solve_tsp(corners, (0.0, 0.0))
    assert tour.total_distance == pytest.approx(4.0)
    assert sorted(tour.order) == [0, 1, 2, 3]


def test_held_karp_against_brute_force(rng):
    for _ in range(5):
        pts = rng.random((7, 2))
        dist = dmat(pts)
        _, best = held_karp(dist)
        assert best == pytest.approx(brute_force(dist), rel=1e-12)


def test_held_karp_matches_loop_reference_bit_for_bit(rng):
    # points on a 1/3 grid give tied tours and duplicate points
    for n in range(1, 16):
        for trial in range(4):
            pts = rng.random((n, 2)) * 100.0
            if trial % 2:
                pts = np.round(rng.random((n, 2)) * 3.0) / 3.0
            dist = dmat(pts)
            order, length = held_karp(dist)
            ref_order, ref_length = _held_karp_reference(dist)
            assert order == ref_order
            assert length == ref_length


def test_exact_le_two_opt_le_nearest_neighbor(rng):
    for _ in range(8):
        pts = rng.random((9, 2)) * 50.0
        dist = dmat(pts)
        _, exact = held_karp(dist)
        nn = nearest_neighbor(dist)
        nn_len = tour_length(dist, nn)
        improved = tour_length(dist, two_opt(dist, nn))
        assert exact <= improved + 1e-9
        assert improved <= nn_len + 1e-9


def test_tour_is_permutation_and_sums(rng):
    pts = rng.random((8, 2)) * 10.0
    tour = solve_tsp(pts, (5.0, 5.0))
    assert sorted(tour.order) == list(range(8))
    assert tour.total_distance == pytest.approx(sum(tour.hop_distances), rel=1e-12)
    assert len(tour.hop_distances) == 9  # depot legs included


def test_heuristic_regime_not_worse_than_nearest_neighbor(rng):
    pts = rng.random((18, 2)) * 100.0  # above the exact-solver limit
    depot = np.array([50.0, 50.0])
    tour = solve_tsp(pts, depot)
    nodes = np.vstack([depot, pts])
    dist = dmat(nodes)
    nn_len = tour_length(dist, nearest_neighbor(dist))
    assert tour.total_distance <= nn_len + 1e-9
    assert sorted(tour.order) == list(range(18))


# sha256 of every tour's order (little-endian int64) and hops (little-endian
# float64) through the packaged rows M = 1..24 on a 100 m field, M in
# increasing order.  M <= 15 runs the exact solver and M >= 16 the heuristic.
# The depot () is the row's first center, a depot on a stop; the others are
# apart.  Recorded while the depot-on-a-center and depot-apart tours were
# still built by two separate branches; the one node list gives the same bits.
TOUR_DIGESTS = {
    (): "792645d8582b76ff0748352d0fb29d76ccdfd2e759af0d20ea1db9a070261a39",
    (50.0, 50.0): "8503e034c450418441fc70a0463736daab612389bea42504a3c49f17f6703bbd",
    (50.0, 0.0): "93158193297e87d2f30c85fe6550a4ec9f68b937c6133767ebbb7f4de5d2f616",
}


@pytest.mark.parametrize("depot", sorted(TOUR_DIGESTS),
                         ids=lambda d: "{0:g}-{1:g}".format(*d) if d else "first-center")
def test_tours_bit_identical(table, depot):
    digest = hashlib.sha256()
    for m in range(1, 25):
        centers = table.centers(m) * 100.0
        tour = solve_tsp(centers, depot or centers[0])
        digest.update(np.asarray(tour.order, dtype="<i8").tobytes())
        digest.update(np.asarray(tour.hop_distances, dtype="<f8").tobytes())
    assert digest.hexdigest() == TOUR_DIGESTS[depot]


def test_mdmtsp_single_vehicle_matches_tsp(rng):
    pts = rng.random((7, 2)) * 100.0
    depot = (50.0, 50.0)
    single = solve_tsp(pts, depot)
    tours = solve_minmax_mdmtsp(pts, [depot], 1)
    assert len(tours) == 1
    assert tours[0].total_distance == pytest.approx(single.total_distance)


def test_mdmtsp_one_stop_each(rng):
    pts = rng.random((5, 2)) * 100.0
    depot = np.array([50.0, 50.0])
    tours = solve_minmax_mdmtsp(pts, [depot], 5)
    assert sorted(s for t in tours for s in t.order) == list(range(5))
    assert all(t.num_stops == 1 for t in tours)
    round_trips = [2.0 * np.linalg.norm(pts[t.order[0]] - depot) for t in tours]
    worst = max(t.total_distance for t in tours)
    assert worst == pytest.approx(max(round_trips))


def test_mdmtsp_rejects_too_many_vehicles(rng):
    pts = rng.random((3, 2))
    with pytest.raises(ValueError):
        solve_minmax_mdmtsp(pts, [(0.5, 0.5)], 4)


def test_mdmtsp_never_longer_than_single_tour(table):
    centers = table.centers(22) * 100.0
    depot = (50.0, 50.0)
    single = solve_tsp(centers, depot).total_distance
    tours = solve_minmax_mdmtsp(centers, [depot], 5, seed=5)
    assert sorted(s for t in tours for s in t.order) == list(range(22))
    assert max(t.total_distance for t in tours) <= single


def test_mdmtsp_coincident_stops_fill_every_vehicle():
    # all stops on one point: k-means puts them in one cluster, and the split
    # must still hand every vehicle a stop
    centers = np.zeros((4, 2))
    tours = solve_minmax_mdmtsp(centers, [(0.0, 0.0)], 3, seed=0)
    assert len(tours) == 3
    assert all(t.order for t in tours)
    assert sorted(s for t in tours for s in t.order) == [0, 1, 2, 3]


def test_mdmtsp_multiple_depots(rng):
    pts = rng.random((10, 2)) * 100.0
    depots = [(0.0, 0.0), (100.0, 100.0)]
    tours = solve_minmax_mdmtsp(pts, depots, 2, seed=1)
    assert len(tours) == 2
    assert {t.depot for t in tours} == {(0.0, 0.0), (100.0, 100.0)}
    assert sorted(s for t in tours for s in t.order) == list(range(10))


@settings(max_examples=100, deadline=None)
@given(
    stops=st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=1, max_size=14
    ),
    depots=st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=1, max_size=2
    ),
    k=st.integers(1, 4),
    seed=st.integers(0, 3),
)
def test_mdmtsp_invariants(stops, depots, k, seed):
    # an integer grid makes duplicate stops and depots on stops likely
    centers = np.array(stops, dtype=float) * 10.0
    depots = [(10.0 * x, 10.0 * y) for x, y in depots]
    k = min(k, len(centers))
    tours = solve_minmax_mdmtsp(centers, depots, k, seed=seed)
    assert len(tours) == k
    assert sorted(s for t in tours for s in t.order) == list(range(len(centers)))
    for tour in tours:
        assert tour.total_distance == sum(tour.hop_distances)
        route = np.vstack([tour.depot, centers[list(tour.order)], tour.depot])
        legs = np.linalg.norm(np.diff(route, axis=0), axis=1)
        assert tour.total_distance == pytest.approx(legs.sum(), rel=1e-12, abs=1e-9)
    if k == 1:
        assert tours[0] == solve_tsp(centers, depots[0])
