import math
from dataclasses import replace

import numpy as np
import pytest

from fieldhopper.kinematics import (
    DroneSpec,
    hop_time,
    travel_time,
)
from fieldhopper.tours import Tour, solve_tsp


def simulate_profile(u: float, drone: DroneSpec, dt: float = 1e-4) -> float:
    """Independent oracle: integrate the speed profile in small time steps.

    Accelerate until the remaining distance just suffices to brake to rest,
    cruise if the speed cap is reached, then decelerate; trapezoidal update.
    """
    pos, vel, t = 0.0, 0.0, 0.0
    while pos < u:
        if u - pos <= vel**2 / (2.0 * drone.decel):
            a = -drone.decel
        elif vel < drone.speed:
            a = drone.accel
        else:
            a = 0.0
        new_vel = max(min(vel + a * dt, drone.speed), 0.0)
        pos += 0.5 * (vel + new_vel) * dt
        vel = new_vel
        t += dt
    # the discrete brake trigger leaves a small residual speed at the target;
    # charge the time to bleed it off so the oracle also ends at rest
    return t + vel / drone.decel


def test_zero_hop(drone):
    assert hop_time(0.0, drone) == 0.0


def test_negative_hop_rejected(drone):
    with pytest.raises(ValueError):
        hop_time(-1.0, drone)


def test_continuity_at_ramp_distance(drone):
    # equal ramps: both branches give 2 v / q at the breakpoint
    ramp = drone.ramp_distance
    q = drone.accel
    want = 2.0 * drone.speed / q
    assert hop_time(ramp, drone) == pytest.approx(want, rel=1e-12)
    assert hop_time(ramp * (1 - 1e-9), drone) == pytest.approx(want, rel=1e-6)
    assert hop_time(ramp * (1 + 1e-9), drone) == pytest.approx(want, rel=1e-6)


def test_long_hop_closed_form(drone):
    # twice the ramp distance: ramps plus one ramp length at cruise speed
    ramp = drone.ramp_distance
    tau = hop_time(2.0 * ramp, drone)
    want = drone.ramp_up_time + drone.ramp_down_time + ramp / drone.speed
    assert tau == pytest.approx(want, rel=1e-12)
    assert tau == pytest.approx(6.0, rel=1e-12)  # 20 km/h, 10 (km/h)/s ramps


@pytest.mark.parametrize("u", [0.5, 3.0, 11.0, 22.2, 60.0])
def test_profile_simulation_oracle(drone, u):
    assert hop_time(u, drone) == pytest.approx(simulate_profile(u, drone), abs=1e-2)


def test_monotone_in_distance(drone):
    grid = np.linspace(0.0, 4.0 * drone.ramp_distance, 400)
    times = [hop_time(float(u), drone) for u in grid]
    assert all(b > a for a, b in zip(times[:-1], times[1:]))


def test_paper_literal_branch(drone):
    literal_drone = replace(drone, paper_literal=True)
    u = 0.5 * drone.ramp_distance
    literal = hop_time(u, literal_drone)
    assert literal == pytest.approx(math.sqrt(u / (drone.accel + drone.decel)))
    # the printed short-hop form is discontinuous against the cruise branch
    ramp = drone.ramp_distance
    below = hop_time(ramp * (1 - 1e-12), literal_drone)
    above = hop_time(ramp, literal_drone)
    assert abs(above - below) > 0.5 * above


def test_travel_time_sums_hops_and_stops(drone):
    tour = Tour(order=(0, 1, 2), hop_distances=(10.0, 20.0, 30.0))
    want = sum(hop_time(u, drone) for u in (10.0, 20.0, 30.0)) + 3 * drone.reconf_time
    assert travel_time(tour, drone) == pytest.approx(want)


def test_travel_time_rotation_reversal_invariance(drone, rng):
    pts = rng.random((7, 2)) * 100.0
    depot = pts[0]
    tour = solve_tsp(pts, depot)
    base = travel_time(tour, drone)
    rolled = Tour(order=tour.order, hop_distances=tuple(np.roll(tour.hop_distances, 3)))
    reversed_ = Tour(order=tour.order[::-1], hop_distances=tour.hop_distances[::-1])
    assert travel_time(rolled, drone) == pytest.approx(base, rel=1e-12)
    assert travel_time(reversed_, drone) == pytest.approx(base, rel=1e-12)


def test_zero_length_tour_zero_conf():
    drone = DroneSpec(speed=5.0, accel=2.0, decel=2.0, reconf_time=0.0)
    tour = Tour(order=(0,), hop_distances=())
    assert travel_time(tour, drone) == 0.0


def test_single_stop_round_trip(drone):
    tour = Tour(order=(0,), hop_distances=(30.0, 30.0))
    want = 2.0 * hop_time(30.0, drone) + drone.reconf_time
    assert travel_time(tour, drone) == pytest.approx(want)


def test_travel_grows_then_linear_in_side(drone, table):
    # superlinear for small fields, asymptotically linear for large ones
    sides = np.linspace(10.0, 40_000.0, 24)
    plan = table.centers(5)
    times = []
    for side in sides:
        tour = solve_tsp(plan * side, plan[0] * side)
        times.append(travel_time(tour, drone))
    second = np.diff(times, 2)
    assert second[0] < -1e-6 or second[0] > 1e-6  # curved at the small end
    assert abs(second[-1]) < 1e-6  # straight at the large end
