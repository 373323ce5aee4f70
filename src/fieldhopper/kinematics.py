"""Drone travel kinematics: per-hop times and tour travel times.

Between stops the drone accelerates at ``accel``, cruises at ``speed`` when
the hop is long enough, and decelerates at ``decel`` so it arrives with zero
velocity.  Short hops never reach cruise speed; their duration follows from
constant-acceleration kinematics and is continuous with the cruising branch
at the ramp distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .tours import Tour


@dataclass(frozen=True)
class DroneSpec:
    """Airframe performance limits, all SI.

    speed:       maximum horizontal speed [m/s]
    accel/decel: acceleration / deceleration magnitude [m/s^2]
    reconf_time: per-stop overhead after arrival and before departure [s]
    beamwidth:   antenna cone angle [rad]; ties coverage radius to altitude
    paper_literal: short hops take the printed sqrt(u/(accel+decel)), which
                 is discontinuous at the ramp distance, instead of the
                 kinematically consistent sqrt(2u(1/accel+1/decel))
    """

    speed: float
    accel: float
    decel: float
    reconf_time: float = 0.0
    beamwidth: float = math.pi / 2
    paper_literal: bool = False

    def __post_init__(self) -> None:
        if not all(0 < v < math.inf for v in (self.speed, self.accel, self.decel)):
            raise ValueError("speed, accel and decel must be positive and finite")
        if not 0 <= self.reconf_time < math.inf:
            raise ValueError("reconf_time must be non-negative and finite")
        if not 0 < self.beamwidth < math.pi:
            raise ValueError("beamwidth must lie in (0, pi)")

    @property
    def ramp_up_time(self) -> float:
        return self.speed / self.accel

    @property
    def ramp_down_time(self) -> float:
        return self.speed / self.decel

    @property
    def ramp_up_distance(self) -> float:
        return 0.5 * self.accel * self.ramp_up_time**2

    @property
    def ramp_down_distance(self) -> float:
        return 0.5 * self.decel * self.ramp_down_time**2

    @property
    def ramp_distance(self) -> float:
        """Minimum hop length on which cruise speed is reached."""
        return self.ramp_up_distance + self.ramp_down_distance

    def altitude_for_radius(self, radius: float) -> float:
        """Hover height whose antenna cone covers a ground disk of ``radius``."""
        return radius / math.tan(self.beamwidth / 2)


def hop_time(u: float, drone: DroneSpec) -> float:
    """Time to fly a hop of length ``u`` starting and ending at rest."""
    if u < 0:
        raise ValueError("hop length must be non-negative")
    if u == 0:
        return 0.0
    ramp = drone.ramp_distance
    if u >= ramp:
        return (
            drone.ramp_up_time
            + drone.ramp_down_time
            + (u - ramp) / drone.speed
        )
    if drone.paper_literal:
        return math.sqrt(u / (drone.accel + drone.decel))
    return math.sqrt(2.0 * u * (1.0 / drone.accel + 1.0 / drone.decel))


def travel_time(tour: Tour, drone: DroneSpec) -> float:
    """Total traveling time of a closed tour: hop times plus per-stop overhead."""
    hops = sum(hop_time(u, drone) for u in tour.hop_distances)
    return hops + tour.num_stops * drone.reconf_time

