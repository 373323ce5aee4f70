"""Top-level mission planners.

For every candidate number of hovering locations M the planner pulls the
cached covering layout, derives the hover geometry, fixes or tunes the link
through :func:`fieldhopper.channel.tuned_link` (one link rule for both
missions), prices the hover and travel times, and keeps the M with the
smallest total.  A mission is its slot rule: it returns the slots per hover
(aggregation's zeta/(M P_s), estimation's edge-MSE budget) and the sweep
turns them into hover time at the link's slot length.  One UAV is a fleet
of one: its tour comes from the same min-max split as K UAVs.  Hover time
falls with M (smaller disks hear their sensors better) while travel time
grows, so the total has an interior minimum; the sweep stops after the
total has risen for three consecutive M to ride out heuristic-coverage
noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .channel import (
    HoverGeometry,
    RadioSpec,
    aggregation_slots,
    slot_duration,
    success_probability,
    tuned_link,
)
from .covering import MissingRowError, NormalizedCoverageTable
from .field import (
    CovarianceSpec,
    EstimationInfeasible,
    _check_budget,
    optimal_slots_estimation,
)
from .kinematics import DroneSpec, travel_time
from .tours import Tour, solve_minmax_mdmtsp

__all__ = [
    "FieldSpec",
    "MissionRecord",
    "MissionReport",
    "UavBreakdown",
    "plan_aggregation",
    "plan_estimation",
    "multi_uav_total",
]

STOP_AFTER_RISES = 3  # the M sweep ends once the total has risen this often in a row


@dataclass(frozen=True)
class FieldSpec:
    """The deployment area: square side length [m] and sensor density [1/m^2],
    both positive and finite, so a planned field has sensors."""

    side: float
    density: float

    def __post_init__(self) -> None:
        if not (0 < self.side < math.inf and 0 < self.density < math.inf):
            raise ValueError("side and density must be positive and finite")


@dataclass(frozen=True)
class UavBreakdown:
    stops: int
    travel_time: float
    total_time: float


@dataclass
class MissionRecord:
    """Everything the planner computed for one candidate M."""

    m: int
    radius: float
    altitude: float
    beta: float
    aloha: float
    p_success: float
    slots_per_hl: float
    hover_per_hl: float
    hover_total: float
    travel: float
    total: float
    feasible: bool = True
    r_mse: float | None = None
    rho: float | None = None
    p_edge_success: float | None = None
    per_uav: list[UavBreakdown] | None = None
    bottleneck_uav: int | None = None

    def to_dict(self) -> dict:
        out = {
            "M": self.m,
            "radius_m": self.radius,
            "altitude_m": self.altitude,
            "beta": self.beta,
            "aloha": self.aloha,
            "p_success": self.p_success,
            "slots_per_hl": self.slots_per_hl,
            "hover_per_hl_s": self.hover_per_hl,
            "hover_total_s": self.hover_total,
            "travel_s": self.travel,
            "total_s": self.total,
            "feasible": self.feasible,
        }
        if self.r_mse is not None:
            out.update(r_mse_m=self.r_mse, rho=self.rho,
                       p_edge_success=self.p_edge_success)
        if self.per_uav is not None:
            out["per_uav"] = [
                {"stops": u.stops, "travel_s": u.travel_time, "total_s": u.total_time}
                for u in self.per_uav
            ]
            out["bottleneck_uav"] = self.bottleneck_uav
        return out


@dataclass
class MissionReport:
    kind: str
    field: FieldSpec
    uavs: int
    records: list[MissionRecord] = dc_field(default_factory=list)

    @property
    def feasible_records(self) -> list[MissionRecord]:
        return [r for r in self.records if r.feasible]

    @property
    def best(self) -> MissionRecord:
        candidates = self.feasible_records
        if not candidates:
            raise EstimationInfeasible("no feasible M in the evaluated range")
        return min(candidates, key=lambda r: r.total)

    def to_dict(self) -> dict:
        out = {
            "mission": self.kind,
            "field_side_m": self.field.side,
            "density_per_m2": self.field.density,
            "uavs": self.uavs,
            "records": [r.to_dict() for r in self.records],
        }
        if self.feasible_records:
            out["best"] = self.best.to_dict()
        return out


def multi_uav_total(
    tours: Sequence[Tour],
    hover_per_hl: float,
    drone: DroneSpec,
) -> tuple[float, list[UavBreakdown], int]:
    """Mission time when tours run in parallel: the slowest UAV sets it."""
    per_uav = []
    for tour in tours:
        t_travel = travel_time(tour, drone)
        per_uav.append(
            UavBreakdown(
                stops=tour.num_stops,
                travel_time=t_travel,
                total_time=t_travel + tour.num_stops * hover_per_hl,
            )
        )
    worst = int(np.argmax([u.total_time for u in per_uav]))
    return per_uav[worst].total_time, per_uav, worst


def _tours_and_travel(
    centers: np.ndarray,
    depots: np.ndarray,
    k: int,
    drone: DroneSpec,
    hover_per_hl: float,
    seed: int,
) -> tuple[float, float, list[UavBreakdown] | None, int | None]:
    """(mission total, bottleneck travel, per-uav, bottleneck); one UAV is a
    fleet of one, whose breakdown the record leaves out."""
    stop_cost = drone.speed * (hover_per_hl + drone.reconf_time)
    tours = solve_minmax_mdmtsp(centers, depots, k, stop_cost=stop_cost, seed=seed)
    total, per_uav, worst = multi_uav_total(tours, hover_per_hl, drone)
    if k == 1:
        return total, per_uav[0].travel_time, None, None
    return total, per_uav[worst].travel_time, per_uav, worst


def _sweep(report: MissionReport) -> bool:
    """True when the total has been rising for ``STOP_AFTER_RISES`` consecutive M."""
    feasible = report.feasible_records
    if len(feasible) <= STOP_AFTER_RISES:
        return False
    tail = feasible[-(STOP_AFTER_RISES + 1):]
    return all(b.total > a.total for a, b in zip(tail[:-1], tail[1:]))


def _plan(
    kind: str,
    price: Callable[[int, HoverGeometry, RadioSpec, float], tuple[float, dict]],
    field: FieldSpec,
    drone: DroneSpec,
    radio: RadioSpec,
    fixed_beta: float | None,
    fixed_aloha: float | None,
    m_range: Sequence[int],
    k: int,
    depots,
    table: NormalizedCoverageTable | None,
    seed: int,
) -> MissionReport:
    """The M sweep both missions share.  Per M it picks the link with
    :func:`tuned_link` and its capture probability, and the missions differ
    only in ``price(m, geom, link, p_success)``, which returns the slots per
    hover and the record's budget fields.  The sweep prices each hover as
    slots times the slot length; an infinite slot count means the hover
    target cannot be met, and travel is then not priced.  With no ``table``
    the layouts come from the packaged one; an M past its last row raises
    :class:`MissingRowError` carrying the report of the M before it.
    """
    table = table if table is not None else NormalizedCoverageTable.packaged()
    if depots is None:
        depots = [(field.side / 2.0, field.side / 2.0)]
    depots_arr = np.atleast_2d(np.asarray(depots, dtype=float))
    report = MissionReport(kind=kind, field=field, uavs=k)
    for m in m_range:
        if k > m:
            continue
        try:
            plan = table.plan(m, field.side)
        except MissingRowError as exc:
            exc.report = report
            raise
        altitude = drone.altitude_for_radius(plan.radius)
        geom = HoverGeometry(plan.radius, altitude, field.density)
        link = tuned_link(geom, radio, fixed_beta, fixed_aloha)
        p = success_probability(geom, link)
        slots, budget_fields = price(m, geom, link, p)
        hover = slots * slot_duration(link)
        record = MissionRecord(
            m=m, radius=plan.radius, altitude=altitude, beta=link.beta,
            aloha=link.aloha, p_success=p, slots_per_hl=slots, hover_per_hl=hover,
            hover_total=m * hover, travel=math.nan, total=math.inf,
            feasible=math.isfinite(hover), **budget_fields,
        )
        if record.feasible:
            (record.total, record.travel, record.per_uav,
             record.bottleneck_uav) = _tours_and_travel(
                plan.centers, depots_arr, k, drone, record.hover_per_hl, seed,
            )
        report.records.append(record)
        if _sweep(report):
            break
    return report


def plan_aggregation(
    field: FieldSpec,
    drone: DroneSpec,
    radio: RadioSpec,
    zeta: float,
    m_range: Sequence[int] = range(1, 25),
    k: int = 1,
    depots=None,
    table: NormalizedCoverageTable | None = None,
    fixed_beta: float | None = None,
    fixed_aloha: float | None = None,
    seed: int = 0,
) -> MissionReport:
    """Minimize total mission time while collecting ``zeta`` samples on average.

    Hover time per location is the expected slot count zeta/(M P_s) times the
    slot length, so the per-location hover budget is equal across locations
    and scales linearly with zeta.
    """
    if zeta < 0:
        raise ValueError("zeta must be non-negative")

    def price(m: int, geom: HoverGeometry, link: RadioSpec, p: float) -> tuple[float, dict]:
        return aggregation_slots(m, zeta, p), {}

    return _plan("aggregation", price, field, drone, radio, fixed_beta, fixed_aloha,
                 m_range, k, depots, table, seed)


def plan_estimation(
    field: FieldSpec,
    drone: DroneSpec,
    radio: RadioSpec,
    cov: CovarianceSpec,
    delta: float,
    m_range: Sequence[int] = range(1, 25),
    k: int = 1,
    depots=None,
    table: NormalizedCoverageTable | None = None,
    fixed_beta: float | None = None,
    fixed_aloha: float | None = None,
    seed: int = 0,
) -> MissionReport:
    """Minimize mission time subject to the field-estimation MSE target.

    Per-hover slot counts come from the edge-MSE budget (probe radius line
    search) on the link aggregation would use, so unlike aggregation the
    hover time does not shrink with 1/M.
    """
    _check_budget(cov, delta)

    def price(m: int, geom: HoverGeometry, link: RadioSpec, p: float) -> tuple[float, dict]:
        try:
            budget = optimal_slots_estimation(geom, link, cov, delta)
        except EstimationInfeasible:
            return math.inf, {}
        return budget.j_star, dict(r_mse=budget.r_mse, rho=budget.rho,
                                   p_edge_success=budget.p_edge_success)

    return _plan("estimation", price, field, drone, radio, fixed_beta, fixed_aloha,
                 m_range, k, depots, table, seed)
