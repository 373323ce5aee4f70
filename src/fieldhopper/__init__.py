"""Mission-time planning for UAV data collection over random sensor fields.

The library splits a square field into M disk-shaped hover zones, prices the
hovering time from a stochastic-geometry link model and the traveling time
from tour geometry and drone kinematics, and picks the M (and link
parameters) minimizing the total.  A Monte Carlo kit provides independent
ground truth for every analytic expression.
"""

from .channel import (
    HoverGeometry,
    OptimalBeta,
    RadioSpec,
    edge_success_probability,
    hover_time_aggregation,
    laplace_derivative,
    laplace_interference,
    optimal_aloha,
    optimal_beta,
    slot_duration,
    success_probability,
)
from .config import RunConfig, load_config
from .covering import (
    AlphaFit,
    CoveragePlan,
    NormalizedCoverageTable,
    cover_radius,
    fit_alpha,
)
from .field import (
    CovarianceSpec,
    MseBudget,
    ObservationSet,
    area_ratio_rho,
    covariance,
    edge_mse_bound,
    krige,
    no_success_probability,
    optimal_slots_estimation,
    sample_field,
)
from .kinematics import DroneSpec, hop_time, travel_time, travel_time_approx
from .mission import (
    FieldSpec,
    MissionReport,
    multi_uav_total,
    plan_aggregation,
    plan_estimation,
)
from .simkit import (
    Disk,
    SimConfig,
    SimStats,
    SquareRegion,
    estimate_plan_edge_mse,
    estimate_success_probability,
    sample_ppp,
)
from .tours import Tour, solve_minmax_mdmtsp, solve_tsp

__version__ = "0.1.0"
