"""Stable spatial allocation of a grid to random centers, dominating Boolean
models, tail bounds, and percolation experiments."""

__version__ = "0.1.0"

from .allocation import (
    UNCLAIMED,
    AllocationResult,
    PointConfiguration,
    SiteGrid,
    gale_shapley,
    phase_diagnostics,
    verify_stability,
)
from .appetite import AppetiteDistribution, moment_report, sample_appetites
from .booleanmodel import (
    BooleanModel,
    build_boolean,
    check_domination,
    compute_radius,
    tail_statistics,
)
from .bounds import (
    PhaseParams,
    classify_phase,
    finiteness_threshold,
    nagaev_bound,
    poisson_chernoff,
)
from .geometry import (
    Domain,
    distance,
    replica_rng,
    sample_poisson,
    unit_ball_volume,
)
from .percolation import (
    ClusterReport,
    ball_components,
    claimed_components,
    critical_sweep,
    crossing_event,
    mask_components,
)
