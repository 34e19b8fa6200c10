"""Split-step evolution of quantum test packets in a weakly curved local
frame, built to check that their mean motion reproduces the classical tidal
trajectory independently of mass and envelope shape."""

from .classical import (
    ClassicalState,
    TrajectorySeries,
    dropped_term_scale,
    energy_like,
    exact_flow,
    match_metric,
    rk4_integrate,
    tidal_acceleration,
)
from .config import ScenarioConfig, load_scenario
from .curvature import (
    RiemannComponents,
    TidalMatrix,
    ValidityReport,
    first_order_rate,
    metric_at,
    proper_time_rate,
    validate_tidal,
)
from .errors import (
    AliasRisk,
    AsymmetricInput,
    BoundaryContact,
    ConfigError,
    InitialMomentMismatch,
    NotAdjacent,
    OutsideValidity,
    PacketTooWide,
    PhaseWrapRisk,
    SimulationError,
    SizeMismatch,
    SpectralEdgeContact,
    StepTooLarge,
    SymmetryViolation,
    TimestampMismatch,
    TooFewPoints,
    TooFewRecords,
    TooFewVariants,
    TraceNotZero,
    VelocityTooHigh,
)
from .experiments import (
    ConvergenceReport,
    RippleReport,
    WepReport,
    convergence_study,
    eotvos_ratio,
    phase_difference_check,
    ripple_check,
    wep_mass_sweep,
    wep_shape_sweep,
)
from .packets import (
    PacketShape,
    WaveFunction,
    covariance,
    make_packet,
    mean_position,
    mean_velocity_realspace,
    mean_velocity_spectral,
    norm,
)
from .propagate import (
    EvolveConfig,
    MomentSeries,
    StepScheme,
    acceleration_series,
    evolve,
    kinetic_step,
    tidal_step,
)
from .spectral import SpectralGrid, forward_transform, inverse_transform

__version__ = "0.1.0"
