"""Split-step evolution of quantum test packets in a weakly curved local
frame, built to check that their mean motion reproduces the classical tidal
trajectory independently of mass and envelope shape."""

from .classical import (
    ClassicalState,
    TrajectorySeries,
    energy_like,
    exact_flow,
    match_metric,
    rk4_integrate,
)
from .config import ScenarioConfig, load_scenario
from .curvature import (
    RiemannComponents,
    TidalMatrix,
    first_order_rate,
    proper_time_rate,
    validate_tidal,
)
from .errors import (
    AliasRisk,
    AsymmetricInput,
    BoundaryContact,
    ConfigError,
    InitialMomentMismatch,
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
    tidal_step,
)
from .spectral import SpectralGrid

__version__ = "0.1.0"
