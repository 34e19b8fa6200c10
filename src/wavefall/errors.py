"""Exception types shared across the simulator.

Guard errors (bad inputs, violated preconditions) all derive from
SimulationError so callers can treat them uniformly; BoundaryContact is the
*runtime* abort and carries the step index plus whatever moment records
were collected before a monitor tripped.  Its subclass SpectralEdgeContact
is the same abort raised by the spectral-edge (Nyquist wrap) monitor.
"""


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SimulationError):
    """Malformed or inconsistent scenario configuration."""


class AsymmetricInput(SimulationError):
    """Caller-supplied tidal entries break symmetry beyond tolerance."""


class TraceNotZero(SimulationError):
    """Vacuum flag set but the tidal matrix has a nonzero trace."""


class SymmetryViolation(SimulationError):
    """Four-index curvature input violates its algebraic symmetries."""


class OutsideValidity(SimulationError):
    """Requested point or run leaves the weak-field validity regime."""


class SizeMismatch(SimulationError):
    """Field shape does not match the grid."""


class PacketTooWide(SimulationError):
    """Packet support does not fit the periodic domain."""


class VelocityTooHigh(SimulationError):
    """Boost velocity outside the low-energy regime or wavenumber budget."""


class AliasRisk(SimulationError):
    """Packet spectrum would overrun the wavenumber lattice."""


class InitialMomentMismatch(SimulationError):
    """Constructed packet missed its target first moments."""


class StepTooLarge(SimulationError):
    """Per-step phase budget exceeded (kinetic or tidal)."""


class BoundaryContact(SimulationError):
    """Probability mass entered the boundary margin band.

    ``partial`` holds the moment series recorded before the abort;
    ``step_index`` is the step at which the monitor tripped (0 means the
    initial state already violated the margin).
    """

    def __init__(self, step_index, message, partial):
        self.step_index = step_index
        self.partial = partial
        super().__init__(message)


class SpectralEdgeContact(BoundaryContact):
    """Probability mass entered the spectral edge band near the Nyquist
    wavenumber, where the lattice wraps the spectrum and corrupts the moments.

    Raised only by an armed monitor (``EvolveConfig.spectral_mass_tol``);
    carries ``step_index`` and ``partial`` exactly as BoundaryContact does.
    """


class TooFewRecords(SimulationError):
    """Not enough records for a finite-difference stencil."""


class TimestampMismatch(SimulationError):
    """Series to be compared do not share time stamps."""


class PhaseWrapRisk(SimulationError):
    """Imprinted phase too large at the domain edge for an unwrapped read."""


class TooFewVariants(SimulationError):
    """A sweep needs at least two members."""


class TooFewPoints(SimulationError):
    """A fit needs at least three step sizes."""
