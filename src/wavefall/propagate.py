"""Split-step evolution of a packet under the time-dilation phase imprint.

One step interleaves two exact unitaries:

  kinetic: every spectral mode picks up exp(-i k^2 dt / (4 pi mu)) and the
           frame time advances by dt (time advance lives here only);
  tidal:   every sample picks up exp(-i pi mu (x.R.x) dt), the first-order
           clock-rate phase accumulated over dt.

Both factors are pure phases, so the composition is exactly unitary; per
step the tidal factor kicks the mean velocity by -R<x> dt and the kinetic
factor drifts the mean position by <v> dt, which is why the recorded means
trace the classical tidal trajectory independently of mass and envelope.

``lie`` composes kinetic then tidal (first order in dt); ``strang``
symmetrizes with half tidal kicks (second order).  The run aborts cleanly
when probability mass reaches the boundary margin band, since wrap-around
would silently corrupt the moments.  The same holds in k-space: a focusing
packet whose spectrum reaches the Nyquist edge wraps around the wavenumber
lattice, and an opt-in monitor (``spectral_mass_tol``) aborts the run when
mass enters the spectral edge band.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .curvature import TidalMatrix, validate_tidal
from .errors import (
    BoundaryContact,
    OutsideValidity,
    SpectralEdgeContact,
    StepTooLarge,
    TimestampMismatch,
    TooFewRecords,
)
from .packets import (
    TWO_PI,
    WaveFunction,
    covariance,
    mean_position,
    mean_velocity_spectral,
    norm,
)
from .spectral import SpectralGrid

# the spectral monitor watches |k_i| >= (1 - SPECTRAL_EDGE_FRACTION) k_max
SPECTRAL_EDGE_FRACTION = 0.1


class StepScheme(str, Enum):
    LIE = "lie"
    STRANG = "strang"


@dataclass(frozen=True)
class EvolveConfig:
    """Step size, length and monitor settings of one run.

    ``spectral_mass_tol`` arms the spectral-edge monitor; None (the
    default) leaves it off.
    """

    dt: float
    n_steps: int
    record_every: int = 1
    boundary_margin_fraction: float = 0.1
    boundary_mass_tol: float = 1e-8
    spectral_mass_tol: float | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise StepTooLarge(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1 or self.record_every < 1:
            raise ValueError("n_steps and record_every must be positive integers")
        if not 0.0 < self.boundary_margin_fraction < 0.5:
            raise ValueError("boundary_margin_fraction must lie in (0, 0.5)")
        if not self.boundary_mass_tol > 0:
            raise ValueError("boundary_mass_tol must be positive")
        if self.spectral_mass_tol is not None and not self.spectral_mass_tol > 0:
            raise ValueError("spectral_mass_tol must be positive")


@dataclass(eq=False)
class MomentSeries:
    """Per-record observables of one run, plus the final state."""

    t: np.ndarray
    norm: np.ndarray
    mean_x: np.ndarray
    mean_v: np.ndarray
    cov: np.ndarray
    final_state: WaveFunction | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_records(self) -> int:
        return self.t.shape[0]

    # duck-typed series interface shared with TrajectorySeries
    @property
    def times(self) -> np.ndarray:
        return self.t

    @property
    def positions(self) -> np.ndarray:
        return self.mean_x


def check_kinetic_phase(grid: SpectralGrid, mass: float, dt: float) -> None:
    phase = dt * grid.k_max ** 2 / (4.0 * np.pi * mass)
    if phase >= np.pi:
        raise StepTooLarge(
            f"kinetic phase per step {phase:.3f} >= pi; reduce dt or raise mass/resolution")


def check_tidal_phase(grid: SpectralGrid, tidal: TidalMatrix, mass: float, dt: float) -> None:
    phase = dt * tidal.max_abs() * (grid.extent / 2.0) ** 2 * np.pi * mass
    if phase >= np.pi:
        raise StepTooLarge(
            f"tidal phase per step {phase:.3f} >= pi at the domain edge; reduce dt")


def _check_step(grid: SpectralGrid, mass: float, dt: float,
                tidal: TidalMatrix | None = None, kinetic: bool = True) -> float | None:
    """Step-budget guards for the factors a caller applies: the kinetic
    phase unless ``kinetic`` is False, and with ``tidal`` its dimension, its
    phase at the domain edge and the weak-field validity.  Returns the
    validity epsilon, or None without ``tidal``."""
    if kinetic:
        check_kinetic_phase(grid, mass, dt)
    if tidal is None:
        return None
    if tidal.dim != grid.dim:
        raise ValueError(f"tidal dimension {tidal.dim} does not match grid {grid.dim}")
    check_tidal_phase(grid, tidal, mass, dt)
    report = validate_tidal(tidal, grid.extent)
    if not report.ok:
        raise OutsideValidity("; ".join(report.messages))
    return report.epsilon


def quadratic_form_grid(grid: SpectralGrid, tidal: TidalMatrix) -> np.ndarray:
    """x.R.x sampled on the grid."""
    r = tidal.entries
    q = np.zeros(grid.shape)
    meshes = grid.position_meshes
    for i in range(grid.dim):
        for j in range(grid.dim):
            if r[i, j] != 0.0:
                q = q + r[i, j] * meshes[i] * meshes[j]
    return q


def kinetic_step(wf: WaveFunction, dt: float) -> WaveFunction:
    """Dispersion step: spectral phases exp(-i k^2 dt / (4 pi mu)); t += dt."""
    _check_step(wf.grid, wf.mass, dt)
    spectrum = wf.grid.forward(wf.psi)
    spectrum *= np.exp(-1j * wf.grid.k_squared * (dt / (4.0 * np.pi * wf.mass)))
    return replace(wf, psi=wf.grid.inverse(spectrum), t=wf.t + dt)


def _tidal_phase_field(grid: SpectralGrid, tidal: TidalMatrix, mass: float,
                       dt: float, exact_rate: bool) -> np.ndarray:
    """Imprinted phase per step: -pi mu (x.R.x) dt, or the un-truncated
    clock-rate version -2 pi mu (sqrt(1 + x.R.x) - 1) dt for error-term
    studies."""
    q = quadratic_form_grid(grid, tidal)
    if exact_rate:
        if float(np.min(q)) <= -1.0:
            raise OutsideValidity("1 + x.R.x is not positive everywhere on the grid")
        return -2.0 * np.pi * mass * dt * (np.sqrt(1.0 + q) - 1.0)
    return -np.pi * mass * dt * q


def tidal_step(wf: WaveFunction, tidal: TidalMatrix, dt: float,
               exact_rate: bool = False) -> WaveFunction:
    """Clock-rate imprint exp(-i pi mu (x.R.x) dt); time is not advanced."""
    _check_step(wf.grid, wf.mass, dt, tidal, kinetic=False)
    phase = _tidal_phase_field(wf.grid, tidal, wf.mass, dt, exact_rate)
    return replace(wf, psi=wf.psi * np.exp(1j * phase))


def _band_mask(grid: SpectralGrid, meshes, cut: float) -> np.ndarray:
    """Points whose |coordinate| on any axis reaches ``cut``."""
    mask = np.zeros(grid.shape, dtype=bool)
    for mesh in meshes:
        mask = mask | (np.abs(mesh) >= cut)
    return mask


def _margin_slabs(grid: SpectralGrid, cut: float) -> list[tuple[slice, ...]]:
    """Disjoint slabs that cover the position band |x_i| >= cut exactly.

    Per axis i, the band is an edge run at each end; its two slabs take
    those runs on axis i, the interior on the axes before i, and everything
    on the axes after it, so no cell is counted twice.
    """
    inside = np.flatnonzero(np.abs(grid.axis_positions) < cut)
    interior = slice(int(inside[0]), int(inside[-1]) + 1)
    slabs = []
    for i in range(grid.dim):
        for run in (slice(0, interior.start), slice(interior.stop, grid.n)):
            slabs.append((interior,) * i + (run,) + (slice(None),) * (grid.dim - i - 1))
    return slabs


def evolve(wf: WaveFunction, tidal: TidalMatrix, scheme: StepScheme,
           cfg: EvolveConfig, exact_rate: bool = False) -> MomentSeries:
    """Run the split-step scheme and record moments every ``record_every`` steps.

    The phase factors are precomputed once; each step applies the same
    factors as composing ``tidal_step``/``kinetic_step``, equal to them up
    to roundoff.  The kinetic factor goes between the raw FFT pair: the
    centre signs S that ``grid.forward``/``inverse`` apply cancel, since
    S^2 = 1 and the kinetic factor is diagonal, and a +-1 multiply is
    exact, so the state is bit-identical to a loop through them.  Raises
    BoundaryContact (with the partial series attached) as soon as more than
    ``boundary_mass_tol`` probability sits in the margin band.

    With ``spectral_mass_tol`` set, the probability in the spectral edge band
    (|k_i| >= 0.9 k_max on any axis) is read off the spectrum each step
    already transforms, i.e. the state entering the kinetic factor, which
    is a pure phase and so leaves the band mass unchanged.  More than
    ``spectral_mass_tol`` there raises SpectralEdgeContact, a BoundaryContact
    with the same step index and partial series.
    """
    scheme = StepScheme(scheme)
    grid, mass, dt = wf.grid, wf.mass, cfg.dt
    epsilon = _check_step(grid, mass, dt, tidal)

    kin = np.exp(-1j * grid.k_squared * (dt / (4.0 * np.pi * mass)))
    # strang: half kick, drift, half kick; lie: drift, full kick
    if scheme is StepScheme.STRANG:
        tid_first = tid_last = np.exp(
            1j * _tidal_phase_field(grid, tidal, mass, dt / 2.0, exact_rate))
    else:
        tid_first = None
        tid_last = np.exp(1j * _tidal_phase_field(grid, tidal, mass, dt, exact_rate))
    if grid.dim == 1:
        fft, ifft = np.fft.fft, np.fft.ifft
    else:
        fft, ifft = np.fft.fftn, np.fft.ifftn
    slabs = _margin_slabs(grid, grid.extent / 2.0 - cfg.boundary_margin_fraction * grid.extent)
    edge = None
    if cfg.spectral_mass_tol is not None:
        edge = _band_mask(grid, grid.wavenumber_meshes,
                          (1.0 - SPECTRAL_EDGE_FRACTION) * grid.k_max)
    dV = grid.cell_volume

    def margin_mass_of(field: np.ndarray) -> float:
        total = 0.0
        for slab in slabs:
            part = field[slab]
            total += np.vdot(part, part).real
        return float(total) * dV

    t0 = wf.t
    psi = wf.psi
    rec_t, rec_norm, rec_x, rec_v, rec_cov = [], [], [], [], []
    max_margin_mass = 0.0
    max_edge_mass = None if edge is None else 0.0

    def record(step: int, state_psi: np.ndarray) -> None:
        view = WaveFunction(grid=grid, psi=state_psi, mass=mass, t=t0 + dt * step)
        rec_t.append(view.t)
        rec_norm.append(norm(view))
        rec_x.append(mean_position(view))
        rec_v.append(mean_velocity_spectral(view))
        rec_cov.append(covariance(view))

    def partial_series(psi_now: np.ndarray, step: int) -> MomentSeries:
        return _assemble(grid, mass, t0, dt, step, rec_t, rec_norm, rec_x, rec_v,
                         rec_cov, psi_now, epsilon, max_margin_mass, max_edge_mass)

    record(0, psi)
    margin_mass = margin_mass_of(psi)
    max_margin_mass = margin_mass
    if margin_mass > cfg.boundary_mass_tol:
        raise BoundaryContact(
            0, f"initial margin mass {margin_mass:.3e} exceeds {cfg.boundary_mass_tol:.1e}",
            partial=partial_series(psi, 0))

    # every product keeps its operand order: numpy's complex multiply is not
    # bitwise commutative, and outputs are promised byte for byte
    for step in range(1, cfg.n_steps + 1):
        if tid_first is not None:
            psi = tid_first * psi
        spectrum = fft(psi, norm="ortho")
        if edge is not None:
            edge_mass = float((np.abs(spectrum[edge]) ** 2).sum()) * dV
        np.multiply(kin, spectrum, out=spectrum)
        psi = ifft(spectrum, norm="ortho")
        np.multiply(tid_last, psi, out=psi)
        margin_mass = margin_mass_of(psi)
        max_margin_mass = max(max_margin_mass, margin_mass)
        if margin_mass > cfg.boundary_mass_tol:
            raise BoundaryContact(
                step, f"margin mass {margin_mass:.3e} exceeds "
                      f"{cfg.boundary_mass_tol:.1e} at step {step}",
                partial=partial_series(psi, step))
        if edge is not None:
            max_edge_mass = max(max_edge_mass, edge_mass)
            if edge_mass > cfg.spectral_mass_tol:
                raise SpectralEdgeContact(
                    step, f"spectral edge mass {edge_mass:.3e} exceeds "
                          f"{cfg.spectral_mass_tol:.1e} at step {step}",
                    partial=partial_series(psi, step))
        if step % cfg.record_every == 0:
            record(step, psi)

    return _assemble(grid, mass, t0, dt, cfg.n_steps, rec_t, rec_norm, rec_x, rec_v,
                     rec_cov, psi, epsilon, max_margin_mass, max_edge_mass)


def _assemble(grid, mass, t0, dt, last_step, rec_t, rec_norm, rec_x, rec_v, rec_cov,
              psi, epsilon, max_margin_mass, max_edge_mass) -> MomentSeries:
    mean_v = np.asarray(rec_v).reshape(len(rec_t), grid.dim)
    v_char = float(np.max(np.linalg.norm(mean_v, axis=1))) if len(rec_t) else 0.0
    diagnostics = {
        "epsilon": epsilon,
        "v_char": v_char,
        # magnitudes of the metric terms the imprint drops, relative to the
        # retained clock-rate term (cross term ~ (4/3) v; dispersion-curvature
        # cross ~ (2 pi v)^2 in the p = k/2pi convention)
        "dropped_cross_term_rel": 4.0 / 3.0 * v_char,
        "dropped_dispersion_rel": (TWO_PI * v_char) ** 2,
        "max_margin_mass": max_margin_mass,
        # None when the spectral monitor is off
        "max_spectral_edge_mass": max_edge_mass,
    }
    return MomentSeries(
        t=np.asarray(rec_t),
        norm=np.asarray(rec_norm),
        mean_x=np.asarray(rec_x).reshape(len(rec_t), grid.dim),
        mean_v=mean_v,
        cov=np.asarray(rec_cov).reshape(len(rec_t), grid.dim, grid.dim),
        final_state=WaveFunction(grid=grid, psi=psi, mass=mass, t=t0 + dt * last_step),
        diagnostics=diagnostics,
    )


def acceleration_series(series: MomentSeries) -> np.ndarray:
    """d<v>/dt by centered differences; second-order one-sided at the ends."""
    n = series.n_records
    if n < 3:
        raise TooFewRecords(f"need at least 3 records, got {n}")
    spacing = np.diff(series.t)
    h = spacing[0]
    if np.max(np.abs(spacing - h)) > 1e-9 * max(h, 1.0):
        raise TimestampMismatch("records are not uniformly spaced")
    v = series.mean_v
    acc = np.empty_like(v)
    acc[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    acc[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    acc[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return acc
