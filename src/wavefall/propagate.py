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

import itertools
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
# numpy's C-level vdot, which np.vdot reaches through its __array_function__
# dispatcher; bound here so that the 1D band sums skip the dispatch and a
# numpy that moves it fails at import
from numpy._core._multiarray_umath import vdot

from .curvature import TidalMatrix, validate_tidal
from .errors import (
    BoundaryContact,
    SpectralEdgeContact,
    StepTooLarge,
    TimestampMismatch,
    TooFewRecords,
)
from .packets import WaveFunction, moments
from .spectral import SpectralGrid, in_place, padded

# the spectral monitor watches |k_i| >= (1 - SPECTRAL_EDGE_FRACTION) k_max
SPECTRAL_EDGE_FRACTION = 0.1
# at most this many bytes of state snapshots are held for one stacked
# moments call: 32 rows at N=256, 16 at N=512, 10 at N=768 and 2 at 64^2,
# and every temporary of a 1D stacked call stays under glibc's 128 KiB mmap
# threshold; a field too large for two is recorded alone, as a view
RECORD_STACK_BYTES = 128 * 1024


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

    @property
    def n_records(self) -> int:
        """Rows of a full run: the initial state, then every ``record_every`` steps."""
        return self.n_steps // self.record_every + 1


@dataclass(eq=False)
class MomentSeries:
    """Per-record observables of one run, plus the final state."""

    t: np.ndarray
    norm: np.ndarray
    mean_x: np.ndarray
    mean_v: np.ndarray
    cov: np.ndarray
    final_state: WaveFunction
    diagnostics: dict

    @property
    def n_records(self) -> int:
        return self.t.shape[0]

    # duck-typed series interface shared with TrajectorySeries
    @property
    def positions(self) -> np.ndarray:
        return self.mean_x


def check_kinetic_phase(grid: SpectralGrid, mass: float, dt: float) -> None:
    phase = dt * grid.k_max ** 2 / (4.0 * np.pi * mass)
    if phase >= np.pi:
        raise StepTooLarge(
            f"kinetic phase per step {phase:.3f} >= pi; reduce dt or raise mass/resolution")


def check_tidal_factor(grid: SpectralGrid, tidal: TidalMatrix, mass: float,
                       dt: float) -> float:
    """Step-budget guards of the tidal factor: its dimension, its phase at
    the domain edge and the weak-field validity.  Returns the validity
    epsilon."""
    if tidal.dim != grid.dim:
        raise ValueError(f"tidal dimension {tidal.dim} does not match grid {grid.dim}")
    phase = dt * tidal.max_abs() * (grid.extent / 2.0) ** 2 * np.pi * mass
    if phase >= np.pi:
        raise StepTooLarge(
            f"tidal phase per step {phase:.3f} >= pi at the domain edge; reduce dt")
    return validate_tidal(tidal, grid.extent)


def _tidal_phase_field(grid: SpectralGrid, tidal: TidalMatrix, mass: float,
                       dt: float) -> np.ndarray:
    """Imprinted phase per step, -pi mu (x.R.x) dt on the grid: the
    first-order clock-rate phase, and the only code that builds it."""
    r = tidal.entries
    q = np.zeros(grid.shape)
    meshes = grid.position_meshes
    for i in range(grid.dim):
        for j in range(grid.dim):
            if r[i, j] != 0.0:
                q = q + r[i, j] * meshes[i] * meshes[j]
    return -np.pi * mass * dt * q


def tidal_step(wf: WaveFunction, tidal: TidalMatrix, dt: float) -> WaveFunction:
    """Clock-rate imprint exp(-i pi mu (x.R.x) dt); time is not advanced."""
    check_tidal_factor(wf.grid, tidal, wf.mass, dt)
    phase = _tidal_phase_field(wf.grid, tidal, wf.mass, dt)
    return replace(wf, psi=wf.psi * np.exp(1j * phase))


def _runs(flags: np.ndarray) -> list[slice]:
    """Maximal index runs where ``flags`` is True, in index order."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], flags.astype(np.int8), [0]))))
    return [slice(int(a), int(b)) for a, b in zip(edges[::2], edges[1::2])]


def _band_slabs(grid: SpectralGrid, axis_values: np.ndarray,
                cut: float) -> list[tuple[slice, ...]]:
    """Disjoint slabs that cover the band |value_i| >= cut exactly.

    ``axis_values`` is the per-axis coordinate, positions or wavenumbers;
    on each axis the band and its complement are index runs (the position
    margin: one run at each end; the spectral edge in DFT order: one run
    around N/2).  The slabs of axis i take a band run on axis i, an interior
    run on each axis before i, and everything on the axes after it, so no
    cell is counted twice.
    """
    on = np.abs(axis_values) >= cut
    band, inside = _runs(on), _runs(~on)
    slabs = []
    for i in range(grid.dim):
        rest = (slice(None),) * (grid.dim - i - 1)
        for head in itertools.product(inside, repeat=i):
            slabs.extend(head + (run,) + rest for run in band)
    return slabs


def _band_sum(parts: list[np.ndarray], dV: float) -> Callable[[], float]:
    """An argument-free sum |values|^2 dV over ``parts``, slab views of one
    field, slab by slab: the one rule every margin and edge mass is summed by.

    In 1D a band is one or two runs.  Their two sums call ``vdot``, left run
    then right; an empty view stands in for a missing second run (a margin
    narrower than a cell at the right end, or the spectral edge around N/2),
    and its 0.0 adds exactly.  A 2D/3D slab is copied C-contiguous and
    summed as real and imaginary parts, squared, by ``einsum``, which calls
    no BLAS: OpenBLAS's complex dot runs slabs of more than about 4,000
    cells on a second thread, which then spins on the CPU that
    ``transform``'s split pass needs.  The copy makes the sum's order, and
    so its bits, the same whatever the slab's memory layout.
    """
    if parts[0].ndim == 1:
        lo, hi = (parts + [parts[0][:0]])[:2]
        return lambda: (vdot(lo, lo).real + vdot(hi, hi).real) * dV

    def total() -> float:
        s = 0.0
        for part in parts:
            r = np.ascontiguousarray(part).view(float).reshape(-1)
            s += np.einsum("i,i->", r, r)
        return float(s) * dV
    return total


def _kinetic_factor(grid: SpectralGrid, scale: float, out: np.ndarray) -> np.ndarray:
    """``np.exp(-1j * grid.k_squared * scale)`` written into ``out`` (a
    ``grid.shape`` array), bit for bit, without building ``k_squared``.

    k^2 depends on |m| per axis only, so the factor is taken on the
    ``(n/2 + 1)^dim`` table over |m| (summed in ``k_squared``'s order,
    ``((0 + kx^2) + ky^2) + kz^2``; a mode and its negative square to the
    same bits) and gathered with ``min(i, n - i)`` per axis.  The product
    keeps the association ``(-1j * k^2) * scale``, which makes the k = 0
    factor ``1 + 0j`` rather than ``1 - 0j``.  Returns ``out``.
    """
    half = grid.n // 2
    k2 = grid.axis_wavenumbers[:half + 1] ** 2
    table = np.zeros((half + 1,) * grid.dim)
    for ax in range(grid.dim):
        table = table + k2.reshape((-1,) + (1,) * (grid.dim - 1 - ax))
    i = np.arange(grid.n)
    out[...] = np.exp(-1j * table * scale)[np.ix_(*(np.minimum(i, grid.n - i),) * grid.dim)]
    return out


def evolve(wf: WaveFunction, tidal: TidalMatrix, scheme: StepScheme,
           cfg: EvolveConfig) -> MomentSeries:
    """Evolve ``wf`` for ``cfg.n_steps`` split steps of ``scheme`` under
    ``tidal`` and return its moments, recorded every ``cfg.record_every``
    steps.

    Inputs: ``wf`` is only read.  The step-budget guards
    (``check_kinetic_phase``, ``check_tidal_factor``) raise before any step.

    Records: row r holds the norm, mean position, mean velocity and position
    covariance of the state after step ``r * record_every``, stamped
    ``wf.t + dt * r * record_every``; row 0 is the initial state, and a full
    run has ``cfg.n_records`` rows.  Each row equals ``packets.moments`` of
    its state to the bit, and each state equals composing ``tidal_step``
    with the kinetic factor applied between ``grid.forward`` and
    ``grid.inverse`` up to roundoff.

    Aborts: BoundaryContact as soon as more than ``boundary_mass_tol``
    probability sits in the margin band (|x_i| >= L/2 - fraction L on any
    axis), checked on the initial state and after every step.  With
    ``spectral_mass_tol`` set, SpectralEdgeContact (a BoundaryContact) as
    soon as more than that sits in the spectral edge band (|k_i| >=
    0.9 k_max on any axis), checked every step.  The error carries the step
    index (0: the initial state) and, as ``partial``, the series of the rows
    recorded before that step.

    Series: ``t``, ``norm``, ``mean_x``, ``mean_v`` and ``cov`` by row; as
    ``final_state`` the state after the last step taken, stamped
    ``wf.t + dt * step`` (a view, not C-contiguous in 2D and 3D, whose
    observables equal a contiguous copy's to the bit); and ``diagnostics``:
    ``epsilon`` (``validate_tidal``), ``max_margin_mass`` (peak margin band
    probability over the states checked) and ``max_spectral_edge_mass``
    (peak edge band probability over the steps taken, None when the monitor
    is off).
    """
    scheme = StepScheme(scheme)
    grid, mass, dt = wf.grid, wf.mass, cfg.dt
    check_kinetic_phase(grid, mass, dt)
    epsilon = check_tidal_factor(grid, tidal, mass, dt)

    # each factor is built into its padded buffer: no unpadded copy stays alive
    kin, kin_inner = padded(grid.shape)
    _kinetic_factor(grid, dt / (4.0 * np.pi * mass), kin_inner)
    # strang: half kick, drift, half kick; lie: drift, full kick
    strang = scheme is StepScheme.STRANG
    tid, tid_inner = padded(grid.shape)
    np.multiply(1j, _tidal_phase_field(grid, tidal, mass, dt / 2.0 if strang else dt),
                out=tid_inner)
    np.exp(tid_inner, out=tid_inner)
    dV = grid.cell_volume

    # one row per record, allocated once; an abort keeps the rows taken so far
    every, n_rows = cfg.record_every, cfg.n_records
    t0 = wf.t
    t = t0 + dt * (every * np.arange(n_rows))
    norms = np.empty(n_rows)
    mean_x = np.empty((n_rows, grid.dim))
    mean_v = np.empty((n_rows, grid.dim))
    cov = np.empty((n_rows, grid.dim, grid.dim))

    # one state buffer per call, never reused: its view is handed out as the
    # final state.  Kicks, transforms and the kinetic factor act on it in
    # place (bit-identical to writing another buffer); the multiplies run
    # over whole padded buffers, whose pads stay zero, and the transforms,
    # monitors and records read the grid.shape view
    whole, state = padded(grid.shape)
    state[...] = wf.psi
    # records are snapshots stacked up to RECORD_STACK_BYTES, taken by one
    # moments call per full stack; a budget of one field records the state's view
    depth = min(n_rows, max(1, RECORD_STACK_BYTES // state.nbytes))
    snaps = state[None] if depth == 1 else np.empty((depth,) + grid.shape, dtype=state.dtype)
    # index-referenced transforms: the centre signs of grid.forward and
    # grid.inverse cancel around the diagonal kinetic factor (S^2 = 1), and
    # a +-1 multiply is exact, so the state is theirs to the bit
    forward, inverse = in_place(state)
    margin = _band_sum([state[slab] for slab in _band_slabs(
        grid, grid.axis_positions,
        grid.extent / 2.0 - cfg.boundary_margin_fraction * grid.extent)], dV)
    margin_tol, edge_tol = cfg.boundary_mass_tol, cfg.spectral_mass_tol
    edge = None
    if edge_tol is not None:
        edge = _band_sum([state[slab] for slab in _band_slabs(
            grid, grid.axis_wavenumbers, (1.0 - SPECTRAL_EDGE_FRACTION) * grid.k_max)], dV)

    def take(stop: int) -> None:
        """Moments of the pending snapshots, rows up to ``stop``, in one call."""
        start = (stop - 1) // depth * depth
        k = stop - start
        norms[start:stop], mean_x[start:stop], mean_v[start:stop], cov[start:stop] = (
            moments(grid, snaps[:k], mass))

    def record(row: int) -> None:
        """Snapshot the state as record ``row``; take a full stack."""
        slot = row % depth
        if depth > 1:
            snaps[slot] = state
        if slot == depth - 1:
            take(row + 1)

    def series(k: int, step: int, peak_margin: float,
               peak_edge: float | None) -> MomentSeries:
        """The first ``k`` records, with the state at ``step`` as final state;
        snapshots still pending are taken first."""
        if k % depth:
            take(k)
        return MomentSeries(
            t=t[:k], norm=norms[:k], mean_x=mean_x[:k], mean_v=mean_v[:k], cov=cov[:k],
            final_state=WaveFunction(grid=grid, psi=state, mass=mass, t=t0 + dt * step),
            diagnostics={"epsilon": epsilon, "max_margin_mass": peak_margin,
                         "max_spectral_edge_mass": peak_edge})

    def abort(kind: type, text: str, step: int, peak_margin: float,
              peak_edge: float | None) -> None:
        """Raise ``kind`` with the records taken before ``step``."""
        text = f"initial {text}" if step == 0 else f"{text} at step {step}"
        taken = 1 if step == 0 else (step - 1) // every + 1
        raise kind(step, text, partial=series(taken, step, peak_margin, peak_edge))

    record(0)
    peak_margin = margin()
    peak_edge = None if edge is None else 0.0
    if peak_margin > margin_tol:
        abort(BoundaryContact, f"margin mass {peak_margin:.3e} exceeds {margin_tol:.1e}",
              0, peak_margin, peak_edge)

    # every product keeps its operand order (numpy's complex multiply is not
    # bitwise commutative, and outputs are promised byte for byte) and passes
    # its output positionally, which skips numpy's keyword parsing
    for step in range(1, cfg.n_steps + 1):
        if strang:
            np.multiply(tid, whole, whole)
        forward()
        # the state holds the spectrum here; the kinetic factor is a pure
        # phase, so the edge band mass is the same on either side of it
        if edge:
            edge_mass = edge()
        np.multiply(kin, whole, whole)
        inverse()
        np.multiply(tid, whole, whole)
        margin_mass = margin()
        # each monitor keeps its peak in a local and aborts only when a peak
        # passes its tolerance: a mass past it is past every earlier one
        if margin_mass > peak_margin:
            peak_margin = margin_mass
            if margin_mass > margin_tol:
                abort(BoundaryContact,
                      f"margin mass {margin_mass:.3e} exceeds {margin_tol:.1e}",
                      step, peak_margin, peak_edge)
        if edge and edge_mass > peak_edge:
            peak_edge = edge_mass
            if edge_mass > edge_tol:
                abort(SpectralEdgeContact,
                      f"spectral edge mass {edge_mass:.3e} exceeds {edge_tol:.1e}",
                      step, peak_margin, peak_edge)
        if step % every == 0:
            record(step // every)

    return series(n_rows, cfg.n_steps, peak_margin, peak_edge)


def check_records(n: int) -> None:
    """Raise TooFewRecords unless ``n`` rows fill the acceleration stencil."""
    if n < 3:
        raise TooFewRecords(f"need at least 3 records, got {n}")


def acceleration_series(series: MomentSeries) -> np.ndarray:
    """d<v>/dt by centered differences; second-order one-sided at the ends."""
    check_records(series.n_records)
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
