"""Wave-packet states and their first/second-moment observables.

A state stores only the slow field psi; the rest-mass factor exp(-2 pi i mu t)
is a global phase that no observable reads, so it is left out of the
samples and step sizes are not tied to the Compton period.  The
momentum convention is p = k / (2 pi) throughout: a packet boosted to
velocity v carries the plane-wave factor exp(i 2 pi mu v . x) and the mean
velocity is the spectral centroid <k> / (2 pi mu).

Moment observables divide by the current norm, so they are well defined for
any finite field; constructed packets are normalized to 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AliasRisk,
    ConfigError,
    InitialMomentMismatch,
    PacketTooWide,
    VelocityTooHigh,
)
from .spectral import SpectralGrid, transform

TWO_PI = 2.0 * np.pi

MAX_SPEED = 0.05              # low-energy regime cap on |v0|
MOMENT_TOL = 1e-8             # constructed packets must hit x0, v0 this well
_RECENTER_TOL = 1e-13
_RECENTER_ITERS = 8

_KINDS = ("gaussian", "skewed_gaussian", "double_peak", "custom_table")

# the skew factor's erf; it is applied on a sparse axis-0 mesh, so n calls
_erf = np.vectorize(math.erf, otypes=[float])


@dataclass(frozen=True, eq=False)
class PacketShape:
    """Envelope family plus its numeric parameters.

    params layout by kind (sigma may be one value or one per axis):
      gaussian:        (sigma...,)
      skewed_gaussian: (sigma..., skew)
      double_peak:     (sigma..., half_separation)   peaks split along axis 0
      custom_table:    ()                            amplitudes from table_path
    """

    kind: str
    params: tuple[float, ...] = ()
    table_path: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown packet shape {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind == "custom_table":
            if not self.table_path:
                raise ConfigError("custom_table shape needs table_path")
            if self.params:
                raise ConfigError("custom_table shape takes no numeric params")
        elif not self.params:
            raise ConfigError(f"{self.kind} shape needs parameters")

    @classmethod
    def gaussian(cls, sigma) -> "PacketShape":
        return cls("gaussian", tuple(np.atleast_1d(sigma)))

    @classmethod
    def skewed_gaussian(cls, sigma, skew: float = 1.0) -> "PacketShape":
        return cls("skewed_gaussian", tuple(np.atleast_1d(sigma)) + (skew,))

    @classmethod
    def double_peak(cls, sigma, half_separation: float) -> "PacketShape":
        return cls("double_peak", tuple(np.atleast_1d(sigma)) + (half_separation,))

    @classmethod
    def from_table(cls, path: str) -> "PacketShape":
        return cls("custom_table", (), str(path))

    def sigmas(self, dim: int) -> np.ndarray | None:
        """Per-axis widths, or None for tabulated shapes."""
        if self.kind == "custom_table":
            return None
        core = self.params if self.kind == "gaussian" else self.params[:-1]
        if not core:
            tail = "skew" if self.kind == "skewed_gaussian" else "half separation"
            raise ConfigError(f"{self.kind} params are its widths and then a {tail}; "
                              "got one number and no width")
        sig = np.asarray(core, dtype=float)
        if sig.size == 1:
            sig = np.full(dim, sig[0])
        if sig.size != dim:
            raise ConfigError(f"{self.kind} needs 1 or {dim} widths, got {sig.size}")
        if np.any(sig <= 0):
            raise ConfigError("packet widths must be positive")
        return sig

    @property
    def tail_param(self) -> float:
        """Skew factor or half separation, depending on kind."""
        return self.params[-1]


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Slow field psi on a grid, with its mass and frame time."""

    grid: SpectralGrid
    psi: np.ndarray
    mass: float
    t: float = 0.0

    def __post_init__(self):
        psi = self.grid.check_field(self.psi)
        if not np.all(np.isfinite(psi.view(float))):
            raise ConfigError("wave function contains non-finite samples")
        if not self.mass > 0:
            raise ConfigError(f"mass must be positive, got {self.mass}")
        object.__setattr__(self, "psi", psi)


# --- envelope builders -----------------------------------------------------

def _envelope(grid: SpectralGrid, shape: PacketShape, center: np.ndarray) -> np.ndarray:
    # each exponent sum starts from its axis-0 term, a sparse array, so in
    # 3D only the last add is full-size
    sigma = shape.sigmas(grid.dim)

    def exponent(off: float) -> np.ndarray:
        terms = [((xm - center[ax] - (off if ax == 0 else 0.0)) / (2.0 * sigma[ax])) ** 2
                 for ax, xm in enumerate(grid.position_meshes)]
        expo = terms[0]
        for term in terms[1:]:
            expo = expo + term
        return expo

    if shape.kind == "double_peak":
        a = shape.tail_param
        return np.exp(-exponent(a)) + np.exp(-exponent(-a))
    env = np.exp(-exponent(0.0))
    if shape.kind == "skewed_gaussian":
        s = shape.tail_param
        u0 = (grid.position_meshes[0] - center[0]) / sigma[0]
        env = env * (1.0 + _erf(s * u0 / 2.0))
    return env


def _load_table(path: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        with warnings.catch_warnings():
            # an empty or blank-only file is reported below, as a ConfigError
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read amplitude table {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"amplitude table {path!r} has a row that is not "
                          f"'position,re,im' numbers: {exc}") from exc
    if rows.size == 0:
        raise ConfigError(f"amplitude table {path!r} has no data rows")
    if rows.shape[1] != 3:
        raise ConfigError(f"amplitude table must have rows 'position,re,im', got {rows.shape[1]} columns")
    return rows[:, 0], rows[:, 1] + 1j * rows[:, 2]


def _table_envelope(grid: SpectralGrid, positions: np.ndarray,
                    amplitudes: np.ndarray, shift: float) -> np.ndarray:
    # scatter each table row onto its nearest grid node (last row wins)
    psi = np.zeros(grid.n, dtype=complex)
    idx = np.rint((positions + shift + grid.extent / 2.0) / grid.dx).astype(int)
    keep = (idx >= 0) & (idx < grid.n)
    psi[idx[keep]] = amplitudes[keep]
    return psi


def _boost(grid: SpectralGrid, psi: np.ndarray, mass: float, v: np.ndarray) -> np.ndarray:
    """psi times the de Broglie plane wave exp(i 2 pi mass v . x)."""
    phase = np.zeros(grid.shape)
    for ax, xm in enumerate(grid.position_meshes):
        phase = phase + TWO_PI * mass * v[ax] * xm
    return psi * np.exp(1j * phase)


# --- construction ----------------------------------------------------------

def check_packet_preconditions(grid: SpectralGrid, shape: PacketShape, x0, v0,
                               mass: float) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """Support and wavenumber-budget guards, shared with config validation:
    ``x0`` and ``v0`` as flat float arrays, and a table's rows ``(positions,
    amplitudes)`` (a tabulated shape must be 1D, and is read here) or None."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    v0 = np.asarray(v0, dtype=float).reshape(-1)
    if x0.size != grid.dim or v0.size != grid.dim:
        raise ConfigError(f"x0 and v0 must have {grid.dim} components")
    if not mass > 0:
        raise ConfigError("mass must be positive")

    speed = float(np.linalg.norm(v0))
    if speed > MAX_SPEED:
        raise VelocityTooHigh(f"|v0|={speed:.3g} exceeds the low-energy cap {MAX_SPEED}")
    k0 = TWO_PI * mass * speed
    if k0 > grid.k_max / 2.0:
        raise VelocityTooHigh(f"boost wavenumber {k0:.3g} exceeds k_max/2 = {grid.k_max / 2:.3g}")

    L = grid.extent
    sigma = shape.sigmas(grid.dim)
    if sigma is None:
        if grid.dim != 1:
            raise ConfigError("custom_table packets are one-dimensional")
        return x0, v0, _load_table(shape.table_path)
    if np.any(sigma > L / 8.0):
        raise PacketTooWide(f"width {sigma.max():.3g} exceeds L/8 = {L / 8:.3g}")
    if np.max(np.abs(x0)) > L / 4.0:
        raise PacketTooWide(f"|x0| = {np.max(np.abs(x0)):.3g} exceeds L/4 = {L / 4:.3g}")
    if k0 + 4.0 / sigma.min() > grid.k_max:
        raise AliasRisk(
            f"k0 + 4/sigma = {k0 + 4.0 / sigma.min():.3g} exceeds k_max = {grid.k_max:.3g}")
    # the envelope is the same for a half separation and its negative
    if shape.kind == "double_peak" and 2.0 * abs(shape.tail_param) >= L / 4.0:
        raise PacketTooWide(f"peak separation {2 * abs(shape.tail_param):.3g} must stay below L/4")
    return x0, v0, None


def make_packet(grid: SpectralGrid, shape: PacketShape, x0, v0, mass: float) -> WaveFunction:
    """Build a normalized packet with mean position x0 and mean velocity v0.

    The envelope center is adjusted by fixed-point iteration until the grid
    mean lands on x0 (asymmetric envelopes and truncation shift it), then the
    de Broglie boost exp(i 2 pi mass v0 . x) is applied.  Moments are
    measured back and must match the targets to 1e-8.  A table's rows go to
    their nearest nodes, so a table of one row per node moves by whole cells
    only: x0 must be its grid mean plus a whole number of cells, or
    InitialMomentMismatch names the grid mean reached.  A denser table
    reaches some offsets between nodes, not all of them.
    """
    x0, v0, rows = check_packet_preconditions(grid, shape, x0, v0, mass)
    table = rows is not None

    def build(center: np.ndarray) -> np.ndarray:
        if table:
            return _table_envelope(grid, *rows, center[0])
        return _envelope(grid, shape, center)

    # a table is shifted from where it stands, an analytic envelope from x0
    center = np.zeros(1) if table else x0.copy()
    env = build(center)
    for _ in range(_RECENTER_ITERS):
        if table and not np.any(env):
            raise PacketTooWide("amplitude table leaves the grid empty")
        rho = np.abs(env) ** 2
        err = _centroid(grid.axis_positions, grid.dim, rho, rho.sum(), {}) - x0
        if np.max(np.abs(err)) < _RECENTER_TOL:
            break
        center -= err
        env = build(center)

    psi = env.astype(complex)
    if np.linalg.norm(v0) > 0:
        psi = _boost(grid, psi, mass, v0)
    # the norm, and the means checked below (scaling moves them by rounding)
    total, x, v, _ = _field_moments(grid, psi, mass)
    wf = WaveFunction(grid=grid, psi=np.divide(psi, math.sqrt(total), out=psi), mass=mass)

    if table:
        # one corrective boost: tables may carry an intrinsic phase gradient
        v_err = _field_moments(grid, wf.psi, mass)[2] - v0
        if np.max(np.abs(v_err)) > 1e-12:
            wf = replace(wf, psi=_boost(grid, wf.psi, mass, -v_err))
            _, x, v, _ = _field_moments(grid, wf.psi, mass)

    x_err = float(np.max(np.abs(x - x0)))
    v_err = float(np.max(np.abs(v - v0)))
    if x_err > MOMENT_TOL or v_err > MOMENT_TOL:
        causes = ([f"table rows land on their nearest nodes: grid mean {x[0]:.12g}, x0 {x0[0]:.12g}"]
                  if table and x_err > MOMENT_TOL else [])
        if v_err > MOMENT_TOL or not causes:
            causes.append("packet support too close to the domain edge or wavenumber cap")
        raise InitialMomentMismatch(f"constructed moments off target: |dx|={x_err:.3e}, "
                                    f"|dv|={v_err:.3e} ({'; '.join(causes)})")
    return wf


# --- observables -----------------------------------------------------------

def _marginal(weight: np.ndarray, dim: int, keep: tuple[int, ...], sums: dict) -> np.ndarray:
    """``weight`` summed over its trailing ``dim`` grid axes but ``keep``
    (ascending), each marginal summed once and held in ``sums``, from the one
    that also keeps the lowest axis it drops: one axis per sum, last first
    (sums over two axes at once let the peak RSS of 64^3 runs creep up)."""
    if len(keep) == dim:
        return weight
    if keep not in sums:
        drop = min(set(range(dim)).difference(keep))
        parent = tuple(sorted((*keep, drop)))
        sums[keep] = _marginal(weight, dim, parent, sums).sum(axis=parent.index(drop) - len(parent))
    return sums[keep]


def _centroid(values: np.ndarray, dim: int, weight: np.ndarray, total, sums: dict) -> np.ndarray:
    """Mean of each of ``dim`` axes with coordinates ``values`` under
    ``weight``, whose sum over the grid axes is ``total``: the weight's 1D
    marginal on that axis dotted with ``values``.

    ``weight`` is one field or a stack of them along a leading axis; the
    means come out as ``(dim,)`` or ``(k, dim)``.  In 1D the marginal is the
    weight itself, so the sum is the pairwise ``.sum()`` of one contiguous
    field.
    """
    return np.stack([(values * _marginal(weight, dim, (ax,), sums)).sum(axis=-1) / total
                     for ax in range(dim)], axis=-1)


def _covariance(values: np.ndarray, dim: int, rho: np.ndarray, total,
                mean: np.ndarray, sums: dict) -> np.ndarray:
    """Second central moments of one density or a stack of them, with the
    means of ``_centroid``; ``(dim, dim)`` or ``(k, dim, dim)``.  The
    diagonal comes from the 1D marginals of ``rho`` and the off-diagonal
    from the 2D marginal of each axis pair; in 1D ``rho`` is its own
    marginal."""
    cov = np.empty(mean.shape + (dim,))
    centered = [values - mean[..., ax, None] for ax in range(dim)]
    for i in range(dim):
        cov[..., i, i] = (centered[i] * centered[i]
                          * _marginal(rho, dim, (i,), sums)).sum(axis=-1) / total
        for j in range(i):
            # the (j, i) marginal holds axis j before axis i
            cij = (centered[i][..., None, :] * centered[j][..., :, None]
                   * _marginal(rho, dim, (j, i), sums)).sum(axis=(-2, -1)) / total
            cov[..., i, j] = cov[..., j, i] = cij
    return cov


def moments(grid: SpectralGrid, psi: np.ndarray, mass: float):
    """(norm, mean position, spectral mean velocity, covariance) of every
    field of a stack ``psi`` of shape ``(k, *grid.shape)``, as arrays of
    shape ``(k,)``, ``(k, dim)``, ``(k, dim)`` and ``(k, dim, dim)``.

    The one code that reduces a state for its moments; the public
    observables are its rows.  One density and one transform serve all
    four, whatever ``k``: one ``spectral.transform`` call over the stack,
    one full sum per density, and the means and covariance from the
    densities' marginals, each summed once (``_marginal``): in 3D three
    full-mesh sums of the density and two of its spectrum, in 2D two and
    two.  Every sum runs over the trailing grid axes of one field.  The
    index-referenced transform (bit for bit ``fftn`` per row) stands in
    for ``grid.forward``: the centre signs it omits drop out of |A|^2.
    """
    axes = tuple(range(-grid.dim, 0))
    rho = np.abs(psi)
    np.square(rho, out=rho)
    total = rho.sum(axis=axes)
    rho_sums = {}
    mean_x = _centroid(grid.axis_positions, grid.dim, rho, total, rho_sums)
    w = np.abs(transform(psi, dim=grid.dim))
    np.square(w, out=w)
    return (total * grid.cell_volume, mean_x,
            _centroid(grid.axis_wavenumbers, grid.dim, w, w.sum(axis=axes), {}) / (TWO_PI * mass),
            _covariance(grid.axis_positions, grid.dim, rho, total, mean_x, rho_sums))


def _field_moments(grid: SpectralGrid, psi: np.ndarray, mass: float) -> list:
    """``moments`` of the one field ``psi``: its row of each."""
    return [column[0] for column in moments(grid, psi[None], mass)]


def norm(wf: WaveFunction) -> float:
    """Total probability sum |psi|^2 dV."""
    return float(_field_moments(wf.grid, wf.psi, wf.mass)[0])


def mean_position(wf: WaveFunction) -> np.ndarray:
    return _field_moments(wf.grid, wf.psi, wf.mass)[1]


def mean_velocity_spectral(wf: WaveFunction) -> np.ndarray:
    """<k> / (2 pi mu) from the spectral density |A(k)|^2."""
    return _field_moments(wf.grid, wf.psi, wf.mass)[2]


def mean_velocity_realspace(wf: WaveFunction) -> np.ndarray:
    """Velocity-density route: integrate Im(psi* grad psi) / (2 pi mu).

    The gradient is spectral, so this must agree with the spectral centroid
    to rounding; the two routes cross-check each other.
    """
    grid = wf.grid
    spectrum = grid.forward(wf.psi)
    total = float((np.abs(wf.psi) ** 2).sum())
    out = np.empty(grid.dim)
    for ax, km in enumerate(grid.wavenumber_meshes):
        dpsi = grid.inverse(1j * km * spectrum)
        out[ax] = float(np.sum((np.conj(wf.psi) * dpsi).imag)) / total
    return out / (TWO_PI * wf.mass)


def covariance(wf: WaveFunction) -> np.ndarray:
    """Second central moments of |psi|^2; symmetric positive semidefinite."""
    return _field_moments(wf.grid, wf.psi, wf.mass)[3]
