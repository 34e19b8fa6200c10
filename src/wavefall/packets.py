"""Wave-packet states and their first/second-moment observables.

A state stores only the slow field psi; the rest-mass factor exp(-2 pi i mu t)
is carried analytically (``WaveFunction.rest_phase``) and never multiplied
into the samples, so step sizes are not tied to the Compton period.  The
momentum convention is p = k / (2 pi) throughout: a packet boosted to
velocity v carries the plane-wave factor exp(i 2 pi mu v . x) and the mean
velocity is the spectral centroid <k> / (2 pi mu).

Moment observables divide by the current norm, so they are well defined for
any finite field; constructed packets are normalized to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf

from .errors import (
    AliasRisk,
    ConfigError,
    InitialMomentMismatch,
    PacketTooWide,
    VelocityTooHigh,
)
from .spectral import SpectralGrid

TWO_PI = 2.0 * np.pi

MAX_SPEED = 0.05              # low-energy regime cap on |v0|
MOMENT_TOL = 1e-8             # constructed packets must hit x0, v0 this well
_RECENTER_TOL = 1e-13
_RECENTER_ITERS = 8

_KINDS = ("gaussian", "skewed_gaussian", "double_peak", "custom_table")


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
    """Slow field psi on a grid plus analytically tracked rest-mass phase."""

    grid: SpectralGrid
    psi: np.ndarray
    mass: float
    t: float = 0.0

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        if psi.shape != self.grid.shape:
            raise ConfigError(f"field shape {psi.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(psi.view(float))):
            raise ConfigError("wave function contains non-finite samples")
        if not self.mass > 0:
            raise ConfigError(f"mass must be positive, got {self.mass}")
        object.__setattr__(self, "psi", psi)

    def rest_phase(self) -> complex:
        """The factored-out global factor exp(-2 pi i mu t)."""
        return complex(np.exp(-1j * TWO_PI * self.mass * self.t))

    def full_field(self) -> np.ndarray:
        """Reconstruct the full (fast) field; diagnostics only."""
        return self.rest_phase() * self.psi


# --- envelope builders -----------------------------------------------------

def _envelope(grid: SpectralGrid, shape: PacketShape, center: np.ndarray) -> np.ndarray:
    sigma = shape.sigmas(grid.dim)
    if shape.kind == "double_peak":
        a = shape.tail_param
        expo_p = np.zeros(grid.shape)
        expo_m = np.zeros(grid.shape)
        for ax, xm in enumerate(grid.position_meshes):
            off = a if ax == 0 else 0.0
            expo_p = expo_p + ((xm - center[ax] - off) / (2.0 * sigma[ax])) ** 2
            expo_m = expo_m + ((xm - center[ax] + off) / (2.0 * sigma[ax])) ** 2
        return np.exp(-expo_p) + np.exp(-expo_m)
    expo = np.zeros(grid.shape)
    for ax, xm in enumerate(grid.position_meshes):
        expo = expo + ((xm - center[ax]) / (2.0 * sigma[ax])) ** 2
    env = np.exp(-expo)
    if shape.kind == "skewed_gaussian":
        s = shape.tail_param
        u0 = (grid.position_meshes[0] - center[0]) / sigma[0]
        env = env * (1.0 + erf(s * u0 / 2.0))
    return env


def _load_table(path: str) -> tuple[np.ndarray, np.ndarray]:
    rows = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
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


def _raw_moments(grid: SpectralGrid, field: np.ndarray) -> np.ndarray:
    rho = np.abs(field) ** 2
    total = rho.sum()
    return np.array([(xm * rho).sum() / total for xm in grid.position_meshes])


# --- construction ----------------------------------------------------------

def check_packet_preconditions(grid: SpectralGrid, shape: PacketShape,
                               x0, v0, mass: float) -> None:
    """Support and wavenumber-budget guards, shared with config validation."""
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
    if sigma is not None:
        if np.any(sigma > L / 8.0):
            raise PacketTooWide(f"width {sigma.max():.3g} exceeds L/8 = {L / 8:.3g}")
        if np.max(np.abs(x0)) > L / 4.0:
            raise PacketTooWide(f"|x0| = {np.max(np.abs(x0)):.3g} exceeds L/4 = {L / 4:.3g}")
        if k0 + 4.0 / sigma.min() > grid.k_max:
            raise AliasRisk(
                f"k0 + 4/sigma = {k0 + 4.0 / sigma.min():.3g} exceeds k_max = {grid.k_max:.3g}")
        if shape.kind == "double_peak" and 2.0 * shape.tail_param >= L / 4.0:
            raise PacketTooWide(f"peak separation {2 * shape.tail_param:.3g} must stay below L/4")


def make_packet(grid: SpectralGrid, shape: PacketShape, x0, v0, mass: float) -> WaveFunction:
    """Build a normalized packet with mean position x0 and mean velocity v0.

    The envelope center is adjusted by fixed-point iteration until the grid
    mean lands on x0 (asymmetric envelopes and truncation shift it), then the
    de Broglie boost exp(i 2 pi mass v0 . x) is applied.  Moments are
    measured back and must match the targets to 1e-8.
    """
    check_packet_preconditions(grid, shape, x0, v0, mass)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    v0 = np.asarray(v0, dtype=float).reshape(-1)
    speed = float(np.linalg.norm(v0))

    if shape.kind == "custom_table":
        if grid.dim != 1:
            raise ConfigError("custom_table packets are one-dimensional")
        positions, amplitudes = _load_table(shape.table_path)
        shift = 0.0
        env = _table_envelope(grid, positions, amplitudes, shift)
        for _ in range(_RECENTER_ITERS):
            if not np.any(env):
                raise PacketTooWide("amplitude table leaves the grid empty")
            err = _raw_moments(grid, env) - x0
            if np.max(np.abs(err)) < _RECENTER_TOL:
                break
            shift -= err[0]
            env = _table_envelope(grid, positions, amplitudes, shift)
    else:
        center = x0.copy()
        env = _envelope(grid, shape, center)
        for _ in range(_RECENTER_ITERS):
            err = _raw_moments(grid, env) - x0
            if np.max(np.abs(err)) < _RECENTER_TOL:
                break
            center -= err
            env = _envelope(grid, shape, center)

    psi = env.astype(complex)
    if speed > 0:
        phase = np.zeros(grid.shape)
        for ax, xm in enumerate(grid.position_meshes):
            phase = phase + TWO_PI * mass * v0[ax] * xm
        psi = psi * np.exp(1j * phase)
    psi = psi / math.sqrt(float((np.abs(psi) ** 2).sum()) * grid.cell_volume)

    wf = WaveFunction(grid=grid, psi=psi, mass=mass)

    if shape.kind == "custom_table":
        # one corrective boost: tables may carry an intrinsic phase gradient
        v_err = mean_velocity_spectral(wf) - v0
        if np.max(np.abs(v_err)) > 1e-12:
            phase = np.zeros(grid.shape)
            for ax, xm in enumerate(grid.position_meshes):
                phase = phase - TWO_PI * mass * v_err[ax] * xm
            wf = replace(wf, psi=wf.psi * np.exp(1j * phase))

    x_err = float(np.max(np.abs(mean_position(wf) - x0)))
    v_err = float(np.max(np.abs(mean_velocity_spectral(wf) - v0)))
    if x_err > MOMENT_TOL or v_err > MOMENT_TOL:
        raise InitialMomentMismatch(
            f"constructed moments off target: |dx|={x_err:.3e}, |dv|={v_err:.3e} "
            f"(packet support too close to the domain edge or wavenumber cap)")
    return wf


# --- observables -----------------------------------------------------------

def norm(wf: WaveFunction) -> float:
    """Total probability sum |psi|^2 dV."""
    return float((np.abs(wf.psi) ** 2).sum()) * wf.grid.cell_volume


def mean_position(wf: WaveFunction) -> np.ndarray:
    rho = np.abs(wf.psi) ** 2
    total = rho.sum()
    return np.array([(xm * rho).sum() / total for xm in wf.grid.position_meshes])


def mean_velocity_spectral(wf: WaveFunction) -> np.ndarray:
    """<k> / (2 pi mu) from the spectral density |A(k)|^2."""
    w = np.abs(wf.grid.forward(wf.psi)) ** 2
    total = w.sum()
    centroid = np.array([(km * w).sum() / total for km in wf.grid.wavenumber_meshes])
    return centroid / (TWO_PI * wf.mass)


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
    grid = wf.grid
    rho = np.abs(wf.psi) ** 2
    total = rho.sum()
    mean = mean_position(wf)
    cov = np.empty((grid.dim, grid.dim))
    centered = [xm - mean[ax] for ax, xm in enumerate(grid.position_meshes)]
    for i in range(grid.dim):
        for j in range(i + 1):
            cij = float((centered[i] * centered[j] * rho).sum()) / total
            cov[i, j] = cov[j, i] = cij
    return cov
