"""Classical references for the linearized tidal equation x'' = -R x.

The flow is linear, so ``exact_flow`` gives it in closed form at any time
stamps through the eigendecomposition of R.  The fixed-step RK4 integrator
stays as an independent check of that closed form and of the flow's
conservation laws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import TidalMatrix
from .errors import ConfigError, SizeMismatch, StepTooLarge, TimestampMismatch, VelocityTooHigh

MAX_CLASSICAL_SPEED = 0.1


@dataclass(frozen=True, eq=False)
class ClassicalState:
    """Position/velocity pair in the local frame."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if x.shape != v.shape:
            raise SizeMismatch("x and v must have the same shape")
        speed = float(np.linalg.norm(v))
        if speed >= MAX_CLASSICAL_SPEED:
            raise VelocityTooHigh(f"|v|={speed:.3g} outside the low-energy regime")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)


@dataclass(eq=False)
class TrajectorySeries:
    """Time-stamped positions and velocities of one classical run."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray

    @property
    def positions(self) -> np.ndarray:
        return self.x

    def every(self, stride: int) -> "TrajectorySeries":
        return TrajectorySeries(self.t[::stride], self.x[::stride], self.v[::stride])


def rk4_integrate(state: ClassicalState, tidal: TidalMatrix, dt: float,
                  n_steps: int) -> TrajectorySeries:
    """Classic fourth-order Runge-Kutta on (x' = v, v' = -R x)."""
    if not dt > 0 or n_steps < 1:
        raise ConfigError("dt and n_steps must be positive")
    if dt * np.sqrt(tidal.max_abs()) >= 0.1:
        raise StepTooLarge(
            f"dt*sqrt(max|R|) = {dt * np.sqrt(tidal.max_abs()):.3g} must stay below 0.1")
    r = tidal.entries
    x, v = state.x.copy(), state.v.copy()
    xs = np.empty((n_steps + 1, x.size))
    vs = np.empty((n_steps + 1, v.size))
    xs[0], vs[0] = x, v
    for i in range(1, n_steps + 1):
        k1x, k1v = v, -(r @ x)
        k2x, k2v = v + 0.5 * dt * k1v, -(r @ (x + 0.5 * dt * k1x))
        k3x, k3v = v + 0.5 * dt * k2v, -(r @ (x + 0.5 * dt * k2x))
        k4x, k4v = v + dt * k3v, -(r @ (x + dt * k3x))
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        speed = float(np.linalg.norm(v))
        if speed >= MAX_CLASSICAL_SPEED:
            raise VelocityTooHigh(f"|v|={speed:.3g} left the low-energy regime at step {i}")
        xs[i], vs[i] = x, v
    return TrajectorySeries(t=dt * np.arange(n_steps + 1), x=xs, v=vs)


def exact_flow(x0, v0, tidal: TidalMatrix, t) -> TrajectorySeries:
    """Closed-form solution of x'' = -R x from (x0, v0) at t = 0, at stamps ``t``.

    In the eigenbasis R = Q diag(lam) Q^T each mode moves on its own:
    y(t) = y0 c(t) + u0 s(t) and u(t) = u0 c(t) - lam y0 s(t), with
    c = cos(w t), s = sin(w t)/w for lam = w^2 > 0; c = cosh(w t),
    s = sinh(w t)/w for lam = -w^2 < 0; and c = 1, s = t (drift) for lam = 0.
    Raises VelocityTooHigh where |v| leaves the low-energy regime.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    t = np.asarray(t, dtype=float).reshape(-1)
    lam, q = np.linalg.eigh(tidal.entries)
    y0, u0 = q.T @ x0, q.T @ v0
    c = np.ones((t.size, lam.size))
    s = np.repeat(t[:, None], lam.size, axis=1)
    for mode, value in enumerate(lam):
        w = np.sqrt(abs(value))
        if value > 0:
            c[:, mode], s[:, mode] = np.cos(w * t), np.sin(w * t) / w
        elif value < 0:
            c[:, mode], s[:, mode] = np.cosh(w * t), np.sinh(w * t) / w
    x = (y0 * c + u0 * s) @ q.T
    v = (u0 * c - lam * y0 * s) @ q.T
    speed = np.linalg.norm(v, axis=1)
    if np.any(speed >= MAX_CLASSICAL_SPEED):
        first = int(np.argmax(speed >= MAX_CLASSICAL_SPEED))
        raise VelocityTooHigh(
            f"|v|={speed[first]:.3g} left the low-energy regime at t={t[first]:.6g}")
    return TrajectorySeries(t=t, x=x, v=v)


def _check_stamps(series_a, series_b) -> None:
    """Raise TimestampMismatch unless both stamps ``t`` agree within 1e-9."""
    ta, tb = np.asarray(series_a.t), np.asarray(series_b.t)
    if ta.shape != tb.shape or np.max(np.abs(ta - tb), initial=0.0) > 1e-9:
        raise TimestampMismatch("series do not share time stamps")


def match_metric(series_a, series_b) -> float:
    """max over time of the Euclidean deviation between two position series.

    Both arguments just need ``t`` and ``positions``; quantum moment
    series and classical trajectories both qualify.
    """
    _check_stamps(series_a, series_b)
    xa = np.asarray(series_a.positions, dtype=float)
    xb = np.asarray(series_b.positions, dtype=float)
    if xa.shape != xb.shape:
        raise TimestampMismatch(f"position shapes differ: {xa.shape} vs {xb.shape}")
    return float(np.max(np.linalg.norm(xa - xb, axis=-1)))


def energy_like(series: TrajectorySeries, tidal: TidalMatrix) -> np.ndarray:
    """Conserved quantity of the exact flow: |v|^2/2 + x.R.x/2 per record."""
    kin = 0.5 * np.sum(series.v ** 2, axis=1)
    pot = 0.5 * np.einsum("ni,ij,nj->n", series.x, tidal.entries, series.x)
    return kin + pot

