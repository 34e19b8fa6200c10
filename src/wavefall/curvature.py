"""Curvature data of a local free-falling frame and its clock rates.

Everything is expressed in geometric units (c = G = 1): times and lengths
share one unit and curvature components carry 1/length^2.  The electric
components R_{0i0j} form a symmetric d x d matrix which is the sole dynamical
input of the propagator.  ``RiemannComponents`` holds a full four-index
tensor and checks its symmetries.  ``validate_tidal`` is the weak-field
check: it returns the scale epsilon = max|R| L^2, or raises
``OutsideValidity`` when epsilon reaches the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricInput,
    OutsideValidity,
    SymmetryViolation,
    TraceNotZero,
)

SYMMETRY_TOL = 1e-14
VACUUM_TRACE_TOL = 1e-12
RIEMANN_TOL = 1e-12
DEFAULT_VALIDITY_THRESHOLD = 0.1


@dataclass(frozen=True, eq=False)
class TidalMatrix:
    """Symmetric electric curvature block R_{0i0j}, units 1/length^2."""

    entries: np.ndarray
    vacuum: bool = False

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise AsymmetricInput(f"tidal matrix must be square, got shape {a.shape}")
        if a.shape[0] not in (1, 2, 3):
            raise AsymmetricInput(f"tidal matrix dimension must be 1, 2 or 3, got {a.shape[0]}")
        if not np.all(np.isfinite(a)):
            raise AsymmetricInput("tidal matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(a))))
        skew = float(np.max(np.abs(a - a.T)))
        if skew > SYMMETRY_TOL * scale:
            raise AsymmetricInput(f"tidal matrix asymmetry {skew:.3e} exceeds tolerance")
        sym = (a + a.T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(self, "entries", sym)
        if self.vacuum:
            trace = float(np.trace(sym))
            if abs(trace) > VACUUM_TRACE_TOL * max(1.0, float(np.max(np.abs(sym)))):
                raise TraceNotZero(f"vacuum tidal matrix has trace {trace:.3e}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries)))

    def apply(self, x) -> np.ndarray:
        """R . x"""
        return self.entries @ np.asarray(x, dtype=float)

    def quadratic_form(self, x) -> float:
        """x . R . x"""
        x = np.asarray(x, dtype=float)
        return float(x @ self.entries @ x)

    @classmethod
    def zero(cls, dim: int) -> "TidalMatrix":
        return cls(np.zeros((dim, dim)))


def _riemann_violation(entries: np.ndarray) -> str | None:
    r = entries
    checks = (
        ("antisymmetry in first pair", r + np.transpose(r, (1, 0, 2, 3))),
        ("antisymmetry in second pair", r + np.transpose(r, (0, 1, 3, 2))),
        ("pair-exchange symmetry", r - np.transpose(r, (2, 3, 0, 1))),
        ("first Bianchi identity",
         r + np.transpose(r, (0, 2, 3, 1)) + np.transpose(r, (0, 3, 1, 2))),
    )
    for name, defect in checks:
        worst = float(np.max(np.abs(defect)))
        if worst > RIEMANN_TOL:
            return f"{name} violated by {worst:.3e}"
    return None


@dataclass(frozen=True, eq=False)
class RiemannComponents:
    """Full R_{mu nu lambda rho}, indices 0..3, units 1/length^2."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.shape != (4, 4, 4, 4):
            raise SymmetryViolation(f"expected shape (4,4,4,4), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise SymmetryViolation("curvature entries must be finite")
        problem = _riemann_violation(a)
        if problem is not None:
            raise SymmetryViolation(problem)
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @classmethod
    def zero(cls) -> "RiemannComponents":
        return cls(np.zeros((4, 4, 4, 4)))


def validate_tidal(tidal: TidalMatrix, domain_extent: float) -> float:
    """Weak-field check for a domain of the given linear extent.

    Returns ``epsilon = max|R_ij| * domain_extent**2``, the squared ratio of
    domain size to curvature radius, when it is below
    ``DEFAULT_VALIDITY_THRESHOLD``, as the first-order clock rate needs;
    raises ``OutsideValidity`` otherwise.
    """
    if domain_extent <= 0:
        raise ValueError("domain_extent must be positive")
    epsilon = tidal.max_abs() * float(domain_extent) ** 2
    if not epsilon < DEFAULT_VALIDITY_THRESHOLD:
        raise OutsideValidity(f"epsilon={epsilon:.3e} exceeds weak-field threshold "
                              f"{DEFAULT_VALIDITY_THRESHOLD:g}")
    return epsilon


def proper_time_rate(x, tidal: TidalMatrix) -> float:
    """Exact clock rate sqrt(1 + x.R.x) at a point of the frame."""
    u = tidal.quadratic_form(x)
    if 1.0 + u <= 0.0:
        raise OutsideValidity(f"1 + x.R.x = {1.0 + u:.3e} is not positive")
    return float(np.sqrt(1.0 + u))


def first_order_rate(x, tidal: TidalMatrix) -> float:
    """Truncated clock rate 1 + x.R.x / 2 (what the propagator imprints)."""
    return 1.0 + 0.5 * tidal.quadratic_form(x)
