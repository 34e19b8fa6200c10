"""Scripted experiments: universality sweeps, single-step phase checks,
and the convergence-order study.

Sweep members are independent runs.  They run one after another, in the
order given, on the calling thread, so the first member that fails stops
the sweep and the members after it never run.  Reports are plain
dataclasses with ``to_dict`` for JSON serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .classical import exact_flow, match_metric
from .config import ScenarioConfig
from .curvature import TidalMatrix
from .errors import (
    BoundaryContact,
    ConfigError,
    InitialMomentMismatch,
    NotAdjacent,
    PhaseWrapRisk,
    SimulationError,
    TimestampMismatch,
    TooFewPoints,
    TooFewVariants,
)
from .packets import (
    TWO_PI,
    PacketShape,
    WaveFunction,
    mean_position,
    mean_velocity_spectral,
)
from .propagate import (
    MomentSeries,
    StepScheme,
    acceleration_series,
    evolve,
    quadratic_form_grid,
    tidal_step,
)

RIPPLE_EDGE_PHASE_LIMIT = np.pi / 4.0
DEFAULT_WEP_RTOL = 1e-8


def _annotate(exc: SimulationError, label: str) -> SimulationError:
    """The same error, class and payload kept, with the member label prefixed."""
    if isinstance(exc, BoundaryContact):
        return type(exc)(exc.step_index, f"{label}: {exc}", partial=exc.partial)
    return type(exc)(f"{label}: {exc}")


# --- reports ----------------------------------------------------------------

@dataclass(eq=False)
class RippleReport:
    """Single-step wave-vector shift against the imprint-gradient prediction."""

    predicted: np.ndarray
    measured: np.ndarray
    relative_error: float

    def to_dict(self) -> dict:
        return {
            "predicted_dk": [float(v) for v in self.predicted],
            "measured_dk": [float(v) for v in self.measured],
            "relative_error": float(self.relative_error),
        }


@dataclass(eq=False)
class WepReport:
    """Pairwise trajectory deviations and differential-acceleration ratios."""

    kind: str
    labels: tuple[str, ...]
    deviations: np.ndarray
    eotvos: np.ndarray
    threshold: float
    amplitude: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "labels": list(self.labels),
            "deviations": [[float(v) for v in row] for row in self.deviations],
            "eotvos": [[float(v) for v in row] for row in self.eotvos],
            "threshold": float(self.threshold),
            "amplitude": float(self.amplitude),
            "pass": bool(self.passed),
        }


@dataclass(eq=False)
class ConvergenceReport:
    """Errors against the closed-form classical flow and the fitted order."""

    scheme: str
    dts: tuple[float, ...]
    errors: tuple[float, ...]
    order: float

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "dt": [float(v) for v in self.dts],
            "errors": [float(v) for v in self.errors],
            "fitted_order": float(self.order),
        }


# --- single-step checks ------------------------------------------------------

def ripple_check(wf: WaveFunction, tidal: TidalMatrix, dt: float) -> RippleReport:
    """Compare the measured spectral-centroid shift of one tidal step with
    the prediction -2 pi mu R <x> dt.

    Refuses to run when the imprinted phase reaches pi/4 anywhere on the
    grid, since a wrapped phase would alias the centroid read-out.
    """
    edge_phase = np.pi * wf.mass * dt * float(np.max(np.abs(quadratic_form_grid(wf.grid, tidal))))
    if edge_phase >= RIPPLE_EDGE_PHASE_LIMIT:
        raise PhaseWrapRisk(
            f"tidal phase {edge_phase:.3f} at the domain edge exceeds pi/4")
    x_pre = mean_position(wf)
    k_pre = mean_velocity_spectral(wf) * TWO_PI * wf.mass
    stepped = tidal_step(wf, tidal, dt)
    k_post = mean_velocity_spectral(stepped) * TWO_PI * wf.mass
    measured = k_post - k_pre
    predicted = -TWO_PI * wf.mass * dt * tidal.apply(x_pre)
    scale = float(np.linalg.norm(predicted))
    mismatch = float(np.linalg.norm(measured - predicted))
    # below the floor both sides are roundoff around zero (centered packet,
    # flat space): report 0 rather than a meaningless ratio
    floor = 1e-12
    if scale >= floor:
        rel = mismatch / scale
    elif float(np.linalg.norm(measured)) < floor:
        rel = 0.0
    else:
        rel = float(np.linalg.norm(measured)) / floor
    return RippleReport(predicted=predicted, measured=measured, relative_error=rel)


def phase_difference_check(wf: WaveFunction, tidal: TidalMatrix, dt: float,
                           x_a, x_b) -> tuple[float, float]:
    """(measured, predicted) phase difference of the tidal factor between two
    adjacent grid nodes; the prediction uses the midpoint rule."""
    grid = wf.grid
    idx = []
    for name, point in (("x_a", x_a), ("x_b", x_b)):
        p = np.asarray(point, dtype=float).reshape(-1)
        if p.size != grid.dim:
            raise NotAdjacent(f"{name} must have {grid.dim} components")
        node = (p + grid.extent / 2.0) / grid.dx
        rounded = np.rint(node)
        if np.max(np.abs(node - rounded)) > 1e-9 or np.any(rounded < 0) or np.any(rounded >= grid.n):
            raise NotAdjacent(f"{name} is not a grid node")
        idx.append(rounded.astype(int))
    if int(np.abs(idx[1] - idx[0]).sum()) > 1:
        raise NotAdjacent("points are not adjacent grid nodes")

    xa = -grid.extent / 2.0 + idx[0] * grid.dx
    xb = -grid.extent / 2.0 + idx[1] * grid.dx
    factor_a = np.exp(-1j * np.pi * wf.mass * dt * tidal.quadratic_form(xa))
    factor_b = np.exp(-1j * np.pi * wf.mass * dt * tidal.quadratic_form(xb))
    measured = float(np.angle(factor_b * np.conj(factor_a)))
    mid = (xa + xb) / 2.0
    predicted = float(-TWO_PI * wf.mass * dt * (mid @ tidal.entries @ (xb - xa)))
    return measured, predicted


# --- universality sweeps -----------------------------------------------------

def _pairwise_report(kind: str, labels, runs: list[MomentSeries],
                     threshold: float | None) -> WepReport:
    n = len(runs)
    deviations = np.zeros((n, n))
    eotvos = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            deviations[i, j] = deviations[j, i] = match_metric(runs[i], runs[j])
            eotvos[i, j] = eotvos[j, i] = eotvos_ratio(runs[i], runs[j])
    amplitude = max(float(np.max(np.linalg.norm(r.mean_x, axis=1))) for r in runs)
    if threshold is None:
        threshold = DEFAULT_WEP_RTOL * max(1.0, amplitude)
    off = deviations[~np.eye(n, dtype=bool)]
    passed = bool(np.all(off < threshold))
    return WepReport(kind=kind, labels=tuple(labels), deviations=deviations,
                     eotvos=eotvos, threshold=threshold, amplitude=amplitude,
                     passed=passed)


def wep_mass_sweep(scenario: ScenarioConfig, masses=None,
                   threshold: float | None = None) -> WepReport:
    """Evolve the same packet and curvature for several masses and compare
    the recorded mean trajectories pairwise.

    Members run in the order given; the first that fails raises its error,
    labelled with its mass, and the masses after it are not evolved."""
    masses = tuple(masses if masses is not None else (scenario.masses or ()))
    if len(masses) < 2:
        raise TooFewVariants("mass sweep needs at least two masses")

    def member(mass: float) -> MomentSeries:
        try:
            wf = scenario.build_packet(mass=mass)
            return evolve(wf, scenario.tidal, scenario.scheme, scenario.evolve_cfg)
        except SimulationError as exc:
            raise _annotate(exc, f"mass={mass:g}") from exc

    runs = [member(mass) for mass in masses]
    labels = [f"mass={m:g}" for m in masses]
    return _pairwise_report("mass", labels, runs, threshold)


def wep_shape_sweep(scenario: ScenarioConfig, shapes=None,
                    threshold: float | None = None) -> WepReport:
    """As the mass sweep, but varying the envelope with matched first moments.

    Members run in the order given; the first that fails raises its error,
    labelled with its index and kind, and the shapes after it are not
    built."""
    shapes = tuple(shapes if shapes is not None else (scenario.shapes or ()))
    if len(shapes) < 2:
        raise TooFewVariants("shape sweep needs at least two shapes")

    x0 = np.asarray(scenario.x0)
    v0 = np.asarray(scenario.v0)

    def member(item: tuple[int, PacketShape]) -> MomentSeries:
        i, shape = item
        label = f"shape[{i}]={shape.kind}"
        try:
            wf = scenario.build_packet(shape=shape)
            x_err = float(np.max(np.abs(mean_position(wf) - x0)))
            v_err = float(np.max(np.abs(mean_velocity_spectral(wf) - v0)))
            if x_err > 1e-6 or v_err > 1e-6:
                raise InitialMomentMismatch(
                    f"initial moments differ from target by |dx|={x_err:.2e}, |dv|={v_err:.2e}")
            return evolve(wf, scenario.tidal, scenario.scheme, scenario.evolve_cfg)
        except SimulationError as exc:
            raise _annotate(exc, label) from exc

    runs = [member(item) for item in enumerate(shapes)]
    labels = [s.kind for s in shapes]
    return _pairwise_report("shape", labels, runs, threshold)


def eotvos_ratio(run_a: MomentSeries, run_b: MomentSeries) -> float:
    """Differential-acceleration ratio of two runs sharing time stamps.

    eta = 2 max_t |a_A - a_B| / max_t (|a_A| + |a_B|); zero by convention
    when both accelerations vanish (flat space).
    """
    ta, tb = run_a.t, run_b.t
    if ta.shape != tb.shape or np.max(np.abs(ta - tb), initial=0.0) > 1e-9:
        raise TimestampMismatch("runs do not share time stamps")
    acc_a = acceleration_series(run_a)
    acc_b = acceleration_series(run_b)
    denom = float(np.max(np.linalg.norm(acc_a, axis=1) + np.linalg.norm(acc_b, axis=1)))
    if denom < 1e-15:
        return 0.0
    return 2.0 * float(np.max(np.linalg.norm(acc_a - acc_b, axis=1))) / denom


# --- convergence -------------------------------------------------------------

def convergence_study(scenario: ScenarioConfig, dt_list=None,
                      scheme: StepScheme | None = None) -> ConvergenceReport:
    """Fit the observable-error order of the splitting against step size.

    Each run covers the scenario duration with its own dt and otherwise the
    scenario's evolve settings, monitors included; its error is the
    max-deviation from the closed-form classical flow at its own record
    stamps.  Runs go in the order of ``dt_list``.
    """
    dts = tuple(float(d) for d in (dt_list if dt_list is not None else (scenario.dt_list or ())))
    if len(dts) < 3:
        raise TooFewPoints("convergence study needs at least three step sizes")
    for a, b in zip(dts, dts[1:]):
        if abs(b / a - 0.5) > 1e-9:
            raise ConfigError(f"each dt must halve the previous one, got {a} -> {b}")
    scheme = StepScheme(scheme if scheme is not None else scenario.scheme)
    duration = scenario.duration()

    def member(dt: float) -> float:
        n = round(duration / dt)
        if abs(n * dt - duration) > 1e-9:
            raise ConfigError(f"duration {duration} is not a multiple of dt={dt}")
        run_cfg = replace(scenario.evolve_cfg, dt=dt, n_steps=n, record_every=1)
        wf = scenario.build_packet()
        series = evolve(wf, scenario.tidal, scheme, run_cfg)
        return match_metric(series, exact_flow(scenario.x0, scenario.v0, scenario.tidal,
                                               series.t))

    errors = [member(dt) for dt in dts]
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    return ConvergenceReport(scheme=scheme.value, dts=dts,
                             errors=tuple(errors), order=slope)
