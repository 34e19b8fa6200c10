"""Scripted experiments: universality sweeps, the single-step ripple check
and the convergence-order study.

Sweep and convergence members are independent runs of one runner,
``_evolve_members``.  They run one after another, in the order given, on
the calling thread, so the first member that fails stops the experiment
with its own error, the member's label prefixed to the message in place
(``mass=200:``, ``dt=0.4:``), and the members after it never run.  Each
evolves the runs of one block, the ones load guards (``ScenarioConfig.runs``):
the study its ``dt_list``, and the mass and shape sweeps, one body ``_wep``
under two label rules, their ``masses`` or ``shapes``.  Reports are plain
dataclasses with ``to_dict`` for JSON serialization and a ``passed``
verdict computed from their fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, repeat

import numpy as np

from .classical import _check_stamps, match_metric
from .config import ScenarioConfig
from .curvature import TidalMatrix
from .errors import (
    ConfigError,
    PhaseWrapRisk,
    SimulationError,
    TooFewPoints,
    TooFewVariants,
)
from .packets import TWO_PI, WaveFunction, moments
from .propagate import (
    MomentSeries,
    StepScheme,
    _tidal_phase_field,
    acceleration_series,
    check_records,
    check_tidal_factor,
    evolve,
)

RIPPLE_EDGE_PHASE_LIMIT = np.pi / 4.0
RIPPLE_PASS_TOL = 1e-8
DEFAULT_WEP_RTOL = 1e-8
DEFAULT_ORDER_BANDS = {StepScheme.STRANG: (1.8, 2.2), StepScheme.LIE: (0.8, 1.2)}


def _evolve_members(scenario: ScenarioConfig, block: str, labels, cfgs):
    """Build and evolve each run ``(mass, shape, dt)`` of the scenario's
    ``block`` in order, labelled ``labels[i]``, with the scenario's scheme
    and ``cfgs[i]``, its EvolveConfig at that dt, and yield its series,
    keeping none.  The first member that fails raises its own error, the
    label prefixed to it in place; the members after it are not built."""
    for label, cfg, (mass, shape, _) in zip(labels, cfgs, scenario.runs(block)):
        try:
            yield evolve(scenario.build_packet(mass, shape), scenario.tidal, scenario.scheme, cfg)
        except SimulationError as exc:
            exc.args = (f"{label}: {exc}",)
            raise


# --- reports ----------------------------------------------------------------

@dataclass(eq=False)
class RippleReport:
    """Single-step wave-vector shift against the imprint-gradient prediction."""

    predicted: np.ndarray
    measured: np.ndarray
    relative_error: float
    tolerance: float = RIPPLE_PASS_TOL

    @property
    def passed(self) -> bool:
        return bool(self.relative_error < self.tolerance)

    def to_dict(self) -> dict:
        return {
            "predicted_dk": [float(v) for v in self.predicted],
            "measured_dk": [float(v) for v in self.measured],
            "relative_error": float(self.relative_error),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
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

    @property
    def passed(self) -> bool:
        off = self.deviations[~np.eye(len(self.labels), dtype=bool)]
        return bool(np.all(off < self.threshold))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "labels": list(self.labels),
            "deviations": [[float(v) for v in row] for row in self.deviations],
            "eotvos": [[float(v) for v in row] for row in self.eotvos],
            "threshold": float(self.threshold),
            "amplitude": float(self.amplitude),
            "pass": self.passed,
        }


@dataclass(eq=False)
class ConvergenceReport:
    """Errors against the closed-form classical flow and the fitted order."""

    scheme: str
    dts: tuple[float, ...]
    errors: tuple[float, ...]
    order: float
    band: tuple[float, float]

    @property
    def passed(self) -> bool:
        return bool(self.band[0] <= self.order <= self.band[1])

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "dt": [float(v) for v in self.dts],
            "errors": [float(v) for v in self.errors],
            "fitted_order": float(self.order),
            "order_band": list(self.band),
            "pass": self.passed,
        }


# --- single-step checks ------------------------------------------------------

def ripple_check(wf: WaveFunction, tidal: TidalMatrix, dt: float) -> RippleReport:
    """Compare the spectral-centroid shift of one tidal step, kicked by the
    phase field built here once, with the prediction -2 pi mu R <x> dt.

    Refuses to run when that phase reaches pi/4 anywhere on the grid, since
    a wrapped phase would alias the read-out, before ``check_tidal_factor``.
    """
    phase = _tidal_phase_field(wf.grid, tidal, wf.mass, dt)
    edge_phase = float(np.max(np.abs(phase)))
    if edge_phase >= RIPPLE_EDGE_PHASE_LIMIT:
        raise PhaseWrapRisk(
            f"tidal phase {edge_phase:.3f} at the domain edge exceeds pi/4")
    check_tidal_factor(wf.grid, tidal, wf.mass, dt)
    _, x, v, _ = moments(wf.grid, np.stack((wf.psi, wf.psi * np.exp(1j * phase))), wf.mass)
    measured = v[1] * TWO_PI * wf.mass - v[0] * TWO_PI * wf.mass
    predicted = -TWO_PI * wf.mass * dt * tidal.apply(x[0])
    scale, mismatch, size = np.linalg.norm(
        np.stack((predicted, measured - predicted, measured)), axis=-1).tolist()
    # below the floor both sides are roundoff around zero (centered packet,
    # flat space): report 0 rather than a meaningless ratio
    floor = 1e-12
    if scale >= floor:
        rel = mismatch / scale
    elif size < floor:
        rel = 0.0
    else:
        rel = size / floor
    return RippleReport(predicted=predicted, measured=measured, relative_error=rel)


# --- universality sweeps -----------------------------------------------------

def _wep(scenario: ScenarioConfig, kind: str, block: str, labels,
         member_labels) -> WepReport:
    """Evolve the runs of the scenario's ``block``, a ``kind`` sweep, an
    error of member i labelled ``member_labels[i]``, and compare the
    recorded mean trajectories pairwise under ``labels``."""
    if len(scenario.runs(block)) < 2:
        raise TooFewVariants(f"{kind} sweep needs at least two {block}")
    check_records(scenario.evolve_cfg.n_records)
    runs = list(_evolve_members(scenario, block, member_labels, repeat(scenario.evolve_cfg)))
    deviations = np.zeros((len(runs), len(runs)))
    eotvos = np.zeros_like(deviations)
    for i, j in combinations(range(len(runs)), 2):
        deviations[i, j] = deviations[j, i] = match_metric(runs[i], runs[j])
        eotvos[i, j] = eotvos[j, i] = eotvos_ratio(runs[i], runs[j])
    amplitude = max(float(np.max(np.linalg.norm(r.mean_x, axis=-1))) for r in runs)
    return WepReport(kind=kind, labels=tuple(labels), deviations=deviations,
                     eotvos=eotvos, threshold=DEFAULT_WEP_RTOL * max(1.0, amplitude),
                     amplitude=amplitude)


def wep_mass_sweep(scenario: ScenarioConfig) -> WepReport:
    """Evolve the same packet and curvature for each of the scenario's
    ``masses`` and compare the recorded mean trajectories pairwise.

    Each member is labelled ``mass=<m>``, with ``m`` written ``:g`` when
    that reads back as ``m`` and in full otherwise, or ``mass[i]=<m>`` when
    two masses are equal, so no two members share a label.  Members run in
    the order given; the first that fails raises its error, labelled, and
    the masses after it are not evolved."""
    texts = [f"{m:g}" if float(f"{m:g}") == m else repr(m) for m in scenario.masses or ()]
    distinct = len(set(texts)) == len(texts)
    labels = [f"mass={text}" if distinct else f"mass[{i}]={text}"
              for i, text in enumerate(texts)]
    return _wep(scenario, "mass", "masses", labels, labels)


def wep_shape_sweep(scenario: ScenarioConfig) -> WepReport:
    """As the mass sweep, but over the scenario's ``shapes``: envelopes with
    matched first moments.

    The report labels each member with its kind, or with ``shape[i]=<kind>``
    when two kinds are equal, so no two members share a label.  Members run
    in the order given; the first that fails raises its error, labelled
    ``shape[i]=<kind>``, and the shapes after it are not built."""
    kinds = [shape.kind for shape in scenario.shapes or ()]
    indexed = [f"shape[{i}]={kind}" for i, kind in enumerate(kinds)]
    # make_packet holds the first moments to x0, v0 within MOMENT_TOL
    return _wep(scenario, "shape", "shapes",
                kinds if len(set(kinds)) == len(kinds) else indexed, indexed)


def eotvos_ratio(run_a: MomentSeries, run_b: MomentSeries) -> float:
    """Differential-acceleration ratio of two runs sharing time stamps.

    eta = 2 max_t |a_A - a_B| / max_t (|a_A| + |a_B|); zero by convention
    when both accelerations vanish (flat space).
    """
    _check_stamps(run_a, run_b)
    acc_a = acceleration_series(run_a)
    acc_b = acceleration_series(run_b)
    denom = float(np.max(np.linalg.norm(acc_a, axis=-1) + np.linalg.norm(acc_b, axis=-1)))
    if denom < 1e-15:
        return 0.0
    return 2.0 * float(np.max(np.linalg.norm(acc_a - acc_b, axis=-1))) / denom


# --- convergence -------------------------------------------------------------

def convergence_study(scenario: ScenarioConfig) -> ConvergenceReport:
    """Fit the observable-error order of the scenario's ``scheme`` against
    the step sizes of its ``dt_list``.

    Each run covers the scenario duration with its own dt and otherwise the
    scenario's evolve settings, monitors included; its error is the
    max-deviation from the closed-form classical flow at its own record
    stamps.  Every run's settings, its step count included, and then its
    classical reference are fixed before any run, so a reference that leaves
    the low-energy regime fails before any step; runs go in the order of
    ``dt_list``, one series held at a time; the pass band is ``order_band``,
    else the scheme's default band.  The dt-list guards run here too: a
    scenario built in Python skips the loader.
    """
    dts = tuple(float(dt) for _, _, dt in scenario.runs("dt_list"))
    if len(dts) < 3:
        raise TooFewPoints("convergence study needs at least three step sizes")
    if any(d <= 0 for d in dts):
        raise ConfigError(f"dt_list entries must be positive, got {list(dts)}")
    for a, b in zip(dts, dts[1:]):
        if abs(b / a - 0.5) > 1e-9:
            raise ConfigError(f"each dt must halve the previous one, got {a} -> {b}")
    duration = scenario.duration()

    def member_cfg(dt: float):
        n = round(duration / dt)
        if abs(n * dt - duration) > 1e-9:
            raise ConfigError(f"duration {duration} is not a multiple of dt={dt}")
        return replace(scenario.evolve_cfg, dt=dt, n_steps=n, record_every=1)

    labels, cfgs = map("dt={:g}".format, dts), [member_cfg(dt) for dt in dts]
    references = [scenario.reference(cfg) for cfg in cfgs]
    errors = tuple(map(match_metric, _evolve_members(scenario, "dt_list", labels, cfgs),
                       references))
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    return ConvergenceReport(scheme=scenario.scheme.value, dts=dts, errors=errors, order=slope,
                             band=scenario.order_band or DEFAULT_ORDER_BANDS[scenario.scheme])
