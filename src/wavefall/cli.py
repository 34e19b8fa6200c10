"""Command-line interface.

    wavefall run      --config scenario.json --out series.csv
    wavefall wep      --config sweep.json    --out report.json
    wavefall ripple   --config scenario.json --out report.json
    wavefall converge --config study.json    --out report.json

Exit codes: 0 success/pass, 1 ran-but-failed (a pass/fail command whose
check came out negative), 2 validation error, 3 runtime abort (a monitor
tripped: BoundaryContact for mass in the position margin band, or
SpectralEdgeContact for mass at the Nyquist edge when
``evolve.spectral_mass_tol`` is set; ``run`` flushes the partial CSV with a
trailing ``# aborted: <error class>: ...`` line).
Every output embeds the fully resolved config for reproducibility.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .classical import exact_flow
from .config import DEFAULT_ORDER_BANDS, ScenarioConfig, load_scenario
from .errors import BoundaryContact, SimulationError
from .experiments import (
    convergence_study,
    ripple_check,
    wep_mass_sweep,
    wep_shape_sweep,
)
from .propagate import MomentSeries, evolve

RIPPLE_PASS_TOL = 1e-8


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_series_csv(path: str, scenario: ScenarioConfig, series: MomentSeries,
                      classical_x: np.ndarray, aborted: str | None = None) -> None:
    d = scenario.grid.dim
    cols = (["t", "norm"]
            + [f"mx{i + 1}" for i in range(d)]
            + [f"mv{i + 1}" for i in range(d)]
            + [f"cov{i + 1}{j + 1}" for i in range(d) for j in range(d)]
            + [f"clx{i + 1}" for i in range(d)]
            + ["dev"])
    lines = ["# config: " + json.dumps(scenario.resolved(), sort_keys=True),
             ",".join(cols)]
    for r in range(series.n_records):
        dev = float(np.linalg.norm(series.mean_x[r] - classical_x[r]))
        row = ([series.t[r], series.norm[r]]
               + list(series.mean_x[r]) + list(series.mean_v[r])
               + list(series.cov[r].reshape(-1))
               + list(classical_x[r]) + [dev])
        lines.append(",".join(_fmt(v) for v in row))
    if aborted:
        lines.append(f"# aborted: {aborted}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_report_json(path: str, scenario: ScenarioConfig, report: dict) -> None:
    doc = {"config": scenario.resolved(), "report": report}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _classical_reference(scenario: ScenarioConfig, series: MomentSeries) -> np.ndarray:
    """Closed-form classical positions at the recorded stamps."""
    return exact_flow(scenario.x0, scenario.v0, scenario.tidal, series.t).x


def cmd_run(scenario: ScenarioConfig, out: str) -> int:
    try:
        wf = scenario.build_packet()
    except SimulationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        series = evolve(wf, scenario.tidal, scenario.scheme, scenario.evolve_cfg)
    except BoundaryContact as exc:
        partial = exc.partial
        classical_x = _classical_reference(scenario, partial)
        aborted = f"{type(exc).__name__}: {exc}"
        _write_series_csv(out, scenario, partial, classical_x, aborted=aborted)
        print(aborted, file=sys.stderr)
        return 3
    _write_series_csv(out, scenario, series, _classical_reference(scenario, series))
    return 0


def cmd_wep(scenario: ScenarioConfig, out: str) -> int:
    has_masses = scenario.masses is not None
    has_shapes = scenario.shapes is not None
    if has_masses == has_shapes:
        print("ConfigError: wep needs exactly one of 'masses' or 'shapes'", file=sys.stderr)
        return 2
    report = wep_mass_sweep(scenario) if has_masses else wep_shape_sweep(scenario)
    _write_report_json(out, scenario, report.to_dict())
    return 0 if report.passed else 1


def cmd_ripple(scenario: ScenarioConfig, out: str) -> int:
    wf = scenario.build_packet()
    report = ripple_check(wf, scenario.tidal, scenario.evolve_cfg.dt)
    doc = report.to_dict()
    doc["pass"] = report.relative_error < RIPPLE_PASS_TOL
    doc["tolerance"] = RIPPLE_PASS_TOL
    _write_report_json(out, scenario, doc)
    return 0 if doc["pass"] else 1


def cmd_converge(scenario: ScenarioConfig, out: str) -> int:
    report = convergence_study(scenario)
    band = scenario.order_band or DEFAULT_ORDER_BANDS[scenario.scheme]
    doc = report.to_dict()
    doc["order_band"] = list(band)
    doc["pass"] = band[0] <= report.order <= band[1]
    _write_report_json(out, scenario, doc)
    return 0 if doc["pass"] else 1


_COMMANDS = {"run": cmd_run, "wep": cmd_wep, "ripple": cmd_ripple, "converge": cmd_converge}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavefall",
        description="Split-step wave-packet free fall in a weakly curved local frame.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "evolve one scenario and write the moment series CSV"),
            ("wep", "mass or shape universality sweep (JSON report)"),
            ("ripple", "single-step wave-vector shift check (JSON report)"),
            ("converge", "splitting-order study (JSON report)")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", required=True, help="output file path")
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.config)
    except SimulationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command](scenario, args.out)
    except BoundaryContact as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
