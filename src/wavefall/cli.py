"""Command-line interface.

    wavefall run      --config scenario.json --out series.csv
    wavefall wep      --config sweep.json    --out report.json
    wavefall ripple   --config scenario.json --out report.json
    wavefall converge --config study.json    --out report.json

Exit codes: 0 success/pass, 1 ran-but-failed (a pass/fail command whose
report's ``passed`` came out False), 2 validation error (an unreadable
config, an ``--out`` with no directory to go into, naming a directory, or
naming the config or an amplitude table it names, and a failed write of
the output included), 3 runtime abort (a monitor
tripped: BoundaryContact for mass in the position margin band, or
SpectralEdgeContact for mass at the Nyquist edge when
``evolve.spectral_mass_tol`` is set; ``run`` flushes the partial CSV with
a trailing ``# aborted: <error class>: ...`` line).
``main`` writes every report the same way; each report carries its own
pass rule (``experiments``).  Every output goes through ``_write`` and
embeds the fully resolved config for reproducibility.  Each command loads
its config with only the optional blocks it reads (``wep`` ``masses`` and
``shapes``, ``converge`` ``dt_list`` and ``order_band``, ``run`` and
``ripple`` none), so a block it does not run is neither checked nor echoed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .classical import TrajectorySeries
from .config import ScenarioConfig, load_scenario
from .errors import BoundaryContact, ConfigError, SimulationError
from .experiments import convergence_study, ripple_check, wep_mass_sweep, wep_shape_sweep
from .propagate import MomentSeries, evolve


def _write(path: str, text: str) -> None:
    """Write one output file; a failed write is a validation error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def _write_series_csv(path: str, scenario: ScenarioConfig, series: MomentSeries,
                      reference: TrajectorySeries,
                      aborted: BoundaryContact | None = None) -> None:
    """The series with the closed-form classical positions at its stamps,
    the first rows of the full run's ``reference``, and ``dev``, each row's
    distance from them by ``match_metric``'s norm."""
    d = scenario.grid.dim
    cols = (["t", "norm"]
            + [f"mx{i + 1}" for i in range(d)]
            + [f"mv{i + 1}" for i in range(d)]
            + [f"cov{i + 1}{j + 1}" for i in range(d) for j in range(d)]
            + [f"clx{i + 1}" for i in range(d)]
            + ["dev"])
    lines = ["# config: " + json.dumps(scenario.resolved(), sort_keys=True),
             ",".join(cols)]
    classical_x = reference.x[:series.n_records]
    dev = np.linalg.norm(series.mean_x - classical_x, axis=-1)
    table = np.column_stack((series.t, series.norm, series.mean_x, series.mean_v,
                             series.cov.reshape(series.n_records, -1), classical_x, dev))
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    if aborted is not None:
        lines.append(f"# aborted: {type(aborted).__name__}: {aborted}")
    _write(path, "\n".join(lines) + "\n")


def _write_report_json(path: str, scenario: ScenarioConfig, report: dict) -> None:
    doc = {"config": scenario.resolved(), "report": report}
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_run(scenario: ScenarioConfig, out: str) -> int:
    # a reference that leaves the low-energy regime fails before any step
    reference = scenario.reference()
    try:
        series = evolve(scenario.build_packet(), scenario.tidal, scenario.scheme,
                        scenario.evolve_cfg)
    except BoundaryContact as exc:
        _write_series_csv(out, scenario, exc.partial, reference, aborted=exc)
        raise
    _write_series_csv(out, scenario, series, reference)
    return 0


def _report(command: str, scenario: ScenarioConfig):
    """The report of a pass/fail command; the experiments are looked up in
    this module at each call, so a wrapper set on the module is used."""
    if command == "ripple":
        return ripple_check(scenario.build_packet(), scenario.tidal, scenario.evolve_cfg.dt)
    if command == "converge":
        return convergence_study(scenario)
    if (scenario.masses is None) == (scenario.shapes is None):
        raise ConfigError("wep needs exactly one of 'masses' or 'shapes'")
    return (wep_shape_sweep if scenario.masses is None else wep_mass_sweep)(scenario)


def _check_out(path: str, config: str, scenario: ScenarioConfig) -> None:
    """Fail before any work when ``path`` cannot be written as a file, or
    is the config file or an amplitude table the document names, read or
    not (the packet's or a kept shape's): the output would overwrite it."""
    out = Path(path)
    if not out.parent.is_dir():
        raise ConfigError(f"output directory {str(out.parent)!r} does not exist")
    if not out.exists():
        return
    if out.is_dir():
        raise ConfigError(f"output path {path!r} is a directory")
    if out.samefile(config):
        raise ConfigError(f"output path {path!r} is the config file")
    for shape in (scenario.shape, *(scenario.shapes or ())):
        table = scenario.located(shape).table_path
        if table is not None and Path(table).exists() and out.samefile(table):
            raise ConfigError(f"output path {path!r} is the amplitude table {table!r}")


def _build_parser() -> argparse.ArgumentParser:
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
    return parser


# built once: building it costs more than ten times as much as parsing an argv
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        scenario = load_scenario(args.config, args.command)
        _check_out(args.out, args.config, scenario)
        if args.command == "run":
            return cmd_run(scenario, args.out)
        report = _report(args.command, scenario)
        _write_report_json(args.out, scenario, report.to_dict())
    except SimulationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BoundaryContact) else 2
    return 0 if report.passed else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
