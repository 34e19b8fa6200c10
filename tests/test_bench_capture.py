"""The benchmark's sweep capture still sees every member.

``perfbench/workloads.py::check_wep_json`` fails a ``sweep_1d`` run unless
``perfbench/spans.py::instrument`` captured one ``experiments.evolve`` call
per member.  The capture patches that module global, so a sweep that
stopped calling ``evolve`` through it would make every benchmark run fail.
``spans.py`` is loaded by file path, as ``perfbench/`` is not a package.
"""

import importlib.util
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from wavefall import evolve, load_scenario
from wavefall.cli import main

ROOT = Path(__file__).resolve().parent.parent

SWEEPS = {
    "masses": [50.0, 100.0],
    "shapes": [{"shape": "gaussian", "params": [1.0]},
               {"shape": "double_peak", "params": [0.7, 1.2]}],
}


@pytest.fixture
def spans(monkeypatch):
    # no __pycache__ is left under perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("traced", [False, True], ids=["capture", "tracer"])
@pytest.mark.parametrize("block", ["masses", "shapes"])
def test_instrument_captures_each_member_in_order(tmp_path, spans, block, traced):
    doc = {
        "grid": {"dim": 1, "n": 256, "extent": 20.0},
        "packet": {"shape": "gaussian", "params": [1.0], "x0": [2.0], "v0": [0.0],
                   "mass": 100.0},
        "curvature": {"tidal": [1e-4]},
        "evolve": {"dt": 0.1, "steps": 20, "record_every": 10},
        block: SWEEPS[block],
    }
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(doc))
    tracer = spans.Tracer() if traced else None
    members = []
    with spans.instrument(tracer, members):
        assert main(["wep", "--config", str(config), "--out", str(tmp_path / "wep.json")]) == 0

    scenario = load_scenario(config, "wep")
    packets = ([scenario.build_packet(mass=m) for m in scenario.masses] if block == "masses"
               else [scenario.build_packet(shape=s) for s in scenario.shapes])
    assert len(members) == len(packets)
    for (thread, series), wf in zip(members, packets):
        alone = evolve(wf, scenario.tidal, scenario.scheme, scenario.evolve_cfg)
        assert thread == threading.get_ident()
        assert np.array_equal(series.mean_x, alone.mean_x)
        assert np.array_equal(series.cov, alone.cov)
    if traced:
        assert spans.summarize(tracer.spans)["experiments.members"] == len(packets)
