import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wavefall import (BoundaryContact, ConfigError, PacketShape, ScenarioConfig,
                      SimulationError, StepTooLarge, evolve, exact_flow, load_scenario,
                      wep_shape_sweep)
from wavefall.cli import _write_series_csv, main
from wavefall.propagate import MomentSeries, check_kinetic_phase


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_doc(**overrides):
    doc = {
        "grid": {"dim": 1, "n": 256, "extent": 20.0},
        "packet": {"shape": "gaussian", "params": [1.0], "x0": [2.0], "v0": [0.0],
                   "mass": 100.0},
        "curvature": {"tidal": [1e-4], "vacuum": False},
        "evolve": {"dt": 0.1, "steps": 100, "record_every": 10, "scheme": "strang"},
    }
    doc.update(overrides)
    return doc


def weak_field_violation_doc():
    """epsilon = R L^2 = 0.4 exceeds the weak-field threshold 0.1; mu=5
    keeps the tidal phase per step (0.16) inside its budget."""
    doc = base_doc(curvature={"tidal": [1e-3]})
    doc["packet"]["mass"] = 5.0
    return doc


def write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_table(path, offset=0.0):
    """A sigma=1 Gaussian centred at x=2, one row per node of base_doc's
    N=256, L=20 grid, at positions moved by ``offset``; its grid mean is 2."""
    x = -10.0 + np.arange(256) * (20.0 / 256)
    amp = np.exp(-((x - 2.0) ** 2) / 2.0)
    np.savetxt(path, np.column_stack([x + offset, amp, 0 * amp]), delimiter=",")
    return str(path)


def table_doc(table):
    """base_doc with its packet read from the amplitude table ``table``."""
    return base_doc(packet={"shape": "custom_table", "table": table, "x0": [2.0],
                            "v0": [0.0], "mass": 100.0})


def read_csv(path):
    lines = path.read_text().splitlines()
    header = [l for l in lines if l and not l.startswith("#")][0]
    rows = [list(map(float, l.split(","))) for l in lines
            if l and not l.startswith("#") and not l[0].isalpha()]
    return lines, header, np.asarray(rows)


class TestArguments:
    def test_bad_arguments_exit_2_on_every_call(self, tmp_path, capsys):
        # one parser serves every call: a bad argv leaves it as it was
        out = tmp_path / "series.csv"
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(["run", "--config", write(tmp_path, base_doc())])
            assert info.value.code == 2
            assert "the following arguments are required: --out" in capsys.readouterr().err
            assert main(["run", "--config", write(tmp_path, base_doc()), "--out", str(out)]) == 0
            with pytest.raises(SystemExit) as info:
                main(["bogus"])
            assert info.value.code == 2
            assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestConfigLoading:
    def test_roundtrip(self, tmp_path):
        cfg = load_scenario(write(tmp_path, base_doc()))
        assert cfg.grid.n == 256
        assert cfg.mass == 100.0
        assert cfg.scheme.value == "strang"
        resolved = cfg.resolved()
        again = ScenarioConfig.from_dict(resolved)
        assert again.resolved() == resolved

    def test_unknown_keys_rejected(self, tmp_path):
        for doc in (base_doc(extra=1),
                    base_doc(grid={"dim": 1, "n": 256, "extent": 20.0, "pad": 2}),
                    base_doc(evolve={"dt": 0.1, "steps": 10, "cadence": 5})):
            with pytest.raises(ConfigError):
                ScenarioConfig.from_dict(doc)

    def test_missing_block(self):
        doc = base_doc()
        del doc["curvature"]
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(doc)

    def test_bad_scheme_and_sizes(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(base_doc(
                evolve={"dt": 0.1, "steps": 10, "scheme": "euler"}))
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(base_doc(
                curvature={"tidal": [1e-4, 0.0]}))

    def test_spectral_mass_tol_key(self):
        plain = ScenarioConfig.from_dict(base_doc())
        assert plain.evolve_cfg.spectral_mass_tol is None
        assert "spectral_mass_tol" not in plain.resolved()["evolve"]
        doc = base_doc(evolve={"dt": 0.1, "steps": 10, "spectral_mass_tol": 1e-10})
        armed = ScenarioConfig.from_dict(doc)
        assert armed.evolve_cfg.spectral_mass_tol == 1e-10
        assert armed.resolved()["evolve"]["spectral_mass_tol"] == 1e-10
        assert ScenarioConfig.from_dict(armed.resolved()).resolved() == armed.resolved()
        for bad in (0.0, -1e-10, "1e-10", None):
            with pytest.raises(ConfigError):
                ScenarioConfig.from_dict(base_doc(
                    evolve={"dt": 0.1, "steps": 10, "spectral_mass_tol": bad}))

    @pytest.mark.parametrize("where, doc", [
        ("curvature.tidal", base_doc(curvature={"tidal": [float("nan")]})),
        ("packet.mass", base_doc(packet={**base_doc()["packet"], "mass": float("inf")})),
        ("grid.extent", base_doc(grid={"dim": 1, "n": 256, "extent": float("-inf")})),
        # an integer literal too large for a float
        ("evolve.dt", base_doc(evolve={**base_doc()["evolve"], "dt": 10 ** 400})),
    ])
    def test_non_finite_number_rejected(self, where, doc):
        with pytest.raises(ConfigError, match=f"^{where} must be finite, got "):
            ScenarioConfig.from_dict(doc)

    def test_negative_dt_list_entry_rejected(self):
        # caught at load, not when the converge member with that dt is built
        doc = base_doc(dt_list=[0.4, -0.2, 0.1],
                       evolve={"dt": 0.1, "steps": 784, "scheme": "strang"})
        with pytest.raises(ConfigError, match=r"^dt_list entries must be positive"):
            ScenarioConfig.from_dict(doc)

    def test_module_preconditions_rechecked(self):
        from wavefall import OutsideValidity, PacketTooWide
        wide = base_doc()
        wide["packet"]["params"] = [5.0]  # wider than L/8
        # the dimension check comes before the table would be read
        table_2d = base_doc(grid={"dim": 2, "n": 16, "extent": 20.0},
                            curvature={"tidal": [1e-4, 0.0, 0.0, 1e-4]},
                            packet={"shape": "custom_table", "table": "unread.csv",
                                    "x0": [0.0, 0.0], "v0": [0.0, 0.0], "mass": 100.0})
        for doc, error, text in (
                (wide, PacketTooWide, None),
                (weak_field_violation_doc(), OutsideValidity,
                 r"^epsilon=4\.000e-01 exceeds weak-field threshold 0\.1$"),
                (table_2d, ConfigError, "^custom_table packets are one-dimensional$")):
            with pytest.raises(error, match=text):
                ScenarioConfig.from_dict(doc)


class TestRunCommand:
    def test_flat_space_run(self, tmp_path):
        doc = base_doc(curvature={"tidal": [0.0]},
                       packet={"shape": "gaussian", "params": [1.0], "x0": [0.0],
                               "v0": [0.01], "mass": 100.0})
        out = tmp_path / "series.csv"
        assert main(["run", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
        lines, header, rows = read_csv(out)
        assert lines[0].startswith("# config: ")
        assert header == "t,norm,mx1,mv1,cov11,clx1,dev"
        assert rows.shape[0] == 11
        dev = rows[:, -1]
        assert np.max(dev) < 1e-10
        assert np.max(np.abs(rows[:, 1] - 1.0)) < 1e-10

    def test_validation_exit_code(self, tmp_path, capsys):
        doc = base_doc()
        doc["packet"]["params"] = [5.0]
        out = tmp_path / "series.csv"
        code = main(["run", "--config", write(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert "PacketTooWide" in capsys.readouterr().err
        assert not out.exists()
        code = main(["run", "--config", write(tmp_path, weak_field_violation_doc()),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == ("OutsideValidity: epsilon=4.000e-01 exceeds "
                                           "weak-field threshold 0.1\n")
        assert not out.exists()

    @pytest.mark.parametrize("shape,params,err", [
        # a half separation and its negative give one envelope, so one fault
        ("double_peak", [0.7, 3.0], "PacketTooWide: peak separation 6 must stay below L/4"),
        ("double_peak", [0.7, -3.0], "PacketTooWide: peak separation 6 must stay below L/4"),
        ("double_peak", [1.0], "ConfigError: double_peak params are its widths and then "
                               "a half separation; got one number and no width"),
        ("skewed_gaussian", [1.0], "ConfigError: skewed_gaussian params are its widths and "
                                   "then a skew; got one number and no width"),
    ], ids=["double_peak_plus_3", "double_peak_minus_3", "double_peak_one_number",
            "skewed_one_number"])
    def test_packet_shape_faults_exit_2(self, tmp_path, capsys, shape, params, err):
        doc = json.loads((CONFIGS / "standard_1d.json").read_text())
        doc["packet"].update(shape=shape, params=params)
        out = tmp_path / "series.csv"
        assert main(["run", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == err + "\n"
        assert not out.exists()

    def test_determinism(self, tmp_path):
        cfg = write(tmp_path, base_doc())
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("command,t", [("run", "97.6"), ("converge", "97.44")])
    def test_reference_leaving_the_regime_fails_before_any_step(self, tmp_path, capsys,
                                                                monkeypatch, command, t):
        # the repelling tidal field drives the classical reference past
        # |v| = 0.1 inside the run's 100 time units, first at stamp t: the
        # run records every 0.8, the converge member at dt=0.008 every step
        doc = base_doc(grid={"dim": 1, "n": 24576, "extent": 20.0},
                       packet={"shape": "gaussian", "params": [0.05], "x0": [3.0],
                               "v0": [0.0], "mass": 5000.0},
                       curvature={"tidal": [-2.4e-4]},
                       evolve={"dt": 0.008, "steps": 12500, "record_every": 100})
        if command == "converge":
            doc["dt_list"] = [0.008, 0.004, 0.002]
        evolved = []

        class Evolved(Exception):
            pass

        def count(*args):
            evolved.append(args)
            raise Evolved

        for module in ("experiments", "cli"):
            monkeypatch.setattr(f"wavefall.{module}.evolve", count)
        out = tmp_path / "out"
        try:
            code = main([command, "--config", write(tmp_path, doc), "--out", str(out)])
        except Evolved:
            code = None
        assert len(evolved) == 0
        assert code == 2
        assert capsys.readouterr().err == (
            f"VelocityTooHigh: |v|=0.1 left the low-energy regime at t={t}\n")
        assert not out.exists()

    def test_boundary_abort_flushes_partial(self, tmp_path, capsys):
        doc = base_doc(packet={"shape": "gaussian", "params": [1.0], "x0": [2.0],
                               "v0": [0.05], "mass": 30.0},
                       curvature={"tidal": [0.0]},
                       evolve={"dt": 0.1, "steps": 4000, "record_every": 10})
        out = tmp_path / "series.csv"
        code = main(["run", "--config", write(tmp_path, doc), "--out", str(out)])
        assert code == 3
        lines = out.read_text().splitlines()
        assert lines[-1].startswith("# aborted: BoundaryContact")
        _, _, rows = read_csv(out)
        assert rows.shape[0] > 1
        assert "BoundaryContact" in capsys.readouterr().err


    def test_spectral_abort_flushes_partial(self, tmp_path, capsys):
        shipped = CONFIGS / "standard_1d.json"
        doc = json.loads(shipped.read_text())
        doc["evolve"]["spectral_mass_tol"] = 1e-10
        out = tmp_path / "series.csv"
        code = main(["run", "--config", write(tmp_path, doc), "--out", str(out)])
        assert code == 3
        lines = out.read_text().splitlines()
        assert '"spectral_mass_tol": 1e-10' in lines[0]
        assert lines[-1].startswith("# aborted: SpectralEdgeContact: spectral edge mass")
        _, _, rows = read_csv(out)
        assert 1 < rows.shape[0] < 158
        assert "SpectralEdgeContact" in capsys.readouterr().err


class TestCustomTable:
    # a valid table scenario through the in-process CLI; the subprocess
    # cases in TestMalformedConfigs feed only malformed tables

    def test_table_run_echoes_the_table(self, tmp_path):
        table = write_table(tmp_path / "t.csv")
        out = tmp_path / "series.csv"
        assert main(["run", "--config", write(tmp_path, table_doc(table)),
                     "--out", str(out)]) == 0
        lines, _, rows = read_csv(out)
        config = json.loads(lines[0][len("# config: "):])
        assert '"table"' in lines[0]
        assert config["packet"]["table"] == table
        assert config["packet"]["shape"] == "custom_table"
        assert abs(rows[0, 2] - 2.0) < 1e-8

    def test_table_off_the_grid_exits_2(self, tmp_path, capsys):
        # every row lands beyond the L=20 domain
        table = write_table(tmp_path / "t.csv", offset=40.0)
        out = tmp_path / "series.csv"
        assert main(["run", "--config", write(tmp_path, table_doc(table)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "PacketTooWide: amplitude table leaves the grid empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "wep"])
    def test_relative_table_is_read_beside_the_config(self, tmp_path, monkeypatch, command):
        # the same config run from its own directory and from its parent;
        # run reads the packet's table, wep a shape's
        folder = tmp_path / "d"
        folder.mkdir()
        write_table(folder / "t.csv")
        doc = (table_doc("t.csv") if command == "run" else
               base_doc(shapes=[{"shape": "gaussian", "params": [1.0]},
                                {"shape": "custom_table", "table": "t.csv"}]))
        write(folder, doc, "s.json")
        outputs = []
        for cwd, config in ((folder, "s.json"), (tmp_path, "d/s.json")):
            monkeypatch.chdir(cwd)
            out = tmp_path / f"from_{cwd.name}.out"
            assert main([command, "--config", config, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b'"table": "t.csv"' in outputs[0]
        # a document handed to from_dict keeps its relative path
        monkeypatch.chdir(folder)
        resolved = ScenarioConfig.from_dict(doc, command).resolved()
        shape = resolved["packet"] if command == "run" else resolved["shapes"][1]
        assert shape["table"] == "t.csv"

    def test_relative_table_gives_the_same_bytes_in_any_folder(self, tmp_path):
        # one config and its table, copied into two folders
        outputs = []
        for name in ("t1", "t2"):
            folder = tmp_path / name
            folder.mkdir()
            write_table(folder / "t.csv")
            out = folder / "series.csv"
            assert main(["run", "--config", write(folder, table_doc("t.csv")),
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_empty_table_path_is_still_refused(self, tmp_path):
        doc = table_doc("")
        with pytest.raises(ConfigError, match="^custom_table shape needs table_path$"):
            load_scenario(write(tmp_path, doc))

    def test_out_naming_a_relative_table_exits_2(self, tmp_path, capsys, monkeypatch):
        # the --out check compares the table by its path joined to the config's directory
        folder = tmp_path / "d"
        folder.mkdir()
        table = write_table(folder / "t.csv")
        write(folder, table_doc("t.csv"), "s.json")
        before = Path(table).read_bytes()
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "d/s.json", "--out", "d/t.csv"]) == 2
        assert capsys.readouterr().err == (
            f"ConfigError: output path 'd/t.csv' is the amplitude table {table!r}\n")
        assert Path(table).read_bytes() == before

    @pytest.mark.parametrize("cells, dx, x0", [(0.5, "3.906e-02", "2.0390625"),
                                               (0.001, "7.812e-05", "2.000078125")])
    def test_sub_cell_x0_names_the_nearest_node_rule(self, tmp_path, capsys, cells, dx, x0):
        # one row per node: the table moves by whole cells, so its grid mean
        # reaches 2 + 3 cells but stays at 2 for a fraction of a cell
        table = write_table(tmp_path / "t.csv")
        out = tmp_path / "series.csv"
        doc = table_doc(table)
        doc["packet"]["x0"] = [2.0 + 3 * 20.0 / 256]
        assert main(["run", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
        out.unlink()
        doc["packet"]["x0"] = [2.0 + cells * 20.0 / 256]
        assert main(["run", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"InitialMomentMismatch: constructed moments off target: |dx|={dx}, |dv|=0.000e+00 "
            f"(table rows land on their nearest nodes: grid mean 2, x0 {x0})\n")
        assert not out.exists()


def doc_2d(**packet):
    """A 2D scenario on a 32^2 grid with an off-diagonal tidal matrix."""
    doc = base_doc(grid={"dim": 2, "n": 32, "extent": 20.0},
                   curvature={"tidal": [1e-4, 3e-5, 3e-5, -5e-5], "vacuum": False},
                   evolve={"dt": 0.1, "steps": 100, "record_every": 10, "scheme": "lie"})
    doc["packet"] = {"shape": "gaussian", "params": [1.0], "x0": [2.0, -1.0],
                     "v0": [0.002, 0.001], "mass": 50.0, **packet}
    return doc


def csv_value_by_value(scenario, series, aborted=None):
    """The series CSV formatted one value at a time: ``repr(float(v))`` per
    element, and for ``dev`` the square root of each row's sum of squares,
    summed in axis order."""
    clx = exact_flow(scenario.x0, scenario.v0, scenario.tidal, series.t).x
    lines = ["# config: " + json.dumps(scenario.resolved(), sort_keys=True),
             "t,norm,mx1,mx2,mv1,mv2,cov11,cov12,cov21,cov22,clx1,clx2,dev"]
    for r in range(series.n_records):
        row = ([series.t[r], series.norm[r]] + list(series.mean_x[r])
               + list(series.mean_v[r]) + list(series.cov[r].reshape(-1))
               + list(clx[r]) + [math.sqrt(sum(d * d for d in series.mean_x[r] - clx[r]))])
        lines.append(",".join(repr(float(v)) for v in row))
    if aborted:
        lines.append(f"# aborted: {aborted}")
    return ("\n".join(lines) + "\n").encode()


class TestRunCsvBytes:
    # a full 2D run with off-diagonal R, and a drifting packet's partial
    @pytest.mark.parametrize("packet,evolve_keys,code", [
        ({}, {}, 0),
        ({"x0": [2.0, 0.0], "v0": [0.03, 0.0], "mass": 5.0},
         {"steps": 400, "record_every": 3}, 3)],
        ids=["full", "aborted"])
    def test_2d_bytes_match_value_by_value_formatting(self, tmp_path, packet, evolve_keys, code):
        doc = doc_2d(**packet)
        doc["evolve"].update(evolve_keys)
        out = tmp_path / "series.csv"
        assert main(["run", "--config", write(tmp_path, doc), "--out", str(out)]) == code
        scenario = ScenarioConfig.from_dict(doc)
        try:
            series, aborted = evolve(scenario.build_packet(), scenario.tidal, scenario.scheme,
                                     scenario.evolve_cfg), None
        except BoundaryContact as exc:
            series, aborted = exc.partial, f"{type(exc).__name__}: {exc}"
        assert (aborted is None) == (code == 0)
        assert series.n_records > 10
        assert out.read_bytes() == csv_value_by_value(scenario, series, aborted)


class TestDevColumn:
    # dev is each row's norm by the rule every printed length uses:
    # np.linalg.norm(..., axis=-1), the square root of a sum of squares

    def test_dev_is_the_axis_norm_of_its_row(self, tmp_path):
        # x0 = v0 = 0 makes clx zero, so dev is the norm of mean_x itself;
        # sqrt(dot) would give 1.0357142857142858 for this row
        scenario = ScenarioConfig.from_dict(doc_2d(x0=[0.0, 0.0], v0=[0.0, 0.0]))
        series = MomentSeries(t=np.zeros(1), norm=np.ones(1), mean_x=np.array([[0.75, 5 / 7]]),
                              mean_v=np.zeros((1, 2)), cov=np.zeros((1, 2, 2)),
                              final_state=None, diagnostics={})
        out = tmp_path / "series.csv"
        _write_series_csv(str(out), scenario, series, scenario.reference())
        _, _, rows = read_csv(out)
        assert rows[:, -3:].tolist() == [[0.0, 0.0, 1.0357142857142856]]

    def test_run_max_dev_is_the_converge_error_at_its_dt(self, tmp_path):
        # off-diagonal R; the converge member at dt = 0.1 is the run itself
        doc = doc_2d()
        doc["evolve"].update(steps=40, record_every=1)
        doc["dt_list"] = [0.4, 0.2, 0.1]
        config = write(tmp_path, doc)
        series, report = tmp_path / "series.csv", tmp_path / "conv.json"
        assert main(["run", "--config", config, "--out", str(series)]) == 0
        assert main(["converge", "--config", config, "--out", str(report)]) == 0
        _, _, rows = read_csv(series)
        assert rows.shape[0] == 41
        errors = json.loads(report.read_text())["report"]["errors"]
        assert np.max(rows[:, -1]) == errors[2]


class TestWepCommand:
    def test_identical_masses_pass(self, tmp_path):
        doc = base_doc(masses=[100.0, 100.0])
        out = tmp_path / "wep.json"
        assert main(["wep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["report"]["pass"] is True
        assert report["report"]["deviations"] == [[0.0, 0.0], [0.0, 0.0]]
        assert report["config"]["masses"] == [100.0, 100.0]

    def test_spectral_abort_exit(self, tmp_path, capsys):
        doc = base_doc(masses=[50.0, 200.0],
                       evolve={"dt": 0.1, "steps": 1570, "record_every": 10,
                               "spectral_mass_tol": 1e-10})
        out = tmp_path / "wep.json"
        code = main(["wep", "--config", write(tmp_path, doc), "--out", str(out)])
        assert code == 3
        assert "SpectralEdgeContact: mass=200: " in capsys.readouterr().err
        assert not out.exists()

    def test_abort_names_the_mass_in_full(self, tmp_path, capsys):
        # :g writes 200.000001 as 200; the failing member's label does not
        doc = base_doc(masses=[200.000001, 200.0],
                       evolve={"dt": 0.1, "steps": 1570, "record_every": 10,
                               "spectral_mass_tol": 1e-10})
        out = tmp_path / "wep.json"
        assert main(["wep", "--config", write(tmp_path, doc), "--out", str(out)]) == 3
        assert "SpectralEdgeContact: mass=200.000001: " in capsys.readouterr().err

    def test_wrapped_member_fails_exit_1(self, tmp_path):
        # unarmed, mu=200 wraps round the N=256 Nyquist edge and its mean
        # strays from mu=50's by 0.32 against a threshold of 2e-8
        doc = base_doc(masses=[50.0, 200.0],
                       evolve={"dt": 0.1, "steps": 1570, "record_every": 10})
        out = tmp_path / "wep.json"
        assert main(["wep", "--config", write(tmp_path, doc), "--out", str(out)]) == 1
        report = json.loads(out.read_text())["report"]
        assert report["pass"] is False
        assert report["deviations"][0][1] == pytest.approx(0.3208, abs=1e-4)
        assert report["threshold"] == pytest.approx(2e-8)

    def test_single_mass_rejected(self, tmp_path, capsys):
        doc = base_doc(masses=[100.0])
        out = tmp_path / "wep.json"
        code = main(["wep", "--config", write(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert "TooFewVariants" in capsys.readouterr().err

    def test_requires_exactly_one_block(self, tmp_path, capsys):
        out = tmp_path / "wep.json"
        line = "ConfigError: wep needs exactly one of 'masses' or 'shapes'\n"
        assert main(["wep", "--config", write(tmp_path, base_doc()),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == line
        doc = base_doc(masses=[100.0, 200.0],
                       shapes=[{"shape": "gaussian", "params": [1.0]},
                               {"shape": "gaussian", "params": [1.0]}])
        assert main(["wep", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == line
        assert not out.exists()

    def test_unreadable_table_fails_before_any_member(self, tmp_path, capsys, monkeypatch):
        import wavefall.experiments as experiments
        calls = []
        monkeypatch.setattr(experiments, "evolve", lambda *a, **k: calls.append("evolve"))
        missing = str(tmp_path / "missing.csv")
        doc = base_doc(shapes=[{"shape": "gaussian", "params": [1.0]},
                               {"shape": "skewed_gaussian", "params": [1.0, 1.0]},
                               {"shape": "custom_table", "table": missing}])
        out = tmp_path / "wep.json"
        assert main(["wep", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ConfigError: cannot read amplitude table {missing!r}")
        assert calls == []
        assert not out.exists()

    def test_shape_sweep_via_cli(self, tmp_path):
        doc = base_doc(shapes=[{"shape": "gaussian", "params": [1.0]},
                               {"shape": "skewed_gaussian", "params": [1.0, 1.0]}],
                       evolve={"dt": 0.1, "steps": 200, "record_every": 10})
        out = tmp_path / "wep.json"
        assert main(["wep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert report["kind"] == "shape"
        assert report["labels"] == ["gaussian", "skewed_gaussian"]

    def test_shape_labels_of_one_kind_are_indexed(self, tmp_path):
        doc = base_doc(shapes=[{"shape": "gaussian", "params": [1.0]},
                               {"shape": "gaussian", "params": [0.7]}],
                       evolve={"dt": 0.1, "steps": 20, "record_every": 10})
        out = tmp_path / "wep.json"
        assert main(["wep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert report["labels"] == ["shape[0]=gaussian", "shape[1]=gaussian"]


class TestRippleCommand:
    def test_standard_pass(self, tmp_path):
        out = tmp_path / "ripple.json"
        assert main(["ripple", "--config", write(tmp_path, base_doc()),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert report["pass"] is True
        assert report["relative_error"] < 1e-8
        assert report["predicted_dk"][0] == pytest.approx(-0.012566370614359173, rel=1e-9)

    def test_wrap_risk_exit(self, tmp_path, capsys):
        doc = base_doc(evolve={"dt": 0.3, "steps": 10})
        out = tmp_path / "ripple.json"
        code = main(["ripple", "--config", write(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert "PhaseWrapRisk" in capsys.readouterr().err


class TestConvergeCommand:
    def test_two_steps_rejected(self, tmp_path, capsys):
        doc = base_doc(dt_list=[0.2, 0.1])
        out = tmp_path / "conv.json"
        code = main(["converge", "--config", write(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert "TooFewPoints" in capsys.readouterr().err

    def test_strang_band_pass(self, tmp_path):
        doc = base_doc(dt_list=[0.4, 0.2, 0.1],
                       evolve={"dt": 0.1, "steps": 784, "scheme": "strang"})
        out = tmp_path / "conv.json"
        assert main(["converge", "--config", write(tmp_path, doc),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert report["order_band"] == [1.8, 2.2]
        assert 1.8 <= report["fitted_order"] <= 2.2

    def test_lie_band_pass(self, tmp_path):
        doc = base_doc(dt_list=[0.4, 0.2, 0.1],
                       evolve={"dt": 0.1, "steps": 784, "scheme": "lie"})
        out = tmp_path / "conv.json"
        assert main(["converge", "--config", write(tmp_path, doc),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert report["order_band"] == [0.8, 1.2]
        assert 0.8 <= report["fitted_order"] <= 1.2

    def test_order_outside_band_exit_1(self, tmp_path):
        # Strang fits order 2.000004, below the configured band
        doc = base_doc(dt_list=[0.4, 0.2, 0.1], order_band=[2.5, 3.0],
                       evolve={"dt": 0.1, "steps": 784, "scheme": "strang"})
        out = tmp_path / "conv.json"
        assert main(["converge", "--config", write(tmp_path, doc),
                     "--out", str(out)]) == 1
        report = json.loads(out.read_text())["report"]
        assert report["pass"] is False
        assert report["order_band"] == [2.5, 3.0]
        assert report["fitted_order"] == pytest.approx(2.000004, abs=1e-6)

    def test_member_abort_is_labelled(self, tmp_path, capsys):
        # a light, drifting packet reaches the margin band in the dt=0.4 run
        doc = base_doc(dt_list=[0.4, 0.2, 0.1],
                       evolve={"dt": 0.1, "steps": 784, "record_every": 10,
                               "boundary_mass_tol": 3e-9})
        doc["packet"].update(mass=50.0, v0=[0.03])
        out = tmp_path / "conv.json"
        assert main(["converge", "--config", write(tmp_path, doc),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "BoundaryContact: dt=0.4: margin mass 3.062e-09 exceeds 3.0e-09 at step 18\n")
        assert not out.exists()

    def test_json_reports_deterministic(self, tmp_path):
        doc = base_doc(dt_list=[0.4, 0.2, 0.1],
                       evolve={"dt": 0.1, "steps": 784, "scheme": "strang"})
        cfg = write(tmp_path, doc)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["converge", "--config", cfg, "--out", str(out_a)])
        main(["converge", "--config", cfg, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()


class TestStepGuardsAtLoad:
    # load checks exactly the (mass, shape, dt) runs the command makes,
    # each optional block's by its run rule (ScenarioConfig.runs): each swept
    # mass and each swept shape at the evolve dt, and the packet at each
    # dt_list entry; the packet itself, at the evolve dt, only for run and
    # ripple, which read no block.  Each run's step guards are those of the
    # steps it takes: ripple's one tidal kick has no kinetic phase.  At N=512
    # the kinetic phase per step is 514.7 dt / mass, pi at dt=0.4 for mass 65.5

    def base(self):
        return json.loads((CONFIGS / "converge_strang_1d.json").read_text())

    def test_swept_mass_is_not_checked_at_dt_list(self, tmp_path):
        # converge runs only the packet mass; (50, 0.4) is no pair it runs
        doc = self.base()
        doc["masses"] = [50, 100]
        out = tmp_path / "conv.json"
        assert main(["converge", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["pass"] is True

    @pytest.mark.parametrize("command,key,value,phase", [
        ("wep", "masses", [10, 100], "5.147"),  # mass 10 at the evolve dt 0.1
        ("converge", "dt_list", [0.8, 0.4, 0.2], "4.118")])  # the packet's mass 100 at 0.8
    def test_pair_a_command_runs_fails_at_load(self, tmp_path, capsys, command, key, value,
                                               phase):
        doc = self.base()
        doc[key] = value
        config, out = write(tmp_path, doc), tmp_path / "out.json"
        with pytest.raises(StepTooLarge):
            load_scenario(config)
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"StepTooLarge: kinetic phase per step {phase} >= pi; "
            "reduce dt or raise mass/resolution\n")
        assert not out.exists()

    @pytest.mark.parametrize("name,command,block,changes", [
        # converge runs only its dt_list (0.4 to 0.05): the evolve dt sets the
        # duration, 196 steps of 0.8 the shipped 156.8 (kinetic phase 4.118)
        ("converge_strang_1d.json", "converge", "evolve", {"dt": 0.8, "steps": 196}),
        # the mass sweep never evolves the packet's mass 10 (11.581 on N=768)
        ("wep_mass_1d.json", "wep", "packet", {"mass": 10}),
        # the shape sweep never builds the packet's own shape (width 3 > L/8)
        ("wep_shapes_1d.json", "wep", "packet", {"params": [3.0]}),
        # ... and so never reads the packet's amplitude table, here missing
        ("wep_shapes_1d.json", "wep", "packet",
         {"shape": "custom_table", "params": [], "table": "/nonexistent/wavefall-table.csv"})])
    def test_a_run_the_command_does_not_make_is_not_checked(self, tmp_path, name, command,
                                                            block, changes):
        doc = json.loads((CONFIGS / name).read_text())
        doc[block].update(changes)
        config, out, want = write(tmp_path, doc), tmp_path / "out.json", tmp_path / "want.json"
        # an --out that exists is compared with every table the document
        # names, a missing one that no run reads included, and overwritten
        out.write_text("an earlier report\n")
        assert main([command, "--config", config, "--out", str(out)]) == 0
        assert main([command, "--config", str(CONFIGS / name), "--out", str(want)]) == 0
        assert json.loads(out.read_text())["report"] == json.loads(want.read_text())["report"]
        # run makes the packet's own run, so it still refuses the document
        with pytest.raises(SimulationError):
            load_scenario(config, "run")

    @pytest.mark.parametrize("command,changes,code,err", [
        # the kinetic phase per step of mass 10 at dt 0.5 (6.434 on N=256) is
        # no guard of ripple's one tidal kick
        ("ripple", {"packet": {"mass": 10}, "evolve": {"dt": 0.5}}, 0, ""),
        # with no sweep block and no dt_list they make no run at the evolve dt
        ("wep", {"evolve": {"dt": 5.0}}, 2,
         "ConfigError: wep needs exactly one of 'masses' or 'shapes'\n"),
        ("converge", {"evolve": {"dt": 5.0}}, 2,
         "TooFewPoints: convergence study needs at least three step sizes\n")])
    def test_a_step_the_command_does_not_take_is_not_checked(self, tmp_path, capsys, command,
                                                             changes, code, err):
        doc = json.loads((CONFIGS / "standard_1d.json").read_text())
        for block, values in changes.items():
            doc[block].update(values)
        config, out = write(tmp_path, doc), tmp_path / "out.json"
        assert main([command, "--config", config, "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        assert out.exists() == (code == 0)
        # loading with no command still checks the packet's own run in full
        with pytest.raises(StepTooLarge):
            load_scenario(config)

    def test_load_raises_the_error_of_the_first_bad_run(self, tmp_path, capsys):
        # two faults: the evolve dt 0.8 fails every run's step guard (kinetic
        # phase 4.118), and shapes[1] is too wide (width 3 > L/8).  Load
        # checks each run in run order, packet then step guards, as the runs
        # check themselves: shape[0] fails its step guard first
        name = "wep_shapes_1d.json"
        doc = json.loads((CONFIGS / name).read_text())
        doc["evolve"]["dt"] = 0.8
        doc["shapes"][1]["params"] = [3.0, 1.0]
        out = tmp_path / "out.json"
        assert main(["wep", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
        line = "kinetic phase per step 4.118 >= pi; reduce dt or raise mass/resolution"
        assert capsys.readouterr().err == f"StepTooLarge: {line}\n"
        assert not out.exists()
        # the same scenario built without load fails the same way, labelled
        shipped = load_scenario(CONFIGS / name, "wep")
        shapes = (shipped.shapes[0], PacketShape.skewed_gaussian(3.0, 1.0), shipped.shapes[2])
        unloaded = replace(shipped, evolve_cfg=replace(shipped.evolve_cfg, dt=0.8),
                           shapes=shapes)
        with pytest.raises(StepTooLarge) as caught:
            wep_shape_sweep(unloaded)
        assert str(caught.value) == f"shape[0]=gaussian: {line}"

    @pytest.mark.parametrize("name", sorted(
        path.name for path in CONFIGS.glob("*.json") if not path.name.startswith("ripple")))
    def test_load_guards_exactly_the_runs_the_command_makes(self, tmp_path, monkeypatch, name):
        # ripple evolves nothing, so it has no evolve calls to compare
        prefix = name.split("_")[0]
        command = prefix if prefix in ("wep", "converge") else "run"
        guarded, evolved = [], []

        def guard(grid, mass, dt):
            guarded.append((mass, dt))
            check_kinetic_phase(grid, mass, dt)

        def capture(wf, tidal, scheme, cfg):
            evolved.append((wf.mass, cfg.dt))
            return evolve(wf, tidal, scheme, cfg)

        monkeypatch.setattr("wavefall.config.check_kinetic_phase", guard)
        for module in ("experiments", "cli"):
            monkeypatch.setattr(f"wavefall.{module}.evolve", capture)
        assert main([command, "--config", str(CONFIGS / name),
                     "--out", str(tmp_path / "out")]) == 0
        assert evolved and guarded == evolved


class TestCommandBlocks:
    # each command checks and echoes only the optional blocks it reads: run
    # and ripple none, wep masses and shapes, converge dt_list and order_band.
    # Each of these configs fails at load with every block checked
    @staticmethod
    def shipped(name, **blocks):
        return {**json.loads((CONFIGS / name).read_text()), **blocks}

    @pytest.mark.parametrize("block", [{"dt_list": [0.8]}, {"masses": [5]}])
    def test_run_ignores_a_block_it_does_not_run(self, tmp_path, block):
        # kinetic phase 4.118 for the packet's mass at dt 0.8, and 10.294 for
        # mass 5 at the evolve dt
        config = write(tmp_path, self.shipped("standard_1d_hires.json", **block))
        with pytest.raises(StepTooLarge):
            load_scenario(config)
        plain = write(tmp_path, self.shipped("standard_1d_hires.json"), "plain.json")
        out, want = tmp_path / "out.csv", tmp_path / "plain.csv"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        assert main(["run", "--config", plain, "--out", str(want)]) == 0
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("command", ["wep", "ripple"])
    def test_wep_and_ripple_ignore_dt_list(self, tmp_path, command):
        # kinetic phase 4.632 for the packet's mass 100 at dt 0.4 on N=768
        config = write(tmp_path, self.shipped("wep_mass_1d.json", dt_list=[0.4, 0.2, 0.1]))
        with pytest.raises(StepTooLarge):
            load_scenario(config)
        out = tmp_path / "out.json"
        assert main([command, "--config", config, "--out", str(out)]) == 0
        assert "dt_list" not in json.loads(out.read_text())["config"]

    def test_converge_neither_checks_nor_echoes_masses(self, tmp_path):
        # mass 50 fails the phase guard at dt_list's 0.4 (5.147 at N=512)
        config = write(tmp_path, self.shipped("converge_strang_1d.json", masses=[50, 100]))
        out = tmp_path / "out.json"
        assert main(["converge", "--config", config, "--out", str(out)]) == 0
        assert "masses" not in json.loads(out.read_text())["config"]
        assert load_scenario(config, "converge").masses is None
        assert load_scenario(config).masses == (50.0, 100.0)

    @pytest.mark.parametrize("block", [{"masses": ["50"]}, {"dt_list": [0.4, -0.2]},
                                       {"shapes": [{"shape": "cube"}]},
                                       {"order_band": [2.2, 1.8]}])
    def test_a_malformed_block_fails_whatever_the_command(self, tmp_path, capsys, block):
        config = write(tmp_path, base_doc(**block))
        out = tmp_path / "out"
        for command in ("run", "ripple", "wep", "converge"):
            assert main([command, "--config", config, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("ConfigError: ")
            assert not out.exists()


    def test_an_unknown_command_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="^unknown command 'bogus'$"):
            ScenarioConfig.from_dict(base_doc(), "bogus")
        with pytest.raises(ConfigError, match="^unknown command 'bogus'$"):
            load_scenario(write(tmp_path, base_doc()), "bogus")

    @pytest.mark.parametrize("command, blocks", [
        (None, {"masses", "shapes", "dt_list", "order_band"}), ("run", set()),
        ("ripple", set()), ("wep", {"masses", "shapes"}), ("converge", {"dt_list", "order_band"})])
    def test_resolved_echoes_exactly_the_blocks_read(self, tmp_path, command, blocks):
        # every optional block (a table among the shapes) and every optional
        # evolve key set, each to a value that is not its default
        evolve = {"dt": 0.1, "steps": 100, "scheme": "lie", "record_every": 5,
                  "boundary_margin_fraction": 0.06, "boundary_mass_tol": 1e-7,
                  "spectral_mass_tol": 1e-9}
        doc = base_doc(evolve=evolve, masses=[90.0, 100.5], dt_list=[0.1, 0.05],
                       order_band=[0.5, 2.5],
                       shapes=[{"shape": "gaussian", "params": [0.8]},
                               {"shape": "custom_table", "params": [],
                                "table": write_table(tmp_path / "t.csv")}])
        resolved = ScenarioConfig.from_dict(doc, command).resolved()
        assert set(resolved) == {"grid", "packet", "curvature", "evolve", *blocks}
        assert resolved["evolve"] == evolve
        assert all(resolved[name] == doc[name] for name in blocks)
        assert ScenarioConfig.from_dict(resolved, command).resolved() == resolved


class TestShippedConfigs:
    def test_all_shipped_configs_load(self):
        paths = sorted(CONFIGS.glob("*.json"))
        assert len(paths) >= 7
        for path in paths:
            load_scenario(path)

    def test_missing_config_file(self, tmp_path, capsys):
        # a path that runs through a regular file is not found either
        (tmp_path / "file").touch()
        for config in (tmp_path / "nope.json", tmp_path / "file" / "c.json"):
            code = main(["run", "--config", str(config), "--out", str(tmp_path / "o.csv")])
            assert code == 2
            assert capsys.readouterr().err == f"ConfigError: config file not found: {config}\n"


class TestMalformedConfigs:
    # each bad document is a validation error: exit 2 with the error class
    # on stderr, never a traceback (exit 1 means "ran but failed")

    @staticmethod
    def bad_docs(tmp_path):
        table = {"shape": "custom_table", "x0": [0.0], "v0": [0.0], "mass": 100.0}
        empty = tmp_path / "empty.csv"
        empty.touch()
        return {
            "tidal_string": ("run", base_doc(curvature={"tidal": ["1e-4"]})),
            "tidal_ragged": ("run", base_doc(curvature={"tidal": [[1e-4, 0.0], [0.0]]})),
            "tidal_boolean": ("run", base_doc(curvature={"tidal": [True]})),
            "table_missing": ("run", base_doc(
                packet={**table, "table": str(tmp_path / "missing.csv")})),
            "table_not_string": ("run", base_doc(packet={**table, "table": 123})),
            "table_empty": ("run", base_doc(packet={**table, "table": str(empty)})),
            "order_band_reversed": ("converge", base_doc(
                dt_list=[0.4, 0.2, 0.1], order_band=[2.2, 1.8],
                evolve={"dt": 0.1, "steps": 784, "scheme": "strang"})),
            # json.dumps writes these as the non-standard NaN and Infinity
            "v0_nan": ("run", base_doc(packet={**base_doc()["packet"], "v0": [float("nan")]})),
            "order_band_nan": ("converge", base_doc(
                dt_list=[0.4, 0.2, 0.1], order_band=[float("nan"), 2.2],
                evolve={"dt": 0.1, "steps": 784, "scheme": "strang"})),
            "boundary_mass_tol_inf": ("run", base_doc(
                evolve={**base_doc()["evolve"], "boundary_mass_tol": float("inf")})),
            "dt_list_zero": ("converge", base_doc(
                dt_list=[0.0, 0.2, 0.1],
                evolve={"dt": 0.1, "steps": 784, "scheme": "strang"})),
        }

    @pytest.mark.parametrize("case", ["tidal_string", "tidal_ragged", "tidal_boolean",
                                      "table_missing", "table_not_string",
                                      "table_empty", "order_band_reversed", "v0_nan",
                                      "order_band_nan", "boundary_mass_tol_inf",
                                      "dt_list_zero"])
    def test_exits_2_with_config_error(self, tmp_path, case):
        command, doc = self.bad_docs(tmp_path)[case]
        out = tmp_path / "out"
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-m", "wavefall", command, "--config", write(tmp_path, doc),
             "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2
        assert done.stderr.startswith("ConfigError: ")
        assert "Traceback" not in done.stderr
        assert "Warning" not in done.stderr
        assert not out.exists()


class TestUnusablePaths:
    # a config that cannot be read as text, an output with no directory to
    # go into and a failed write are validation errors: exit 2 with one
    # ConfigError line

    @pytest.mark.parametrize("case", ["directory", "not_utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, case):
        config = tmp_path / "config.json"
        if case == "directory":
            config.mkdir()
        else:
            config.write_bytes(json.dumps(base_doc()).encode("utf-16"))
        out = tmp_path / "out.csv"
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-m", "wavefall", "run", "--config", str(config),
             "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2
        assert done.stderr.startswith("ConfigError: ")
        assert done.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", ["missing_directory", "directory"])
    def test_unusable_out_exits_2_before_any_step(self, tmp_path, capsys, monkeypatch, case):
        import wavefall.cli as cli
        calls = []
        monkeypatch.setattr(ScenarioConfig, "build_packet",
                            lambda *a, **k: calls.append("build_packet"))
        monkeypatch.setattr(cli, "evolve", lambda *a, **k: calls.append("evolve"))
        out = tmp_path / "missing" / "series.csv" if case == "missing_directory" else tmp_path
        code = main(["run", "--config", write(tmp_path, base_doc()), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ConfigError: output ")
        assert err.count("\n") == 1
        assert calls == []
        assert out.is_dir() if case == "directory" else not out.parent.exists()

    # an --out naming the config file, by its own path or through a link,
    # would overwrite the scenario with the output
    @pytest.mark.parametrize("command", ["run", "wep", "ripple", "converge"])
    @pytest.mark.parametrize("form", ["same", "symlink"])
    def test_out_naming_the_config_exits_2_and_keeps_it(self, tmp_path, capsys, monkeypatch,
                                                         command, form):
        import wavefall.cli as cli
        calls = []
        monkeypatch.setattr(ScenarioConfig, "build_packet",
                            lambda *a, **k: calls.append("build_packet"))
        monkeypatch.setattr(cli, "evolve", lambda *a, **k: calls.append("evolve"))
        monkeypatch.setattr(cli, "_report", lambda *a, **k: calls.append("report"))
        doc = base_doc(masses=[50, 100]) if command == "wep" else base_doc()
        config = write(tmp_path, doc)
        before = Path(config).read_bytes()
        out = tmp_path / "link.json"
        if form == "same":
            out = Path(config)
        else:
            out.symlink_to(config)
        code = main([command, "--config", config, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"ConfigError: output path {str(out)!r} is the config file\n"
        assert calls == []
        assert Path(config).read_bytes() == before

    # an --out naming an amplitude table the command reads would overwrite
    # it, and the next load would fail on the table.  A shape sweep does not
    # read its packet's table, but the same document under run does, so that
    # table is refused too
    @pytest.mark.parametrize("command,table_of", [
        pytest.param("run", "packet", id="run"), pytest.param("wep", "shapes", id="wep"),
        pytest.param("wep", "packet", id="wep-packet")])
    @pytest.mark.parametrize("form", ["same", "symlink"])
    def test_out_naming_a_table_exits_2_and_keeps_it(self, tmp_path, capsys, monkeypatch,
                                                     command, table_of, form):
        import wavefall.cli as cli
        calls = []
        monkeypatch.setattr(ScenarioConfig, "build_packet",
                            lambda *a, **k: calls.append("build_packet"))
        monkeypatch.setattr(cli, "evolve", lambda *a, **k: calls.append("evolve"))
        monkeypatch.setattr(cli, "_report", lambda *a, **k: calls.append("report"))
        table = write_table(tmp_path / "t.csv")
        doc = table_doc(table) if table_of == "packet" else base_doc()
        if command == "wep":
            doc["shapes"] = [{"shape": "gaussian", "params": [1.0]},
                             {"shape": "custom_table", "table": table} if table_of == "shapes"
                             else {"shape": "skewed_gaussian", "params": [1.0, 1.0]}]
        before = Path(table).read_bytes()
        out = tmp_path / "link.csv"
        if form == "same":
            out = Path(table)
        else:
            out.symlink_to(table)
        code = main([command, "--config", write(tmp_path, doc), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"ConfigError: output path {str(out)!r} is the amplitude table {table!r}\n"
        assert calls == []
        assert Path(table).read_bytes() == before

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("case", ["run", "run_aborted", "ripple"])
    def test_failed_write_exits_2(self, tmp_path, case):
        # a write that fails after the work is done is a validation error,
        # for a full run, a run's partial CSV after an abort and a report
        doc = base_doc()
        if case == "run_aborted":
            # the armed edge monitor stops the shipped standard_1d run
            shipped = CONFIGS / "standard_1d.json"
            doc = json.loads(shipped.read_text())
            doc["evolve"]["spectral_mass_tol"] = 1e-10
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-m", "wavefall", case.split("_")[0], "--config",
             write(tmp_path, doc), "--out", "/dev/full"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2
        assert done.stderr.startswith("ConfigError: cannot write output '/dev/full'")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr


def test_import_footprint():
    # the package and its CLI import numpy alone: no scipy, and none of the
    # thread-pool modules (a 2D/3D transform imports concurrent.futures
    # when it first splits a pass)
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys, wavefall, wavefall.cli; print(sorted(set(sys.argv[1:]) "
            "& set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-c", code, "scipy", "queue", "concurrent.futures", "multiprocessing"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"
