import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import STD_DT, STD_MASS, std_grid, std_packet, std_scenario, std_tidal
from wavefall import (
    ConfigError,
    ConvergenceReport,
    EvolveConfig,
    InitialMomentMismatch,
    PacketShape,
    PhaseWrapRisk,
    SpectralEdgeContact,
    StepScheme,
    TimestampMismatch,
    TooFewPoints,
    TooFewRecords,
    TooFewVariants,
    acceleration_series,
    convergence_study,
    eotvos_ratio,
    evolve,
    load_scenario,
    make_packet,
    match_metric,
    ripple_check,
    wep_mass_sweep,
    wep_shape_sweep,
)
from wavefall import experiments

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# -2 pi mu R <x> dt for mu=100, R=1e-4, <x>=2, dt=0.1
PREDICTED_DK_STD = -0.012566370614359173


class TestRippleCheck:
    def test_centered_packet_no_shift(self):
        rep = ripple_check(std_packet(std_grid(), x0=0.0), std_tidal(), STD_DT)
        assert np.max(np.abs(rep.predicted)) < 1e-12
        assert np.max(np.abs(rep.measured)) < 1e-12
        assert rep.relative_error < 1e-12

    def test_standard_offcenter_value(self):
        rep = ripple_check(std_packet(std_grid(), x0=2.0), std_tidal(), STD_DT)
        assert rep.predicted[0] == pytest.approx(PREDICTED_DK_STD, rel=1e-10)
        assert rep.relative_error < 1e-8

    def test_linear_in_dt(self):
        wf = std_packet(std_grid(), x0=2.0)
        one = ripple_check(wf, std_tidal(), STD_DT)
        two = ripple_check(wf, std_tidal(), 2 * STD_DT)
        assert two.predicted[0] == pytest.approx(2 * one.predicted[0], rel=1e-12)
        assert two.measured[0] == pytest.approx(2 * one.measured[0], rel=1e-10)

    def test_shape_blind_agreement(self):
        for shape in (PacketShape.gaussian(1.0),
                      PacketShape.skewed_gaussian(1.0, skew=1.0),
                      PacketShape.double_peak(0.7, half_separation=1.2)):
            wf = make_packet(std_grid(), shape, [2.0], [0.0], STD_MASS)
            assert ripple_check(wf, std_tidal(), STD_DT).relative_error < 1e-8

    def test_phase_wrap_guard(self):
        wf = std_packet(std_grid(), x0=2.0)
        with pytest.raises(PhaseWrapRisk):
            ripple_check(wf, std_tidal(), 0.3)

    def test_pass_is_strictly_below_tolerance(self):
        rep = ripple_check(std_packet(std_grid(), x0=2.0), std_tidal(), STD_DT)
        assert rep.tolerance == experiments.RIPPLE_PASS_TOL == 1e-8
        assert rep.passed and rep.to_dict()["pass"] is True
        at = replace(rep, relative_error=rep.tolerance)
        assert not at.passed
        assert at.to_dict()["pass"] is False
        assert at.to_dict()["tolerance"] == 1e-8


class TestWepSweeps:
    def test_identical_masses_zero_deviation(self):
        scenario = std_scenario(n_steps=200, record_every=10, masses=(100.0, 100.0))
        report = wep_mass_sweep(scenario)
        assert report.passed
        assert np.array_equal(report.deviations, report.deviations.T)
        assert np.all(report.deviations == 0.0)
        assert np.all(np.diag(report.deviations) == 0.0)
        # equal masses are told apart by their index
        assert report.labels == ("mass[0]=100", "mass[1]=100")

    def test_mass_sweep_short_run(self):
        scenario = std_scenario(n_steps=300, record_every=10, masses=(50.0, 100.0, 200.0))
        report = wep_mass_sweep(scenario)
        assert report.passed
        assert np.max(report.deviations) < 1e-8
        assert np.max(report.eotvos) < 1e-6
        # the verdict is read from the fields: a deviation at the threshold fails
        worst = float(np.max(report.deviations))
        assert not replace(report, threshold=worst).passed
        assert replace(report, threshold=worst).to_dict()["pass"] is False
        assert replace(report, threshold=np.nextafter(worst, 1.0)).passed

    def test_too_few_masses(self):
        with pytest.raises(TooFewVariants):
            wep_mass_sweep(std_scenario(n_steps=10, masses=(100.0,)))
        with pytest.raises(TooFewVariants):
            wep_mass_sweep(std_scenario(n_steps=10))  # no masses block

    def test_identical_shapes_zero_deviation(self):
        scenario = std_scenario(n_steps=200, record_every=10,
                                shapes=(PacketShape.gaussian(1.0), PacketShape.gaussian(1.0)))
        report = wep_shape_sweep(scenario)
        assert report.passed and np.all(report.deviations == 0.0)
        assert report.labels == ("shape[0]=gaussian", "shape[1]=gaussian")

    def test_mass_labels_are_distinct(self):
        # :g writes both masses as 100, so the one it does not read back as
        # is written in full
        scenario = std_scenario(n_steps=20, record_every=10, masses=(100.0, 100.000001))
        assert wep_mass_sweep(scenario).labels == ("mass=100", "mass=100.000001")

    def test_shape_labels_are_distinct(self):
        # two Gaussians of different widths share a kind: both take their index
        scenario = std_scenario(n_steps=20, record_every=10, shapes=(
            PacketShape.gaussian(1.0), PacketShape.skewed_gaussian(1.0, skew=1.0),
            PacketShape.gaussian(0.7)))
        assert wep_shape_sweep(scenario).labels == (
            "shape[0]=gaussian", "shape[1]=skewed_gaussian", "shape[2]=gaussian")

    def test_shape_sweep_short_run(self):
        scenario = std_scenario(n_steps=300, record_every=10, shapes=(
            PacketShape.gaussian(1.0),
            PacketShape.skewed_gaussian(1.0, skew=1.0),
            PacketShape.double_peak(0.7, half_separation=1.2)))
        report = wep_shape_sweep(scenario)
        assert report.passed
        assert np.max(report.deviations) < 1e-8

    def test_moment_mismatch_guard(self, tmp_path):
        # a 16-spike comb cannot hit the velocity target; the construction
        # guard fires and the sweep annotates it with the member label
        x = -10.0 + np.arange(16) * (20.0 / 16.0)
        amp = np.exp(-((x - 2.0) ** 2) / 4.0)
        table = tmp_path / "comb.csv"
        np.savetxt(table, np.column_stack([x, amp, 0 * amp]), delimiter=",")
        scenario = std_scenario(n_steps=10, shapes=(
            PacketShape.gaussian(1.0), PacketShape.from_table(str(table))))
        with pytest.raises(InitialMomentMismatch) as info:
            wep_shape_sweep(scenario)
        assert "custom_table" in str(info.value)


class TestSerialSweep:
    @staticmethod
    def _capture(monkeypatch):
        """One entry per member ``evolve`` call, in call order: its series,
        or None for a call that raised."""
        seen = []
        original = experiments.evolve

        def counting(*args, **kwargs):
            seen.append(None)
            series = original(*args, **kwargs)
            seen[-1] = series
            return series

        monkeypatch.setattr(experiments, "evolve", counting)
        return seen

    def test_members_equal_standalone_runs(self, monkeypatch):
        scenario = std_scenario(n_steps=200, record_every=10)
        shapes = (PacketShape.gaussian(1.0), PacketShape.double_peak(0.7, half_separation=1.2))
        seen = self._capture(monkeypatch)
        wep_mass_sweep(replace(scenario, masses=(50.0, 100.0)))
        wep_shape_sweep(replace(scenario, shapes=shapes))
        monkeypatch.undo()
        packets = ([scenario.build_packet(mass=m) for m in (50.0, 100.0)]
                   + [scenario.build_packet(shape=s) for s in shapes])
        assert len(seen) == len(packets)
        for member, wf in zip(seen, packets):
            alone = evolve(wf, scenario.tidal, scenario.scheme, scenario.evolve_cfg)
            for attr in ("t", "norm", "mean_x", "mean_v", "cov"):
                assert np.array_equal(getattr(member, attr), getattr(alone, attr))
            assert np.array_equal(member.final_state.psi, alone.final_state.psi)

    def test_1d_runs_start_no_thread(self, tmp_path):
        # 1D fields and 1D record stacks stay under spectral.SPLIT_CELLS, so
        # a 1D run and the shipped mass sweep never start the transform's
        # worker thread, nor import a thread pool
        root = Path(__file__).resolve().parent.parent
        code = textwrap.dedent("""
            import sys, threading
            from wavefall import spectral
            from wavefall.cli import main
            configs, out = sys.argv[1:]
            for command, name in (("run", "standard_1d"), ("wep", "wep_mass_1d")):
                assert main([command, "--config", f"{configs}/{name}.json", "--out", out]) == 0
            print(threading.active_count(), "concurrent.futures" in sys.modules,
                  spectral._jobs is None)
            """)
        done = subprocess.run(
            [sys.executable, "-c", code, str(root / "configs"), str(tmp_path / "out")],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(root / "src")})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "False", "True"]

    def test_first_failing_member_stops_the_sweep(self, monkeypatch):
        # mu=100 wraps at step 761 and mu=200 would wrap at step 352, but
        # members run in list order: mu=200 is never evolved
        scenario = std_scenario(n_steps=1570, record_every=10, spectral_mass_tol=1e-10,
                                masses=(50.0, 100.0, 200.0))
        seen = self._capture(monkeypatch)
        with pytest.raises(SpectralEdgeContact) as info:
            wep_mass_sweep(scenario)
        assert str(info.value).startswith("mass=100: spectral edge mass")
        assert str(info.value).endswith("at step 761")
        assert info.value.step_index == 761
        assert len(seen) == 2
        # two records cannot fill the Eotvos stencil: each sweep raises the
        # error acceleration_series would, before it evolves any member
        short = replace(scenario, evolve_cfg=EvolveConfig(dt=STD_DT, n_steps=10,
                                                          record_every=10))
        with pytest.raises(TooFewRecords) as late:
            acceleration_series(evolve(short.build_packet(), short.tidal, short.scheme,
                                       short.evolve_cfg))
        seen.clear()
        shapes = (PacketShape.gaussian(1.0), PacketShape.double_peak(0.7, half_separation=1.2))
        for sweep, members in ((wep_mass_sweep, short),
                               (wep_shape_sweep, replace(short, masses=None, shapes=shapes))):
            with pytest.raises(TooFewRecords) as early:
                sweep(members)
            assert str(early.value) == str(late.value) == "need at least 3 records, got 2"
        assert seen == []


class TestArmedSpectralMonitor:
    # on N=256 the mu=200 spectrum reaches the Nyquist edge long before the
    # quarter period ends; mu=50 never does

    def test_mass_sweep_surfaces_member_error(self):
        scenario = std_scenario(n_steps=1570, record_every=10, spectral_mass_tol=1e-10,
                                masses=(50.0, 200.0))
        with pytest.raises(SpectralEdgeContact) as info:
            wep_mass_sweep(scenario)
        exc = info.value
        assert str(exc).startswith("mass=200: spectral edge mass")
        assert 0 < exc.step_index < 1570
        assert exc.partial is not None
        assert exc.partial.final_state.mass == 200.0
        assert exc.partial.final_state.t == pytest.approx(exc.step_index * STD_DT)

    def test_convergence_study_keeps_monitor(self):
        scenario = std_scenario(n_steps=1568, spectral_mass_tol=1e-10, dt_list=(0.4, 0.2, 0.1))
        with pytest.raises(SpectralEdgeContact):
            convergence_study(scenario)

    def test_shipped_mass_sweep_clears_the_edge(self):
        # N=768 holds mu=200 over the quarter period with a margin of about
        # 6x (peak edge mass 1.6e-11; mu=50 and 100 about 1e-17): a config
        # edit that eats it fails here instead of wrapping silently
        scenario = load_scenario(CONFIGS / "wep_mass_1d.json")
        cfg = replace(scenario.evolve_cfg, spectral_mass_tol=1e-10)
        for mass in scenario.masses:
            series = evolve(scenario.build_packet(mass=mass), scenario.tidal,
                            scenario.scheme, cfg)
            assert series.n_records == cfg.n_steps // cfg.record_every + 1
            assert series.diagnostics["max_spectral_edge_mass"] < 1e-10


class TestEotvosRatio:
    def test_identical_runs(self):
        scenario = std_scenario(n_steps=100, record_every=10)
        run = evolve(scenario.build_packet(), scenario.tidal, scenario.scheme,
                     scenario.evolve_cfg)
        assert eotvos_ratio(run, run) == 0.0

    def test_flat_space_zero_by_convention(self):
        scenario = std_scenario(n_steps=100, record_every=10, r=0.0, x0=0.0)
        run_a = evolve(scenario.build_packet(mass=100.0), scenario.tidal,
                       scenario.scheme, scenario.evolve_cfg)
        run_b = evolve(scenario.build_packet(mass=200.0), scenario.tidal,
                       scenario.scheme, scenario.evolve_cfg)
        assert eotvos_ratio(run_a, run_b) == 0.0

    def test_standard_pair_small(self):
        scenario = std_scenario(n_steps=300, record_every=10)
        run_a = evolve(scenario.build_packet(mass=100.0), scenario.tidal,
                       scenario.scheme, scenario.evolve_cfg)
        run_b = evolve(scenario.build_packet(mass=200.0), scenario.tidal,
                       scenario.scheme, scenario.evolve_cfg)
        assert eotvos_ratio(run_a, run_b) < 1e-6

    def test_stamp_mismatch_is_the_match_metric_check(self):
        # one stamp check serves both pairwise metrics: same error, same text
        scenario = std_scenario(n_steps=30, record_every=10)
        run = evolve(scenario.build_packet(), scenario.tidal, scenario.scheme,
                     scenario.evolve_cfg)
        for other in (replace(run, t=run.t + 0.05), replace(run, t=run.t[:-1])):
            for metric in (eotvos_ratio, match_metric):
                with pytest.raises(TimestampMismatch,
                                   match="^series do not share time stamps$"):
                    metric(run, other)


class TestConvergence:
    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            convergence_study(std_scenario(n_steps=784, dt_list=(0.1,)))

    def test_non_halving_rejected(self):
        with pytest.raises(ConfigError):
            convergence_study(std_scenario(n_steps=784, dt_list=(0.4, 0.3, 0.15)))

    @pytest.mark.parametrize("dts", [(0.0, 0.2, 0.1), (-0.4, -0.2, -0.1)])
    def test_non_positive_dt_rejected(self, dts):
        # the same ConfigError the loader raises, before any member is built
        with pytest.raises(ConfigError, match="^dt_list entries must be positive"):
            convergence_study(std_scenario(n_steps=784, dt_list=dts))

    def test_strang_order_two(self):
        scenario = std_scenario(n_steps=784, dt_list=(0.4, 0.2, 0.1))  # T = 78.4
        report = convergence_study(scenario)
        assert 1.8 <= report.order <= 2.2
        assert report.errors[0] > report.errors[-1]

    def test_lie_order_one(self):
        scenario = std_scenario(n_steps=784, dt_list=(0.4, 0.2, 0.1), scheme=StepScheme.LIE)
        report = convergence_study(scenario)
        assert 0.8 <= report.order <= 1.2

    def test_report_shape(self):
        scenario = std_scenario(n_steps=784, dt_list=(0.4, 0.2, 0.1))
        report = convergence_study(scenario)
        doc = report.to_dict()
        assert doc["scheme"] == "strang"
        assert len(doc["dt"]) == len(doc["errors"]) == 3
        assert doc["order_band"] == [1.8, 2.2] and doc["pass"] is True

    def test_band_is_inclusive(self):
        report = ConvergenceReport(scheme="lie", dts=(0.4, 0.2, 0.1), errors=(4.0, 2.0, 1.0),
                                   order=0.8, band=experiments.DEFAULT_ORDER_BANDS[StepScheme.LIE])
        assert report.passed
        assert replace(report, order=1.2).passed
        assert not replace(report, order=np.nextafter(1.2, 2.0)).passed
        assert not replace(report, order=np.nextafter(0.8, 0.0)).passed
