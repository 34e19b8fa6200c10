import numpy as np
import pytest

from helpers import STD_DT, STD_MASS, std_grid, std_packet, std_scenario, std_tidal
from wavefall import (
    ConfigError,
    InitialMomentMismatch,
    NotAdjacent,
    PacketShape,
    PhaseWrapRisk,
    SpectralEdgeContact,
    StepScheme,
    TidalMatrix,
    TooFewPoints,
    TooFewVariants,
    convergence_study,
    eotvos_ratio,
    evolve,
    make_packet,
    phase_difference_check,
    ripple_check,
    wep_mass_sweep,
    wep_shape_sweep,
)
from wavefall import experiments

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


class TestPhaseDifference:
    def test_same_point(self):
        grid = std_grid()
        x = grid.axis_positions[100]
        measured, predicted = phase_difference_check(
            std_packet(grid), std_tidal(), STD_DT, [x], [x])
        assert measured == 0.0 and predicted == 0.0

    def test_flat_space(self):
        grid = std_grid()
        xa, xb = grid.axis_positions[100], grid.axis_positions[101]
        measured, predicted = phase_difference_check(
            std_packet(grid), TidalMatrix.zero(1), STD_DT, [xa], [xb])
        assert measured == 0.0 and predicted == 0.0

    def test_standard_adjacent_pair(self):
        grid = std_grid()
        wf = std_packet(grid, x0=2.0)
        tidal = std_tidal()
        ia = int(np.argmin(np.abs(grid.axis_positions - 2.0)))
        xa, xb = grid.axis_positions[ia], grid.axis_positions[ia + 1]
        measured, predicted = phase_difference_check(wf, tidal, STD_DT, [xa], [xb])
        mid, dx = (xa + xb) / 2.0, xb - xa
        assert predicted == pytest.approx(
            -2 * np.pi * STD_MASS * 1e-4 * mid * dx * STD_DT, rel=1e-12)
        # midpoint rule makes the node-difference read-out exact here,
        # comfortably inside the quoted O(dx^2) budget
        budget = 2 * np.pi * 1e-4 * STD_MASS * STD_DT * dx ** 2
        assert abs(measured - predicted) < 1e-14
        assert abs(measured - predicted) < budget

    def test_not_adjacent(self):
        grid = std_grid()
        wf = std_packet(grid)
        xs = grid.axis_positions
        with pytest.raises(NotAdjacent):
            phase_difference_check(wf, std_tidal(), STD_DT, [xs[10]], [xs[12]])
        with pytest.raises(NotAdjacent):
            phase_difference_check(wf, std_tidal(), STD_DT, [xs[10] + 0.01], [xs[11]])


class TestWepSweeps:
    def test_identical_masses_zero_deviation(self):
        scenario = std_scenario(n_steps=200, record_every=10)
        report = wep_mass_sweep(scenario, masses=(100.0, 100.0))
        assert report.passed
        assert np.array_equal(report.deviations, report.deviations.T)
        assert np.all(report.deviations == 0.0)
        assert np.all(np.diag(report.deviations) == 0.0)
        assert report.labels == ("mass=100", "mass=100")

    def test_mass_sweep_short_run(self):
        scenario = std_scenario(n_steps=300, record_every=10)
        report = wep_mass_sweep(scenario, masses=(50.0, 100.0, 200.0))
        assert report.passed
        assert np.max(report.deviations) < 1e-8
        assert np.max(report.eotvos) < 1e-6

    def test_too_few_masses(self):
        with pytest.raises(TooFewVariants):
            wep_mass_sweep(std_scenario(n_steps=10), masses=(100.0,))
        with pytest.raises(TooFewVariants):
            wep_mass_sweep(std_scenario(n_steps=10))  # no masses block

    def test_identical_shapes_zero_deviation(self):
        scenario = std_scenario(n_steps=200, record_every=10)
        report = wep_shape_sweep(
            scenario, shapes=(PacketShape.gaussian(1.0), PacketShape.gaussian(1.0)))
        assert report.passed and np.all(report.deviations == 0.0)
        assert report.labels == ("gaussian", "gaussian")

    def test_shape_sweep_short_run(self):
        scenario = std_scenario(n_steps=300, record_every=10)
        report = wep_shape_sweep(scenario, shapes=(
            PacketShape.gaussian(1.0),
            PacketShape.skewed_gaussian(1.0, skew=1.0),
            PacketShape.double_peak(0.7, half_separation=1.2)))
        assert report.passed
        assert np.max(report.deviations) < 1e-8

    def test_moment_mismatch_guard(self, tmp_path):
        # a 16-spike comb cannot hit the velocity target; the construction
        # guard fires and the sweep annotates it with the member label
        x = -10.0 + np.arange(16) * (20.0 / 16.0)
        amp = np.exp(-((x - 2.0) ** 2) / 4.0)
        table = tmp_path / "comb.csv"
        np.savetxt(table, np.column_stack([x, amp, 0 * amp]), delimiter=",")
        scenario = std_scenario(n_steps=10)
        with pytest.raises(InitialMomentMismatch) as info:
            wep_shape_sweep(scenario, shapes=(
                PacketShape.gaussian(1.0), PacketShape.from_table(str(table))))
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
        wep_mass_sweep(scenario, masses=(50.0, 100.0))
        wep_shape_sweep(scenario, shapes=shapes)
        monkeypatch.undo()
        packets = ([scenario.build_packet(mass=m) for m in (50.0, 100.0)]
                   + [scenario.build_packet(shape=s) for s in shapes])
        assert len(seen) == len(packets)
        for member, wf in zip(seen, packets):
            alone = evolve(wf, scenario.tidal, scenario.scheme, scenario.evolve_cfg)
            for attr in ("t", "norm", "mean_x", "mean_v", "cov"):
                assert np.array_equal(getattr(member, attr), getattr(alone, attr))
            assert np.array_equal(member.final_state.psi, alone.final_state.psi)

    def test_first_failing_member_stops_the_sweep(self, monkeypatch):
        # mu=100 wraps at step 761 and mu=200 would wrap at step 352, but
        # members run in list order: mu=200 is never evolved
        scenario = std_scenario(n_steps=1570, record_every=10, spectral_mass_tol=1e-10)
        seen = self._capture(monkeypatch)
        with pytest.raises(SpectralEdgeContact) as info:
            wep_mass_sweep(scenario, masses=(50.0, 100.0, 200.0))
        assert str(info.value).startswith("mass=100: spectral edge mass")
        assert str(info.value).endswith("at step 761")
        assert info.value.step_index == 761
        assert len(seen) == 2


class TestArmedSpectralMonitor:
    # on N=256 the mu=200 spectrum reaches the Nyquist edge long before the
    # quarter period ends; mu=50 never does

    def test_mass_sweep_surfaces_member_error(self):
        scenario = std_scenario(n_steps=1570, record_every=10, spectral_mass_tol=1e-10)
        with pytest.raises(SpectralEdgeContact) as info:
            wep_mass_sweep(scenario, masses=(50.0, 200.0))
        exc = info.value
        assert str(exc).startswith("mass=200: spectral edge mass")
        assert 0 < exc.step_index < 1570
        assert exc.partial is not None
        assert exc.partial.final_state.mass == 200.0
        assert exc.partial.final_state.t == pytest.approx(exc.step_index * STD_DT)

    def test_convergence_study_keeps_monitor(self):
        scenario = std_scenario(n_steps=1568, spectral_mass_tol=1e-10)
        with pytest.raises(SpectralEdgeContact):
            convergence_study(scenario, dt_list=(0.4, 0.2, 0.1))


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


class TestConvergence:
    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            convergence_study(std_scenario(n_steps=784), dt_list=(0.1,))

    def test_non_halving_rejected(self):
        with pytest.raises(ConfigError):
            convergence_study(std_scenario(n_steps=784), dt_list=(0.4, 0.3, 0.15))

    def test_strang_order_two(self):
        scenario = std_scenario(n_steps=784)  # T = 78.4
        report = convergence_study(scenario, dt_list=(0.4, 0.2, 0.1),
                                   scheme=StepScheme.STRANG)
        assert 1.8 <= report.order <= 2.2
        assert report.errors[0] > report.errors[-1]

    def test_lie_order_one(self):
        scenario = std_scenario(n_steps=784)
        report = convergence_study(scenario, dt_list=(0.4, 0.2, 0.1),
                                   scheme=StepScheme.LIE)
        assert 0.8 <= report.order <= 1.2

    def test_report_shape(self):
        scenario = std_scenario(n_steps=784)
        report = convergence_study(scenario, dt_list=(0.4, 0.2, 0.1))
        doc = report.to_dict()
        assert doc["scheme"] == "strang"
        assert len(doc["dt"]) == len(doc["errors"]) == 3
