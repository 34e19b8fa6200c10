import numpy as np
import pytest

from wavefall import (
    ClassicalState,
    StepTooLarge,
    TidalMatrix,
    TimestampMismatch,
    TrajectorySeries,
    VelocityTooHigh,
    dropped_term_scale,
    energy_like,
    exact_flow,
    match_metric,
    rk4_integrate,
    tidal_acceleration,
)


class TestTidalAcceleration:
    def test_zero_cases(self):
        tidal = TidalMatrix([[1e-4]])
        assert tidal_acceleration([0.0], tidal) == pytest.approx([0.0])
        assert tidal_acceleration([3.0], TidalMatrix.zero(1)) == pytest.approx([0.0])

    def test_arithmetic(self):
        assert tidal_acceleration([2.0], TidalMatrix([[1e-4]]))[0] == pytest.approx(
            -2e-4, abs=1e-18)

    def test_matrix_coupling(self):
        tidal = TidalMatrix([[0.0, 1e-4], [1e-4, 0.0]])
        acc = tidal_acceleration([1.0, 2.0], tidal)
        assert np.allclose(acc, [-2e-4, -1e-4], atol=1e-18)


class TestRK4:
    def test_free_motion_is_linear(self):
        s0 = ClassicalState(x=[1.0], v=[0.01])
        traj = rk4_integrate(s0, TidalMatrix.zero(1), 0.1, 1000)
        expected = 1.0 + 0.01 * traj.t
        assert np.max(np.abs(traj.x[:, 0] - expected)) < 1e-12

    def test_harmonic_closed_form(self):
        omega = 0.01
        tidal = TidalMatrix([[omega ** 2]])
        s0 = ClassicalState(x=[1.0], v=[0.0])
        n = 6283
        traj = rk4_integrate(s0, tidal, 0.1, n)
        expected = np.cos(omega * traj.t)
        assert np.max(np.abs(traj.x[:, 0] - expected)) < 1e-8

    def test_energy_drift(self):
        tidal = TidalMatrix([[1e-4]])
        s0 = ClassicalState(x=[2.0], v=[0.0])
        traj = rk4_integrate(s0, tidal, 0.1, 10000)
        energy = energy_like(traj, tidal)
        drift = np.max(np.abs(energy - energy[0])) / energy[0]
        assert drift < 1e-10

    def test_time_reversal(self):
        tidal = TidalMatrix([[1e-4]])
        fwd = rk4_integrate(ClassicalState(x=[2.0], v=[0.001]), tidal, 0.1, 500)
        back = rk4_integrate(ClassicalState(x=fwd.x[-1], v=-fwd.v[-1]), tidal, 0.1, 500)
        assert np.max(np.abs(back.x[-1] - [2.0])) < 1e-10
        assert np.max(np.abs(back.v[-1] + [0.001])) < 1e-10

    def test_flow_linearity(self):
        tidal = TidalMatrix([[1e-4]])
        one = rk4_integrate(ClassicalState(x=[1.0], v=[0.0]), tidal, 0.1, 300)
        two = rk4_integrate(ClassicalState(x=[2.0], v=[0.0]), tidal, 0.1, 300)
        assert np.max(np.abs(two.x - 2.0 * one.x)) < 1e-10

    def test_step_guard(self):
        with pytest.raises(StepTooLarge):
            rk4_integrate(ClassicalState(x=[1.0], v=[0.0]), TidalMatrix([[1.0]]), 0.1, 10)

    def test_speed_guards(self):
        with pytest.raises(VelocityTooHigh):
            ClassicalState(x=[0.0], v=[0.2])
        # wide harmonic swing whose speed crosses the cap mid-run
        # (peak speed = omega * x0 = 0.12)
        tidal = TidalMatrix([[1e-4]])
        with pytest.raises(VelocityTooHigh):
            rk4_integrate(ClassicalState(x=[12.0], v=[0.0]), tidal, 0.1, 1600)


class TestExactFlow:
    # closed form against the independent RK4 route on the same stamps
    @pytest.mark.parametrize("entries,x0,v0,n", [
        ([[1e-4]], [2.0], [0.001], 1570),
        # eigenvalues ~1.1e-4 and ~-2.1e-4: one oscillating, one growing mode
        ([[1e-4, 5e-5], [5e-5, -2e-4]], [1.0, -0.5], [0.002, 0.001], 1000),
        ([[0.0, 0.0], [0.0, 0.0]], [1.0, -2.0], [0.01, 0.003], 1000),
    ])
    def test_matches_rk4(self, entries, x0, v0, n):
        tidal = TidalMatrix(entries)
        ref = rk4_integrate(ClassicalState(x=x0, v=v0), tidal, 0.1, n)
        flow = exact_flow(x0, v0, tidal, ref.t)
        assert np.array_equal(flow.t, ref.t)
        assert np.max(np.abs(flow.x - ref.x)) < 1e-12
        assert np.max(np.abs(flow.v - ref.v)) < 1e-12

    def test_speed_guard(self):
        # the growing mode leaves the low-energy regime, as RK4 does
        tidal = TidalMatrix([[-1e-4]])
        with pytest.raises(VelocityTooHigh):
            rk4_integrate(ClassicalState(x=[2.0], v=[0.0]), tidal, 0.1, 4000)
        with pytest.raises(VelocityTooHigh):
            exact_flow([2.0], [0.0], tidal, 0.1 * np.arange(4001))


class TestMatchMetric:
    def _series(self, offset=0.0):
        t = 0.1 * np.arange(11)
        x = np.cos(t)[:, None] + offset
        return TrajectorySeries(t=t, x=x, v=np.zeros_like(x))

    def test_identical_series(self):
        assert match_metric(self._series(), self._series()) == 0.0

    def test_constant_offset(self):
        assert match_metric(self._series(), self._series(0.5)) == pytest.approx(0.5)

    def test_timestamp_mismatch(self):
        a = self._series()
        b = self._series()
        b.t = b.t + 0.05
        with pytest.raises(TimestampMismatch):
            match_metric(a, b)

    def test_subsampling_helper(self):
        traj = self._series().every(2)
        assert traj.t.shape[0] == 6
        assert traj.t[1] == pytest.approx(0.2)


class TestDiagnostics:
    def test_dropped_term_scale(self):
        tidal = TidalMatrix([[1e-4]])
        traj = rk4_integrate(ClassicalState(x=[2.0], v=[0.0]), tidal, 0.1, 1570)
        scale = dropped_term_scale(traj, tidal)
        # max|x| ~ 2, max|v| ~ omega x0 = 0.02, max|R| = 1e-4
        assert scale == pytest.approx(2.0 * 0.02 * 1e-4, rel=1e-3)
