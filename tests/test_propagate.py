import numpy as np
import pytest

from helpers import (
    STD_DT,
    STD_MASS,
    npfft_centroid,
    std_grid,
    std_packet,
    std_tidal,
)
from wavefall import (
    BoundaryContact,
    EvolveConfig,
    OutsideValidity,
    PacketShape,
    SpectralEdgeContact,
    StepScheme,
    StepTooLarge,
    TidalMatrix,
    TimestampMismatch,
    TooFewRecords,
    WaveFunction,
    acceleration_series,
    evolve,
    kinetic_step,
    make_packet,
    mean_position,
    mean_velocity_spectral,
    norm,
    tidal_step,
)
from wavefall.packets import covariance
from wavefall.propagate import _band_mask, _margin_slabs, _tidal_phase_field
from wavefall.spectral import SpectralGrid

TWO_PI = 2.0 * np.pi


class TestKineticStep:
    def test_single_mode_phase(self):
        grid = std_grid(n=64)
        k1 = grid.axis_wavenumbers[7]
        psi = np.exp(1j * k1 * grid.axis_positions)
        wf = WaveFunction(grid=grid, psi=psi, mass=STD_MASS)
        stepped = kinetic_step(wf, STD_DT)
        ratio = stepped.psi / psi
        expected = np.exp(-1j * k1 ** 2 * STD_DT / (4 * np.pi * STD_MASS))
        assert np.allclose(ratio, expected, atol=1e-12)
        assert stepped.t == wf.t + STD_DT

    def test_zero_mode_unchanged(self):
        grid = std_grid(n=16)
        psi = np.ones(16, dtype=complex)
        stepped = kinetic_step(WaveFunction(grid=grid, psi=psi, mass=STD_MASS), STD_DT)
        assert np.allclose(stepped.psi, psi, atol=1e-14)

    def test_conserves_norm_and_velocity(self):
        wf = std_packet(std_grid(), v0=0.01)
        stepped = kinetic_step(wf, STD_DT)
        assert abs(norm(stepped) - norm(wf)) < 1e-12
        dv = mean_velocity_spectral(stepped) - mean_velocity_spectral(wf)
        assert np.max(np.abs(dv)) < 1e-12

    def test_group_velocity_drift(self):
        # <x> advances by <v> dt; cross-checked against a raw-numpy centroid
        wf = std_packet(std_grid(), v0=0.01)
        stepped = kinetic_step(wf, STD_DT)
        shift = mean_position(stepped)[0] - mean_position(wf)[0]
        assert shift == pytest.approx(0.001, abs=1e-10)
        k_indep = npfft_centroid(wf.psi, wf.grid)[0]
        assert shift == pytest.approx(k_indep / (TWO_PI * STD_MASS) * STD_DT, abs=1e-10)

    def test_phase_budget_guard(self):
        wf = std_packet(std_grid(), mass=100.0)
        with pytest.raises(StepTooLarge):
            kinetic_step(wf, 10.0)


class TestTidalStep:
    def test_zero_curvature_is_identity(self):
        wf = std_packet(std_grid())
        stepped = tidal_step(wf, TidalMatrix.zero(1), STD_DT)
        assert np.array_equal(stepped.psi, wf.psi)
        assert stepped.t == wf.t

    def test_centered_packet_gets_no_kick(self):
        wf = std_packet(std_grid(), x0=0.0)
        stepped = tidal_step(wf, std_tidal(), STD_DT)
        dv = mean_velocity_spectral(stepped) - mean_velocity_spectral(wf)
        assert np.max(np.abs(dv)) < 1e-12

    def test_kick_matches_grid_sum_oracle(self):
        # <dv> = sum |psi|^2 (-R x dt) dV evaluated directly on the lattice
        grid = std_grid()
        wf = std_packet(grid, x0=2.0)
        tidal = std_tidal()
        stepped = tidal_step(wf, tidal, STD_DT)
        dv = (mean_velocity_spectral(stepped) - mean_velocity_spectral(wf))[0]
        rho = np.abs(wf.psi) ** 2 * grid.cell_volume
        oracle = float((rho * (-tidal.entries[0, 0] * grid.axis_positions * STD_DT)).sum())
        assert dv == pytest.approx(oracle, abs=1e-10)
        assert dv == pytest.approx(-2e-5, abs=1e-10)

    def test_position_norm_time_unchanged(self):
        wf = std_packet(std_grid(), x0=2.0)
        stepped = tidal_step(wf, std_tidal(), STD_DT)
        assert stepped.t == wf.t
        assert abs(norm(stepped) - norm(wf)) < 1e-12
        assert abs(mean_position(stepped)[0] - mean_position(wf)[0]) < 1e-12

    def test_kick_is_shape_blind(self):
        grid = std_grid()
        tidal = std_tidal()
        for shape in (PacketShape.gaussian(1.0),
                      PacketShape.skewed_gaussian(1.0, skew=1.0),
                      PacketShape.double_peak(0.7, half_separation=1.2)):
            wf = make_packet(grid, shape, [2.0], [0.0], STD_MASS)
            stepped = tidal_step(wf, tidal, STD_DT)
            dv = mean_velocity_spectral(stepped) - mean_velocity_spectral(wf)
            kick = tidal.apply(mean_position(wf)) * STD_DT
            assert np.max(np.abs(dv + kick)) < 1e-10

    def test_guards(self):
        wf = std_packet(std_grid())
        with pytest.raises(StepTooLarge):
            tidal_step(wf, TidalMatrix([[1.0]]), 1.0)
        with pytest.raises(OutsideValidity):
            tidal_step(wf, TidalMatrix([[5e-4]]), 0.01)
        with pytest.raises(ValueError):
            tidal_step(wf, TidalMatrix.zero(2), STD_DT)

    def test_exact_rate_variant(self):
        # un-truncated clock-rate imprint differs by the bounded series tail
        # 2 pi mu dt |sqrt(1+q) - 1 - q/2| <= 2 pi mu dt q^2/8 at the edge
        grid = std_grid()
        wf = std_packet(grid, x0=2.0)
        tidal = std_tidal()
        first = tidal_step(wf, tidal, STD_DT)
        exact = tidal_step(wf, tidal, STD_DT, exact_rate=True)
        phase_gap = np.abs(np.angle(exact.psi * np.conj(first.psi)))
        q_edge = tidal.entries[0, 0] * (grid.extent / 2.0) ** 2
        bound = 2 * np.pi * STD_MASS * STD_DT * q_edge ** 2 / 8.0
        assert float(np.max(phase_gap)) <= bound * 1.01
        assert abs(norm(exact) - 1.0) < 1e-12
        # the kick changes only at the series-tail level
        dv_first = mean_velocity_spectral(first)[0] - mean_velocity_spectral(wf)[0]
        dv_exact = mean_velocity_spectral(exact)[0] - mean_velocity_spectral(wf)[0]
        assert dv_exact == pytest.approx(dv_first, rel=1e-3)


class TestEvolve:
    def test_free_packet_momentum_and_linearity(self):
        wf = std_packet(std_grid(), x0=0.0, v0=0.01)
        cfg = EvolveConfig(dt=STD_DT, n_steps=1000, record_every=50)
        series = evolve(wf, TidalMatrix.zero(1), StepScheme.STRANG, cfg)
        assert np.max(np.abs(series.mean_v - series.mean_v[0])) < 1e-12
        line = series.mean_x[0, 0] + series.mean_v[0, 0] * (series.t - series.t[0])
        assert np.max(np.abs(series.mean_x[:, 0] - line)) < 1e-10

    def test_norm_stays_unit(self):
        wf = std_packet(std_grid(), x0=2.0)
        cfg = EvolveConfig(dt=STD_DT, n_steps=200, record_every=10)
        series = evolve(wf, std_tidal(), StepScheme.STRANG, cfg)
        assert np.max(np.abs(series.norm - 1.0)) < 1e-12 * 200

    def test_strang_step_equals_composed_ops(self):
        wf = std_packet(std_grid(), x0=2.0)
        tidal = std_tidal()
        cfg = EvolveConfig(dt=STD_DT, n_steps=1)
        series = evolve(wf, tidal, StepScheme.STRANG, cfg)
        composed = tidal_step(kinetic_step(tidal_step(wf, tidal, STD_DT / 2), STD_DT),
                              tidal, STD_DT / 2)
        assert np.max(np.abs(series.final_state.psi - composed.psi)) < 1e-14
        assert series.final_state.t == composed.t

    def test_lie_step_equals_composed_ops(self):
        wf = std_packet(std_grid(), x0=2.0)
        tidal = std_tidal()
        series = evolve(wf, tidal, StepScheme.LIE, EvolveConfig(dt=STD_DT, n_steps=1))
        composed = tidal_step(kinetic_step(wf, STD_DT), tidal, STD_DT)
        assert np.max(np.abs(series.final_state.psi - composed.psi)) < 1e-14

    def test_exact_rate_run_stays_close_to_classical(self):
        from wavefall import ClassicalState, match_metric, rk4_integrate
        wf = std_packet(std_grid(n=512), x0=2.0)
        cfg = EvolveConfig(dt=STD_DT, n_steps=400, record_every=10)
        series = evolve(wf, std_tidal(), StepScheme.STRANG, cfg, exact_rate=True)
        ref = rk4_integrate(ClassicalState(x=[2.0], v=[0.0]), std_tidal(),
                            STD_DT, 400).every(10)
        # the series tail adds an O(eps^2) force correction on top of the
        # splitting error; stays well inside the weak-field budget
        assert match_metric(series, ref) < 1e-4

    def test_record_cadence_and_final_state(self):
        wf = std_packet(std_grid(), x0=2.0)
        cfg = EvolveConfig(dt=STD_DT, n_steps=20, record_every=7)
        series = evolve(wf, std_tidal(), StepScheme.STRANG, cfg)
        assert series.n_records == 3
        assert np.allclose(series.t, [0.0, 0.7, 1.4], atol=1e-12)
        assert series.final_state.t == pytest.approx(2.0, abs=1e-12)
        assert "epsilon" in series.diagnostics
        assert "dropped_cross_term_rel" in series.diagnostics

    def test_quarter_period_tracks_classical(self):
        # resolution chosen so the focused spectrum fits the lattice: the
        # packet reaches <k> ~ 2 pi mu w x0 with squeezed width 2 pi mu w s
        from wavefall import ClassicalState, match_metric, rk4_integrate
        grid = std_grid(n=512)
        wf = std_packet(grid, x0=2.0)
        cfg = EvolveConfig(dt=STD_DT, n_steps=1570, record_every=10)
        series = evolve(wf, std_tidal(), StepScheme.STRANG, cfg)
        ref = rk4_integrate(ClassicalState(x=[2.0], v=[0.0]), std_tidal(),
                            STD_DT, 1570).every(10)
        assert match_metric(series, ref) < 1e-6

    def test_mass_independence_short_run(self):
        # short arc on the coarse grid: spectra stay far from the lattice edge
        grid = std_grid()
        cfg = EvolveConfig(dt=STD_DT, n_steps=300, record_every=10)
        series = {}
        for mass in (100.0, 200.0):
            wf = std_packet(grid, x0=2.0, mass=mass)
            series[mass] = evolve(wf, std_tidal(), StepScheme.STRANG, cfg)
        dev = np.max(np.abs(series[100.0].mean_x - series[200.0].mean_x))
        assert dev < 1e-8

    def test_shape_independence_short_run(self):
        grid = std_grid()
        cfg = EvolveConfig(dt=STD_DT, n_steps=300, record_every=10)
        out = []
        for shape in (PacketShape.gaussian(1.0),
                      PacketShape.skewed_gaussian(1.0, skew=1.0),
                      PacketShape.double_peak(0.7, half_separation=1.2)):
            wf = make_packet(grid, shape, [2.0], [0.0], STD_MASS)
            out.append(evolve(wf, std_tidal(), StepScheme.STRANG, cfg).mean_x)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert np.max(np.abs(out[i] - out[j])) < 1e-8

    def test_boundary_contact_initial(self):
        grid = std_grid()
        wf = std_packet(grid, x0=4.0)
        cfg = EvolveConfig(dt=STD_DT, n_steps=10, boundary_margin_fraction=0.3)
        with pytest.raises(BoundaryContact) as info:
            evolve(wf, std_tidal(), StepScheme.STRANG, cfg)
        assert info.value.step_index == 0
        assert info.value.partial is not None

    def test_boundary_contact_mid_run(self):
        # drifting packet walks into the margin band and aborts with partials
        grid = std_grid()
        wf = make_packet(grid, PacketShape.gaussian(1.0), [2.0], [0.05], 30.0)
        cfg = EvolveConfig(dt=STD_DT, n_steps=4000, record_every=10)
        with pytest.raises(BoundaryContact) as info:
            evolve(wf, TidalMatrix.zero(1), StepScheme.STRANG, cfg)
        exc = info.value
        assert 0 < exc.step_index < 4000
        assert exc.partial is not None and exc.partial.n_records > 1
        assert np.max(np.abs(exc.partial.norm - 1.0)) < 1e-10

    def test_step_budget_guards(self):
        wf = std_packet(std_grid())
        with pytest.raises(StepTooLarge):
            evolve(wf, std_tidal(), StepScheme.STRANG, EvolveConfig(dt=50.0, n_steps=1))
        with pytest.raises(OutsideValidity):
            evolve(wf, TidalMatrix([[5e-4]]), StepScheme.STRANG,
                   EvolveConfig(dt=0.01, n_steps=1))
        with pytest.raises(ValueError):
            evolve(wf, TidalMatrix.zero(2), StepScheme.STRANG,
                   EvolveConfig(dt=STD_DT, n_steps=1))

    def test_config_validation(self):
        with pytest.raises(StepTooLarge):
            EvolveConfig(dt=-0.1, n_steps=10)
        with pytest.raises(ValueError):
            EvolveConfig(dt=0.1, n_steps=0)
        with pytest.raises(ValueError):
            EvolveConfig(dt=0.1, n_steps=1, boundary_margin_fraction=0.7)
        for tol in (0.0, -1e-10):
            with pytest.raises(ValueError):
                EvolveConfig(dt=0.1, n_steps=1, spectral_mass_tol=tol)


# off-diagonal tidal matrices for the multi-dimensional lean-loop checks
LEAN_TIDAL = {
    1: [[1e-4]],
    2: [[1e-4, 3e-5], [3e-5, -5e-5]],
    3: [[1e-4, 2e-5, 0.0], [2e-5, -4e-5, 1e-5], [0.0, 1e-5, -6e-5]],
}
LEAN_N = {1: 256, 2: 32, 3: 32}


def reference_evolve(wf, tidal, scheme, cfg):
    """Moments and final state of the split-step loop written out through
    ``grid.forward``/``grid.inverse``, as a reference for ``evolve``."""
    grid, mass, dt = wf.grid, wf.mass, cfg.dt
    kin = np.exp(-1j * grid.k_squared * (dt / (4.0 * np.pi * mass)))
    if scheme is StepScheme.STRANG:
        first = last = np.exp(1j * _tidal_phase_field(grid, tidal, mass, dt / 2.0, False))
    else:
        first, last = None, np.exp(1j * _tidal_phase_field(grid, tidal, mass, dt, False))
    psi, rows = wf.psi, []
    for step in range(cfg.n_steps + 1):
        # each product keeps the loop's operand order: numpy's complex
        # multiply is not bitwise commutative, and ``a * f(x)`` on a large
        # temporary may be evaluated in place with the operands swapped
        if step > 0:
            if first is not None:
                psi = first * psi
            spectrum = grid.forward(psi)
            np.multiply(kin, spectrum, out=spectrum)
            psi = grid.inverse(spectrum)
            psi = last * psi
        if step % cfg.record_every == 0:
            view = WaveFunction(grid=grid, psi=psi, mass=mass, t=dt * step)
            rows.append((view.t, norm(view), mean_position(view),
                         mean_velocity_spectral(view), covariance(view)))
    return [np.asarray(col) for col in zip(*rows)], psi


class TestLeanLoop:
    @pytest.mark.parametrize("scheme", [StepScheme.LIE, StepScheme.STRANG])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_raw_transform_pair_matches_reference_to_the_bit(self, dim, scheme):
        grid = SpectralGrid(dim=dim, n=LEAN_N[dim], extent=20.0)
        x0 = [1.5, -1.0, 0.5][:dim]
        v0 = [0.002, -0.001, 0.001][:dim]
        wf = make_packet(grid, PacketShape.gaussian(1.0), x0, v0, 50.0)
        tidal = TidalMatrix(LEAN_TIDAL[dim])
        cfg = EvolveConfig(dt=STD_DT, n_steps=40, record_every=7)
        series = evolve(wf, tidal, scheme, cfg)
        (t, nrm, mx, mv, cov), psi = reference_evolve(wf, tidal, scheme, cfg)
        assert np.array_equal(series.final_state.psi, psi)
        for got, want in ((series.t, t), (series.norm, nrm), (series.mean_x, mx),
                          (series.mean_v, mv), (series.cov, cov)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("fraction", [0.1, 0.25])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_margin_slabs_cover_band_once(self, dim, fraction):
        grid = SpectralGrid(dim=dim, n=LEAN_N[dim], extent=20.0)
        cut = grid.extent / 2.0 - fraction * grid.extent
        hits = np.zeros(grid.shape, dtype=int)
        for slab in _margin_slabs(grid, cut):
            hits[slab] += 1
        assert len(_margin_slabs(grid, cut)) == 2 * dim
        assert np.array_equal(hits, _band_mask(grid, grid.position_meshes, cut).astype(int))


def raw_edge_mass(wf):
    """Probability in |k| >= 0.9 k_max from a raw numpy fft (1D)."""
    n = wf.grid.n
    w = np.abs(np.fft.fft(wf.psi, norm="ortho")) ** 2 * wf.grid.dx
    modes = np.abs(np.fft.fftfreq(n) * n)
    return float(w[modes >= 0.9 * n / 2].sum())


class TestSpectralMonitor:
    # N=256 cannot hold the focused mu=100 spectrum for a quarter period
    # (README, "Resolution requirements"); N=512 can

    def test_stops_wrapping_run_with_partials(self):
        wf = std_packet(std_grid(), x0=2.0)
        cfg = EvolveConfig(dt=STD_DT, n_steps=1570, record_every=10, spectral_mass_tol=1e-10)
        with pytest.raises(SpectralEdgeContact) as info:
            evolve(wf, std_tidal(), StepScheme.STRANG, cfg)
        exc = info.value
        assert isinstance(exc, BoundaryContact)
        assert 0 < exc.step_index < 1570
        assert exc.partial.n_records == (exc.step_index - 1) // 10 + 1
        assert exc.partial.final_state.t == pytest.approx(exc.step_index * STD_DT)
        assert exc.partial.diagnostics["max_spectral_edge_mass"] > 1e-10
        assert np.max(np.abs(exc.partial.norm - 1.0)) < 1e-10

    def test_trips_on_raw_fft_band_mass_of_entering_state(self):
        # a lie step transforms the state it starts from, so the monitor
        # stops at step s exactly when psi_{s-1} has too much edge mass
        tol = 1e-10
        wf = std_packet(std_grid(), x0=2.0)
        cfg = EvolveConfig(dt=STD_DT, n_steps=1570, spectral_mass_tol=tol)
        with pytest.raises(SpectralEdgeContact) as info:
            evolve(wf, std_tidal(), StepScheme.LIE, cfg)
        stop = info.value.step_index
        before = [evolve(wf, std_tidal(), StepScheme.LIE,
                         EvolveConfig(dt=STD_DT, n_steps=n, spectral_mass_tol=tol)).final_state
                  for n in (stop - 2, stop - 1)]
        assert raw_edge_mass(before[0]) <= tol < raw_edge_mass(before[1])

    def test_quiet_monitor_changes_nothing(self):
        wf = std_packet(std_grid(n=512), x0=2.0)
        plain = EvolveConfig(dt=STD_DT, n_steps=1570, record_every=10)
        armed = EvolveConfig(dt=STD_DT, n_steps=1570, record_every=10, spectral_mass_tol=1e-10)
        a = evolve(wf, std_tidal(), StepScheme.STRANG, plain)
        b = evolve(wf, std_tidal(), StepScheme.STRANG, armed)
        assert np.array_equal(a.mean_x, b.mean_x) and np.array_equal(a.cov, b.cov)
        assert np.array_equal(a.final_state.psi, b.final_state.psi)
        assert a.diagnostics["max_spectral_edge_mass"] is None
        assert 0.0 < b.diagnostics["max_spectral_edge_mass"] < 1e-15


class TestAccelerationSeries:
    def test_free_packet_zero_acceleration(self):
        wf = std_packet(std_grid(), x0=0.0, v0=0.01)
        cfg = EvolveConfig(dt=STD_DT, n_steps=100, record_every=10)
        series = evolve(wf, TidalMatrix.zero(1), StepScheme.STRANG, cfg)
        acc = acceleration_series(series)
        assert np.max(np.abs(acc)) < 1e-10

    def test_matches_tidal_force_pointwise(self):
        wf = std_packet(std_grid(), x0=2.0)
        tidal = std_tidal()
        cfg = EvolveConfig(dt=STD_DT, n_steps=400, record_every=1)
        series = evolve(wf, tidal, StepScheme.STRANG, cfg)
        acc = acceleration_series(series)
        expected = -series.mean_x @ tidal.entries.T
        assert np.max(np.abs(acc - expected)) < 1e-9

    def test_too_few_records(self):
        wf = std_packet(std_grid(), x0=2.0)
        series = evolve(wf, std_tidal(), StepScheme.STRANG,
                        EvolveConfig(dt=STD_DT, n_steps=10, record_every=10))
        assert series.n_records == 2
        with pytest.raises(TooFewRecords):
            acceleration_series(series)

    def test_nonuniform_spacing_rejected(self):
        wf = std_packet(std_grid(), x0=2.0)
        series = evolve(wf, std_tidal(), StepScheme.STRANG,
                        EvolveConfig(dt=STD_DT, n_steps=30, record_every=10))
        series.t = np.array([0.0, 1.0, 1.5, 3.0])
        with pytest.raises(TimestampMismatch):
            acceleration_series(series)
