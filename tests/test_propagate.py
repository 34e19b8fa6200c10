import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from helpers import (
    LEAN_N,
    QUARTER_PERIOD_STEPS,
    STD_DT,
    STD_MASS,
    STD_R,
    STD_X0,
    draw_grid,
    kinetic_step,
    moment_map,
    npfft_centroid,
    random_field,
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
    make_packet,
    mean_position,
    mean_velocity_spectral,
    norm,
    tidal_step,
)
from wavefall import propagate
from wavefall.packets import covariance, moments
from wavefall.propagate import (
    SPECTRAL_EDGE_FRACTION,
    _band_slabs,
    _band_sum,
    _kinetic_factor,
    _tidal_phase_field,
)
from wavefall.spectral import SpectralGrid, padded

TWO_PI = 2.0 * np.pi
# the keys of every series' diagnostics, full or partial
DIAGNOSTICS = {"epsilon", "max_margin_mass", "max_spectral_edge_mass"}


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

    @pytest.mark.parametrize("entries", [[[1e-4]], [[1e-4, 3e-5], [3e-5, -5e-5]]])
    def test_node_phase_difference_is_time_dilation(self, entries):
        # adjacent nodes differ in imprinted phase by -2 pi mu dt x_mid.R.dx,
        # the gradient of the first-order clock rate (midpoint rule is exact
        # for a quadratic form)
        tidal = TidalMatrix(entries)
        grid = std_grid(n=LEAN_N[tidal.dim], dim=tidal.dim)
        wf = std_packet(grid)
        factor = tidal_step(wf, tidal, STD_DT).psi / wf.psi
        x = np.stack(np.meshgrid(*[grid.axis_positions] * grid.dim, indexing="ij"), axis=-1)
        for axis in range(grid.dim):
            lo = (slice(None),) * axis + (slice(None, -1),)
            hi = (slice(None),) * axis + (slice(1, None),)
            measured = np.angle(factor[hi] * np.conj(factor[lo]))
            mid = (x[hi] + x[lo]) / 2.0
            predicted = -2 * np.pi * STD_MASS * STD_DT * grid.dx * (mid @ tidal.entries[:, axis])
            assert np.max(np.abs(measured - predicted)) < 1e-13

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

    def test_record_cadence_and_final_state(self):
        wf = std_packet(std_grid(), x0=2.0)
        cfg = EvolveConfig(dt=STD_DT, n_steps=20, record_every=7)
        series = evolve(wf, std_tidal(), StepScheme.STRANG, cfg)
        assert series.n_records == 3
        assert np.allclose(series.t, [0.0, 0.7, 1.4], atol=1e-12)
        assert series.final_state.t == pytest.approx(2.0, abs=1e-12)
        assert set(series.diagnostics) == DIAGNOSTICS

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
        partial = info.value.partial
        assert partial is not None
        assert partial.n_records == 1
        assert partial.final_state.t == 0

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

    def test_boundary_contact_mid_run_keeps_every_record_before_the_step(self):
        # with a record per step, the partial series holds exactly the
        # records of steps 0 .. step_index - 1
        grid = std_grid()
        wf = make_packet(grid, PacketShape.gaussian(1.0), [2.0], [0.05], 30.0)
        cfg = EvolveConfig(dt=STD_DT, n_steps=4000, record_every=1)
        with pytest.raises(BoundaryContact) as info:
            evolve(wf, TidalMatrix.zero(1), StepScheme.STRANG, cfg)
        exc = info.value
        assert 0 < exc.step_index < 4000
        assert exc.partial.n_records == exc.step_index
        assert np.array_equal(exc.partial.t, STD_DT * np.arange(exc.step_index))
        assert exc.partial.final_state.t == pytest.approx(exc.step_index * STD_DT)

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


def reference_evolve(wf, tidal, scheme, cfg):
    """The split-step loop written out through ``grid.forward``/
    ``grid.inverse``, as a reference for ``evolve``.

    Each state's margin mass and, with ``spectral_mass_tol`` set, the edge
    mass of each transformed state are summed slab by slab over
    ``_band_slabs``; the run stops at the first step where one passes its
    tolerance (the margin first), keeping the records taken before that
    step.  Returns the record columns, the last state, the peak masses by
    diagnostics key and the stop step (None for a full run).
    """
    grid, mass, dt = wf.grid, wf.mass, cfg.dt
    kin = np.exp(-1j * grid.k_squared * (dt / (4.0 * np.pi * mass)))
    if scheme is StepScheme.STRANG:
        first = last = np.exp(1j * _tidal_phase_field(grid, tidal, mass, dt / 2.0))
    else:
        first, last = None, np.exp(1j * _tidal_phase_field(grid, tidal, mass, dt))
    margin = _band_slabs(grid, grid.axis_positions,
                         grid.extent / 2.0 - cfg.boundary_margin_fraction * grid.extent)
    armed = cfg.spectral_mass_tol is not None
    edge = _band_slabs(grid, grid.axis_wavenumbers, (1.0 - SPECTRAL_EDGE_FRACTION) * grid.k_max)

    def band_mass(field, slabs):
        # 1D slabs by vdot; 2D/3D slabs as the squared real and imaginary
        # parts of a contiguous copy, summed by einsum (no BLAS), as evolve does
        total = 0.0
        for slab in slabs:
            if grid.dim == 1:
                total += np.vdot(field[slab], field[slab]).real
            else:
                r = np.ascontiguousarray(field[slab]).view(float).reshape(-1)
                total += np.einsum("i,i->", r, r)
        return float(total) * grid.cell_volume

    psi, rows, margins, edges, stop = wf.psi, [], [], [], None
    for step in range(cfg.n_steps + 1):
        # each product keeps the loop's operand order: numpy's complex
        # multiply is not bitwise commutative, and ``a * f(x)`` on a large
        # temporary may be evaluated in place with the operands swapped
        if step > 0:
            if first is not None:
                psi = first * psi
            spectrum = grid.forward(psi)
            edge_mass = band_mass(spectrum, edge)
            np.multiply(kin, spectrum, out=spectrum)
            psi = grid.inverse(spectrum)
            psi = last * psi
        margins.append(band_mass(psi, margin))
        if margins[-1] > cfg.boundary_mass_tol:
            stop = step
        elif armed and step > 0:
            edges.append(edge_mass)
            if edge_mass > cfg.spectral_mass_tol:
                stop = step
        if step % cfg.record_every == 0 and (stop is None or step == 0):
            view = WaveFunction(grid=grid, psi=psi, mass=mass, t=dt * step)
            rows.append((view.t, norm(view), mean_position(view),
                         mean_velocity_spectral(view), covariance(view)))
        if stop is not None:
            break
    peaks = {"max_margin_mass": max(margins),
             "max_spectral_edge_mass": max(edges, default=0.0) if armed else None}
    return [np.asarray(col) for col in zip(*rows)], psi, peaks, stop


class TestLeanLoop:
    @pytest.mark.parametrize("scheme", [StepScheme.LIE, StepScheme.STRANG])
    # and a 3D grid whose n is not a power of two
    @pytest.mark.parametrize("dim,n", [(1, LEAN_N[1]), (2, LEAN_N[2]), (3, LEAN_N[3]), (3, 48)],
                             ids=["1", "2", "3", "3-48"])
    def test_raw_transform_pair_matches_reference_to_the_bit(self, dim, n, scheme):
        grid = SpectralGrid(dim=dim, n=n, extent=20.0)
        x0 = [1.5, -1.0, 0.5][:dim]
        v0 = [0.002, -0.001, 0.001][:dim]
        outward = make_packet(grid, PacketShape.gaussian(1.0), x0, v0, 50.0)
        # moving inward, this one sheds margin mass: its margin peak is at step 0
        inward = make_packet(grid, PacketShape.gaussian(1.0), x0, [-v for v in v0], 50.0)
        tidal = TidalMatrix(LEAN_TIDAL[dim])
        # records and the armed edge monitor read the spectrum buffer the
        # transforms write; 1e-10 never trips here (peak edge mass <= 1e-15).
        # Over 40 steps the cadences cover a record every step (every=1), a
        # run whose last steps follow its last record (every=7), a last
        # record on the last step (every=40) and no record after step 0
        # (every=50).  A step's record, the peaks and the final state do not
        # depend on the cadence, so one reference run per packet and monitor
        # setting records every step and each cadence takes its rows from it
        for wf, tol, cadences in ((outward, None, (7, 1, 40)), (outward, 1e-10, (7, 1, 50)),
                                  (inward, 1e-10, (7,))):
            cfg = EvolveConfig(dt=STD_DT, n_steps=40, spectral_mass_tol=tol)
            cols, psi, peaks, stop = reference_evolve(wf, tidal, scheme, cfg)
            assert stop is None
            for every in cadences:
                series = evolve(wf, tidal, scheme, replace(cfg, record_every=every))
                assert np.array_equal(series.final_state.psi, psi)
                for key, peak in peaks.items():
                    assert series.diagnostics[key] == peak
                for got, want in zip((series.t, series.norm, series.mean_x, series.mean_v,
                                      series.cov), cols):
                    assert np.array_equal(got, want[::every])

    @pytest.mark.parametrize("scheme", [StepScheme.LIE, StepScheme.STRANG])
    def test_1d_margin_without_right_run_matches_reference(self, scheme):
        # a band under one cell wide at the right end holds x_0 = -L/2 only;
        # the 1D step sums it with an empty right run
        grid = SpectralGrid(dim=1, n=LEAN_N[1], extent=20.0)
        cfg = EvolveConfig(dt=STD_DT, n_steps=40, record_every=7,
                           boundary_margin_fraction=0.5 / grid.n)
        assert len(_band_slabs(grid, grid.axis_positions,
                               grid.extent / 2.0 - cfg.boundary_margin_fraction * grid.extent)) == 1
        wf = make_packet(grid, PacketShape.gaussian(1.0), [-1.5], [-0.002], 50.0)
        series = evolve(wf, TidalMatrix(LEAN_TIDAL[1]), scheme, cfg)
        (t, nrm, mx, mv, cov), psi, peaks, stop = reference_evolve(
            wf, TidalMatrix(LEAN_TIDAL[1]), scheme, cfg)
        assert stop is None
        assert np.array_equal(series.final_state.psi, psi)
        assert series.diagnostics["max_margin_mass"] == peaks["max_margin_mass"] > 0.0
        assert np.array_equal(series.mean_x, mx)

    @pytest.mark.parametrize("scheme", [StepScheme.LIE, StepScheme.STRANG])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_abort_matches_reference_step_rows_and_peaks(self, dim, scheme):
        # a drifting packet trips the margin monitor, armed edge monitor or
        # not; in 1D the house packet on N=256 trips the edge monitor
        grid = SpectralGrid(dim=dim, n=LEAN_N[dim], extent=20.0)
        drifting = make_packet(grid, PacketShape.gaussian(1.0), [2.0] + [0.0] * (dim - 1),
                               [0.03] + [0.0] * (dim - 1), 5.0)
        runs = [(drifting, TidalMatrix(LEAN_TIDAL[dim]), BoundaryContact,
                 EvolveConfig(dt=STD_DT, n_steps=400, record_every=3,
                              boundary_mass_tol=3e-9, spectral_mass_tol=tol))
                for tol in (None, 1e-10)]
        if dim == 1:
            runs.append((std_packet(std_grid(), x0=2.0), std_tidal(), SpectralEdgeContact,
                         EvolveConfig(dt=STD_DT, n_steps=1570, record_every=10,
                                      spectral_mass_tol=1e-10)))
        for wf, tidal, kind, cfg in runs:
            with pytest.raises(BoundaryContact) as info:
                evolve(wf, tidal, scheme, cfg)
            (t, nrm, mx, mv, cov), psi, peaks, stop = reference_evolve(wf, tidal, scheme, cfg)
            exc = info.value
            assert type(exc) is kind
            assert exc.step_index == stop > 0
            partial = exc.partial
            assert partial.n_records == len(t) == (stop - 1) // cfg.record_every + 1
            assert np.array_equal(partial.final_state.psi, psi)
            for got, want in ((partial.t, t), (partial.norm, nrm), (partial.mean_x, mx),
                              (partial.mean_v, mv), (partial.cov, cov)):
                assert np.array_equal(got, want)
            assert set(partial.diagnostics) == DIAGNOSTICS
            for key, peak in peaks.items():
                assert partial.diagnostics[key] == peak

    @pytest.mark.parametrize("scheme", [StepScheme.LIE, StepScheme.STRANG])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_record_stacks_match_reference_to_the_bit(self, dim, depth, scheme, monkeypatch):
        # a budget of `depth` fields: the records go to moments in full
        # stacks, and the rows still pending when the run ends or aborts go
        # in one last, shorter stack; each run ends part way through a stack
        # (an abort records at the smallest cadence for which it does); each
        # reference run records every step, and a cadence takes its rows
        grid = SpectralGrid(dim=dim, n=LEAN_N[dim], extent=20.0)
        monkeypatch.setattr(propagate, "RECORD_STACK_BYTES", depth * 16 * grid.n ** dim)
        stacks = []

        def spy(grid, psi, mass):
            stacks.append(psi.shape[0])
            return moments(grid, psi, mass)

        monkeypatch.setattr(propagate, "moments", spy)
        tidal = TidalMatrix(LEAN_TIDAL[dim])
        moving = make_packet(grid, PacketShape.gaussian(1.0), [1.5, -1.0, 0.5][:dim],
                             [0.002, -0.001, 0.001][:dim], 50.0)
        drifting = make_packet(grid, PacketShape.gaussian(1.0), [2.0] + [0.0] * (dim - 1),
                               [0.03] + [0.0] * (dim - 1), 5.0)
        runs = [(moving, tidal, None, EvolveConfig(dt=STD_DT, n_steps=40, record_every=1,
                                                   spectral_mass_tol=1e-10)),
                (drifting, tidal, BoundaryContact,
                 EvolveConfig(dt=STD_DT, n_steps=400, boundary_mass_tol=3e-9))]
        if dim == 1:
            runs.append((std_packet(std_grid(), x0=2.0), std_tidal(), SpectralEdgeContact,
                         EvolveConfig(dt=STD_DT, n_steps=1570, record_every=1,
                                      spectral_mass_tol=1e-10)))
        for wf, tidal, kind, cfg in runs:
            cols, psi, peaks, stop = reference_evolve(wf, tidal, scheme, cfg)
            if stop is not None:
                every = next(e for e in itertools.count(1) if ((stop - 1) // e + 1) % depth)
                cfg = replace(cfg, record_every=every)
            t, nrm, mx, mv, cov = (col[::cfg.record_every] for col in cols)
            stacks.clear()
            if kind is None:
                got = evolve(wf, tidal, scheme, cfg)
                assert stop is None
            else:
                with pytest.raises(BoundaryContact) as info:
                    evolve(wf, tidal, scheme, cfg)
                assert type(info.value) is kind
                assert info.value.step_index == stop > 0
                got = info.value.partial
            rows = len(t)
            assert rows % depth
            assert stacks == [depth] * (rows // depth) + [rows % depth]
            assert got.n_records == rows
            assert np.array_equal(got.final_state.psi, psi)
            for have, want in ((got.t, t), (got.norm, nrm), (got.mean_x, mx),
                               (got.mean_v, mv), (got.cov, cov)):
                assert np.array_equal(have, want)
            for key, peak in peaks.items():
                assert got.diagnostics[key] == peak

    # README's rows per stack under the default budget: a field of N=96^2
    # is above 64^2, so its budget holds one field and records the view
    @pytest.mark.parametrize("dim,n,rows", [(1, 256, 32), (1, 512, 16), (1, 768, 10),
                                            (2, 64, 2), (2, 96, 1)])
    def test_default_budget_rows_per_stack(self, dim, n, rows, monkeypatch):
        stacks = []

        def spy(grid, psi, mass):
            stacks.append(psi.shape[0])
            return moments(grid, psi, mass)

        monkeypatch.setattr(propagate, "moments", spy)
        grid = SpectralGrid(dim=dim, n=n, extent=20.0)
        wf = make_packet(grid, PacketShape.gaussian(1.0), [1.5, -1.0][:dim], [0.0] * dim, 50.0)
        # rows 0 to 2 * rows: two full stacks, then the last row alone
        evolve(wf, TidalMatrix(LEAN_TIDAL[dim]), StepScheme.STRANG,
               EvolveConfig(dt=STD_DT, n_steps=2 * rows))
        assert stacks == [rows, rows, 1]

    # the position margin bands evolve watches at two margin fractions, and
    # the spectral edge band: two edge runs per axis, or one run around N/2
    @pytest.mark.parametrize("space,fraction", [
        ("position", 0.1), ("position", 0.25), ("spectral", SPECTRAL_EDGE_FRACTION)],
        ids=["0.1", "0.25", "spectral"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_margin_slabs_cover_band_once(self, dim, space, fraction):
        grid = SpectralGrid(dim=dim, n=LEAN_N[dim], extent=20.0)
        if space == "position":
            values, meshes = grid.axis_positions, grid.position_meshes
            cut, count = grid.extent / 2.0 - fraction * grid.extent, 2 * dim
        else:
            values, meshes = grid.axis_wavenumbers, grid.wavenumber_meshes
            cut, count = (1.0 - fraction) * grid.k_max, 2 ** dim - 1
        band = np.zeros(grid.shape, dtype=bool)
        for mesh in meshes:
            band = band | (np.abs(mesh) >= cut)
        slabs = _band_slabs(grid, values, cut)
        hits = np.zeros(grid.shape, dtype=int)
        for slab in slabs:
            hits[slab] += 1
        assert len(slabs) == count
        assert np.array_equal(hits, band.astype(int))


class TestPaddedLayout:
    # evolve steps in padded buffers and hands out a view into one of them

    @pytest.mark.parametrize("dim,n", [(d, n) for d in (1, 2, 3) for n in (8, 48, 64, 96)]
                             + [(1, 768)])
    def test_kinetic_factor_equals_k_squared_exp_to_the_bit(self, dim, n):
        grid = SpectralGrid(dim=dim, n=n, extent=20.0)
        scale = STD_DT / (4.0 * np.pi * STD_MASS)
        got = _kinetic_factor(grid, scale, np.empty(grid.shape, dtype=complex))
        want = np.exp(-1j * grid.k_squared * scale)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("scheme", [StepScheme.LIE, StepScheme.STRANG])
    @pytest.mark.parametrize("dim,n", [(1, LEAN_N[1]), (2, LEAN_N[2]), (3, LEAN_N[3]), (3, 48)])
    def test_final_state_view_observables_equal_contiguous_to_the_bit(self, dim, n, scheme):
        grid = SpectralGrid(dim=dim, n=n, extent=20.0)
        wf = make_packet(grid, PacketShape.gaussian(1.0), [1.5, -1.0, 0.5][:dim],
                         [0.002, -0.001, 0.001][:dim], 50.0)
        state = evolve(wf, TidalMatrix(LEAN_TIDAL[dim]), scheme,
                       EvolveConfig(dt=STD_DT, n_steps=7)).final_state
        dense = replace(state, psi=np.ascontiguousarray(state.psi))
        assert dense.psi.flags.c_contiguous
        assert np.array_equal(dense.psi, state.psi)
        for observable in (norm, mean_position, mean_velocity_spectral, covariance):
            got, want = np.asarray(observable(state)), np.asarray(observable(dense))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    # evolve's monitors sum slabs of its padded state; a 2D/3D slab is summed
    # from a contiguous copy without BLAS, so the padding moves no bit, and
    # the sum is vdot's up to rounding
    @pytest.mark.parametrize("dim,n", [(1, LEAN_N[1]), (2, LEAN_N[2]), (3, LEAN_N[3]), (3, 64)])
    def test_band_mass_of_padded_slabs_equals_contiguous_to_the_bit(self, dim, n, rng):
        grid = SpectralGrid(dim=dim, n=n, extent=20.0)
        view = padded(grid.shape)[1]
        view[...] = random_field(grid, rng, normalized=False)
        dense = np.ascontiguousarray(view)
        for values, cut in ((grid.axis_positions, 0.4 * grid.extent),
                            (grid.axis_wavenumbers, (1.0 - SPECTRAL_EDGE_FRACTION) * grid.k_max)):
            slabs = _band_slabs(grid, values, cut)
            got = _band_sum([view[slab] for slab in slabs], grid.cell_volume)()
            assert got == _band_sum([dense[slab] for slab in slabs], grid.cell_volume)()
            want = sum(np.vdot(view[slab], view[slab]).real for slab in slabs)
            assert got == pytest.approx(want * grid.cell_volume, rel=1e-13, abs=0.0)


class TestBufferOwnership:
    # evolve steps in field buffers of its own: the caller's state is only
    # read, and a state handed out in a series or an abort stays put

    @pytest.mark.parametrize("scheme", [StepScheme.LIE, StepScheme.STRANG])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_inputs_and_handed_out_states_are_never_written(self, dim, scheme):
        grid = SpectralGrid(dim=dim, n=LEAN_N[dim], extent=20.0)
        tidal = TidalMatrix(LEAN_TIDAL[dim])
        cfg = EvolveConfig(dt=STD_DT, n_steps=5)
        wf = make_packet(grid, PacketShape.gaussian(1.0), [1.5, -1.0, 0.5][:dim],
                         [0.002, -0.001, 0.001][:dim], 50.0)
        before = wf.psi.copy()
        done = evolve(wf, tidal, scheme, cfg)
        assert wf.psi.tobytes() == before.tobytes()
        assert not np.shares_memory(done.final_state.psi, wf.psi)

        # a packet drifting into the margin band aborts mid-run
        drifting = make_packet(grid, PacketShape.gaussian(1.0), [2.0] + [0.0] * (dim - 1),
                               [0.03] + [0.0] * (dim - 1), 5.0)
        with pytest.raises(BoundaryContact) as info:
            evolve(drifting, tidal, scheme,
                   EvolveConfig(dt=STD_DT, n_steps=400, boundary_mass_tol=2e-9))
        assert info.value.step_index > 0
        held = info.value.partial.final_state.psi
        kept, done_kept = held.copy(), done.final_state.psi.copy()

        evolve(wf, tidal, scheme, cfg)
        assert held.tobytes() == kept.tobytes()
        assert done.final_state.psi.tobytes() == done_kept.tobytes()


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


class TestMomentMap:
    """On a resolved grid the recorded mean and covariance follow the exact
    discrete moment map (``helpers.moment_map``), whatever the envelope:
    the paper's universality claim in discrete form, with the scheme's
    splitting error left out of the comparison."""

    # every shipped envelope; a 2D skew and peak split lie along axis 0
    shapes = pytest.mark.parametrize(
        "shape", [PacketShape.gaussian(1.0), PacketShape.skewed_gaussian(1.0, 1.0),
                  PacketShape.double_peak(0.7, 1.2)],
        ids=["gaussian", "skewed", "double_peak"])

    @pytest.mark.parametrize("scheme", ["strang", "lie"])
    @shapes
    def test_1d_quarter_period(self, shape, scheme):
        wf = make_packet(std_grid(n=512), shape, [STD_X0], [0.0], STD_MASS)
        series = evolve(wf, std_tidal(), StepScheme(scheme),
                        EvolveConfig(dt=STD_DT, n_steps=QUARTER_PERIOD_STEPS, record_every=10))
        mean_x, cov = moment_map(wf, STD_R, STD_DT, QUARTER_PERIOD_STEPS, 10, scheme)
        assert np.max(np.abs(series.mean_x - mean_x)) < 1e-12
        assert np.max(np.abs(series.cov - cov)) < 1e-12

    @pytest.mark.parametrize("scheme", ["strang", "lie"])
    @pytest.mark.parametrize("chirp", [0.05, -0.08])
    def test_1d_chirped_complex_table(self, tmp_path, chirp, scheme):
        # a Gaussian centred at 0.3 times exp(i pi c x^2), one row per node:
        # its local velocity c x / mass gives Sigma_xv = c Var(x) / mass at
        # the start, and the table keeps its phase, less the mean boost
        grid = std_grid(n=512)
        x = grid.axis_positions
        amp = np.exp(-((x - 0.3) ** 2) / 4.0) * np.exp(1j * np.pi * chirp * x ** 2)
        table = tmp_path / "chirped.csv"
        np.savetxt(table, np.column_stack([x, amp.real, amp.imag]), delimiter=",")
        wf = make_packet(grid, PacketShape.from_table(str(table)), [0.3], [0.0], STD_MASS)
        series = evolve(wf, std_tidal(), StepScheme(scheme),
                        EvolveConfig(dt=STD_DT, n_steps=QUARTER_PERIOD_STEPS, record_every=10))
        mean_x, cov = moment_map(wf, STD_R, STD_DT, QUARTER_PERIOD_STEPS, 10, scheme)
        assert np.max(np.abs(series.mean_x - mean_x)) < 1e-12
        assert np.max(np.abs(series.cov - cov)) < 1e-12

    @pytest.mark.parametrize("scheme", ["strang", "lie"])
    @shapes
    def test_2d_off_diagonal_tidal_matrix(self, shape, scheme):
        # one trapped and one stretched direction, mixed by the off-diagonal
        r = [[1e-4, 3e-5], [3e-5, -5e-5]]
        wf = make_packet(std_grid(n=128, dim=2), shape, [2.0, -1.0], [0.002, 0.001], 40.0)
        series = evolve(wf, TidalMatrix(r), StepScheme(scheme),
                        EvolveConfig(dt=STD_DT, n_steps=400, record_every=10))
        mean_x, cov = moment_map(wf, r, STD_DT, 400, 10, scheme)
        assert np.max(np.abs(series.mean_x - mean_x)) < 1e-12
        assert np.max(np.abs(series.cov - cov)) < 1e-12


# the property draws: masses log-uniform over a decade, every analytic
# envelope, and a tidal rate of either sign (a negative one stretches)
masses = st.floats(np.log(20.0), np.log(200.0)).map(np.exp)
widths = st.floats(0.5, 1.3)
envelopes = st.one_of(widths.map(PacketShape.gaussian),
                      st.builds(PacketShape.skewed_gaussian, widths, st.floats(-2.0, 2.0)),
                      st.builds(PacketShape.double_peak, widths, st.floats(0.5, 1.2)))
tidal_rates = st.builds(lambda sign, rate: sign * rate,
                        st.sampled_from([-1.0, 1.0]), st.floats(2e-5, 1e-4))
DRAW_STEPS, DRAW_EVERY = 785, 5


def assert_within(measured, expected, rtol=1e-12):
    assert np.all(np.abs(measured - expected) <= rtol * np.maximum(1.0, np.abs(expected)))


class TestUniversalityProperty:
    """"Whatever the mass or envelope", drawn: each run's ``mean_x`` and
    ``cov`` follow the exact moment map, and a twin that differs only in
    its mass, or only in its envelope, follows the same mean trajectory.

    Each example is a draw and its twin, each run on the grid that
    ``helpers.draw_grid`` picks, and the examples are steered towards finer
    grids, where the spectral edge is nearest.  The rule rejects a draw
    whose run the boundary monitor could stop, or no grid resolves: with
    hypothesis 6.155, 23 of the 112 draws (21%), and so 16 of the 56
    examples (29%; both members must pass).  An accepted draw is never
    dropped afterwards: one that fails is a finding about the package, not
    the draws."""

    @given(mass=masses, shape=envelopes, x0=st.floats(-3.0, 3.0), v0=st.floats(-0.01, 0.01),
           r=tidal_rates, scheme=st.sampled_from(["strang", "lie"]),
           twin=st.one_of(masses, envelopes))
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    def test_any_mass_and_envelope_follows_the_map(self, mass, shape, x0, v0, r, scheme,
                                                   twin):
        members = [(mass, shape),
                   (mass, twin) if isinstance(twin, PacketShape) else (twin, shape)]
        grids = [draw_grid(sh, m, x0, v0, r, scheme, DRAW_STEPS) for m, sh in members]
        assume(None not in grids)
        target(float(sum(grids)), label="grid points")
        means = []
        for (m, sh), n in zip(members, grids):
            wf = make_packet(std_grid(n), sh, [x0], [v0], m)
            series = evolve(wf, TidalMatrix([[r]]), StepScheme(scheme),
                            EvolveConfig(dt=STD_DT, n_steps=DRAW_STEPS, record_every=DRAW_EVERY))
            mean_x, cov = moment_map(wf, r, STD_DT, DRAW_STEPS, DRAW_EVERY, scheme)
            assert_within(series.mean_x, mean_x)
            assert_within(series.cov, cov)
            means.append(series.mean_x)
        assert_within(means[1], means[0])


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
