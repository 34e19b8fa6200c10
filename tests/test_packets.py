import gc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from helpers import (
    fullmesh_moments,
    npfft_centroid,
    one_axis_per_sum_moments,
    random_field,
    std_grid,
    zeros_start_envelope,
)
from wavefall import (
    AliasRisk,
    ConfigError,
    PacketShape,
    PacketTooWide,
    VelocityTooHigh,
    WaveFunction,
    covariance,
    make_packet,
    mean_position,
    mean_velocity_realspace,
    mean_velocity_spectral,
    norm,
)
from wavefall import packets
from wavefall.packets import _envelope, moments

TWO_PI = 2.0 * np.pi


def quadrature_moments(profile, extent, n_fine):
    """Riemann-sum mean and variance of |profile(x)|^2 on a refined lattice."""
    x = -extent / 2.0 + np.arange(n_fine) * (extent / n_fine)
    rho = np.abs(profile(x)) ** 2
    total = rho.sum()
    mean = (x * rho).sum() / total
    var = ((x - mean) ** 2 * rho).sum() / total
    return mean, var


class TestShapes:
    def test_factories(self):
        assert PacketShape.gaussian(1.0).sigmas(1) == pytest.approx([1.0])
        assert PacketShape.skewed_gaussian(1.0, skew=2.0).tail_param == 2.0
        assert PacketShape.double_peak(0.5, half_separation=1.5).tail_param == 1.5

    def test_bad_shapes(self):
        with pytest.raises(ConfigError):
            PacketShape("lorentzian", (1.0,))
        with pytest.raises(ConfigError):
            PacketShape("gaussian", ())
        with pytest.raises(ConfigError):
            PacketShape("custom_table", ())
        with pytest.raises(ConfigError):
            PacketShape.gaussian([-1.0]).sigmas(1)
        with pytest.raises(ConfigError):
            PacketShape.gaussian([1.0, 2.0]).sigmas(3)


class TestConstruction:
    def test_centered_gaussian_moments(self):
        wf = make_packet(std_grid(), PacketShape.gaussian(1.0), [0.0], [0.0], 100.0)
        assert abs(norm(wf) - 1.0) < 1e-10
        assert abs(mean_position(wf)[0]) < 1e-10
        assert abs(mean_velocity_spectral(wf)[0]) < 1e-10

    def test_boosted_gaussian_velocity(self):
        wf = make_packet(std_grid(), PacketShape.gaussian(1.0), [0.0], [0.01], 100.0)
        assert mean_velocity_spectral(wf)[0] == pytest.approx(0.01, abs=1e-8)
        # independent spectral-centroid route through raw numpy ffts
        k_direct = npfft_centroid(wf.psi, wf.grid)[0]
        assert k_direct / (TWO_PI * 100.0) == pytest.approx(0.01, abs=1e-8)

    def test_double_peak_mirror_symmetry(self):
        wf = make_packet(std_grid(), PacketShape.double_peak(1.0, 2.0),
                         [0.0], [0.0], 100.0)
        assert abs(mean_position(wf)[0]) < 1e-10

    def test_offcenter_targets_hit_exactly(self):
        for shape in (PacketShape.gaussian(1.0),
                      PacketShape.skewed_gaussian(1.0, skew=1.0),
                      PacketShape.double_peak(0.7, half_separation=1.2)):
            wf = make_packet(std_grid(), shape, [2.0], [0.01], 100.0)
            assert mean_position(wf)[0] == pytest.approx(2.0, abs=1e-10)
            assert mean_velocity_spectral(wf)[0] == pytest.approx(0.01, abs=1e-9)

    def test_2d_packet(self):
        grid = std_grid(n=64, dim=2)
        wf = make_packet(grid, PacketShape.gaussian([1.0, 1.5]),
                         [1.0, -2.0], [0.0, 0.01], 50.0)
        assert np.allclose(mean_position(wf), [1.0, -2.0], atol=1e-9)
        assert np.allclose(mean_velocity_spectral(wf), [0.0, 0.01], atol=1e-8)

    def test_guards(self):
        grid = std_grid()
        gauss = PacketShape.gaussian(1.0)
        with pytest.raises(PacketTooWide):
            make_packet(grid, PacketShape.gaussian(3.0), [0.0], [0.0], 100.0)
        with pytest.raises(PacketTooWide):
            make_packet(grid, gauss, [6.0], [0.0], 100.0)
        with pytest.raises(PacketTooWide):
            make_packet(grid, PacketShape.double_peak(0.5, 2.6), [0.0], [0.0], 100.0)
        with pytest.raises(VelocityTooHigh):
            make_packet(grid, gauss, [0.0], [0.06], 100.0)
        with pytest.raises(VelocityTooHigh):
            # |v0| fine but the de Broglie wavenumber overruns k_max/2
            make_packet(grid, gauss, [0.0], [0.04], 1000.0)
        with pytest.raises(AliasRisk):
            make_packet(grid, PacketShape.gaussian(0.05), [0.0], [0.0], 100.0)


class TestSkewedOracle:
    def test_mean_offset_matches_quadrature(self):
        # raw (un-recentered) skewed envelope against a 4x-resolution sum
        grid = std_grid()
        shape = PacketShape.skewed_gaussian(1.0, skew=1.0)
        env = _envelope(grid, shape, np.array([0.0]))
        rho = env ** 2
        grid_mean = float((grid.axis_positions * rho).sum() / rho.sum())

        def profile(x):
            return np.exp(-(x / 1.0) ** 2 / 4.0) * (1.0 + erf(x / 2.0))

        fine_mean, _ = quadrature_moments(profile, grid.extent, 4 * grid.n)
        assert grid_mean == pytest.approx(fine_mean, abs=1e-10)
        assert abs(grid_mean) > 0.1  # the skew genuinely moves the mean


class TestEnvelopeSum:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind,tail", [("gaussian", ()), ("skewed_gaussian", (1.5,)),
                                           ("double_peak", (1.2,))])
    def test_equal_to_the_zeros_start_sum_to_the_bit(self, dim, kind, tail):
        # starting each exponent from the first axis's sparse term adds +0
        # fewer times: every dimension keeps its bits
        grid = std_grid(n=16, dim=dim)
        shape = PacketShape(kind, (0.9, 1.1, 1.3)[:dim] + tail)
        center = np.array([0.37, -1.21, 0.5][:dim])
        got = _envelope(grid, shape, center)
        assert got.shape == grid.shape
        assert got.tobytes() == zeros_start_envelope(grid, shape, center).tobytes()


class TestCovariance:
    def test_isotropic_gaussian(self):
        grid = std_grid(n=64, dim=2)
        wf = make_packet(grid, PacketShape.gaussian(1.0), [0.0, 0.0], [0.0, 0.0], 100.0)
        cov = covariance(wf)
        assert np.allclose(cov, np.eye(2), atol=1e-6)
        assert np.array_equal(cov, cov.T)

    def test_narrow_packet_small_variance(self):
        grid = std_grid(n=512)
        wf = make_packet(grid, PacketShape.gaussian(0.15), [0.0], [0.0], 100.0)
        assert covariance(wf)[0, 0] == pytest.approx(0.15 ** 2, rel=1e-6)

    def test_double_peak_against_mixture_quadrature(self):
        grid = std_grid()
        sigma, a = 0.5, 1.5
        wf = make_packet(grid, PacketShape.double_peak(sigma, a), [0.0], [0.0], 100.0)
        var = covariance(wf)[0, 0]

        def profile(x):
            return (np.exp(-((x - a) ** 2) / (4 * sigma ** 2))
                    + np.exp(-((x + a) ** 2) / (4 * sigma ** 2)))

        _, fine_var = quadrature_moments(profile, grid.extent, 4 * grid.n)
        assert var == pytest.approx(fine_var, abs=1e-9)
        # mixture picture: variance ~ a^2 + sigma^2 up to peak overlap
        assert var == pytest.approx(a ** 2 + sigma ** 2, rel=0.05)


class TestVelocityRoutes:
    def test_zero_phase_gaussian(self):
        wf = make_packet(std_grid(), PacketShape.gaussian(1.0), [1.0], [0.0], 100.0)
        assert abs(mean_velocity_spectral(wf)[0]) < 1e-12
        assert abs(mean_velocity_realspace(wf)[0]) < 1e-12

    def test_single_mode(self):
        grid = std_grid(n=64)
        k1 = grid.axis_wavenumbers[5]
        psi = np.exp(1j * k1 * grid.axis_positions) / np.sqrt(grid.extent)
        wf = WaveFunction(grid=grid, psi=psi, mass=100.0)
        assert mean_velocity_spectral(wf)[0] == pytest.approx(
            k1 / (TWO_PI * 100.0), abs=1e-13)

    def test_routes_agree_on_random_fields(self, rng):
        grid = std_grid(n=64)
        for _ in range(10):
            wf = WaveFunction(grid=grid, psi=random_field(grid, rng), mass=7.0)
            dv = mean_velocity_spectral(wf) - mean_velocity_realspace(wf)
            assert np.max(np.abs(dv)) < 1e-10

    @given(seed=st.integers(0, 2**31), mass=st.floats(1.0, 500.0))
    @settings(max_examples=40, deadline=None)
    def test_routes_agree_property(self, seed, mass):
        grid = std_grid(n=32)
        wf = WaveFunction(grid=grid, psi=random_field(grid, np.random.default_rng(seed)),
                          mass=mass)
        dv = mean_velocity_spectral(wf) - mean_velocity_realspace(wf)
        assert np.max(np.abs(dv)) < 1e-10


class TestInvariances:
    @given(mode=st.integers(-16, 16))
    @settings(max_examples=30, deadline=None)
    def test_boost_covariance(self, mode):
        grid = std_grid()
        wf = make_packet(grid, PacketShape.gaussian(1.0), [1.0], [0.0], 100.0)
        q = 2.0 * np.pi / grid.extent * mode
        boosted = WaveFunction(grid=grid, psi=wf.psi * np.exp(1j * q * grid.axis_positions),
                               mass=wf.mass)
        dv = mean_velocity_spectral(boosted) - mean_velocity_spectral(wf)
        assert dv[0] == pytest.approx(q / (TWO_PI * wf.mass), abs=1e-10)
        dx = mean_position(boosted) - mean_position(wf)
        assert abs(dx[0]) < 1e-10

    @given(theta=st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=30, deadline=None)
    def test_global_phase_invariance(self, theta):
        grid = std_grid()
        wf = make_packet(grid, PacketShape.gaussian(1.0), [1.0], [0.01], 100.0)
        rotated = WaveFunction(grid=grid, psi=np.exp(1j * theta) * wf.psi, mass=wf.mass)
        assert norm(rotated) == pytest.approx(norm(wf), abs=1e-13)
        assert np.allclose(mean_position(rotated), mean_position(wf), atol=1e-13)
        assert np.allclose(mean_velocity_spectral(rotated),
                           mean_velocity_spectral(wf), atol=1e-13)
        assert np.allclose(covariance(rotated), covariance(wf), atol=1e-13)


class TestMoments:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_equal_to_the_observables_to_the_bit(self, rng, dim, n):
        grid = std_grid(n=n, dim=dim)
        wf = WaveFunction(grid=grid, psi=random_field(grid, rng), mass=37.0)
        got = moments(grid, wf.psi[None], wf.mass)
        want = (norm(wf), mean_position(wf), mean_velocity_spectral(wf), covariance(wf))
        assert got[0][0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            assert np.array_equal(g[0], w)

    @pytest.mark.parametrize("dim,n", [(1, 512), (2, 16), (3, 8)])
    def test_stack_rows_equal_each_fields_observables_to_the_bit(self, rng, dim, n):
        # one call over a stack of three fields, each reduced over its own
        # trailing grid axes
        grid = std_grid(n=n, dim=dim)
        stack = np.stack([random_field(grid, rng, normalized=False) for _ in range(3)])
        kept = stack.copy()
        got = moments(grid, stack, 37.0)
        assert [g.shape for g in got] == [(3,), (3, dim), (3, dim), (3, dim, dim)]
        assert stack.tobytes() == kept.tobytes()
        for r, psi in enumerate(stack):
            wf = WaveFunction(grid=grid, psi=psi, mass=37.0)
            assert got[0][r] == norm(wf)
            for g, w in zip(got[1:], (mean_position(wf), mean_velocity_spectral(wf),
                                      covariance(wf))):
                assert np.array_equal(g[r], w)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_leaves_no_reference_cycle(self, rng, dim):
        # a cycle through the held marginals would keep each record's
        # density and spectrum alive until the collector runs, so the peak
        # RSS of a long run would grow with the records taken
        grid = std_grid(n=8, dim=dim)
        stack = random_field(grid, rng)[None]
        gc.collect()
        gc.disable()
        try:
            moments(grid, stack, 37.0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("dim,n,sums", [(2, 16, [2, 2]), (3, 8, [3, 2])])
    def test_sums_each_marginal_once(self, rng, dim, n, sums, monkeypatch):
        # the full-mesh sums of the density and of its spectrum, each less
        # its one total: a 3D call makes 3 and 2 (9 and 3 when every
        # marginal was summed anew), a 2D call 2 and 2 (4 and 2).  The
        # transform's output is counted too: it comes from spectral.padded,
        # a plain ndarray, so it is viewed as Counted on its way back
        calls = []

        class Counted(np.ndarray):
            def sum(self, *args, **kwargs):
                calls.append((id(self), self.size))
                return super().sum(*args, **kwargs)

        transform = packets.transform
        monkeypatch.setattr(packets, "transform",
                            lambda *args, **kwargs: transform(*args, **kwargs).view(Counted))
        grid = std_grid(n=n, dim=dim)
        stack = np.stack([random_field(grid, rng) for _ in range(2)])
        moments(grid, stack.view(Counted), 37.0)
        full = [ident for ident, size in calls if size == stack.size]
        # the density's first sum is its total, then the spectrum's comes
        density, spectrum = list(dict.fromkeys(full))[:2]
        assert [full.count(density) - 1, full.count(spectrum) - 1] == sums

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8), (3, 12)])
    def test_equal_to_one_axis_per_sum_to_the_bit(self, rng, dim, n):
        # each marginal is summed once, from the one that also keeps the
        # lowest axis it drops: the order of one axis per sum, last first
        grid = std_grid(n=n, dim=dim)
        stack = np.stack([random_field(grid, rng, normalized=False) for _ in range(3)])
        for g, w in zip(moments(grid, stack, 37.0), one_axis_per_sum_moments(grid, stack, 37.0)):
            assert g.tobytes() == w.tobytes()
        wf = WaveFunction(grid=grid, psi=stack[1], mass=37.0)
        want = one_axis_per_sum_moments(grid, wf.psi, 37.0)
        assert norm(wf) == want[0]
        for g, w in zip((mean_position(wf), mean_velocity_spectral(wf), covariance(wf)),
                        want[1:]):
            assert g.tobytes() == w.tobytes()


class TestMarginalOracle:
    """``moments`` reduces each density to its per-axis marginals; the
    full-mesh formula it replaced is the oracle."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_1d_equal_to_the_full_mesh_formula_to_the_bit(self, rng, k):
        grid = std_grid(n=512)
        stack = np.stack([random_field(grid, rng, normalized=False) for _ in range(k)])
        for g, w in zip(moments(grid, stack, 37.0), fullmesh_moments(grid, stack, 37.0)):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("dim,n", [(2, 64), (3, 32)])
    def test_2d_3d_agree_with_the_full_mesh_formula(self, rng, dim, n):
        grid = std_grid(n=n, dim=dim)
        stack = np.stack([random_field(grid, rng, normalized=False) for _ in range(2)])
        stack[1] *= np.exp(-sum((x - 1.0) ** 2 for x in grid.position_meshes) / 4.0)
        got = moments(grid, stack, 37.0)
        want = fullmesh_moments(grid, stack, 37.0)
        # each column against the largest coordinate (product) it averages
        x_max = grid.extent / 2.0
        assert got[0].tobytes() == want[0].tobytes()
        for g, w, scale in zip(got[1:], want[1:],
                               (x_max, grid.k_max / (TWO_PI * 37.0), x_max ** 2)):
            assert np.max(np.abs(g - w)) <= 1e-14 * scale

    def test_rotated_anisotropic_gaussian_matches_its_sigma(self):
        # |psi|^2 ~ exp(-(x - m).S^-1.(x - m) / 2) with S rotated off the grid
        # axes, so the off-diagonal comes from the 2D marginal alone
        grid = std_grid(n=64, dim=2)
        theta = 0.6
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        sigma = rot @ np.diag([1.2 ** 2, 0.7 ** 2]) @ rot.T
        inv = np.linalg.inv(sigma)
        m = (1.0, -0.5)
        d = [x - c for x, c in zip(grid.position_meshes, m)]
        quad = sum(inv[i, j] * d[i] * d[j] for i in range(2) for j in range(2))
        wf = WaveFunction(grid=grid, psi=np.exp(-quad / 4.0), mass=37.0)
        assert abs(sigma[0, 1]) > 0.3
        assert np.max(np.abs(covariance(wf) - sigma)) < 1e-10
        assert np.max(np.abs(mean_position(wf) - m)) < 1e-10


class TestNorm:
    def test_unit_norm_and_scaling(self):
        wf = make_packet(std_grid(), PacketShape.gaussian(1.0), [0.0], [0.0], 100.0)
        assert norm(wf) == pytest.approx(1.0, abs=1e-10)
        doubled = WaveFunction(grid=wf.grid, psi=2.0 * wf.psi, mass=wf.mass)
        assert norm(doubled) == pytest.approx(4.0, rel=1e-12)

    def test_matches_direct_summation(self, rng):
        grid = std_grid(n=32)
        psi = random_field(grid, rng, normalized=False)
        wf = WaveFunction(grid=grid, psi=psi, mass=1.0)
        direct = float((np.abs(psi) ** 2).sum()) * grid.cell_volume
        assert norm(wf) == direct

    def test_mean_shifts_with_roll(self):
        grid = std_grid()
        wf = make_packet(grid, PacketShape.gaussian(1.0), [0.0], [0.0], 100.0)
        rolled = WaveFunction(grid=grid, psi=np.roll(wf.psi, 1), mass=wf.mass)
        shift = mean_position(rolled)[0] - mean_position(wf)[0]
        assert shift == pytest.approx(grid.dx, abs=1e-10)


class TestCustomTable:
    def _write_table(self, path, x, amp):
        np.savetxt(path, np.column_stack([x, amp.real, amp.imag]), delimiter=",")

    def test_dense_gaussian_table(self, tmp_path):
        grid = std_grid()
        fine = 4 * grid.n
        x = -grid.extent / 2.0 + np.arange(fine) * (grid.extent / fine)
        amp = np.exp(-((x - 1.0) ** 2) / 4.0).astype(complex)
        table = tmp_path / "packet.csv"
        self._write_table(table, x, amp)
        wf = make_packet(grid, PacketShape.from_table(str(table)), [1.0], [0.0], 100.0)
        assert norm(wf) == pytest.approx(1.0, abs=1e-10)
        assert mean_position(wf)[0] == pytest.approx(1.0, abs=1e-8)
        assert abs(mean_velocity_spectral(wf)[0]) < 1e-8

    def test_table_with_phase_gradient(self, tmp_path):
        # intrinsic plane-wave phase is corrected back to the target velocity
        grid = std_grid()
        x = -grid.extent / 2.0 + np.arange(grid.n) * grid.dx
        amp = np.exp(-(x ** 2) / 4.0) * np.exp(1j * TWO_PI * 100.0 * 0.005 * x)
        table = tmp_path / "chirped.csv"
        self._write_table(table, x, amp)
        wf = make_packet(grid, PacketShape.from_table(str(table)), [0.0], [0.01], 100.0)
        assert mean_velocity_spectral(wf)[0] == pytest.approx(0.01, abs=1e-8)

    def test_bad_table_shape(self, tmp_path):
        table = tmp_path / "bad.csv"
        np.savetxt(table, np.zeros((4, 2)), delimiter=",")
        with pytest.raises(ConfigError):
            make_packet(std_grid(), PacketShape.from_table(str(table)), [0.0], [0.0], 100.0)

    @pytest.mark.parametrize("text", ["", "\n\n\n"], ids=["empty", "blank_lines"])
    def test_table_without_rows_names_the_fault(self, tmp_path, text):
        # empty and blank-only files: no numpy warning, an error that says so
        table = tmp_path / "empty.csv"
        table.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="no data rows"):
                make_packet(std_grid(), PacketShape.from_table(str(table)), [0.0], [0.0], 100.0)

    def test_table_requires_1d(self, tmp_path):
        table = tmp_path / "t.csv"
        np.savetxt(table, np.zeros((4, 3)), delimiter=",")
        with pytest.raises(ConfigError):
            make_packet(std_grid(n=16, dim=2), PacketShape.from_table(str(table)),
                        [0.0, 0.0], [0.0, 0.0], 100.0)

