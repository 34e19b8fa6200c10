import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from helpers import npfft_centroid, random_field, std_grid
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
from wavefall.packets import _envelope

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

    def test_rest_phase_metadata(self):
        wf = make_packet(std_grid(), PacketShape.gaussian(1.0), [0.0], [0.0], 100.0)
        assert wf.rest_phase() == 1.0
        shifted = WaveFunction(grid=wf.grid, psi=wf.psi, mass=wf.mass, t=0.25)
        expected = np.exp(-1j * TWO_PI * 100.0 * 0.25)
        assert shifted.rest_phase() == pytest.approx(expected, abs=1e-12)
        assert np.allclose(shifted.full_field(), expected * wf.psi, atol=1e-15)


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

    def test_table_requires_1d(self, tmp_path):
        table = tmp_path / "t.csv"
        np.savetxt(table, np.zeros((4, 3)), delimiter=",")
        with pytest.raises(ConfigError):
            make_packet(std_grid(n=16, dim=2), PacketShape.from_table(str(table)),
                        [0.0, 0.0], [0.0, 0.0], 100.0)
