import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import LEAN_N, brute_dft, random_field
from wavefall import SizeMismatch, SpectralGrid
from wavefall.spectral import transform


class TestLattice:
    def test_positions_and_spacing(self):
        g = SpectralGrid(dim=1, n=8, extent=4.0)
        assert g.dx == 0.5
        assert g.axis_positions[0] == -2.0
        assert g.axis_positions[-1] == 1.5
        assert g.k_max == pytest.approx(np.pi * 8 / 4.0)

    def test_mode_order_and_sum(self):
        # standard DFT order [0..N/2-1, -N/2..-1]; the unpaired -N/2 mode
        # makes the lattice sum exactly -N/2
        for n in (8, 10, 16):
            g = SpectralGrid(dim=1, n=n, extent=1.0)
            m = g.axis_modes
            assert m[0] == 0 and m[n // 2] == -n // 2
            assert int(m.sum()) == -n // 2

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid(dim=1, n=7, extent=1.0)
        with pytest.raises(ValueError):
            SpectralGrid(dim=1, n=4, extent=1.0)
        with pytest.raises(ValueError):
            SpectralGrid(dim=4, n=8, extent=1.0)
        with pytest.raises(ValueError):
            SpectralGrid(dim=1, n=8, extent=-1.0)


class TestTransforms:
    def test_delta_has_flat_spectrum(self):
        g = SpectralGrid(dim=1, n=8, extent=4.0)
        f = np.zeros(8, dtype=complex)
        f[0] = 1.0
        spec = g.forward(f)
        assert np.allclose(np.abs(spec), 8 ** -0.5, atol=1e-15)

    def test_plane_wave_is_single_mode(self):
        g = SpectralGrid(dim=1, n=16, extent=8.0)
        k1 = g.axis_wavenumbers[3]
        f = np.exp(1j * k1 * g.axis_positions)
        spec = g.forward(f)
        assert abs(spec[3]) == pytest.approx(np.sqrt(16), rel=1e-12)
        rest = np.delete(spec, 3)
        assert np.max(np.abs(rest)) < 1e-12

    def test_single_mode_inverts_to_plane_wave(self):
        g = SpectralGrid(dim=1, n=16, extent=8.0)
        spec = np.zeros(16, dtype=complex)
        spec[5] = 1.0
        f = g.inverse(spec)
        assert np.allclose(np.abs(f), 16 ** -0.5, atol=1e-15)

    def test_zero_roundtrip(self):
        g = SpectralGrid(dim=1, n=8, extent=1.0)
        z = np.zeros(8, dtype=complex)
        assert np.array_equal(g.forward(z), z)
        assert np.array_equal(g.inverse(z), z)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [8, 10, 12, 14, 16])
    def test_against_brute_force_dft(self, dim, n, rng):
        g = SpectralGrid(dim=dim, n=n, extent=3.0)
        f = random_field(g, rng, normalized=False)
        assert np.max(np.abs(g.forward(f) - brute_dft(f, g))) < 1e-10

    def test_roundtrip_identity(self, rng):
        for n in (16, 256):
            g = SpectralGrid(dim=1, n=n, extent=20.0)
            f = random_field(g, rng, normalized=False)
            back = g.inverse(g.forward(f))
            assert np.max(np.abs(back - f)) < 1e-12

    def test_parseval(self, rng):
        g = SpectralGrid(dim=2, n=16, extent=5.0)
        f = random_field(g, rng, normalized=False)
        spec = g.forward(f)
        a = (np.abs(f) ** 2).sum() * g.cell_volume
        b = (np.abs(spec) ** 2).sum() * g.cell_volume
        assert a == pytest.approx(b, rel=1e-13)

    @given(alpha_re=st.floats(-2, 2), alpha_im=st.floats(-2, 2),
           beta_re=st.floats(-2, 2), beta_im=st.floats(-2, 2),
           seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, alpha_re, alpha_im, beta_re, beta_im, seed):
        g = SpectralGrid(dim=1, n=16, extent=2.0)
        local = np.random.default_rng(seed)
        f = random_field(g, local, normalized=False)
        h = random_field(g, local, normalized=False)
        alpha = alpha_re + 1j * alpha_im
        beta = beta_re + 1j * beta_im
        lhs = g.forward(alpha * f + beta * h)
        rhs = alpha * g.forward(f) + beta * g.forward(h)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, abs(alpha) + abs(beta))

    # forward/inverse run on ``transform``; they must stay the centre-signed
    # numpy fftn/ifftn to the bit, and leave their input unwritten
    @pytest.mark.parametrize("dim,n", [(1, 512), (2, LEAN_N[2]), (3, LEAN_N[3])])
    def test_equal_signed_numpy_fftn_to_the_bit(self, dim, n, rng):
        g = SpectralGrid(dim=dim, n=n, extent=20.0)
        f = random_field(g, rng, normalized=False)
        kept = f.copy()
        modes = np.meshgrid(*[g.axis_modes] * dim, indexing="ij")
        signs = np.where(sum(modes) % 2 == 0, 1.0, -1.0)
        assert np.array_equal(g.forward(f), signs * np.fft.fftn(f, norm="ortho"))
        assert np.array_equal(g.inverse(f), np.fft.ifftn(signs * f, norm="ortho"))
        assert f.tobytes() == kept.tobytes()

    def test_size_mismatch(self):
        g = SpectralGrid(dim=1, n=8, extent=1.0)
        with pytest.raises(SizeMismatch):
            g.forward(np.zeros(9, dtype=complex))
        with pytest.raises(SizeMismatch):
            g.inverse(np.zeros((8, 8), dtype=complex))


class TestTransformUfuncs:
    # the step loop and the moment records transform through numpy's ufuncs
    # directly; they must stay numpy's public fftn/ifftn to the bit

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 512), (1, 768),
                                       (2, LEAN_N[2]), (3, LEAN_N[3])])
    def test_equals_numpy_fftn_to_the_bit(self, dim, n, inverse, rng):
        g = SpectralGrid(dim=dim, n=n, extent=20.0)
        f = random_field(g, rng, normalized=False)
        kept = f.copy()
        want = (np.fft.ifftn if inverse else np.fft.fftn)(f, norm="ortho")
        out = np.empty_like(f)
        assert transform(f, out, inverse=inverse) is out
        assert np.array_equal(out, want)
        assert np.array_equal(transform(f, inverse=inverse), want)
        assert f.tobytes() == kept.tobytes()
        # the step loop transforms its one state buffer in place
        assert transform(f, f, inverse=inverse) is f
        assert np.array_equal(f, want)

    # the records transform a stack of snapshots in one call over its
    # trailing grid axes; every row must be that field's own transform
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("dim,n", [(1, 512), (1, 768), (2, LEAN_N[2]), (3, LEAN_N[3])])
    def test_stack_rows_equal_single_field_transforms_to_the_bit(self, dim, n, rows,
                                                                 inverse, rng):
        g = SpectralGrid(dim=dim, n=n, extent=20.0)
        stack = np.stack([random_field(g, rng, normalized=False) for _ in range(rows)])
        kept = stack.copy()
        out = np.empty_like(stack)
        assert transform(stack, out, inverse=inverse, dim=dim) is out
        assert out.shape == stack.shape
        for row, field in zip(out, stack):
            assert np.array_equal(row, transform(field, inverse=inverse))
        assert stack.tobytes() == kept.tobytes()
        assert transform(stack, stack, inverse=inverse, dim=dim) is stack
        assert np.array_equal(stack, out)
