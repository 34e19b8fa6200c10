import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import LEAN_N, brute_dft, random_field
from wavefall import ConfigError, SizeMismatch, SpectralGrid, spectral
from wavefall.spectral import in_place, transform


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
        with pytest.raises(ConfigError):
            SpectralGrid(dim=1, n=7, extent=1.0)
        with pytest.raises(ConfigError):
            SpectralGrid(dim=1, n=4, extent=1.0)
        with pytest.raises(ConfigError):
            SpectralGrid(dim=4, n=8, extent=1.0)
        with pytest.raises(ConfigError):
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
        spectrum = g.forward(f)
        assert np.array_equal(spectrum, signs * np.fft.fftn(f, norm="ortho"))
        # a view of a spectral.padded buffer, like every transform output
        assert spectrum.base.shape == (n,) + (n + 1,) * (dim - 1)
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
        # the step loop transforms its one state buffer in place, through
        # the bound pair
        assert transform(f, f, inverse=inverse) is f
        assert np.array_equal(f, want)
        f[...] = kept
        forward, back = in_place(f)
        (back if inverse else forward)()
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


class TestPaddedOutput:
    # transform allocates an output it is not given through spectral.padded:
    # one pad cell on every grid axis after the first, none on a stack axis
    # and none in 1D, so no 2D/3D transform output has a power-of-two stride

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("shape,dim", [
        ((512,), 1), ((3, 512), 1), ((LEAN_N[2],) * 2, 2), ((LEAN_N[3],) * 3, 3),
        ((64,) * 3, 3), ((3,) + (LEAN_N[3],) * 3, 3), ((2, 32, 32, 32), 3)],
        ids=["1d", "1d-stack", "2d", "3d", "64^3", "3d-stack", "32^3-stack"])
    def test_padded_view_equals_numpy_fftn_to_the_bit(self, shape, dim, inverse, rng):
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kept = f.copy()
        out = transform(f, inverse=inverse, dim=dim)
        first = len(shape) - dim + 1
        assert out.shape == shape
        assert out.base.shape == shape[:first] + tuple(n + 1 for n in shape[first:])
        assert out.strides == out.base.strides
        for stride in out.strides[first - 1:-1]:
            assert stride & (stride - 1), "power-of-two stride on a transform axis"
        want = (np.fft.ifftn if inverse else np.fft.fftn)(f, axes=range(-dim, 0), norm="ortho")
        assert out.tobytes() == want.tobytes()
        assert f.tobytes() == kept.tobytes()


class TestSplitPasses:
    # a field of SPLIT_CELLS cells or more runs each axis pass as two ufunc
    # calls, one on the pool's thread; every line keeps its bits.  _cpus is
    # patched to 2 so the split runs whatever CPUs this process may use

    @pytest.fixture
    def splits(self, monkeypatch):
        monkeypatch.setattr(spectral, "_cpus", lambda: 2)
        calls = []
        split_pass = spectral._split_pass
        monkeypatch.setattr(spectral, "_split_pass",
                            lambda *a: calls.append(a[-2]) or split_pass(*a))
        return calls

    # a 2D n=190 field (halves of 95 lines), a stack of two 32^3 fields,
    # and a 2D field of 180^2 = 32,400 cells, just under SPLIT_CELLS
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("shape,dim,split", [((190, 190), 2, True), ((2, 32, 32, 32), 3, True),
                                                 ((180, 180), 2, False)])
    def test_equals_numpy_fftn_to_the_bit(self, shape, dim, split, inverse, rng, splits):
        assert (np.prod(shape) >= spectral.SPLIT_CELLS) == split
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        axes = tuple(range(len(shape) - dim, len(shape)))
        want = (np.fft.ifftn if inverse else np.fft.fftn)(f, axes=axes, norm="ortho")
        kept = f.copy()
        assert np.array_equal(transform(f, inverse=inverse, dim=dim), want)
        assert f.tobytes() == kept.tobytes()
        assert transform(f, f, inverse=inverse, dim=dim) is f
        assert np.array_equal(f, want)
        # each of the two calls splits every pass, last axis first
        assert splits == (list(axes[::-1]) * 2 if split else [])

    @pytest.mark.parametrize("raising", ["worker", "caller"])
    def test_error_reaches_caller_and_worker_stays_usable(self, raising, rng, splits,
                                                         monkeypatch):
        ifft_ufunc = spectral.ifft_ufunc

        def fails(*args, **kwargs):
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker == (raising == "worker"):
                raise RuntimeError(f"{raising} half")
            if on_worker:
                time.sleep(0.1)  # the caller fails first, and must still wait
            return ifft_ufunc(*args, **kwargs)

        f = rng.standard_normal((190, 190)) + 0j
        out = np.zeros_like(f)
        monkeypatch.setattr(spectral, "ifft_ufunc", fails)
        with pytest.raises(RuntimeError, match=f"{raising} half"):
            transform(f, out, inverse=True)
        # the error is raised only once the worker no longer writes into out
        written = out.copy()
        time.sleep(0.2)
        assert np.array_equal(out, written)
        monkeypatch.undo()
        monkeypatch.setattr(spectral, "_cpus", lambda: 2)
        assert np.array_equal(transform(f), np.fft.fftn(f, norm="ortho"))

    def test_idle_pool_holds_no_array_and_lets_the_process_exit(self, rng, splits):
        f = rng.standard_normal((190, 190)) + 0j
        out = transform(f)
        gone = weakref.ref(out)
        del out
        assert gone() is None
        # the pool's thread never keeps the interpreter from exiting: a
        # process that made one split ends when its script does
        code = ("import numpy as np; from wavefall import spectral; spectral._cpus = lambda: 2; "
                "f = np.ones((190, 190), complex); "
                "assert np.array_equal(spectral.transform(f), np.fft.fftn(f, norm='ortho')); "
                "assert spectral._pool is not None")
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=30, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    # Python 3.12+ warns about forking a process that has threads: this one
    # has the worker, and the test is about exactly that
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_starts_its_own_worker(self, rng, splits):
        # the parent's worker runs before the fork; the child has no copy of
        # its thread, so a split there must start a new one, not wait forever
        f = rng.standard_normal((190, 190)) + 0j
        want = np.fft.fftn(f, norm="ortho")
        assert np.array_equal(transform(f), want)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(transform(f), want) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
