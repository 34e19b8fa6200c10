"""Uniform periodic grid, its wavenumber lattice, and unitary transforms.

The domain is [-L/2, L/2) per axis with N samples, x_n = -L/2 + n L/N, and
wavenumbers k_m = (2 pi / L) m with m in standard DFT order
[0, 1, ..., N/2-1, -N/2, ..., -1].  The forward transform is referenced to
the physical coordinates,

    A_m = N^(-d/2) sum_n f(x_n) exp(-i k_m . x_n),

so the coefficients are Fourier amplitudes of the domain-centered field.
Both directions carry N^(-d/2); discrete Parseval sum|f|^2 == sum|A|^2 holds
exactly up to rounding.  Complex fields are plain complex128 ndarrays of
shape ``grid.shape`` (row-major); there is no wrapper type.

``transform`` is the index-referenced unitary FFT the 2D/3D step loop, the
moment records and ``SpectralGrid.forward``/``inverse`` run on: numpy's
transform ufuncs called directly, without the per-call argument handling
of ``numpy.fft``'s Python functions.  It transforms the trailing axes of
its input, so the records take one call for a whole stack of snapshots,
and it may transform a field in place.  The 1D step loop calls the two
ufuncs, exported here as ``fft_ufunc`` and ``ifft_ufunc``, itself, with
the scale ``1/sqrt(n)``: the bits of ``transform`` without its Python
frame.

On a field of at least ``SPLIT_CELLS`` cells, when the process may run on
two CPUs, ``transform`` runs each axis pass as two ufunc calls, one per
half of another axis: one on a worker thread, started by the first such
pass, and one on the caller.  pocketfft transforms every line on its own,
with the same arithmetic whichever call and SIMD lane holds it, so the
split keeps every bit.  A 1D field has no other axis and never splits.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# private module (numpy >= 2.0) under numpy.fft; imported here so that a numpy
# that moves it fails at import rather than in the middle of a run
from numpy.fft import _pocketfft_umath

from .errors import SizeMismatch

# ufunc(field, scale, out=...) transforms the last axis and multiplies by scale
fft_ufunc = _pocketfft_umath.fft
ifft_ufunc = _pocketfft_umath.ifft

# a field of at least this many cells (a 32^3 or a 182^2 field) splits each
# axis pass in two.  Below it the handoff to the worker costs about what the
# second CPU saves (2-CPU x86-64, numpy 2.4: a 128^2 in-place transform took
# 188 us serial and 197 us split, a 32^3 one 783 and 524 us); a 1D record
# stack holds at most 8,192 cells
SPLIT_CELLS = 2 ** 15
# job queue of the split's worker thread; None until the first split
_jobs = None


def _forget_worker() -> None:
    # a forked child has no copy of the worker thread: its first split
    # starts its own
    global _jobs
    _jobs = None


os.register_at_fork(after_in_child=_forget_worker)


def _run(ufunc, args, kwargs, errors, done) -> None:
    """One job: call ``ufunc``, append what it raises to ``errors`` and
    release ``done``."""
    try:
        ufunc(*args, **kwargs)
    except Exception as exc:  # raised again by the caller
        errors.append(exc)
    finally:
        done.release()


def _serve(jobs) -> None:
    # a job's arrays die with _run's frame, so an idle worker holds no
    # caller's buffer alive
    while True:
        _run(*jobs.get())


def _worker():
    """The worker's job queue.  The first call starts the worker as a daemon
    thread, so it never keeps the interpreter from exiting."""
    global _jobs
    if _jobs is None:
        from queue import SimpleQueue
        _jobs = SimpleQueue()
        threading.Thread(target=_serve, args=(_jobs,), name="wavefall-transform",
                         daemon=True).start()
    return _jobs


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _split_pass(ufunc, field: np.ndarray, scale: float, ax: int,
                out: np.ndarray) -> None:
    """``ufunc(field, scale, axes=[(ax,), (), (ax,)], out=out)`` as two calls
    over the halves of the longest other axis (the outermost on a tie), the
    second half on the worker and the first on the caller.  Returns when
    both halves are written; an error of either call is raised here, the
    caller's first."""
    other = max((a for a in range(field.ndim) if a != ax), key=lambda a: field.shape[a])
    h = field.shape[other] // 2
    lo = (slice(None),) * other + (slice(0, h),)
    hi = (slice(None),) * other + (slice(h, None),)
    axes = [(ax,), (), (ax,)]
    errors, done = [], threading.Lock()
    done.acquire()
    _worker().put((ufunc, (field[hi], scale), {"axes": axes, "out": out[hi]}, errors, done))
    try:
        ufunc(field[lo], scale, axes=axes, out=out[lo])
    finally:
        done.acquire()
    if errors:
        raise errors[0]


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Periodic Cartesian lattice shared by all fields of one run."""

    dim: int
    n: int
    extent: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 8, got {self.n}")
        if not self.extent > 0:
            raise ValueError(f"extent must be positive, got {self.extent}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def dx(self) -> float:
        return self.extent / self.n

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.dim

    @property
    def k_max(self) -> float:
        return np.pi * self.n / self.extent

    @cached_property
    def axis_positions(self) -> np.ndarray:
        x = -self.extent / 2.0 + np.arange(self.n) * self.dx
        x.flags.writeable = False
        return x

    @cached_property
    def axis_modes(self) -> np.ndarray:
        # standard DFT order [0..N/2-1, -N/2..-1], built from exact integers
        # (fftfreq(n)*n is not exactly integral for every even n)
        m = np.arange(self.n)
        m = np.where(m < self.n // 2, m, m - self.n).astype(float)
        m.flags.writeable = False
        return m

    @cached_property
    def axis_wavenumbers(self) -> np.ndarray:
        k = (2.0 * np.pi / self.extent) * self.axis_modes
        k.flags.writeable = False
        return k

    def _spread(self, axis_values: np.ndarray) -> tuple[np.ndarray, ...]:
        out = []
        for ax in range(self.dim):
            shape = [1] * self.dim
            shape[ax] = self.n
            out.append(axis_values.reshape(shape))
        return tuple(out)

    @cached_property
    def position_meshes(self) -> tuple[np.ndarray, ...]:
        """Broadcastable position array per axis (sparse meshes)."""
        return self._spread(self.axis_positions)

    @cached_property
    def wavenumber_meshes(self) -> tuple[np.ndarray, ...]:
        return self._spread(self.axis_wavenumbers)

    @cached_property
    def k_squared(self) -> np.ndarray:
        ksq = np.zeros(self.shape)
        for km in self.wavenumber_meshes:
            ksq = ksq + km ** 2
        ksq.flags.writeable = False
        return ksq

    @cached_property
    def _center_signs(self) -> np.ndarray:
        # exp(-i k_m x_0) = (-1)^m per axis: relates the coordinate-referenced
        # transform to the index-referenced FFT.
        sign = np.ones(self.shape)
        per_axis = np.where(self.axis_modes.astype(int) % 2 == 0, 1.0, -1.0)
        for s in self._spread(per_axis):
            sign = sign * s
        sign.flags.writeable = False
        return sign

    def _check(self, field: np.ndarray) -> np.ndarray:
        field = np.asarray(field)
        if field.shape != self.shape:
            raise SizeMismatch(f"field shape {field.shape} does not match grid {self.shape}")
        return field.astype(complex, copy=False)

    def forward(self, field: np.ndarray) -> np.ndarray:
        """Unitary coordinate-referenced DFT of a grid field."""
        spectrum = transform(self._check(field))
        return np.multiply(self._center_signs, spectrum, out=spectrum)

    def inverse(self, field: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`."""
        field = self._center_signs * self._check(field)
        return transform(field, field, inverse=True)


def transform(field: np.ndarray, out: np.ndarray | None = None,
              inverse: bool = False, dim: int | None = None) -> np.ndarray:
    """``np.fft.fftn(field, axes=..., norm="ortho", out=out)``, or ``ifftn``
    with ``inverse``, bit for bit, over the trailing ``dim`` axes of
    ``field`` (all of them when None).

    So one call serves a field and a stack of fields ``(k, *grid.shape)``
    with ``dim=grid.dim``: every row of a stack is transformed as that field
    alone would be, bit for bit.  One ufunc call per transformed axis, last
    axis first as ``fftn`` goes, each scaled by 1/sqrt(n) (equal to numpy's
    ``reciprocal(sqrt(n))``, both correctly rounded).  The first axis
    writes into ``out`` (allocated when None) and the others transform it in
    place; ``field`` is only read unless it is ``out``.  Returns ``out``.

    A field of at least ``SPLIT_CELLS`` cells with two or more axes, on a
    process allowed two CPUs, runs each pass in two halves of another axis,
    one on the worker thread (``_split_pass``).  Each line is still
    transformed alone, by a pocketfft plan of the same length, so the bits
    are the same.
    """
    ufunc = ifft_ufunc if inverse else fft_ufunc
    if out is None:
        out = np.empty_like(field, dtype=np.result_type(field.dtype, 1j))
    if dim is None:
        dim = field.ndim
    split = field.ndim > 1 and field.size >= SPLIT_CELLS and _cpus() > 1
    for ax in range(field.ndim - 1, field.ndim - 1 - dim, -1):
        scale = 1.0 / math.sqrt(field.shape[ax])
        if split:
            _split_pass(ufunc, field, scale, ax, out)
        else:
            ufunc(field, scale, axes=[(ax,), (), (ax,)], out=out)
        field = out
    return out
