"""Shared fixtures-adjacent helpers: standard scenario pieces and the
independent oracles (brute-force DFT, numpy-fft spectral centroid, a
stand-alone kinetic step, full-mesh and one-axis-per-sum moments, the exact
discrete moment map and zeros-start envelopes) used to cross-check the
package's own routines."""

from dataclasses import replace

import numpy as np

from wavefall import (
    EvolveConfig,
    PacketShape,
    ScenarioConfig,
    SpectralGrid,
    StepScheme,
    TidalMatrix,
    make_packet,
)
from wavefall.packets import _erf
from wavefall.propagate import check_kinetic_phase
from wavefall.spectral import transform

# the house scenario: 1D, L=20, sigma=1, mu=100, R=1e-4, x0=2, v0=0, dt=0.1
STD_L = 20.0
STD_MASS = 100.0
STD_R = 1e-4
STD_X0 = 2.0
STD_DT = 0.1
QUARTER_PERIOD_STEPS = 1570  # ~ pi / (2 sqrt(R) dt)

# points per axis of the small grids the bit-equality checks run on, by dim
LEAN_N = {1: 256, 2: 32, 3: 32}


def std_grid(n=256, dim=1, extent=STD_L):
    return SpectralGrid(dim=dim, n=n, extent=extent)


def std_tidal(r=STD_R):
    return TidalMatrix([[r]])


def std_packet(grid, x0=STD_X0, v0=0.0, sigma=1.0, mass=STD_MASS):
    return make_packet(grid, PacketShape.gaussian(sigma),
                       [x0] * grid.dim, [v0] * grid.dim, mass)


def std_scenario(n=256, n_steps=QUARTER_PERIOD_STEPS, dt=STD_DT, record_every=1,
                 scheme=StepScheme.STRANG, mass=STD_MASS, x0=STD_X0, v0=0.0,
                 shape=None, masses=None, shapes=None, dt_list=None, r=STD_R,
                 spectral_mass_tol=None):
    grid = std_grid(n)
    return ScenarioConfig(
        grid=grid,
        tidal=std_tidal(r),
        shape=shape or PacketShape.gaussian(1.0),
        x0=(x0,), v0=(v0,), mass=mass,
        evolve_cfg=EvolveConfig(dt=dt, n_steps=n_steps, record_every=record_every,
                                spectral_mass_tol=spectral_mass_tol),
        scheme=StepScheme(scheme),
        masses=masses, shapes=shapes, dt_list=dt_list,
    )


def kinetic_step(wf, dt):
    """Dispersion step: spectral phases exp(-i k^2 dt / (4 pi mu)); t += dt.
    The kinetic factor's oracle, and with ``tidal_step`` the reference that
    a composed step of ``evolve`` is checked against."""
    check_kinetic_phase(wf.grid, wf.mass, dt)
    spectrum = wf.grid.forward(wf.psi)
    spectrum *= np.exp(-1j * wf.grid.k_squared * (dt / (4.0 * np.pi * wf.mass)))
    return replace(wf, psi=wf.grid.inverse(spectrum), t=wf.t + dt)


def brute_dft(field, grid):
    """O(N^2)-per-axis direct summation DFT with the coordinate-referenced
    kernel; independent of the fft-backed implementation."""
    field = np.asarray(field, dtype=complex)
    kernel = np.exp(-1j * np.outer(grid.axis_wavenumbers, grid.axis_positions)) / np.sqrt(grid.n)
    out = field
    for axis in range(grid.dim):
        out = np.tensordot(kernel, out, axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out


def npfft_centroid(psi, grid):
    """Spectral centroid <k> via raw numpy fft calls (independent route)."""
    w = np.abs(np.fft.fftn(psi)) ** 2
    total = w.sum()
    out = []
    for axis in range(grid.dim):
        k = 2.0 * np.pi / grid.extent * (np.fft.fftfreq(grid.n) * grid.n)
        shape = [1] * grid.dim
        shape[axis] = grid.n
        out.append(float((k.reshape(shape) * w).sum()) / total)
    return np.asarray(out)


def random_field(grid, rng, normalized=True):
    psi = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    if normalized:
        psi /= np.sqrt((np.abs(psi) ** 2).sum() * grid.cell_volume)
    return psi


def fullmesh_moments(grid, psi, mass):
    """(norm, mean position, spectral mean velocity, covariance) of a stack
    ``psi`` from products of the density with every coordinate mesh, the
    formula ``packets.moments`` used before it reduced to marginals."""
    axes = tuple(range(-grid.dim, 0))
    rho = np.abs(psi) ** 2
    total = rho.sum(axis=axes)

    def centroid(meshes, weight, weight_total):
        return np.stack([(m * weight).sum(axis=axes) / weight_total for m in meshes],
                        axis=-1)

    mean_x = centroid(grid.position_meshes, rho, total)
    w = np.abs(transform(psi, dim=grid.dim)) ** 2
    mean_v = centroid(grid.wavenumber_meshes, w, w.sum(axis=axes)) / (2.0 * np.pi * mass)
    lead = mean_x.shape[:-1] + (1,) * grid.dim
    centered = [xm - mean_x[..., ax].reshape(lead)
                for ax, xm in enumerate(grid.position_meshes)]
    cov = np.empty(mean_x.shape + (grid.dim,))
    for i in range(grid.dim):
        for j in range(i + 1):
            cov[..., i, j] = cov[..., j, i] = (
                (centered[i] * centered[j] * rho).sum(axis=axes) / total)
    return total * grid.cell_volume, mean_x, mean_v, cov


# each marginal by keep, as one axis per sum, last first: the reduction order
# moments is pinned to
ONE_AXIS_PER_SUM = {
    2: {(0,): lambda w: w.sum(axis=-1), (1,): lambda w: w.sum(axis=-2),
        (0, 1): lambda w: w},
    3: {(0,): lambda w: w.sum(axis=-1).sum(axis=-1),
        (1,): lambda w: w.sum(axis=-1).sum(axis=-2),
        (2,): lambda w: w.sum(axis=-2).sum(axis=-2),
        (0, 1): lambda w: w.sum(axis=-1), (0, 2): lambda w: w.sum(axis=-2),
        (1, 2): lambda w: w.sum(axis=-3)},
}


def one_axis_per_sum_moments(grid, psi, mass):
    """The four moments of one field or a stack, each marginal summed
    explicitly one axis per sum, last first, with the products in the
    operand order of ``packets.moments``."""
    axes, dim, x = tuple(range(-grid.dim, 0)), grid.dim, grid.axis_positions
    marginal = ONE_AXIS_PER_SUM[dim]
    rho = np.abs(psi) ** 2
    total = rho.sum(axis=axes)
    w = np.abs(transform(psi, dim=dim)) ** 2
    mean_x = np.stack([(x * marginal[(a,)](rho)).sum(axis=-1) / total for a in range(dim)],
                      axis=-1)
    mean_k = np.stack([(grid.axis_wavenumbers * marginal[(a,)](w)).sum(axis=-1)
                       / w.sum(axis=axes) for a in range(dim)], axis=-1)
    centered = [x - mean_x[..., a, None] for a in range(dim)]
    cov = np.empty(mean_x.shape + (dim,))
    for i in range(dim):
        cov[..., i, i] = (centered[i] * centered[i] * marginal[(i,)](rho)).sum(axis=-1) / total
        for j in range(i):
            cov[..., i, j] = cov[..., j, i] = (
                centered[i][..., None, :] * centered[j][..., :, None]
                * marginal[(j, i)](rho)).sum(axis=(-2, -1)) / total
    return total * grid.cell_volume, mean_x, mean_k / (2.0 * np.pi * mass), cov


def moment_map(wf, r, dt, n_steps, every, scheme):
    """Mean position and position covariance of ``wf`` every ``every`` steps
    (row 0: the initial state) under the exact discrete moment map, as
    ``(mean_x, cov)`` of shapes ``(rows, dim)`` and ``(rows, dim, dim)``.

    A kick (v -> v - R x h) and a drift (x -> x + v h) are the phase-space
    matrices of the tidal imprint and the kinetic factor, both exponentials
    of quadratics, so one step maps the phase-space mean m = (<x>, <v>) to
    S m and the covariance C to S C S^T, for any envelope.  S is velocity
    Verlet for Strang (half kick, drift, half kick) and drift then kick for
    Lie.  The initial moments come from numpy's fftn of ``wf`` and full-mesh
    sums; Sigma_xv is Re<(x - <x>)(k - <k>)> / (2 pi mass) of the state,
    with k psi the spectral derivative -i d psi/dx, so a chirped envelope
    starts with its own.
    """
    grid, d = wf.grid, wf.grid.dim
    k = 2.0 * np.pi / grid.extent * (np.fft.fftfreq(grid.n) * grid.n)
    k_meshes = np.meshgrid(*([k] * d), indexing="ij")

    def central(meshes, weight):
        mean = np.array([(m * weight).sum() for m in meshes]) / weight.sum()
        c = [[((a - mean[i]) * (b - mean[j]) * weight).sum() / weight.sum()
              for j, b in enumerate(meshes)] for i, a in enumerate(meshes)]
        return mean, np.array(c)

    psi, spectrum = wf.psi, np.fft.fftn(wf.psi)
    mx, cxx = central(grid.position_meshes, np.abs(psi) ** 2)
    mk, ckk = central(k_meshes, np.abs(spectrum) ** 2)
    dk = [np.fft.ifftn(km * spectrum) - mk[j] * psi for j, km in enumerate(k_meshes)]
    cxk = np.array([[np.real(np.conj(psi) * (xm - mx[i]) * dk[j]).sum() for j in range(d)]
                    for i, xm in enumerate(grid.position_meshes)]) / (np.abs(psi) ** 2).sum()
    to_v = 2.0 * np.pi * wf.mass
    m = np.concatenate([mx, mk / to_v])
    c = np.block([[cxx, cxk / to_v], [cxk.T / to_v, ckk / to_v ** 2]])

    eye, zero = np.eye(d), np.zeros((d, d))
    r = np.asarray(r, dtype=float).reshape(d, d)

    def kick(h):
        return np.block([[eye, zero], [-h * r, eye]])

    drift = np.block([[eye, dt * eye], [zero, eye]])
    s = (kick(dt / 2.0) @ drift @ kick(dt / 2.0) if StepScheme(scheme) is StepScheme.STRANG
         else kick(dt) @ drift)
    means, covs = [m[:d]], [c[:d, :d]]
    for step in range(1, n_steps + 1):
        m, c = s @ m, s @ c @ s.T
        if step % every == 0:
            means.append(m[:d])
            covs.append(c[:d, :d])
    return np.array(means), np.array(covs)


def zeros_start_envelope(grid, shape, center):
    """``packets._envelope`` with every exponent sum started from a full-size
    array of zeros, as it was built before it started from the first term."""
    sigma = shape.sigmas(grid.dim)
    if shape.kind == "double_peak":
        a = shape.tail_param
        expo_p = np.zeros(grid.shape)
        expo_m = np.zeros(grid.shape)
        for ax, xm in enumerate(grid.position_meshes):
            off = a if ax == 0 else 0.0
            expo_p = expo_p + ((xm - center[ax] - off) / (2.0 * sigma[ax])) ** 2
            expo_m = expo_m + ((xm - center[ax] + off) / (2.0 * sigma[ax])) ** 2
        return np.exp(-expo_p) + np.exp(-expo_m)
    expo = np.zeros(grid.shape)
    for ax, xm in enumerate(grid.position_meshes):
        expo = expo + ((xm - center[ax]) / (2.0 * sigma[ax])) ** 2
    env = np.exp(-expo)
    if shape.kind == "skewed_gaussian":
        u0 = (grid.position_meshes[0] - center[0]) / sigma[0]
        env = env * (1.0 + _erf(shape.tail_param * u0 / 2.0))
    return env
