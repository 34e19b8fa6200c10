"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest -s`` to see the lines for passing criteria too).

Standard scenario throughout unless noted: d=1, N=256, L=20, sigma=1,
mu=100, R=[1e-4], x0=2, v0=0, strang, dt=0.1.

Criteria 4, 5 and 6 are evaluated twice, always with the spectral-edge
monitor armed at MONITOR_TOL.  The literal standard fixture cannot hold the
focused spectrum for a full quarter period: the packet reaches mean
wavenumber 2 pi mu w x0 ~ 12.6 while its spectral width squeezes up to
2 pi mu w sigma ~ 6.3 (w = sqrt(R)), so the spectrum needs
k_max >~ 2 pi mu w (x0 + 6 sigma) ~ 50 > pi N / L = 40.2, and past that point
the Nyquist wrap floors the trajectory error near 1.5e-5 independently of dt
(see README, "Resolution requirements").  The standard-grid entries assert
that the armed monitor stops the quarter-period run before its end, and
then apply every tolerance of the criterion, unchanged, to the span before
the earliest stop: the span the monitor certifies as resolved.  The
companion resolved-grid entries rerun the claims over the full quarter
period on grids that hold the spectrum; there the armed monitor must never
trip.
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    STD_DT,
    STD_MASS,
    brute_dft,
    random_field,
    std_grid,
    std_packet,
    std_scenario,
    std_tidal,
)
from wavefall import (
    ClassicalState,
    EvolveConfig,
    PacketShape,
    RiemannComponents,
    SpectralEdgeContact,
    StepScheme,
    SymmetryViolation,
    TidalMatrix,
    TraceNotZero,
    convergence_study,
    energy_like,
    evolve,
    first_order_rate,
    make_packet,
    match_metric,
    mean_velocity_realspace,
    mean_velocity_spectral,
    proper_time_rate,
    ripple_check,
    rk4_integrate,
    validate_tidal,
    wep_mass_sweep,
    wep_shape_sweep,
)
from test_curvature import random_riemann

QUARTER_STEPS = 1570          # T = 157.0 ~ pi / (2 sqrt(R))
CONVERGE_STEPS = 1568         # T = 156.8, divisible by every dt below
CONVERGE_DTS = (0.4, 0.2, 0.1, 0.05)
RECORD_EVERY = 10
MONITOR_TOL = 1e-10           # spectral-edge band mass the monitor allows
SWEEP_MASSES = (50.0, 100.0, 200.0)
SWEEP_SHAPES = (PacketShape.gaussian(1.0),
                PacketShape.skewed_gaussian(1.0, skew=1.0),
                PacketShape.double_peak(0.7, half_separation=1.2))


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def armed_scenario(n: int, n_steps: int = QUARTER_STEPS):
    return std_scenario(n=n, n_steps=n_steps, record_every=RECORD_EVERY,
                        spectral_mass_tol=MONITOR_TOL)


def earliest_stop(scenario, packets) -> int:
    """Earliest step at which the armed spectral monitor stops the run of one
    of ``packets``; asserts that it stops one before the quarter period ends."""
    stops = []
    for wf in packets:
        try:
            evolve(wf, scenario.tidal, scenario.scheme, scenario.evolve_cfg)
        except SpectralEdgeContact as exc:
            stops.append(exc.step_index)
    assert stops, "the armed spectral monitor did not stop the quarter-period run"
    stop = min(stops)
    assert 0 < stop < QUARTER_STEPS
    return stop


def certified_steps(stop: int, stride: int) -> int:
    """Longest run, in whole strides, that ends before the monitor's stop."""
    return (stop - 1) // stride * stride


def quantum_vs_classical(n: int, n_steps: int = QUARTER_STEPS) -> float:
    scenario = armed_scenario(n, n_steps)
    series = evolve(scenario.build_packet(), scenario.tidal, scenario.scheme,
                    scenario.evolve_cfg)
    ref = rk4_integrate(scenario.classical_state(), scenario.tidal, STD_DT,
                        n_steps).every(RECORD_EVERY)
    return match_metric(series, ref)


def fitted_orders(n: int, n_steps: int = CONVERGE_STEPS) -> tuple[float, float]:
    scenario = armed_scenario(n, n_steps)
    strang = convergence_study(replace(scenario, dt_list=CONVERGE_DTS, scheme=StepScheme.STRANG))
    lie = convergence_study(replace(scenario, dt_list=CONVERGE_DTS, scheme=StepScheme.LIE))
    return strang.order, lie.order


def test_criterion_01_unitarity():
    wf = std_packet(std_grid(), x0=2.0)
    cfg = EvolveConfig(dt=STD_DT, n_steps=10_000, record_every=100)
    series = evolve(wf, std_tidal(), StepScheme.STRANG, cfg)
    drift = float(np.max(np.abs(series.norm - series.norm[0])))
    report(1, "unitarity over 1e4 steps", drift < 1e-10, f"norm drift {drift:.3e} < 1e-10")


def test_criterion_02_flat_space_momentum():
    wf = std_packet(std_grid(), x0=0.0, v0=0.01)
    cfg = EvolveConfig(dt=STD_DT, n_steps=1000, record_every=10)
    series = evolve(wf, TidalMatrix.zero(1), StepScheme.STRANG, cfg)
    dv = float(np.max(np.abs(series.mean_v - series.mean_v[0])))
    report(2, "flat-space momentum conservation", dv < 1e-12, f"|d<v>| {dv:.3e} < 1e-12")


def test_criterion_03_per_step_kick():
    worst = 0.0
    for shape in SWEEP_SHAPES:
        wf = make_packet(std_grid(), shape, [2.0], [0.0], STD_MASS)
        rel = ripple_check(wf, std_tidal(), STD_DT).relative_error
        worst = max(worst, rel)
    report(3, "per-step wave-vector kick (all shapes)", worst < 1e-8,
           f"worst relative error {worst:.3e} < 1e-8")


def test_criterion_04_quantum_classical_agreement_standard_grid():
    # literal fixture, checked up to the armed monitor's stop; the full
    # quarter period is checked at N=512 in the next test
    scenario = armed_scenario(256)
    stop = earliest_stop(scenario, [scenario.build_packet()])
    dev = quantum_vs_classical(256, certified_steps(stop, RECORD_EVERY))
    # the study's duration must be a whole number of its largest dt
    span = certified_steps(stop, round(CONVERGE_DTS[0] / STD_DT))
    strang_order, lie_order = fitted_orders(256, span)
    ok = dev < 1e-6 and 1.8 <= strang_order <= 2.2 and 0.8 <= lie_order <= 1.2
    report(4, "quantum-classical agreement, N=256 standard grid", ok,
           f"monitor stop at step {stop} < {QUARTER_STEPS}; before it: match "
           f"{dev:.3e} (need < 1e-6), strang order {strang_order:.2f} "
           f"(need 2.0+-0.2), lie order {lie_order:.2f} (need 1.0+-0.2) "
           f"over {span} steps")


def test_criterion_04_quantum_classical_agreement_resolved_grid():
    dev = quantum_vs_classical(512)
    strang_order, lie_order = fitted_orders(512)
    ok = dev < 1e-6 and 1.8 <= strang_order <= 2.2 and 0.8 <= lie_order <= 1.2
    report(4, "quantum-classical agreement, N=512", ok,
           f"match {dev:.3e} < 1e-6, strang order {strang_order:.2f}, "
           f"lie order {lie_order:.2f}")


def mass_independence(scenario) -> tuple[float, float]:
    rep = wep_mass_sweep(replace(scenario, masses=SWEEP_MASSES))
    return float(np.max(rep.deviations)), float(np.max(rep.eotvos))


def test_criterion_05_mass_independence_standard_grid():
    # literal fixture: mu=200 squeezes to a spectral width of
    # 2 pi mu w sigma ~ 12.6 against k_max = 40.2 and stops first
    scenario = armed_scenario(256)
    stop = earliest_stop(scenario, [scenario.build_packet(mass=m) for m in SWEEP_MASSES])
    span = certified_steps(stop, RECORD_EVERY)
    dev, eta = mass_independence(armed_scenario(256, span))
    ok = dev < 1e-8 and eta < 1e-6
    report(5, "mass independence, N=256 standard grid", ok,
           f"earliest monitor stop at step {stop} < {QUARTER_STEPS}; over {span} "
           f"steps: worst deviation {dev:.3e} (need < 1e-8), worst Eotvos "
           f"{eta:.3e} (need < 1e-6)")


def test_criterion_05_mass_independence_resolved_grid():
    dev, eta = mass_independence(armed_scenario(768))
    ok = dev < 1e-8 and eta < 1e-6
    report(5, "mass independence, N=768", ok,
           f"worst deviation {dev:.3e} < 1e-8, worst Eotvos {eta:.3e} < 1e-6")


def shape_independence(scenario) -> float:
    rep = wep_shape_sweep(replace(scenario, shapes=SWEEP_SHAPES))
    return float(np.max(rep.deviations))


def test_criterion_06_shape_independence_standard_grid():
    # literal fixture, checked up to the earliest armed monitor stop
    scenario = armed_scenario(256)
    stop = earliest_stop(scenario, [scenario.build_packet(shape=s) for s in SWEEP_SHAPES])
    span = certified_steps(stop, RECORD_EVERY)
    dev = shape_independence(armed_scenario(256, span))
    report(6, "shape independence, N=256 standard grid", dev < 1e-8,
           f"earliest monitor stop at step {stop} < {QUARTER_STEPS}; over {span} "
           f"steps: worst pairwise deviation {dev:.3e} (need < 1e-8)")


def test_criterion_06_shape_independence_resolved_grid():
    dev = shape_independence(armed_scenario(512))
    report(6, "shape independence, N=512", dev < 1e-8,
           f"worst pairwise deviation {dev:.3e} < 1e-8")


def test_criterion_07_transform_oracle(rng):
    worst = 0.0
    for dim in (1, 2):
        for n in (8, 10, 12, 14, 16):
            grid = std_grid(n=n, dim=dim, extent=3.0)
            f = random_field(grid, rng, normalized=False)
            err = float(np.max(np.abs(grid.forward(f) - brute_dft(f, grid))))
            worst = max(worst, err)
    grid = std_grid(n=256)
    f = random_field(grid, rng, normalized=False)
    rt = float(np.max(np.abs(grid.inverse(grid.forward(f)) - f)))
    ok = worst < 1e-10 and rt < 1e-12
    report(7, "transform oracle", ok,
           f"brute-force mismatch {worst:.3e} < 1e-10 (N<=16, d<=2), "
           f"round trip {rt:.3e} < 1e-12 at N=256")


def test_criterion_08_dual_route_velocity(rng):
    from wavefall import WaveFunction
    grid = std_grid(n=64)
    worst = 0.0
    for _ in range(100):
        wf = WaveFunction(grid=grid, psi=random_field(grid, rng), mass=STD_MASS)
        diff = np.abs(mean_velocity_spectral(wf) - mean_velocity_realspace(wf))
        worst = max(worst, float(np.max(diff)))
    report(8, "dual-route mean velocity", worst < 1e-10,
           f"worst spectral-vs-realspace gap {worst:.3e} < 1e-10 on 100 fields")


def test_criterion_09_curvature_guards(rng):
    samples = 1000
    # vacuum trace guard: traceless inputs accepted, traceful rejected
    for _ in range(samples // 4):
        a = rng.normal(size=(3, 3)) * 1e-4
        sym = (a + a.T) / 2
        TidalMatrix(sym - np.eye(3) * np.trace(sym) / 3.0, vacuum=True)
        traced = sym + np.eye(3) * max(1e-6, abs(np.trace(sym)))
        with pytest.raises(TraceNotZero):
            TidalMatrix(traced, vacuum=True)
    # four-index symmetry and cyclic-identity validation
    for _ in range(samples // 4):
        good = random_riemann(rng)
        RiemannComponents(good)
        bad = good.copy()
        bad[0, 1, 0, 1] += 1e-6
        with pytest.raises(SymmetryViolation):
            RiemannComponents(bad)
    # exact-vs-truncated clock rate bound over random points
    worst_excess = -1.0
    for _ in range(samples):
        diag = rng.uniform(-0.04, 0.04, size=3)
        x = rng.uniform(-2.0, 2.0, size=3)
        tm = TidalMatrix(np.diag(diag))
        u = tm.quadratic_form(x)
        if abs(u) > 0.5:
            continue
        gap = abs(proper_time_rate(x, tm) - first_order_rate(x, tm))
        worst_excess = max(worst_excess, gap - u * u / 2.0)
    ok = worst_excess <= 1e-15
    report(9, "curvature guards", ok,
           f"rate-gap bound slack {worst_excess:.2e} <= 0 over {samples} samples; "
           f"trace and symmetry guards fired on every bad input")


def test_criterion_10_rk4_reference():
    omega = 0.01
    tidal = TidalMatrix([[omega ** 2]])
    traj = rk4_integrate(ClassicalState(x=[1.0], v=[0.0]), tidal, 0.1, 6283)
    harmonic_err = float(np.max(np.abs(traj.x[:, 0] - np.cos(omega * traj.t))))
    long = rk4_integrate(ClassicalState(x=[2.0], v=[0.0]), std_tidal(), 0.1, 10_000)
    energy = energy_like(long, std_tidal())
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    ok = harmonic_err < 1e-8 and drift < 1e-10
    report(10, "classical reference integrator", ok,
           f"closed-form error {harmonic_err:.3e} < 1e-8, "
           f"energy drift {drift:.3e} < 1e-10 over 1e4 steps")


def test_validity_scale_guard_on_acceptance_inputs():
    # the weak-field check that gates every run above
    assert validate_tidal(std_tidal(), 20.0) == pytest.approx(0.04, rel=1e-12)
