"""Spans around the package's public entry points, patched in from outside.

``instrument`` replaces each traced name with a wrapper that records one
span ``(id, parent, name, thread id, start, end, info)`` per call and
restores the originals on exit.  A span opened on a thread with no open
span of its own (a sweep member on a pool thread) takes the innermost open
span of the thread that created the tracer as its parent, which is the
sweep that submitted it.  ``summarize`` turns one iteration's spans into the
per-layer numbers.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import statistics
import threading
from time import perf_counter

import numpy as np

OBSERVABLES = ("norm", "mean_position", "mean_velocity_spectral", "covariance")
SWEEPS = ("wep_mass_sweep", "wep_shape_sweep", "convergence_study")
TRANSFORMS = ("spectral.forward", "spectral.inverse")
RECORD_SPANS = {f"packets.{name}" for name in OBSERVABLES}
SWEEP_SPANS = {f"experiments.{name}" for name in SWEEPS}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            owner = threading.get_ident() == self._owner
            stack = self._local.stack = self._owner_stack if owner else []
        return stack

    def wrap(self, name: str, fn, info=None):
        """``fn`` with a span per call; ``info(args, kwargs, result)`` adds
        a payload to the span."""
        spans, ids, owner_stack = self.spans, self._ids, self._owner_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (owner_stack[-1] if owner_stack else 0)
            sid = next(ids)
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                payload = info(args, kwargs, result) if info and result is not None else None
                spans.append((sid, parent, name, threading.get_ident(), t0, t1, payload))
        return traced


def _evolve_info(args, kwargs, series):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return {"steps": cfg.n_steps, "stamps": np.round(series.t, 9)}


def _rk4_info(args, kwargs, result):
    return {"steps": args[3] if len(args) > 3 else kwargs["n_steps"]}


def _grid_points(args, kwargs, result):
    return result.size


@contextlib.contextmanager
def instrument(tracer: Tracer | None, members: list):
    """Patch the package for one measured section.

    ``members`` collects ``(thread id, series)`` for every sweep member's
    ``evolve``, traced or not, for the correctness check and the pool size.
    With ``tracer`` None only that capture is installed.
    """
    from wavefall import cli, config, experiments, propagate, spectral

    patches = []

    def patch(owner, name, new):
        patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    if tracer is not None:
        grid = spectral.SpectralGrid
        patch(grid, "forward", tracer.wrap("spectral.forward", grid.forward, _grid_points))
        patch(grid, "inverse", tracer.wrap("spectral.inverse", grid.inverse, _grid_points))
        for module in (propagate, cli, experiments):
            for name in OBSERVABLES:
                if hasattr(module, name):
                    patch(module, name, tracer.wrap(f"packets.{name}", getattr(module, name)))
            if hasattr(module, "evolve"):
                patch(module, "evolve",
                      tracer.wrap("propagate.evolve", module.evolve, _evolve_info))
            if hasattr(module, "rk4_integrate"):
                patch(module, "rk4_integrate",
                      tracer.wrap("classical.rk4_integrate", module.rk4_integrate, _rk4_info))
        patch(config, "make_packet", tracer.wrap("packets.make_packet", config.make_packet))
        patch(cli, "load_scenario", tracer.wrap("config.load_scenario", cli.load_scenario))
        for name in SWEEPS:
            patch(cli, name, tracer.wrap(f"experiments.{name}", getattr(cli, name)))
        for name in ("_write_series_csv", "_write_report_json"):
            patch(cli, name, tracer.wrap("cli.write", getattr(cli, name)))

    member_evolve = experiments.evolve

    def capture(*args, **kwargs):
        series = member_evolve(*args, **kwargs)
        members.append((threading.get_ident(), series))
        return series

    patch(experiments, "evolve", capture)
    try:
        yield
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


# --- per-layer numbers --------------------------------------------------------

def summarize(spans: list[tuple]) -> dict:
    """Per-layer numbers of one iteration, from its spans."""
    by_id = {s[0]: s for s in spans}

    def dur(s):
        return s[5] - s[4]

    def named(name):
        return [s for s in spans if s[2] == name]

    chains: dict[int, tuple] = {}

    def ancestors(s) -> tuple:
        """Enclosing spans, innermost first."""
        if s[0] not in chains:
            parent = by_id.get(s[1])
            chains[s[0]] = (parent,) + ancestors(parent) if parent else ()
        return chains[s[0]]

    def under(s, names):
        return any(a[2] in names for a in ancestors(s))

    evolves = named("propagate.evolve")
    evolve_ids = {s[0] for s in evolves}
    evolve_s = sum(map(dur, evolves))
    steps = sum(s[6]["steps"] for s in evolves)
    transforms = [s for s in spans if s[2] in TRANSFORMS]
    in_evolve = [s for s in transforms if under(s, {"propagate.evolve"})]
    children_s = sum(dur(s) for s in spans if s[1] in evolve_ids)
    records = [s for s in spans if s[1] in evolve_ids and s[2] == "packets.norm"]
    record_s = sum(dur(s) for s in spans if s[1] in evolve_ids and s[2] in RECORD_SPANS)
    points = [s[6] for s in transforms]
    flops = sum(5.0 * n * math.log2(n) for n in points)
    nbytes = sum(2 * 16 * n for n in points)

    rk4 = named("classical.rk4_integrate")
    rk4_steps = sum(s[6]["steps"] for s in rk4)
    # reference samples compared: distinct record stamps of the quantum runs
    # that share a command with an RK4 reference
    used = 0
    for main in named("cli.main"):
        inside = [s for s in rk4 + evolves if main[0] in {a[0] for a in ancestors(s)}]
        if any(s[2] == "classical.rk4_integrate" for s in inside):
            stamps = [s[6]["stamps"] for s in inside if s[2] == "propagate.evolve"]
            used += len(np.unique(np.concatenate(stamps))) if stamps else 0

    # layers a workload does not use have no time at all; their times are
    # given as shares of the iteration's command time, so that none of
    # them is a duration that reads exactly 0 on every run
    main_s = sum(map(dur, named("cli.main")))
    sweeps = [s for s in spans if s[2] in SWEEP_SPANS]
    sweep_s = sum(map(dur, sweeps))
    members = [s for s in evolves if under(s, SWEEP_SPANS)]
    busy = sum(map(dur, members))
    builds = named("packets.make_packet")

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "spectral.transform_calls": len(transforms),
        "spectral.transform_us": 1e6 * statistics.median(map(dur, transforms)) if transforms else 0.0,
        "spectral.transform_share": ratio(sum(map(dur, in_evolve)), evolve_s),
        "spectral.flops_computed": ratio(flops, steps),
        "spectral.bytes_computed": ratio(nbytes, steps),
        "propagate.steps": steps,
        "propagate.step_us": 1e6 * ratio(evolve_s, steps),
        "propagate.self_us_per_step": 1e6 * ratio(evolve_s - children_s, steps),
        "packets.record_calls": len(records),
        "packets.records_per_step": ratio(len(records), steps),
        "packets.record_us": 1e6 * ratio(record_s, len(records)),
        "packets.builds": len(builds),
        "packets.build_s": sum(map(dur, builds)),
        "classical.rk4_steps": rk4_steps,
        "classical.rk4_share": ratio(sum(map(dur, rk4)), main_s),
        "classical.rk4_used_frac": ratio(used, rk4_steps),
        "experiments.members": len(members),
        "experiments.sweep_share": ratio(sweep_s, main_s),
        "experiments.overlap": ratio(busy, sweep_s),
        "config.load_s": sum(map(dur, named("config.load_scenario"))),
        "cli.write_s": sum(map(dur, named("cli.write"))),
    }


COUNTS = ("spectral.transform_calls", "propagate.steps", "packets.record_calls",
          "packets.builds", "classical.rk4_steps", "experiments.members")
