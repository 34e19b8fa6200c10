"""Workload definitions: seeded config generation, the commands one
iteration issues, and the correctness check of every command's output.

Each workload is a list of ``(command, template)`` pairs; one iteration
issues every pair once, in order.  Templates are the shipped scenario files
(plus ``templates/field_3d.json``, which the package does not ship).  The
seed only moves the packet's initial offset, so grid size, step count and
record cadence, and with them the work done, are the same for every seed.
Seed 0 is the unperturbed reference and reproduces the templates byte for
byte.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Why each workload is here (also in BENCHMARK.json):
#   run_1d      overhead-bound 1D step loop (N=512), records every 10th step
#   sweep_1d    mass and envelope sweeps: thread pool and packet construction
#   converge_1d every step recorded, pure-Python RK4 reference per scheme
#   field_3d    FFT-bound 64^3 grid; Python-overhead cuts should not move it
WORKLOADS = {
    "run_1d": [("run", "configs/standard_1d_hires.json")],
    "sweep_1d": [("wep", "configs/wep_mass_1d.json"),
                 ("wep", "configs/wep_shapes_1d.json")],
    "converge_1d": [("converge", "configs/converge_strang_1d.json"),
                    ("converge", "configs/converge_lie_1d.json")],
    "field_3d": [("run", "perfbench/templates/field_3d.json")],
}

# Reference kernel (dim, threads) that gauges machine speed for each
# workload; see calibrate.py.  The sweeps run on the default two-worker pool.
GAUGE = {"run_1d": (1, 1), "sweep_1d": (1, 2), "converge_1d": (1, 2), "field_3d": (3, 1)}

# Largest accepted |<x>(t) - x_exact(t)| per workload.  Measured at seed 0:
# run_1d 1.31e-7, sweep_1d 1.31e-7, converge_1d 5.0e-4 (lie, dt=0.05),
# field_3d 3.3e-11; the seed moves |x0| by at most 2.5%, and the deviation
# is linear in x0.
MAX_DEV_BOUND = {"run_1d": 3e-7, "sweep_1d": 3e-7, "converge_1d": 1e-3,
                 "field_3d": 1e-10}
NORM_DRIFT_TOL = 1e-12
OFFSET_HALF_RANGE = 0.05

_X0_RE = re.compile(r'"x0": \[[^\]]*\]')


@dataclass(frozen=True)
class Command:
    """One CLI invocation of an iteration, with its generated config."""

    name: str
    config: Path
    out: Path
    doc: dict

    @property
    def argv(self) -> list[str]:
        return [self.name, "--config", str(self.config), "--out", str(self.out)]

    @property
    def steps(self) -> int:
        """Quantum split-steps this command performs, summed over members."""
        ev = self.doc["evolve"]
        if self.name == "converge":
            duration = ev["dt"] * ev["steps"]
            return sum(round(duration / dt) for dt in self.doc["dt_list"])
        return ev["steps"] * self.members

    @property
    def members(self) -> int:
        if self.name == "converge":
            return len(self.doc["dt_list"])
        return len(self.doc.get("masses") or self.doc.get("shapes") or [None])


def draw_x0(rng: random.Random, x0: list[float], seed: int) -> list[float]:
    """Seeded initial offset: scale |x0| by 1 +- 2.5% and, in 3D, turn it to
    a uniformly drawn direction.  The tidal matrix of ``field_3d`` is
    isotropic, so turning the offset is the same as turning R."""
    if seed == 0:
        return x0
    radius = math.hypot(*x0) + rng.uniform(-OFFSET_HALF_RANGE, OFFSET_HALF_RANGE)
    if len(x0) == 1:
        return [math.copysign(radius, x0[0])]
    direction = np.array([rng.gauss(0.0, 1.0) for _ in x0])
    return [float(v) for v in radius * direction / np.linalg.norm(direction)]


def generate(workload: str, seed: int, work: Path) -> list[Command]:
    """Write the workload's configs for ``seed`` into ``work``."""
    rng = random.Random(seed)
    commands = []
    for i, (name, template) in enumerate(WORKLOADS[workload]):
        text = (ROOT / template).read_text(encoding="utf-8")
        x0 = draw_x0(rng, json.loads(text)["packet"]["x0"], seed)
        text, count = _X0_RE.subn(lambda _: '"x0": [' + ", ".join(map(repr, x0)) + "]", text)
        if count != 1:
            raise ValueError(f"{template}: expected exactly one x0 entry, found {count}")
        config = work / Path(template).name
        config.write_text(text, encoding="utf-8")
        suffix = ".csv" if name == "run" else ".json"
        commands.append(Command(name, config, work / f"{i}_{config.stem}.out{suffix}",
                                json.loads(text)))
    return commands


# --- correctness -------------------------------------------------------------

def exact_positions(x0, v0, tidal, t) -> np.ndarray:
    """Closed-form solution of x'' = -R x at times t, through the
    eigendecomposition of R (cos/sin, cosh/sinh, or free drift per mode)."""
    r = np.asarray(tidal, dtype=float).reshape(len(x0), len(x0))
    lam, q = np.linalg.eigh(r)
    y0, w0 = q.T @ np.asarray(x0, float), q.T @ np.asarray(v0, float)
    t = np.asarray(t, dtype=float)[:, None]
    om = np.sqrt(np.abs(lam))
    safe = np.where(om > 0, om, 1.0)
    cos = np.where(lam > 0, np.cos(om * t), np.where(lam < 0, np.cosh(om * t), 1.0))
    sin = np.where(lam > 0, np.sin(om * t) / safe,
                   np.where(lam < 0, np.sinh(om * t) / safe, t))
    return (y0 * cos + w0 * sin) @ q.T


def series_deviation(doc: dict, t, mean_x) -> float:
    """max_t |<x>(t) - x_exact(t)| for one recorded run of scenario ``doc``."""
    p = doc["packet"]
    exact = exact_positions(p["x0"], p["v0"], doc["curvature"]["tidal"], t)
    return float(np.max(np.linalg.norm(np.asarray(mean_x) - exact, axis=1)))


class CheckFailed(Exception):
    """A command's output is not what the scenario demands."""


def check_run_csv(cmd: Command) -> float:
    lines = cmd.out.read_text(encoding="utf-8").splitlines()
    if not lines[0].startswith("# config: "):
        raise CheckFailed("missing '# config:' line")
    if json.loads(lines[0][len("# config: "):])["packet"]["x0"] != cmd.doc["packet"]["x0"]:
        raise CheckFailed("echoed x0 differs from the generated config")
    if any(line.startswith("# aborted") for line in lines):
        raise CheckFailed("run aborted")
    header = lines[1].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    ev = cmd.doc["evolve"]
    if rows.shape[0] != ev["steps"] // ev["record_every"] + 1:
        raise CheckFailed(f"{rows.shape[0]} records for {ev['steps']} steps")
    norms = rows[:, header.index("norm")]
    drift = float(np.max(np.abs(norms - 1.0)))
    if drift > NORM_DRIFT_TOL:
        raise CheckFailed(f"norm drift {drift:.2e} exceeds {NORM_DRIFT_TOL:.0e}")
    dim = len(cmd.doc["packet"]["x0"])
    mx = rows[:, [header.index(f"mx{i + 1}") for i in range(dim)]]
    return series_deviation(cmd.doc, rows[:, header.index("t")], mx)


def check_wep_json(cmd: Command, members: list) -> float:
    report = json.loads(cmd.out.read_text(encoding="utf-8"))["report"]
    if report["pass"] is not True:
        raise CheckFailed("wep report does not pass")
    if len(report["labels"]) != cmd.members or len(members) != cmd.members:
        raise CheckFailed(f"expected {cmd.members} members, saw {len(members)}")
    return max(series_deviation(cmd.doc, s.t, s.mean_x) for _, s in members)


def check_converge_json(cmd: Command) -> float:
    report = json.loads(cmd.out.read_text(encoding="utf-8"))["report"]
    if report["pass"] is not True:
        raise CheckFailed(f"fitted order {report['fitted_order']} outside its band")
    errors = report["errors"]
    if len(errors) != cmd.members or any(b >= a for a, b in zip(errors, errors[1:])):
        raise CheckFailed(f"errors do not fall with dt: {errors}")
    return float(errors[-1])


def check(cmd: Command, members: list) -> float:
    """Validate one command's output; returns its max deviation from the
    exact classical trajectory (the smallest-dt error for ``converge``).
    ``members`` holds the ``(thread id, series)`` of each sweep member."""
    if cmd.name == "run":
        return check_run_csv(cmd)
    if cmd.name == "wep":
        return check_wep_json(cmd, members)
    return check_converge_json(cmd)
