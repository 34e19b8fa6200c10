#!/usr/bin/env python3
"""Print the exit code and SHA-256 of every CLI output on the shipped configs.

Each config in ``configs/`` runs through the command its name starts with
(``wep``, ``ripple`` or ``converge``; ``run`` otherwise), and the 64^3
``perfbench/templates/field_3d.json`` scenario through ``run``.  Each command
runs as ``python -m wavefall`` on this checkout's ``src/`` and writes into a
temporary directory that is removed afterwards; the configs are only read.
One line per output:

    <command> <config> exit=<code> sha256=<digest>

No shipped config is 2D, so a generated 2D ``run`` scenario with an
off-diagonal tidal matrix (``RUN_2D``, 64^2, 400 Strang steps) is written
into the temporary directory and printed the same way, as
``run <generated>/run_2d.json``.

Four variants of ``configs/standard_1d.json``, two of ``RUN_2D`` and two
of ``field_3d.json``, written into the temporary directory, then take
``run``'s abort paths (exit 3).  In 1D: the armed spectral-edge monitor
(``SpectralEdgeContact`` at step 761), the same with a record every step
(761 rows, so the partial series ends part way through a stack of record
snapshots), a packet drifting into the margin band (``BoundaryContact`` at
step 170) and one released inside it (initial ``BoundaryContact``).  In 2D: a heavy packet
under the armed monitor (``SpectralEdgeContact`` at step 48) and a light,
fast one (``BoundaryContact`` at step 113).  In 3D: the same light, fast
packet over 400 steps (``BoundaryContact`` at step 113, twelve rows) and
one released inside the margin band (initial ``BoundaryContact``).

Three more variants of ``configs/standard_1d.json`` take the other
commands' failure paths.  Two exit 1 with a report whose ``pass`` is
false: ``wep`` on masses 50 and 200, where the unarmed mu=200 member wraps
round the Nyquist edge, and ``converge`` with an ``order_band`` of
[2.5, 3.0] that the Strang order 2.000004 misses.  One ``converge`` run
aborts with exit 3: a light, drifting packet trips ``BoundaryContact`` at
step 18 of its dt=0.4 member.

Three variants exit 2 with no output.  Two are configs that fail at
load: ``run`` on ``configs/standard_1d.json`` with a NaN in ``packet.v0``
and ``converge`` on ``configs/converge_strang_1d.json`` with a zero in
``dt_list``.  A NaN is written as JSON's non-standard ``NaN``, as Python's
``json`` module writes and reads it.  The third is ``wep`` on
``configs/standard_1d.json`` with masses 50 and 100 over 10 steps: two
records, too few for the Eotvos ratios (``TooFewRecords``).

One variant passes: ``wep`` on ``configs/wep_shapes_1d.json`` with two
Gaussians of widths 1.0 and 0.7 over 200 steps, whose report labels its
members ``shape[0]=gaussian`` and ``shape[1]=gaussian``, since they share
a kind.

Every variant's line names the changed
keys (``<block>.<key>``, or ``<key>`` at the top level) and adds the
digest of stderr, which carries any abort message:

    <command> <config> <key>=<value>... exit=<code> sha256=<digest> stderr_sha256=<digest>

The last line runs ``configs/flat_1d.json`` with ``--out /dev/full``, a
device every write to which fails, so it needs Linux's ``/dev/full``: the
failed write exits 2 with one ``ConfigError`` line and no output digest:

    run configs/flat_1d.json --out /dev/full exit=2 sha256=- stderr_sha256=<digest>

Two checkouts give byte-identical outputs exactly when their printouts are
equal, so a behaviour-neutral change is checked with

    python3 scripts/output_digests.py > before.txt   # in the old checkout
    python3 scripts/output_digests.py > after.txt    # in the new checkout
    diff before.txt after.txt
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("wep", "ripple", "converge")
RUN_2D = {
    "grid": {"dim": 2, "n": 64, "extent": 20.0},
    "packet": {"shape": "gaussian", "params": [1.0], "x0": [2.0, -1.0],
               "v0": [0.002, 0.001], "mass": 100.0},
    "curvature": {"tidal": [1e-4, 3e-5, 3e-5, -5e-5], "vacuum": False},
    "evolve": {"dt": 0.1, "steps": 400, "record_every": 10, "scheme": "strang"},
}
FIELD_3D = ROOT / "perfbench" / "templates" / "field_3d.json"
# (command, base config, (block, key, value) settings made in it): one
# failing run per entry but the last; the base is "1d"
# (configs/standard_1d.json), "strang" (configs/converge_strang_1d.json),
# "shapes" (configs/wep_shapes_1d.json), "2d" (RUN_2D) or "3d" (FIELD_3D),
# and a block of None sets a top-level key
CONVERGE_1D = ((None, "dt_list", [0.4, 0.2, 0.1]), ("evolve", "steps", 784))
VARIANTS = (("run", "1d", (("evolve", "spectral_mass_tol", 1e-10),)),
            ("run", "1d", (("evolve", "record_every", 1), ("evolve", "spectral_mass_tol", 1e-10))),
            ("run", "1d", (("packet", "v0", [0.03]),)),
            ("run", "1d", (("packet", "x0", [5.0]),)),
            ("run", "2d", (("packet", "mass", 300), ("evolve", "spectral_mass_tol", 1e-10))),
            ("run", "2d", (("packet", "v0", [0.03, 0.0]), ("packet", "mass", 5))),
            ("run", "3d", (("evolve", "steps", 400), ("packet", "v0", [0.03, 0.0, 0.0]),
                           ("packet", "mass", 5))),
            ("run", "3d", (("packet", "x0", [5.0, 0.0, 0.0]),)),
            ("wep", "1d", ((None, "masses", [50, 200]),)),
            ("converge", "1d", CONVERGE_1D + ((None, "order_band", [2.5, 3.0]),)),
            ("converge", "1d", CONVERGE_1D + (("packet", "mass", 50), ("packet", "v0", [0.03]),
                                              ("evolve", "boundary_mass_tol", 3e-9))),
            ("run", "1d", (("packet", "v0", [float("nan")]),)),
            ("converge", "strang", ((None, "dt_list", [0.0, 0.2, 0.1]),)),
            ("wep", "1d", ((None, "masses", [50, 100]), ("evolve", "steps", 10))),
            ("wep", "shapes", ((None, "shapes", [{"shape": "gaussian", "params": [1.0]},
                                                 {"shape": "gaussian", "params": [0.7]}]),
                               ("evolve", "steps", 200))))


def scenarios() -> list[tuple[str, Path]]:
    """(command, config path) for every shipped config, then field_3d."""
    jobs = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        prefix = path.stem.split("_")[0]
        jobs.append((prefix if prefix in COMMANDS else "run", path))
    jobs.append(("run", FIELD_3D))
    return jobs


def run(command: str, config: Path, out: Path) -> tuple[int, str, str]:
    """Exit code, output digest ("-" when none) and stderr digest of one command."""
    done = subprocess.run(
        [sys.executable, "-m", "wavefall", command, "--config", str(config), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True)
    # only a regular file is read back: /dev/full reads as endless zeros
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.is_file() else "-"
    return done.returncode, digest, hashlib.sha256(done.stderr).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for command, config in scenarios():
            code, digest, _ = run(command, config, Path(tmp) / f"{command}-{config.stem}.out")
            print(f"{command} {config.relative_to(ROOT)} exit={code} sha256={digest}")
        config = Path(tmp) / "run_2d.json"
        config.write_text(json.dumps(RUN_2D))
        code, digest, _ = run("run", config, Path(tmp) / "run-run_2d.out")
        print(f"run <generated>/{config.name} exit={code} sha256={digest}")
        std = ROOT / "configs" / "standard_1d.json"
        strang = ROOT / "configs" / "converge_strang_1d.json"
        shapes = ROOT / "configs" / "wep_shapes_1d.json"
        bases = {"1d": (str(std.relative_to(ROOT)), std.read_text()),
                 "strang": (str(strang.relative_to(ROOT)), strang.read_text()),
                 "shapes": (str(shapes.relative_to(ROOT)), shapes.read_text()),
                 "2d": (f"<generated>/{config.name}", json.dumps(RUN_2D)),
                 "3d": (str(FIELD_3D.relative_to(ROOT)), FIELD_3D.read_text())}
        for i, (command, base, settings) in enumerate(VARIANTS):
            label, text = bases[base]
            doc = json.loads(text)
            for block, key, value in settings:
                (doc if block is None else doc[block])[key] = value
            # numbered, since two variants may change the same keys of one base
            config = Path(tmp) / f"variant{i}-{base}.json"
            config.write_text(json.dumps(doc))
            code, digest, err = run(command, config, Path(tmp) / f"{command}-{config.stem}.out")
            changed = " ".join(f"{key if block is None else f'{block}.{key}'}={json.dumps(value)}"
                               for block, key, value in settings)
            print(f"{command} {label} {changed} exit={code} sha256={digest} stderr_sha256={err}")
    flat = ROOT / "configs" / "flat_1d.json"
    code, digest, err = run("run", flat, Path("/dev/full"))
    print(f"run {flat.relative_to(ROOT)} --out /dev/full exit={code} sha256={digest} "
          f"stderr_sha256={err}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
