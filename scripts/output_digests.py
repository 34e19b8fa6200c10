#!/usr/bin/env python3
"""Print, or check against a record, the exit code and digest of every CLI output.

Each config in ``configs/`` runs through the command its name starts with
(``wep``, ``ripple`` or ``converge``; ``run`` otherwise), and the 64^3
``perfbench/templates/field_3d.json`` scenario through ``run``.  Each command
runs as ``python -m wavefall`` on this checkout's ``src/`` and writes into a
temporary directory that is removed afterwards; the configs are only read.
One line per output:

    <command> <config> exit=<code> sha256=<digest>

No shipped config is 2D, so a generated 2D ``run`` scenario with an
off-diagonal tidal matrix (``RUN_2D``) is written into the temporary
directory and printed the same way, as ``run <generated>/run_2d.json``.
Then each of ``VARIANTS`` (a base config with some keys changed, written
into the temporary directory) takes a failure path, or pins a report's
bytes; its line names the changed keys (``<block>.<key>``, or ``<key>`` at
the top level) and adds the digest of stderr, which carries any abort
message:

    <command> <config> <key>=<value>... exit=<code> sha256=<digest> stderr_sha256=<digest>

The last line runs ``configs/flat_1d.json`` with ``--out /dev/full``, a
device every write to which fails, so it needs Linux's ``/dev/full``: the
failed write exits 2 with one ``ConfigError`` line and no output digest.

The first line names the numpy version and ``platform.machine()``, since
the digests hold only for one numpy build on one machine type.
``scripts/output_digests.txt`` is the recorded printout:

    python3 scripts/output_digests.py > scripts/output_digests.txt   # record
    python3 scripts/output_digests.py --check                        # check

``--check`` reruns every line and exits 0 when the printout equals the
file, 1 with a unified diff when it does not, and 2 without judging when
the file was recorded with another numpy version or on another machine.
A change that moves output bytes on purpose records the file again.
"""

import argparse
import difflib
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "scripts" / "output_digests.txt"
COMMANDS = ("wep", "ripple", "converge")
RUN_2D = {
    "grid": {"dim": 2, "n": 128, "extent": 20.0},
    "packet": {"shape": "gaussian", "params": [1.0], "x0": [2.0, -1.0],
               "v0": [0.002, 0.001], "mass": 100.0},
    "curvature": {"tidal": [1e-4, 3e-5, 3e-5, -5e-5], "vacuum": False},
    "evolve": {"dt": 0.1, "steps": 400, "record_every": 10, "scheme": "strang"},
}
FIELD_3D = ROOT / "perfbench" / "templates" / "field_3d.json"
GENERATED_2D = "<generated>/run_2d.json"
# the base configs of VARIANTS; "2d" is RUN_2D, written as GENERATED_2D
BASES = {"1d": ROOT / "configs" / "standard_1d.json",
         "strang": ROOT / "configs" / "converge_strang_1d.json",
         "mass": ROOT / "configs" / "wep_mass_1d.json",
         "shapes": ROOT / "configs" / "wep_shapes_1d.json",
         "3d": FIELD_3D}
# (command, base, (block, key, value) settings made in it); a block of None
# sets a top-level key
CONVERGE_1D = ((None, "dt_list", [0.4, 0.2, 0.1]), ("evolve", "steps", 784))
VARIANTS = (
    # run aborts, exit 3.  1D: the armed spectral-edge monitor
    # (SpectralEdgeContact at step 761)
    ("run", "1d", (("evolve", "spectral_mass_tol", 1e-10),)),
    # the same with a record every step: 761 rows, so the partial series
    # ends part way through a stack of record snapshots
    ("run", "1d", (("evolve", "record_every", 1), ("evolve", "spectral_mass_tol", 1e-10))),
    # a packet drifting into the margin band (BoundaryContact at step 170)
    ("run", "1d", (("packet", "v0", [0.03]),)),
    # a packet released inside the margin band (initial BoundaryContact)
    ("run", "1d", (("packet", "x0", [5.0]),)),
    # 2D: a heavy packet under the armed monitor (SpectralEdgeContact at step 138)
    ("run", "2d", (("packet", "mass", 300), ("evolve", "spectral_mass_tol", 1e-10))),
    # a light, fast packet (BoundaryContact at step 129)
    ("run", "2d", (("packet", "v0", [0.03, 0.0]), ("packet", "mass", 5))),
    # 3D: the same light, fast packet over 400 steps (BoundaryContact at
    # step 113, twelve rows)
    ("run", "3d", (("evolve", "steps", 400), ("packet", "v0", [0.03, 0.0, 0.0]),
                   ("packet", "mass", 5))),
    # a packet released inside the margin band (initial BoundaryContact)
    ("run", "3d", (("packet", "x0", [5.0, 0.0, 0.0]),)),
    # exit 1, a report whose pass is false: the unarmed mu=200 member wraps
    # round the Nyquist edge
    ("wep", "1d", ((None, "masses", [50, 200]),)),
    # an order band that the Strang order 2.000004 misses
    ("converge", "1d", CONVERGE_1D + ((None, "order_band", [2.5, 3.0]),)),
    # exit 3: a light, drifting packet trips BoundaryContact at step 18 of
    # its dt=0.4 member
    ("converge", "1d", CONVERGE_1D + (("packet", "mass", 50), ("packet", "v0", [0.03]),
                                      ("evolve", "boundary_mass_tol", 3e-9))),
    # exit 2, no output: configs that fail at load, a NaN (written as JSON's
    # non-standard NaN, as Python's json module writes and reads it) ...
    ("run", "1d", (("packet", "v0", [float("nan")]),)),
    # ... and a zero in dt_list
    ("converge", "strang", ((None, "dt_list", [0.0, 0.2, 0.1]),)),
    # two records, too few for the Eotvos ratios (TooFewRecords)
    ("wep", "1d", ((None, "masses", [50, 100]), ("evolve", "steps", 10))),
    # exit 0: two Gaussians of widths 1.0 and 0.7 share a kind, so the
    # report labels them shape[0]=gaussian and shape[1]=gaussian
    ("wep", "shapes", ((None, "shapes", [{"shape": "gaussian", "params": [1.0]},
                                         {"shape": "gaussian", "params": [0.7]}]),
                       ("evolve", "steps", 200))),
    # exit 0: converge reads no masses, so mass 50 is neither held to the
    # study's dt=0.4 nor echoed; the report equals the plain study's
    ("converge", "strang", ((None, "masses", [50, 100]),)),
    # exit 0: run reads no masses either, so mass 1, whose kinetic phase at
    # the evolve dt passes pi, is not checked; the CSV equals the plain run's
    ("run", "1d", ((None, "masses", [1]),)),
    # exit 0, each with the shipped study's report: load checks only the runs
    # the command makes.  converge runs only its dt_list, so an evolve dt of
    # 0.8 (kinetic phase 4.118) only sets the duration, the shipped 156.8 ...
    ("converge", "strang", (("evolve", "dt", 0.8), ("evolve", "steps", 196))),
    # ... the mass sweep never evolves the packet's own mass 10 ...
    ("wep", "mass", (("packet", "mass", 10),)),
    # ... and the shape sweep never builds the packet's own shape, too wide
    ("wep", "shapes", (("packet", "params", [3.0]),)),
    # exit 0 with the shipped report: nor does it read the packet's
    # amplitude table, here at a path that cannot exist
    ("wep", "shapes", (("packet", "shape", "custom_table"), ("packet", "params", []),
                       ("packet", "table", "/nonexistent/wavefall-table.csv"))),
    # exit 2, two faults: load checks each run in run order, its packet then
    # its step guards, so shape[0] fails its step guard at the evolve dt 0.8
    # (StepTooLarge) before the too-wide shape[1] is checked
    ("wep", "shapes", (("evolve", "dt", 0.8),
                       (None, "shapes", [{"shape": "gaussian", "params": [1.0]},
                                         {"shape": "skewed_gaussian", "params": [3.0, 1.0]},
                                         {"shape": "double_peak", "params": [0.7, 1.2]}]))))


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


def variant_prefix(command: str, base: str, settings) -> str:
    """A variant's line up to `` exit=``: its command, base and changed keys."""
    label = GENERATED_2D if base == "2d" else str(BASES[base].relative_to(ROOT))
    changed = " ".join(f"{key if block is None else f'{block}.{key}'}={json.dumps(value)}"
                       for block, key, value in settings)
    return f"{command} {label} {changed}"


def header() -> str:
    return f"# numpy={version('numpy')} machine={platform.machine()}"


def printout():
    """The printout, line by line: the header, then one line per output."""
    yield header()
    with tempfile.TemporaryDirectory() as tmp:
        for command, config in scenarios():
            code, digest, _ = run(command, config, Path(tmp) / f"{command}-{config.stem}.out")
            yield f"{command} {config.relative_to(ROOT)} exit={code} sha256={digest}"
        config = Path(tmp) / "run_2d.json"
        config.write_text(json.dumps(RUN_2D))
        code, digest, _ = run("run", config, Path(tmp) / "run-run_2d.out")
        yield f"run {GENERATED_2D} exit={code} sha256={digest}"
        for i, (command, base, settings) in enumerate(VARIANTS):
            doc = json.loads(json.dumps(RUN_2D) if base == "2d" else BASES[base].read_text())
            for block, key, value in settings:
                (doc if block is None else doc[block])[key] = value
            # numbered, since two variants may change the same keys of one base
            config = Path(tmp) / f"variant{i}-{base}.json"
            config.write_text(json.dumps(doc))
            code, digest, err = run(command, config, Path(tmp) / f"{command}-{config.stem}.out")
            yield (f"{variant_prefix(command, base, settings)} exit={code} sha256={digest} "
                   f"stderr_sha256={err}")
    flat = ROOT / "configs" / "flat_1d.json"
    code, digest, err = run("run", flat, Path("/dev/full"))
    yield (f"run {flat.relative_to(ROOT)} --out /dev/full exit={code} sha256={digest} "
           f"stderr_sha256={err}")


def check() -> int:
    """Compare the printout with the record: 0 equal, 1 differing, 2 not judged."""
    recorded = RECORD.read_text().splitlines()
    if recorded[:1] != [header()]:
        print(f"not checked: {RECORD.name} was recorded with {recorded[0][2:]!r}, "
              f"this is {header()[2:]!r}", file=sys.stderr)
        return 2
    lines = list(printout())
    if lines == recorded:
        print(f"{len(lines) - 1} lines match {RECORD.name}")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        [line + "\n" for line in recorded], [line + "\n" for line in lines],
        fromfile=str(RECORD.relative_to(ROOT)), tofile="this checkout"))
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {RECORD.relative_to(ROOT)} instead of printing")
    if parser.parse_args(argv).check:
        return check()
    for line in printout():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
