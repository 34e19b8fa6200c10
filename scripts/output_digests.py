#!/usr/bin/env python3
"""Print the exit code and SHA-256 of every CLI output on the shipped configs.

Each config in ``configs/`` runs through the command its name starts with
(``wep``, ``ripple`` or ``converge``; ``run`` otherwise), and the 64^3
``perfbench/templates/field_3d.json`` scenario through ``run``.  Each command
runs as ``python -m wavefall`` on this checkout's ``src/`` and writes into a
temporary directory that is removed afterwards; the configs are only read.
One line per output:

    <command> <config> exit=<code> sha256=<digest>

Two checkouts give byte-identical outputs exactly when their printouts are
equal, so a behaviour-neutral change is checked with

    python3 scripts/output_digests.py > before.txt   # in the old checkout
    python3 scripts/output_digests.py > after.txt    # in the new checkout
    diff before.txt after.txt
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("wep", "ripple", "converge")


def scenarios() -> list[tuple[str, Path]]:
    """(command, config path) for every shipped config, then field_3d."""
    jobs = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        prefix = path.stem.split("_")[0]
        jobs.append((prefix if prefix in COMMANDS else "run", path))
    jobs.append(("run", ROOT / "perfbench" / "templates" / "field_3d.json"))
    return jobs


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        for command, config in scenarios():
            out = Path(tmp) / f"{command}-{config.stem}.out"
            done = subprocess.run(
                [sys.executable, "-m", "wavefall", command,
                 "--config", str(config), "--out", str(out)],
                env=env, capture_output=True)
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
            print(f"{command} {config.relative_to(ROOT)} exit={done.returncode} sha256={digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
