#!/usr/bin/env python3
"""Splitting-order study: observable error versus step size for both
compositions, against the closed-form classical flow."""

import argparse
from pathlib import Path

from wavefall.config import load_scenario
from wavefall.experiments import convergence_study

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--strang-config", default=str(CONFIGS / "converge_strang_1d.json"))
    ap.add_argument("--lie-config", default=str(CONFIGS / "converge_lie_1d.json"))
    args = ap.parse_args()

    for path in (args.strang_config, args.lie_config):
        report = convergence_study(load_scenario(path))
        pairs = ", ".join(f"dt={d:g}: {e:.3e}" for d, e in zip(report.dts, report.errors))
        print(f"{report.scheme:>6}: fitted order {report.order:.3f}   ({pairs})")


if __name__ == "__main__":
    main()
