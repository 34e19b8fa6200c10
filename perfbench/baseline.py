"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/baseline.py --runs 10 --out perfbench/BENCH_0.json
    python3 perfbench/baseline.py --runs 5 --workloads converge_1d   # spread check

For every workload it makes ``--runs`` untraced runs, seeds ``--first-seed``
onward, and one traced run on the first seed, each in its own process with
the command and ``run_seconds`` of BENCHMARK.json.  Per end-to-end metric it
reports the median and quartiles of the runs and their spread, the
interquartile distance as a share of the median, next to a third of the
metric's bound.  ``--out`` writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    record = json.loads((ROOT / "perfbench" / "results"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        results, records = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, record = run(workload, seed, 0)
            results.append(result)
            records.append(record)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        entry = {"environment": records[0]["environment"],
                 "seeds": [r["seed"] for r in records],
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "correct": all(r["correct"] for r in results),
                 "end_to_end": {}}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": values}
            ok = name == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            print(f"  {name:12s} median {median:.6g} {metric['unit']}  spread {spread:.3f}"
                  f"  (bound/3 {metric['bound'] / 3:.3f}){'' if ok else '  NOT STEADY'}")
        raw = [statistics.median(r["walls_raw_s"]) for r in records]
        q1, median, q3 = statistics.quantiles(raw, n=4)
        entry["raw_wall_spread"] = (q3 - q1) / median
        print(f"  raw median wall time: spread {entry['raw_wall_spread']:.3f}")
        if not args.no_trace:
            result, record = run(workload, args.first_seed, 1)
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
            entry["per_layer_correct"] = result["correct"]
            for k, m in result["metrics"].items():
                print(f"  {k:28s} {m['value']:.6g} {m['unit']}")
        summary["workloads"][workload] = entry
        print(f"{workload}: failed {entry['failed']}/{entry['attempted']} invocations", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT STEADY")


if __name__ == "__main__":
    main()
