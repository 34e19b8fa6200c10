"""wavefall benchmark: closed-loop CLI workloads, one client, in-process.

    python3 perfbench/run.py --workload run_1d --seed 1 --seconds 20 --trace 0

Each iteration calls ``wavefall.cli.main`` for every command of the
workload (see ``workloads.py``) and checks every output.  After one
untimed warm-up iteration, iterations repeat back to back for ``--seconds``;
no iteration is started that would be expected to end past the deadline.

A reference kernel runs between iterations, and wall times are reported
in reference seconds (see ``calibrate.py``).  ``--trace 0`` times the
iterations with nothing but a result capture on sweep members and prints
the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced iterations and prints the per-layer metrics of the
traced ones, plus the tracing overhead.  Human-readable lines come first;
the last line of standard output is the JSON result.  A record with the
environment, the seed, every generated config and the samples is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, Gauge
from spans import COUNTS, Tracer, instrument, summarize
from workloads import GAUGE, MAX_DEV_BOUND, WORKLOADS, CheckFailed, check, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))



def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least ten
    samples beyond it; below 21 samples that falls under the median,
    so the median is reported instead."""
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def environment(members_threads: int) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "SIM_THREADS": os.environ.get("SIM_THREADS"),
        "pool_threads_seen": members_threads,
    }


def setup_probes(commands) -> tuple[list[float], list[float]]:
    """Raw and reference-second set-up times of SETUP_PROBES fresh
    interpreters, each gauged by the single-threaded kernel it runs after."""
    pairs = [f"{c.name}={c.config}" for c in commands]
    raw, ref = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), *pairs],
                             capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            die(f"set-up probe failed:\n{out.stderr}")
        probe = json.loads(out.stdout.splitlines()[-1])
        raw.append(probe["setup_s"])
        ref.append(probe["setup_s"] * REFERENCE_S[(1, 1)] / probe["gauge_s"])
    return raw, ref


class Bench:
    """Runs iterations of one workload and keeps their samples."""

    def __init__(self, workload: str, commands, cli_main):
        self.workload = workload
        self.commands = commands
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.max_dev = 0.0
        self.pool_threads = 0

    def _call(self, argv, tracer):
        try:
            if tracer is None:
                return self.cli_main(argv)
            return tracer.wrap("cli.main", self.cli_main)(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:  # a crash is a failed invocation, not a dead benchmark
            traceback.print_exc()
            return None

    def iteration(self, tracer=None) -> float:
        for cmd in self.commands:
            cmd.out.unlink(missing_ok=True)
        members, results = [], []
        with instrument(tracer, members):
            t0 = perf_counter()
            for cmd in self.commands:
                before = len(members)
                rc = self._call(cmd.argv, tracer)
                results.append((cmd, rc, members[before:]))
            wall = perf_counter() - t0
        for cmd, rc, own in results:
            self.attempted += 1
            self.pool_threads = max(self.pool_threads, len({tid for tid, _ in own}))
            try:
                if rc != 0:
                    raise CheckFailed(f"exit code {rc}, expected 0")
                dev = check(cmd, own)
                self.max_dev = max(self.max_dev, dev)
                if dev > MAX_DEV_BOUND[self.workload]:
                    raise CheckFailed(f"deviation {dev:.3e} from the exact trajectory exceeds "
                                      f"{MAX_DEV_BOUND[self.workload]:.0e}")
            except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                self.failed += 1
                print(f"FAILED {cmd.name} {cmd.config.name}: {exc}", file=sys.stderr)
        return wall


class Samples:
    """Wall times of untraced and traced iterations, raw and in reference
    seconds, the gauge readings, and the traced iterations' layer numbers."""

    def __init__(self):
        self.raw = {False: [], True: []}
        self.ref = {False: [], True: []}
        self.gauge = []
        self.summaries = []
        self.spans = []


def measure(bench: Bench, seconds: int, traced: bool, gauge: Gauge) -> Samples:
    """Iterate until the deadline, gauging the machine between iterations.
    With ``traced``, traced and untraced iterations alternate."""
    bench.iteration()  # warm-up: caches and lazy set-up
    out = Samples()
    out.gauge.append(gauge())
    deadline = perf_counter() + seconds
    while True:
        with_trace = traced and len(out.raw[True]) <= len(out.raw[False])
        tracer = Tracer() if with_trace else None
        wall = bench.iteration(tracer)
        out.gauge.append(gauge())
        out.raw[with_trace].append(wall)
        out.ref[with_trace].append(gauge.scale(wall, *out.gauge[-2:]))
        if tracer is not None:
            out.summaries.append(summarize(tracer.spans))
            out.spans = tracer.spans
        done = len(out.raw[False]) >= 1 and (not traced or len(out.raw[True]) >= 2)
        walls = out.raw[False] + out.raw[True]
        if done and perf_counter() + statistics.median(walls) > deadline:
            return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "wavefall" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        die(f"no wavefall source tree (src/wavefall, configs/) under {ROOT}")
    sys.path.insert(0, str(src))
    import wavefall
    from wavefall.cli import main as cli_main
    if Path(wavefall.__file__).resolve().parent != src / "wavefall":
        die(f"imported wavefall from {wavefall.__file__}, not from {src}")

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = BENCH_DIR / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = generate(args.workload, args.seed, work)
    steps = sum(c.steps for c in commands)

    setup_raw, setup = ([], []) if args.trace else setup_probes(commands)
    bench = Bench(args.workload, commands, cli_main)
    samples = measure(bench, args.seconds, bool(args.trace), Gauge(*GAUGE[args.workload]))
    plain, traced, summaries = samples.ref[False], samples.ref[True], samples.summaries
    correct = bench.failed == 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(bench.pool_threads),
              "configs": {c.config.name: c.config.read_text(encoding="utf-8") for c in commands},
              "attempted": bench.attempted, "failed": bench.failed,
              "failed_frac": bench.failed / bench.attempted,
              "gauge": {"kernel": GAUGE[args.workload], "seconds": samples.gauge},
              "walls_raw_s": samples.raw[False], "walls_ref_s": plain,
              "traced_walls_raw_s": samples.raw[True], "traced_walls_ref_s": traced,
              "setup_raw_s": setup_raw, "setup_ref_s": setup}
    if args.trace:
        repeats = {k: sorted({s[k] for s in summaries}) for k in COUNTS}
        for name, seen in repeats.items():
            if len(seen) != 1:
                correct = False
                print(f"FAILED count {name} differs between traced iterations: {seen}",
                      file=sys.stderr)
        values = {k: (summaries[0][k] if k in COUNTS else statistics.median(s[k] for s in summaries))
                  for k in summaries[0]}
        values["bench.trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
        listed = SPEC["per_layer"]
        record["per_iteration"] = summaries
        with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
            for sid, parent, name, tid, t0, t1, _ in samples.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "thread": tid, "start": t0, "end": t1}) + "\n")
    else:
        wall = statistics.median(plain)
        tail_value, tail_pct = tail(plain)
        values = {"wall_s": wall, "wall_tail_s": tail_value, "steps_per_s": steps / wall,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "max_dev": bench.max_dev}
        listed = SPEC["end_to_end"]
        record["tail"] = {"percentile": tail_pct, "samples": len(plain)}
    if sorted(values) != sorted(m["name"] for m in listed):
        die(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    record["metrics"] = metrics

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(plain)} untraced, {len(traced)} traced  "
          f"steps/iteration {steps}")
    print(f"environment {json.dumps(record['environment'])}")
    print(f"failed_frac {record['failed_frac']:.4g} ({bench.failed}/{bench.attempted} invocations)")
    if not args.trace:
        print(f"wall_tail_s is p{tail_pct:.1f} of {len(plain)} samples")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
