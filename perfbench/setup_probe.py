"""Time one cold set-up in a fresh interpreter and print it as JSON.

    python3 perfbench/setup_probe.py CMD=CONFIG [CMD=CONFIG ...]

Set-up is: import ``wavefall``, load each scenario with ``load_scenario``,
and build every packet the command would build with ``make_packet``
(one per sweep member, one per ``dt`` of a convergence study).  The
single-threaded reference kernel of ``calibrate.py`` then runs in the same
process, so the parent can express the set-up time in reference seconds.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def main(pairs: list[str]) -> None:
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    from wavefall import load_scenario, make_packet

    for pair in pairs:
        command, path = pair.split("=", 1)
        sc = load_scenario(path)
        variants = [(sc.shape, m) for m in sc.masses or ()] + [(s, sc.mass) for s in sc.shapes or ()]
        if command == "converge":
            variants = [(sc.shape, sc.mass)] * len(sc.dt_list)
        for shape, mass in variants or [(sc.shape, sc.mass)]:
            make_packet(sc.grid, shape, sc.x0, sc.v0, mass)
    setup_s = perf_counter() - t0
    from calibrate import Gauge

    gauge = Gauge(1, 1)
    print(json.dumps({"setup_s": setup_s, "gauge_s": gauge()}))


if __name__ == "__main__":
    main(sys.argv[1:])
