"""Checks that run.py's host-speed correction follows the host, not the program.

    python3 bench/probecheck.py --rounds 8

Runs samples of three programs on chain-wide, interleaved round by round
so that they share the host's drift, with run.py's pinning and probes:

- "none": the program as is;
- "ballast": the worker keeps a million tracked lists alive during the
  pass, so every full garbage collection walks them and the heap grows
  by about 115 MB;
- "copy": the worker copies a 1 MiB buffer on every normal_form call,
  which adds work and sweeps the CPU's caches.

For each program it prints the medians of raw wall_s, corrected wall_s
and probe speed, and the median over rounds of each one's ratio to the
"none" sample of the same round.  If the correction follows the host
only, the probe-speed ratios stay near 1 and the corrected ratios match
the raw ones.  It also prints the medians over the samples taken while
the host was quiet, where raw and corrected times should agree.  Exits
non-zero if a sample fails.
"""

import argparse
import os
import signal
import statistics
import sys
import time

from run import OUT, RUN_BUDGET_S, SampleError, pin_to_one_cpu, spawn
from workloads import make_spec

PROGRAMS = ("none", "ballast", "copy")
QUIET = 0.95


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.makedirs(OUT, exist_ok=True)
    cpu = pin_to_one_cpu()
    spec = make_spec("chain-wide", args.seed)
    rows = {p: [] for p in PROGRAMS}
    for k in range(args.rounds):
        deadline = time.monotonic() + RUN_BUDGET_S
        for p in PROGRAMS:
            perturbed = spec if p == "none" else dict(spec, perturb=p)
            try:
                sample = spawn(perturbed, deadline, cpu is not None)
            except SampleError as e:
                print("probecheck: %s" % e, file=sys.stderr)
                return 1
            first = sample.passes[0]
            rows[p].append((first["raw_wall_s"], first["wall_s"], first["speed"]))
            print(
                "round %d %-8s raw %.3f s  corrected %.3f s  probe speed %.3f"
                % ((k, p) + rows[p][-1]),
                flush=True,
            )
    print("%d rounds, chain-wide seed %d, pinned to CPU %s" % (args.rounds, args.seed, cpu))
    print("%-8s %9s %11s %7s | ratio to none: %5s %9s %7s" % (
        "program", "raw", "corrected", "speed", "raw", "corrected", "speed"))
    for p in PROGRAMS:
        med = [statistics.median(r[i] for r in rows[p]) for i in range(3)]
        ratio = [
            statistics.median(r[i] / n[i] for r, n in zip(rows[p], rows["none"]))
            for i in range(3)
        ]
        print("%-8s %8.3fs %10.3fs %7.3f | %20.3f %9.3f %7.3f" % tuple([p] + med + ratio))
    print("samples on a quiet host (probe speed >= %.2f), where the correction is small:" % QUIET)
    for p in PROGRAMS:
        quiet = [r for r in rows[p] if r[2] >= QUIET]
        if quiet:
            print("%-8s n=%d  raw %.3f s  corrected %.3f s" % (
                p, len(quiet), statistics.median(r[0] for r in quiet),
                statistics.median(r[1] for r in quiet)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
