"""laddergb benchmark runner.

    python3 bench/run.py --workload chain-wide --seed 1 --seconds 30 --trace 0

Runs the workload's samples one after another, each in a fresh worker
interpreter (bench/worker.py), for about --seconds seconds.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced samples (each with a warm second pass) and traced
samples, and reports the per-layer metrics.  Every metric is printed by
name with its unit, followed by the failing instances, the verdict digest
and, as the last line, one JSON object with the keys correct, attempted,
failed and metrics.  The full record of the run goes to .bench_out/.
Exits non-zero, without a result line, if a sample cannot run.

Host speed: the runner pins itself and its workers to one CPU and, while
a worker runs, times a fixed loop (probe_loop) every PROBE_INTERVAL_S.
Each probe preempts the worker, so the probe sees the speed the worker's
CPU has at that moment, from a separate process whose heap and caches the
program does not share.  Every time window of a worker is reported minus
the probe time inside it, multiplied by the mean speed of those probes
relative to the reference speed (at which the loop takes PROBE_REF_S).
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from tracer import LAYERS
from workloads import KNOWN_DEFECTS, WORKLOADS, make_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 10  # extra set-up-only spawns per run, for a steadier setup_s
MIN_SAMPLES = 3  # untraced samples per untraced run
MIN_TRACED = 2  # traced samples (and untraced ones) per traced run
RUN_BUDGET_S = 170  # every worker ends within this time from the start
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.001  # probe_loop time at the reference host speed

END_TO_END = {
    "wall_s": "s",
    "max_instance_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
}


class SampleError(RuntimeError):
    pass


def probe_loop():
    d = {}
    for i in range(4000):
        key = (i & 63, i >> 6)
        d[key] = d.get(key, 0) + i


def pin_to_one_cpu():
    """Pin this process, and so every worker it spawns, to one CPU, so
    that the probes run on the worker's CPU.  Returns the CPU or None."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Sample:
    """One worker's result with the probes taken while it ran."""

    def __init__(self, result, spawned, probes, pinned):
        self.result = result
        self.probes = probes  # (start, duration), time.monotonic() seconds
        self.pinned = pinned
        self.passes = result["passes"]
        self.raw_setup_s = result["ready"] - spawned
        self.setup_s = self.scaled(spawned, result["ready"])[0]
        for p in self.passes:
            p["raw_wall_s"] = p["end"] - p["start"]
            p["wall_s"], p["speed"] = self.scaled(p["start"], p["end"])
            p["raw_max_instance_s"] = max(b - a for a, b in p["windows"])
            p["max_instance_s"] = max(self.scaled(a, b, p["speed"])[0] for a, b in p["windows"])

    def scaled(self, start, end, default=None):
        """(end - start) minus the probe time in that window (when the
        probes share the worker's CPU), times the mean speed the probes
        saw there: (time, speed).  A window without probes takes the
        speed default, else that of the whole sample."""
        inside = [d for t, d in self.probes if start <= t < end]
        if not inside:
            speed = default or self.mean_speed()
            return (end - start) * speed, speed
        speed = sum(PROBE_REF_S / d for d in inside) / len(inside)
        busy = sum(inside) if self.pinned else 0.0
        return (end - start - busy) * speed, speed

    def mean_speed(self):
        if not self.probes:
            return 1.0
        return sum(PROBE_REF_S / d for _, d in self.probes) / len(self.probes)

    def record(self):
        return dict(
            self.result,
            raw_setup_s=self.raw_setup_s,
            setup_s=self.setup_s,
            probes=len(self.probes),
            probe_speed=self.mean_speed(),
        )


def spawn(spec, deadline, pinned):
    """Run one worker to completion, probing the host speed meanwhile."""
    if deadline - time.monotonic() <= 0:
        raise SampleError("run budget of %d s spent" % RUN_BUDGET_S)
    out_path = os.path.join(OUT, "worker.out")
    err_path = os.path.join(OUT, "worker.err")
    probes = []
    with open(out_path, "w") as out, open(err_path, "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, WORKER], stdin=subprocess.PIPE, stdout=out, stderr=err,
            cwd=ROOT, text=True,
        )
        try:
            proc.stdin.write(json.dumps(spec))
            proc.stdin.close()
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise SampleError("worker exceeded the run budget of %d s" % RUN_BUDGET_S)
                time.sleep(PROBE_INTERVAL_S)
                t0 = time.monotonic()
                probe_loop()
                probes.append((t0, time.monotonic() - t0))
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    with open(err_path) as fh:
        stderr = fh.read()
    with open(out_path) as fh:
        stdout = fh.read().strip()
    if proc.returncode != 0 or not stdout:
        raise SampleError("worker exited %d:\n%s" % (proc.returncode, stderr[-2000:]))
    sys.stderr.write(stderr)
    return Sample(json.loads(stdout.splitlines()[-1]), spawned, probes, pinned)


def spread(values):
    """(median, q1, q3, min, max) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, min(values), max(values)


def show(name, values, unit):
    med, q1, q3, lo, hi = spread(values)
    print(
        "%-34s %14.6f %-6s median of n=%d; quartiles %.6g..%.6g; range %.6g..%.6g"
        % (name, med, unit, len(values), q1, q3, lo, hi)
    )
    return med


def failed_share(p):
    return sum(1 for v in p["verdicts"] if v["failed"]) / len(p["verdicts"])


def run_untraced(spec_for, seconds, deadline, pinned):
    """Sample k runs the instances in the order spec_for(k) gives."""
    probe = dict(spec_for(0), setup_only=True)
    spawn(probe, deadline, pinned)  # untimed: the first import writes bytecode caches
    setups = [spawn(probe, deadline, pinned) for _ in range(SETUP_PROBES)]
    samples = []
    begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        samples.append(spawn(spec_for(len(samples)), deadline, pinned))
        took = time.monotonic() - t0
        now = time.monotonic()
        if len(samples) >= MIN_SAMPLES and (
            now - begin + took > seconds or now + took > deadline
        ):
            break
    setups += samples
    passes = [s.passes[0] for s in samples]
    columns = {
        "wall_s": [p["wall_s"] for p in passes],
        "max_instance_s": [p["max_instance_s"] for p in passes],
        "setup_s": [s.setup_s for s in setups],
        "peak_rss_mb": [s.result["peak_rss_mb"] for s in samples],
        "failed_share": [failed_share(p) for p in passes],
    }
    metrics = {}
    print("end-to-end metrics (%d samples, %d set-ups):" % (len(samples), len(setups)))
    for name, unit in END_TO_END.items():
        metrics[name] = {"value": show(name, columns[name], unit), "unit": unit}
    print("as measured, before rescaling to the reference speed:")
    show("raw wall_s", [p["raw_wall_s"] for p in passes], "s")
    show("raw max_instance_s", [p["raw_max_instance_s"] for p in passes], "s")
    show("raw setup_s", [s.raw_setup_s for s in setups], "s")
    show("probe speed (reference = 1)", [p["speed"] for p in passes], "ratio")
    return samples, metrics, []


def run_traced(spec_for, seconds, deadline, pinned):
    """Alternates an untraced sample with two passes and a traced sample,
    all in the order spec_for(0), until MIN_TRACED of each have run and
    --seconds is spent.  The counts of the traced samples must repeat
    exactly."""
    spec = spec_for(0)
    spans_out = os.path.join(OUT, "spans-%s.jsonl" % spec["workload"])
    plain, traced = [], []
    begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain.append(spawn(dict(spec, passes=2), deadline, pinned))
        traced.append(spawn(dict(spec, trace=True, spans_out=spans_out), deadline, pinned))
        took = time.monotonic() - t0
        now = time.monotonic()
        if len(traced) >= MIN_TRACED and (now - begin + took > seconds or now + took > deadline):
            break
    problems = []
    metrics = {}
    print("per-layer metrics (%d traced samples; times at the reference speed):" % len(traced))
    for name in traced[0].result["layers"]:
        if name.endswith("_s"):
            # the probe correction of the traced pass, applied to each part of it
            values = [
                s.result["layers"][name] * s.passes[0]["wall_s"] / s.passes[0]["raw_wall_s"]
                for s in traced
            ]
            value, unit = show(name, values, "s"), "s"
        else:
            values = [s.result["layers"][name] for s in traced]
            unit = "ratio" if name.endswith("_ratio") else "count"
            value = values[0]
            if any(v != value for v in values):
                problems.append("%s does not repeat across traced samples: %s" % (name, values))
            print(
                "%-34s %14.6g %-6s exact, repeated in %d samples"
                % (name, value, unit, len(values))
            )
        metrics[name] = {"value": value, "unit": unit}
    counts = {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"}
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]
    print("count digest: %s (all counts and count ratios above)" % digest)
    cold = show("untraced wall_s", [s.passes[0]["wall_s"] for s in plain], "s")
    show("untraced second-pass wall_s", [s.passes[1]["wall_s"] for s in plain], "s")
    overhead = show("traced wall_s", [s.passes[0]["wall_s"] for s in traced], "s") / cold
    warm = statistics.median(s.passes[1]["wall_s"] / s.passes[0]["wall_s"] for s in plain)
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    metrics["memo.warm_ratio"] = {"value": warm, "unit": "ratio"}
    print("%-34s %14.6f ratio  traced / untraced wall_s" % ("trace.overhead_ratio", overhead))
    print("%-34s %14.6f ratio  second pass / first pass" % ("memo.warm_ratio", warm))
    layers = traced[0].result["layers"]
    wall, harness = layers["trace.wall_s"], layers["trace.harness_s"]
    print(
        "first traced sample, as measured: wall_s %.6f s = layer self times %.6f s"
        " + harness %.6f s" % (wall, sum(layers["%s.self_s" % n] for n in LAYERS), harness)
    )
    return plain + traced, metrics, problems


def check_samples(workload, samples):
    """Problems with the verdicts and the backends: digests or kernel
    backends that differ between passes, and failing checks that are not
    known defects."""
    problems = []
    passes = [p for s in samples for p in s.passes]
    backends = sorted({s.result["backend"] for s in samples})
    print("monomial kernel backend: %s" % ", ".join(backends))
    if len(backends) != 1:
        problems.append("samples ran different kernel backends: %s" % ", ".join(backends))
    digests = sorted({p["digest"] for p in passes})
    if len(digests) != 1:
        problems.append("verdict digests differ between passes: %s" % ", ".join(digests))
    known = KNOWN_DEFECTS.get(workload, {})
    failing = 0
    for v in passes[0]["verdicts"]:
        if not v["failed"]:
            continue
        failing += 1
        new = sorted(set(v["failed"]) - known.get(v["canon"], set()))
        tag = "NEW FAILURE: " + ", ".join(new) if new else "known defect"
        print("FAIL %s: %s (%s)" % (v["canon"], ", ".join(v["failed"]), tag))
        if new:
            problems.append("new failure in %s: %s" % (v["canon"], ", ".join(new)))
    print("instances: %d, failing: %d" % (len(passes[0]["verdicts"]), failing))
    print("verdict digest: %s" % ", ".join(digests))
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into an exception, so that spawn kills and reaps the
    # running worker before the runner exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "laddergb", "__init__.py")):
        print("bench: no laddergb sources under %s" % src, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    cpu = pin_to_one_cpu()

    def spec_for(sample):
        spec = make_spec(args.workload, args.seed, sample)
        if spec["stage"] == "certify":
            spec["workdir"] = os.path.join(OUT, "work-%s" % args.workload)
        return spec

    print("workload %s, seed %d; first sample's order:" % (args.workload, args.seed))
    for item in spec_for(0)["instances"]:
        print("  %s%s" % (item["json"], " cells %s" % item["cells"] if item["cells"] else ""))
    print("runner and workers pinned to CPU %s" % cpu if cpu is not None else "not pinned to a CPU")
    run = run_traced if args.trace else run_untraced
    try:
        samples, metrics, problems = run(spec_for, args.seconds, deadline, cpu is not None)
    except SampleError as e:
        print("bench: %s" % e, file=sys.stderr)
        return 1
    problems += check_samples(args.workload, samples)
    for p in problems:
        print("PROBLEM: %s" % p)
    runs = [v for s in samples for p in s.passes for v in p["verdicts"]]
    failed = sum(1 for v in runs if v["failed"])
    result = {"correct": not problems, "attempted": len(runs), "failed": failed, "metrics": metrics}
    record = dict(
        result, workload=args.workload, seed=args.seed, trace=args.trace, cpu=cpu,
        samples=[s.record() for s in samples],
    )
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
