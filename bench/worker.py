"""One benchmark sample in a fresh interpreter.

Reads a spec (see workloads.make_spec, plus the runner's options) as JSON
on stdin, imports laddergb from the checkout's src/, parses and validates
the instances, then runs the workload spec["passes"] times (default 1),
traced with spec["trace"] (see tracer.py), and prints one JSON result
line on stdout.  Set-up ends at the "ready" stamp.  Every stamp is a
time.monotonic() value, the clock the runner also reads; the runner turns
the stamps into times.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_laddergb():
    sys.path.insert(0, SRC)
    import laddergb
    import laddergb.cli  # noqa: F401  (the certify stage calls laddergb.cli.main)

    if not os.path.abspath(laddergb.__file__).startswith(SRC + os.sep):
        raise ImportError("laddergb was not imported from %s" % SRC)
    return laddergb


def _setup(spec, laddergb):
    """Parse and validate every instance; certify-replay also writes the
    instance files the CLI reads."""
    instances = []
    workdir = spec.get("workdir")
    if workdir:
        os.makedirs(workdir, exist_ok=True)
    for k, item in enumerate(spec["instances"]):
        ladder = laddergb.ensure_valid(laddergb.ladder_from_json(item["json"]))
        inst = {"ladder": ladder, "canon": ladder.canon(), "cells": item["cells"]}
        if workdir:
            inst["path"] = os.path.join(workdir, "instance%d.json" % k)
            inst["cert"] = os.path.join(workdir, "chain%d.json" % k)
            with open(inst["path"], "w", encoding="utf-8") as fh:
                json.dump(item["json"], fh)
        instances.append(inst)
    return instances


def _verify(laddergb, inst, field):
    report, _, _ = laddergb.linkage.verify_family(inst["ladder"], field)
    return {"checks": report["checks"]}


def _certify(laddergb, inst, field):
    chain_out, replay_out = io.StringIO(), io.StringIO()
    cli = laddergb.cli
    with contextlib.redirect_stdout(chain_out):
        chain_rc = cli.main(["chain", inst["path"], "--json", "--out", inst["cert"]])
    with contextlib.redirect_stdout(replay_out):
        replay_rc = cli.main(["replay", inst["cert"]])
    locs = [
        (cell, laddergb.linkage.verify_localization(inst["ladder"], tuple(cell), field))
        for cell in inst["cells"]
    ]
    return {
        "chain_rc": chain_rc,
        "replay_rc": replay_rc,
        "replay_lines": replay_out.getvalue().splitlines(),
        "locs": locs,
    }


def _verdict(inst, raw):
    """(entries, failed check names) of one instance; entries feed the
    verdict digest."""
    if "error" in raw:
        return [("error", raw["error"])], ["raised:" + raw["error"]]
    if "checks" in raw:
        entries = [(c["instance"], c["name"], c["pass"]) for c in raw["checks"]]
        failed = {c["name"] for c in raw["checks"] if not c["pass"]}
        return entries, sorted(failed)
    failed = set()
    cert_sha = None
    if os.path.exists(inst["cert"]):
        with open(inst["cert"], "rb") as fh:
            cert_sha = hashlib.sha256(fh.read()).hexdigest()
    entries = [("chain", "exit", raw["chain_rc"]), ("chain", "certificate", cert_sha)]
    if raw["chain_rc"]:
        failed.add("chain:exit-%d" % raw["chain_rc"])
    for line in raw["replay_lines"]:
        status, _, rest = line.partition(" ")
        if status in ("PASS", "FAIL"):
            entries.append(("replay", line))
            if status == "FAIL":
                failed.add("replay:" + rest.split(" ")[0].rstrip(":"))
    entries.append(("replay", "exit", raw["replay_rc"]))
    if raw["replay_rc"]:
        failed.add("replay:exit-%d" % raw["replay_rc"])
    for cell, report in raw["locs"]:
        where = "localization(%d,%d)" % tuple(cell)
        for c in report["checks"]:
            entries.append((where, c["name"], c["pass"]))
            if not c["pass"]:
                failed.add("%s:%s" % (where, c["name"]))
    return entries, sorted(failed)


def run_pass(laddergb, spec, instances, field, tracer=None):
    """Run every instance once.  The pass spans the first call to the
    last verdict; verdicts are derived after it.  Times are returned as
    time.monotonic() stamps, a clock the runner shares, so that the
    runner can rescale them by the host speed it measured meanwhile."""
    stage = _certify if spec["stage"] == "certify" else _verify
    raws, windows = [], []
    start = time.monotonic()
    for k, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = k
        t0 = time.monotonic()
        try:
            raw = stage(laddergb, inst, field)
        except Exception as e:  # a raising instance is a failed verdict
            traceback.print_exc()
            raw = {"error": type(e).__name__}
        windows.append((t0, time.monotonic()))
        raws.append(raw)
    end = time.monotonic()
    verdicts, digest = [], hashlib.sha256()
    for inst, raw in sorted(zip(instances, raws), key=lambda p: p[0]["canon"]):
        entries, failed = _verdict(inst, raw)
        digest.update(json.dumps([inst["canon"], entries]).encode())
        verdicts.append({"canon": inst["canon"], "failed": failed})
    return {
        "start": start,
        "end": end,
        "windows": windows,
        "verdicts": verdicts,
        "digest": digest.hexdigest()[:16],
    }


def _perturb(laddergb, kind):
    """Bench-only changes of the program's memory behaviour, used to check
    that the runner's host-speed correction does not follow the program
    (see probecheck.py): "ballast" keeps a million tracked lists alive during
    the pass, "copy" copies a 1 MiB buffer on every normal_form call."""
    if kind == "ballast":
        return [[i] for i in range(1000000)]
    buf = bytearray(1 << 20)
    normal_form = laddergb.poly.normal_form

    def copying(*args, **kwargs):
        bytes(buf)
        return normal_form(*args, **kwargs)

    for mod in (laddergb.poly, laddergb.linkage):
        mod.normal_form = copying
    return buf


def main():
    spec = json.load(sys.stdin)
    laddergb = _import_laddergb()
    instances = _setup(spec, laddergb)
    field = laddergb.field_by_name(spec["field"])
    result = {"ready": time.monotonic(), "backend": laddergb.mono.BACKEND, "passes": []}
    if not spec.get("setup_only"):
        keep = _perturb(laddergb, spec["perturb"]) if spec.get("perturb") else None
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        for _ in range(spec.get("passes", 1)):
            result["passes"].append(run_pass(laddergb, spec, instances, field, tracer))
        if tracer is not None:
            last = result["passes"][-1]
            result["layers"] = tracer.summary(last["end"] - last["start"])
            if spec.get("spans_out"):
                tracer.write_spans(spec["spans_out"])
        del keep
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec.get("workdir"):
        shutil.rmtree(spec["workdir"], ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
