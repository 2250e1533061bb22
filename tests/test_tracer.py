"""The benchmark's tracer (bench/tracer.py) against the current package.

Tracer.install wraps functions and methods by name, among them each
ladder family's own split and validate, so a rename or a move into a
shared base class breaks the traced benchmark.  The tracer is installed
in a fresh interpreter, so its wrappers never reach the other tests."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import laddergb
import laddergb.cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
report, _, _ = laddergb.linkage.verify_family(laddergb.MaxMinors(2, 3))
print(json.dumps({"pass": report["pass"], "metrics": tracer.summary(1.0)}))
"""


def test_tracer_installs_and_counts_a_verify_family_run():
    src = os.path.join(ROOT, "src")
    bench = os.path.join(ROOT, "bench")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, src, bench],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["pass"]
    metrics = out["metrics"]
    # the chain of 2x3: (2,3) splits into (2,2) and (1,2), and (2,2) into
    # (2,1) and (1,1); building it asks each of the five nodes for a split
    assert metrics["linkage.chain_nodes"] == 5
    assert metrics["ladders.split_calls"] == 5
    assert metrics["linkage.oracle_calls"] > 0
    assert metrics["linkage.chain_build_s"] > 0
