"""The wide sweep: verify_family one size past the tier-1 sweep.

The candidates are built as test_sweep.sweep_candidates builds its own,
on the sizes that sweep leaves out: every one-sided ladder with m, n <= 5
and m or n equal to 5, every symmetric ladder with n = 5 and every
pfaffian ladder with n = 7 or 8, each with one or two distinguished
points and sizes t <= 3.  The sweep keeps those that validate accepts
without an error and runs verify_family on each over GF(32003), in one
process.  A fix tuned on the tier-1 sweep can be read against this set
as held out.

The record, SWEEP_WIDE.json beside this script, holds per family the
candidate, instance and failing-instance counts, a histogram of failing
check signatures (the sorted failing check names, joined by commas) and
a verdict digest built as test_sweep's VERDICT_DIGEST is: sha256 over
each instance's canon and sorted failing check names.  It records the
failures as they are; a change that moves a verdict updates it on
purpose.

    python tests/wide_sweep.py            # write SWEEP_WIDE.json
    python tests/wide_sweep.py --check    # exit 1 on any difference

pytest does not collect this file (testpaths collects test_*.py only);
the laddergb it verifies is the one in this checkout's src/.
"""

import argparse
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from laddergb import OneSidedLadder, PfaffianLadder, SymmetricLadder  # noqa: E402
from laddergb import field_by_name, verify_family  # noqa: E402
from laddergb.ladders import errors_of  # noqa: E402

from test_sweep import _with_sizes  # noqa: E402

RECORD = os.path.join(HERE, "SWEEP_WIDE.json")
FIELD = "gf:32003"
FAMILIES = ("onesided", "symmetric", "pfaffian")


def wide_candidates():
    """Every candidate instance of the wide sweep, errors included."""
    for m in range(1, 6):
        for n in range(1, 6):
            if max(m, n) < 5:
                continue
            cells = [(a, b) for a in range(1, m + 1) for b in range(1, n + 1)]
            yield from _with_sizes(
                cells, lambda p, t, m=m, n=n: OneSidedLadder(m, n, p, t)
            )
    cells = [(v, w) for v in range(1, 6) for w in range(v, 6)]
    yield from _with_sizes(cells, lambda p, t: SymmetricLadder(5, p, t))
    for n in (7, 8):
        cells = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        yield from _with_sizes(cells, lambda p, t, n=n: PfaffianLadder(n, p, t))


def sweep():
    """The record of a run: counts per family, the signature histogram
    and the verdict digest."""
    field = field_by_name(FIELD)
    h = hashlib.sha256()
    candidates = dict.fromkeys(FAMILIES, 0)
    instances = dict.fromkeys(FAMILIES, 0)
    failures = dict.fromkeys(FAMILIES, 0)
    signatures = {}
    for top in wide_candidates():
        candidates[top.family] += 1
        if errors_of(top.validate()):
            continue
        instances[top.family] += 1
        report, _, _ = verify_family(top, field)
        failing = sorted({c["name"] for c in report["checks"] if not c["pass"]})
        h.update(repr((top.canon(), failing)).encode())
        if failing:
            failures[top.family] += 1
            key = ",".join(failing)
            signatures[key] = signatures.get(key, 0) + 1
    return {
        "field": FIELD,
        "candidates": candidates,
        "instances": instances,
        "failures": failures,
        "signatures": dict(sorted(signatures.items())),
        "verdict_digest": h.hexdigest(),
    }


def differences(recorded, got):
    """One line per top-level field, family or signature whose value
    differs between the recorded run and this one."""
    out = []
    for key in sorted(set(recorded) | set(got)):
        old, new = recorded.get(key), got.get(key)
        if isinstance(old, dict) and isinstance(new, dict):
            for sub in sorted(set(old) | set(new)):
                if old.get(sub) != new.get(sub):
                    out.append("%s[%s]: %s -> %s" % (key, sub, old.get(sub), new.get(sub)))
        elif old != new:
            out.append("%s: %s -> %s" % (key, old, new))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a run with %s and exit 1 on any difference" % RECORD,
    )
    args = parser.parse_args(argv)
    start = time.monotonic()
    got = sweep()
    print(
        "%d instances, %d failing, %.1f s"
        % (
            sum(got["instances"].values()),
            sum(got["failures"].values()),
            time.monotonic() - start,
        ),
        file=sys.stderr,
    )
    if not args.check:
        with open(RECORD, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=1)
            fh.write("\n")
        return 0
    with open(RECORD, encoding="utf-8") as fh:
        recorded = json.load(fh)
    diff = differences(recorded, got)
    for line in diff:
        print(line)
    print("wide sweep: %s" % ("differs" if diff else "matches the record"))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
