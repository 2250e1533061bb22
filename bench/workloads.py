"""Workload definitions: instances, field, stage and the known defects.

Every instance expects the paper's verdict, "pass".  KNOWN_DEFECTS lists,
by canon, the checks that fail on the current code; they count into
failed_share like any other failure.  The table only lets the benchmark
tell a known failure from a new one: a failing check that is not listed
makes the run incorrect.
"""

import random

CHAIN_WIDE = [
    {"family": "pfaffian", "n": 8, "corners": [[1, 8]], "t": [2]},
    {"family": "pfaffian", "n": 8, "corners": [[1, 6], [3, 8]], "t": [2, 2]},
    {"family": "onesided", "m": 5, "n": 5, "points": [[3, 1], [5, 3]], "t": [2, 2]},
    {"family": "onesided", "m": 5, "n": 5, "points": [[3, 1], [5, 3]], "t": [2, 3]},
    {"family": "symmetric", "n": 6, "points": [[6, 6]], "t": [2]},
    {"family": "onesided", "m": 4, "n": 4, "points": [[4, 1]], "t": [3]},
]

BASIS_HEAVY = [
    {"family": "maxminors", "m": 4, "n": 7},
    {"family": "maxminors", "m": 3, "n": 7},
    {"family": "symmetric", "n": 5, "points": [[5, 5]], "t": [3]},
    {"family": "onesided", "m": 4, "n": 5, "points": [[4, 1]], "t": [3]},
]

CERTIFY_REPLAY = [
    {"family": "pfaffian", "n": 9, "corners": [[1, 9]], "t": [2]},
    {"family": "onesided", "m": 6, "n": 6, "points": [[3, 1], [6, 3]], "t": [2, 2]},
    {"family": "symmetric", "n": 7, "points": [[7, 7]], "t": [2]},
    {"family": "onesided", "m": 5, "n": 6, "points": [[5, 1]], "t": [2]},
    {"family": "onesided", "m": 4, "n": 4, "points": [[4, 1]], "t": [3]},
]

# "localized" maps the index of an instance that also gets
# verify_localization to its number of cells; the seed picks the cells.
WORKLOADS = {
    "chain-wide": {"stage": "verify", "field": "gf:32003", "instances": CHAIN_WIDE},
    "basis-heavy": {"stage": "verify", "field": "q", "instances": BASIS_HEAVY},
    "certify-replay": {
        "stage": "certify",
        "field": "q",
        "instances": CERTIFY_REPLAY,
        "localized": {1: 2, 4: 2},
    },
}

_ONESIDED_5x5_T23 = "onesided:m=5,n=5;points=(3,1),(5,3);t=2,3"
_ONESIDED_4x4_T3 = "onesided:m=4,n=4;points=(4,1);t=3"
_ONESIDED_4x5_T3 = "onesided:m=4,n=5;points=(4,1);t=3"
_SYMMETRIC_5_T3 = (
    "symmetric:n=5;points=(5,5);t=3;cells=(1,1),(1,2),(1,3),(1,4),(1,5),"
    "(2,2),(2,3),(2,4),(2,5),(3,3),(3,4),(3,5),(4,4),(4,5),(5,5)"
)

KNOWN_DEFECTS = {
    "chain-wide": {
        _ONESIDED_5x5_T23: {
            "basic-double-link",
            "corner-avoids-middle",
            "groebner-fixed-point",
            "height-step",
            "reduced-basis-predicate",
            "shedding-at-corner",
        },
        _ONESIDED_4x4_T3: {"height-step", "shedding-at-corner"},
    },
    "basis-heavy": {
        _SYMMETRIC_5_T3: {
            "groebner-fixed-point",
            "height-step",
            "reduced-basis-predicate",
            "shedding-at-corner",
        },
        _ONESIDED_4x5_T3: {"height-step", "shedding-at-corner"},
    },
    "certify-replay": {
        _ONESIDED_4x4_T3: {"replay:exit-1", "replay:shedding-at-corner"},
    },
}


def onesided_cells(data):
    """Cells of a one-sided ladder: the union over its points (a, b) of
    the regions {i <= a, j >= b}."""
    out = set()
    for (a, b) in data["points"]:
        out |= {
            (i, j)
            for i in range(1, min(a, data["m"]) + 1)
            for j in range(max(b, 1), data["n"] + 1)
        }
    return sorted(out)


def localization_cells(data):
    """Cells whose affected regions (points (a, b) with u <= a, v >= b)
    all have minor size t >= 2, so localizing there is meaningful."""
    out = []
    for (u, v) in onesided_cells(data):
        hit = [t for (a, b), t in zip(data["points"], data["t"]) if u <= a and v >= b]
        if hit and min(hit) >= 2:
            out.append((u, v))
    return out


def make_spec(name, seed, sample=0):
    """The generated input of one sample: the workload's instances in an
    order that (seed, sample) permutes and, for certify-replay,
    localization cells the seed picks.  Varying the order between the
    samples of a run spreads the order's effect on the global memos over
    the run's median.  The program sees only this."""
    w = WORKLOADS[name]
    rng = random.Random(seed)
    localized = w.get("localized", {})
    items = []
    for k, data in enumerate(w["instances"]):
        cells = []
        if k in localized:
            cells = [list(c) for c in rng.sample(localization_cells(data), localized[k])]
        items.append({"json": data, "cells": cells})
    random.Random("%d/%d" % (seed, sample)).shuffle(items)
    return {"workload": name, "stage": w["stage"], "field": w["field"], "instances": items}
