"""End-to-end acceptance checks, one per shipped claim.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``)
and then asserts, so the terse summary and the pytest verdict agree.
"""

import itertools
import math
import time

import pytest

from laddergb import (
    QQ,
    conventional_order,
    field_by_name,
    ladder_from_json,
    natural_generators,
    verify_localization,
)
from laddergb.complexes import SimplicialComplex
from laddergb.matrices import SkewShape, minor, order_for, pfaffian
from laddergb.monomials import MonomialIdeal, minimalize
from laddergb.poly import (
    buchberger_reduced,
    freeze,
    is_reduced_groebner,
    leading_term,
    p_mul,
    p_monic,
)

from brute import hilbert_function_brute
from corpus import CORPUS, FIELD_SPOT_CHECK, MAXMINORS

from conftest import corpus_ladders


def announce(number, title, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print("CRITERION %02d %s %s (%s)" % (number, verdict, title, detail))
    return ok


def initial_ideal_of(ladder, field=QQ):
    order = conventional_order(ladder)
    lead = [leading_term(g, order)[0] for g in natural_generators(ladder, field, order)]
    ambient = [order.var(i, j) for (i, j) in ladder.variables()]
    return MonomialIdeal(minimalize(lead), ambient)


def checks_named(report, name):
    return [c for c in report["checks"] if c["name"] == name]


def all_pass(report, name, want_count=None):
    found = checks_named(report, name)
    if want_count is not None and len(found) != want_count:
        return False
    return bool(found) and all(c["pass"] for c in found)


# ---------------------------------------------------------------------------


def test_criterion_01_natural_generators_are_the_reduced_basis():
    """Buchberger, run to completion on the natural generators, returns
    exactly the monic natural generators for every corpus instance."""
    worst = 0.0
    ok = True
    for ladder in corpus_ladders():
        order = conventional_order(ladder)
        gens = natural_generators(ladder, QQ, order)
        start = time.monotonic()
        basis = buchberger_reduced(gens, order, QQ)
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        fixed = {freeze(p_monic(g, order, QQ)) for g in gens} == {
            freeze(g) for g in basis
        }
        reduced = is_reduced_groebner(basis, order, QQ)
        if not (fixed and reduced and elapsed < 120.0):
            ok = False
    assert announce(
        1,
        "reduced-basis fixed point",
        ok,
        "%d instances, slowest %.2fs" % (len(CORPUS), worst),
    )


def test_criterion_02_hilbert_identity_on_every_chain_step(corpus_reports):
    steps = 0
    ok = True
    for canon, (report, chain, _) in corpus_reports.items():
        n = len(chain.steps())
        steps += n
        for name in ("hilbert-identity-combinatorial", "hilbert-identity-oracle"):
            if not all_pass(report, name, want_count=n) and n:
                ok = False
    assert announce(
        2,
        "link identity by both routes",
        ok and steps > 0,
        "%d chain steps" % steps,
    )


def test_criterion_03_codimension_matches_height_formula(corpus_reports):
    ok = True
    for ladder in corpus_ladders():
        cx = SimplicialComplex.from_squarefree(initial_ideal_of(ladder))
        if cx.codimension() != ladder.height_formula():
            ok = False
    # closed form for a matrix of indeterminates
    for data in MAXMINORS:
        lad = ladder_from_json(data)
        if lad.height_formula() != data["n"] - data["m"] + 1:
            ok = False
    # size-one minors cut out every variable
    for data in (
        {"family": "onesided", "m": 3, "n": 3, "points": [[3, 1]], "t": [1]},
        {"family": "symmetric", "n": 4, "points": [[4, 4]], "t": [1]},
        {"family": "pfaffian", "n": 5, "corners": [[1, 5]], "t": [1]},
    ):
        lad = ladder_from_json(data)
        nvars = len(list(lad.variables()))
        cx = SimplicialComplex.from_squarefree(initial_ideal_of(lad))
        if lad.height_formula() != nvars or cx.codimension() != nvars:
            ok = False
    # and the same equality at every internal chain node
    for canon, (report, chain, _) in corpus_reports.items():
        if not all_pass(report, "codim-equals-height", len(chain.sequence)):
            ok = False
    assert announce(3, "height formula", ok, "%d instances + closed forms" % len(CORPUS))


def test_criterion_04_initial_ideal_splits_at_the_corner(corpus_reports):
    ok = True
    steps = 0
    for canon, (report, chain, _) in corpus_reports.items():
        n = len(chain.steps())
        steps += n
        if n and not (
            all_pass(report, "initial-split-identity", n)
            and all_pass(report, "corner-avoids-middle", n)
        ):
            ok = False
    assert announce(4, "corner split of initial ideal", ok, "%d steps" % steps)


def test_criterion_05_vertex_decomposability_with_replay(corpus_reports):
    ok = True
    for canon, (report, chain, _) in corpus_reports.items():
        if not (
            all_pass(report, "vertex-decomposable", 1)
            and all_pass(report, "certificate-replay", 1)
        ):
            ok = False
        n = len(chain.steps())
        if n and not all_pass(report, "shedding-at-corner", n):
            ok = False
    assert announce(5, "vertex decomposability", ok, "%d instances" % len(CORPUS))


def test_criterion_06_initial_ideals_are_squarefree(corpus_reports):
    ok = True
    nodes = 0
    for canon, (report, chain, _) in corpus_reports.items():
        n = len(chain.sequence)
        nodes += n
        if not all_pass(report, "initial-squarefree", n):
            ok = False
    assert announce(6, "squarefree initial ideals", ok, "%d chain nodes" % nodes)


def test_criterion_07_hilbert_pivot_agrees_with_enumeration():
    ok = True
    pairs = 0
    for ladder in corpus_ladders():
        ideal = initial_ideal_of(ladder)
        for d in range(7):
            pairs += 1
            if ideal.hilbert_function(d) != hilbert_function_brute(ideal, d):
                ok = False
    assert announce(7, "hilbert function vs enumeration", ok, "%d values" % pairs)


def test_criterion_08_pfaffian_squares_and_counts():
    shape = SkewShape(7)
    order = order_for(shape, "antidiagonal")
    ok = True
    tried = 0
    for size in (2, 4, 6):
        for subset in itertools.combinations(range(1, 8), size):
            tried += 1
            pf = pfaffian(shape, subset, QQ, order)
            det = minor(shape, subset, subset, QQ, order)
            if freeze(p_mul(pf, pf, QQ)) != freeze(det):
                ok = False
            if len(pf) != math.prod(range(size - 1, 0, -2)):
                ok = False
    assert announce(8, "pfaffian squares to determinant", ok, "%d subsets" % tried)


def test_criterion_09_localization_maps_invert_and_preserve_the_ideal():
    configs = [
        ({"family": "onesided", "m": 3, "n": 3, "points": [[3, 1]], "t": [2]}, (2, 2)),
        ({"family": "onesided", "m": 3, "n": 3, "points": [[3, 1]], "t": [2]}, (3, 1)),
        (
            {
                "family": "onesided",
                "m": 3,
                "n": 3,
                "points": [[2, 1], [3, 2]],
                "t": [2, 2],
            },
            (2, 1),
        ),
        (
            {
                "family": "onesided",
                "m": 4,
                "n": 4,
                "points": [[2, 1], [4, 3]],
                "t": [2, 2],
            },
            (4, 3),
        ),
    ]
    ok = True
    for data, cell in configs:
        report = verify_localization(ladder_from_json(data), cell)
        if not report["pass"]:
            ok = False
    assert announce(9, "localization round trip", ok, "%d configurations" % len(configs))


def test_criterion_10_verdicts_are_field_independent():
    fields = (QQ, field_by_name("gf:32003"))
    ok = True
    for data in FIELD_SPOT_CHECK:
        ladder = ladder_from_json(data)
        order = conventional_order(ladder)
        verdicts = []
        for field in fields:
            gens = natural_generators(ladder, field, order)
            basis = buchberger_reduced(gens, order, field)
            fixed = {freeze(p_monic(g, order, field)) for g in gens} == {
                freeze(g) for g in basis
            }
            verdicts.append((fixed, is_reduced_groebner(basis, order, field)))
        if verdicts[0] != verdicts[1] or verdicts[0] != (True, True):
            ok = False
    assert announce(
        10, "field-independent verdicts", ok, "%d instances x 2 fields" % len(FIELD_SPOT_CHECK)
    )
