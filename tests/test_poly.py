"""Polynomial layer: term orders, arithmetic, division, Buchberger.

The division certificate (p = sum q_i*g_i + r with no remainder term
divisible by a leading monomial) is the load-bearing invariant; the
Buchberger checks rest on it.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laddergb import (
    BudgetExceeded,
    MaxMinors,
    PreconditionError,
    QQ,
    ladder_from_json,
    mono,
    natural_generators,
)
from laddergb import poly
from laddergb.families import conventional_order
from laddergb.fields import PrimeField
from laddergb.monomials import minimalize
from laddergb.poly import (
    antidiagonal_order,
    buchberger_reduced,
    diagonal_order,
    division,
    freeze,
    is_reduced_groebner,
    leading_term,
    mono_text,
    normal_form,
    p_add,
    p_degree,
    p_monic,
    p_mul,
    p_scale,
    p_sub,
    p_var,
    p_zero,
    poly_text,
    s_polynomial,
)

from corpus import CORPUS, NEGATIVE_INSTANCES
from lexref import lex_key
from spairref import nonzero_remainders as reference_remainders
from tupleref import encode

GRID = [(i, j) for i in range(1, 4) for j in range(1, 4)]
DIAG = diagonal_order(GRID)
ANTI = antidiagonal_order(GRID)
GF7 = PrimeField(7)


def x(i, j, field=QQ, order=DIAG):
    return p_var(order.var(i, j), field)


def ref_lead(g, order):
    """Leading monomial of g by the reference lex comparison."""
    return max(g, key=lambda m: lex_key(m, order))


def polys(field=QQ, max_terms=4, order=DIAG, max_exp=3):
    """Polynomials over the variables of order's ring."""
    variables = st.sampled_from(range(len(order.sequence)))
    monos = st.dictionaries(variables, st.integers(1, max_exp), max_size=3).map(
        lambda d: encode(tuple(x for v in sorted(d, reverse=True) for x in (v, d[v])))
    )
    coeffs = st.integers(-5, 5).filter(bool).map(field.of)
    return st.dictionaries(monos, coeffs, max_size=max_terms)


# ---------------------------------------------------------------------------
# cells and orders


def test_order_rank_sequences():
    # diagonal: row-major, (1,1) largest; antidiagonal: columns flipped
    assert DIAG.sequence[:2] == ((1, 1), (1, 2))
    assert ANTI.sequence[:2] == ((1, 3), (1, 2))
    # variables are numbered by rank: the largest variable has the largest id
    assert DIAG.var(1, 1) == ANTI.var(1, 3) == len(GRID) - 1
    assert DIAG.var(1, 1) > DIAG.var(3, 3)
    assert ANTI.var(1, 3) > ANTI.var(1, 1)
    for order in (DIAG, ANTI):
        assert sorted(order.var(*c) for c in GRID) == list(range(len(GRID)))
        assert all(order.cell(order.var(*c)) == c for c in GRID)
    with pytest.raises(ValueError):
        poly.TermOrder("custom", [(1, 1), (1, 1)])


def test_leading_term_of_minor_is_main_diagonal_or_antidiagonal():
    # x11*x22 - x12*x21: diagonal order picks the diagonal product,
    # antidiagonal order picks the antidiagonal one.
    for order, lead in ((DIAG, ((1, 1), (2, 2))), (ANTI, ((1, 2), (2, 1)))):
        x_ = lambda i, j: x(i, j, order=order)  # noqa: E731
        minor = p_sub(p_mul(x_(1, 1), x_(2, 2), QQ), p_mul(x_(1, 2), x_(2, 1), QQ), QQ)
        m, _ = leading_term(minor, order)
        (i, j), (k, l) = lead
        assert m == encode((order.var(i, j), 1, order.var(k, l), 1))
        assert m == ref_lead(minor, order)


@given(polys(), polys())
def test_order_multiplicative_on_leading_terms(p, q):
    if not p or not q:
        return
    mp, _ = leading_term(p, DIAG)
    mq, _ = leading_term(q, DIAG)
    prod = p_mul(p, q, QQ)
    if prod:
        assert leading_term(prod, DIAG)[0] == mono.mul(mp, mq)
        assert ref_lead(prod, DIAG) == mono.mul(ref_lead(p, DIAG), ref_lead(q, DIAG))


def test_order_total_on_distinct_monomials():
    v = DIAG.var
    ms = [encode(t) for t in [(v(1, 1), 1), (v(1, 2), 2), (v(2, 1), 1, v(2, 2), 1)]]
    for a in ms:
        for b in ms:
            assert (a < b) == (lex_key(a, DIAG) < lex_key(b, DIAG))
            assert (a == b) == (lex_key(a, DIAG) == lex_key(b, DIAG))
    assert ms == sorted(ms, reverse=True)


# ---------------------------------------------------------------------------
# ring axioms


@given(polys(), polys())
def test_add_commutes(p, q):
    assert p_add(p, q, QQ) == p_add(q, p, QQ)


@given(polys(), polys(), polys())
def test_mul_distributes(p, q, r):
    left = p_mul(p, p_add(q, r, QQ), QQ)
    right = p_add(p_mul(p, q, QQ), p_mul(p, r, QQ), QQ)
    assert left == right


@given(polys(), polys(), polys())
@settings(max_examples=50)
def test_mul_associates(p, q, r):
    assert p_mul(p_mul(p, q, QQ), r, QQ) == p_mul(p, p_mul(q, r, QQ), QQ)


@given(polys())
def test_sub_self_is_zero(p):
    assert p_sub(p, p, QQ) == p_zero()
    assert p_add(p, p_zero(), QQ) == p
    assert p_mul(p, {encode(()): QQ.one}, QQ) == p
    assert p_scale(p, QQ.zero, QQ) == p_zero()


@given(polys())
def test_degree_and_monic(p):
    if not p:
        assert p_degree(p) == -1
        return
    q = p_monic(p, DIAG, QQ)
    assert p_degree(q) == p_degree(p)
    assert QQ.eq(leading_term(q, DIAG)[1], QQ.one)
    assert freeze(p_monic(q, DIAG, QQ)) == freeze(q)


# ---------------------------------------------------------------------------
# division certificate


@given(polys(), st.lists(polys().filter(bool), min_size=1, max_size=3))
@settings(max_examples=100)
def test_division_certificate(p, G):
    r, quotients = division(p, G, DIAG, QQ)
    acc = dict(r)
    for q, g in zip(quotients, G):
        acc = p_add(acc, p_mul(q, g, QQ), QQ)
    assert acc == p
    lms = [leading_term(g, DIAG)[0] for g in G]
    for m in r:
        assert not any(mono.divides(lm, m) for lm in lms)


def reference_division(p, G, order, field):
    """Reference for division: the textbook loop with no reducer table,
    no support-mask filter and a fresh work polynomial on every step."""
    lts = [leading_term(g, order) for g in G]
    quotients = [{} for _ in G]
    remainder = {}
    work = dict(p)
    while work:
        m = ref_lead(work, order)
        c = work[m]
        for idx, (lm, lc) in enumerate(lts):
            if mono.divides(lm, m):
                qm, qc = mono.div(m, lm), field.div(c, lc)
                quotients[idx] = p_add(quotients[idx], {qm: qc}, field)
                work = p_sub(work, p_mul({qm: qc}, G[idx], field), field)
                break
        else:
            remainder[m] = c
            del work[m]
    return remainder, quotients


@given(
    polys(GF7),
    st.lists(polys(GF7).filter(bool), min_size=1, max_size=4),
    st.sampled_from([DIAG, ANTI]),
)
@settings(max_examples=150)
def test_division_with_a_reducer_table(p, G, order):
    table = poly.reducers(G, order)
    assert [(lm, lc) for lm, lc, _ in table] == [leading_term(g, order) for g in G]
    assert [mask for _, _, mask in table] == [mono.support(lm) for lm, _, _ in table]
    r, quotients = division(p, G, order, GF7, table)
    assert (r, quotients) == division(p, G, order, GF7)
    assert (r, quotients) == reference_division(p, G, order, GF7)
    assert normal_form(p, G, order, GF7, table) == r
    assert normal_form(p, G, order, GF7) == r
    acc = dict(r)
    for q, g in zip(quotients, G):
        acc = p_add(acc, p_mul(q, g, GF7), GF7)
    assert acc == p


def test_normal_form_with_a_table_finds_no_leading_term(monkeypatch):
    top = MaxMinors(2, 4)
    order = diagonal_order(top.cells())
    gens = natural_generators(top, QQ, order)
    table = poly.reducers(gens, order)
    p = p_mul(p_mul(x(1, 1), x(2, 2), QQ), x(1, 3), QQ)
    calls = []
    real = poly.leading_term
    monkeypatch.setattr(
        poly, "leading_term", lambda *args: calls.append(args) or real(*args)
    )
    r = normal_form(p, gens, order, QQ, table)
    assert r and not calls
    assert normal_form(p, gens, order, QQ) == r
    assert len(calls) == len(gens)


def test_normal_form_examples():
    g = p_sub(p_mul(x(1, 1), x(2, 2), QQ), p_mul(x(1, 2), x(2, 1), QQ), QQ)
    # x11*x22 reduces to x12*x21 modulo the minor
    r = normal_form(p_mul(x(1, 1), x(2, 2), QQ), [g], DIAG, QQ)
    assert r == p_mul(x(1, 2), x(2, 1), QQ)
    assert normal_form(g, [g], DIAG, QQ) == p_zero()


# ---------------------------------------------------------------------------
# S-polynomials and Buchberger


def test_s_polynomial_cancels_leading_terms():
    f = p_add(p_mul(x(1, 1), x(2, 2), QQ), x(3, 3), QQ)
    g = p_add(p_mul(x(1, 1), x(1, 2), QQ), x(2, 1), QQ)
    s = s_polynomial(f, g, DIAG, QQ)
    lf = leading_term(f, DIAG)[0]
    lg = leading_term(g, DIAG)[0]
    l = mono.lcm(lf, lg)
    assert all(lex_key(m, DIAG) < lex_key(l, DIAG) for m in s)


def test_buchberger_completes_a_non_basis():
    # x*y - z^2 and y^2 - w^2 with x > y > z > w (lex) need completion
    cells = [(1, 1), (1, 2), (2, 1), (2, 2)]
    order = diagonal_order(cells)
    xv, yv, zv, wv = (p_var(order.var(i, j), QQ) for (i, j) in cells)
    f = p_sub(p_mul(xv, yv, QQ), p_mul(zv, zv, QQ), QQ)
    g = p_sub(p_mul(yv, yv, QQ), p_mul(wv, wv, QQ), QQ)
    basis = buchberger_reduced([f, g], order, QQ)
    assert len(basis) == 3  # the S-pair contributes x*w^2 - y*z^2
    assert is_reduced_groebner(basis, order, QQ)
    assert not is_reduced_groebner([f, g], order, QQ)
    # membership of every element in the ideal of the basis
    for b in basis:
        assert not normal_form(b, basis, order, QQ)


def test_buchberger_idempotent_on_its_output():
    top = MaxMinors(2, 3)
    gens = natural_generators(top)
    order = diagonal_order(top.cells())
    basis = buchberger_reduced(gens, order, QQ)
    again = buchberger_reduced(basis, order, QQ)
    assert {freeze(g) for g in basis} == {freeze(g) for g in again}


def test_buchberger_respects_budget():
    top = MaxMinors(3, 4)
    gens = natural_generators(top)
    order = diagonal_order(top.cells())
    with pytest.raises(BudgetExceeded) as info:
        buchberger_reduced(gens, order, QQ, max_spairs=1)
    assert info.value.limit == 1
    # a generous budget is not consumed
    basis = buchberger_reduced(gens, order, QQ, max_spairs=10_000)
    assert basis


def test_spair_budget_counts_performed_reductions(monkeypatch):
    top = MaxMinors(3, 5)
    order = diagonal_order(top.cells())
    gens = [p_monic(g, order, QQ) for g in natural_generators(top, QQ, order)]
    calls = []
    real = poly.s_polynomial
    monkeypatch.setattr(
        poly, "s_polynomial", lambda *args: calls.append(args) or real(*args)
    )
    assert is_reduced_groebner(gens, order, QQ)
    performed = len(calls)
    lms = [leading_term(g, order)[0] for g in gens]
    candidates = sum(
        bool(mono.support(lms[i]) & mono.support(lms[j]))
        for i in range(len(lms))
        for j in range(i)
    )
    assert 0 < performed < candidates  # the chain criterion skipped some
    assert is_reduced_groebner(gens, order, QQ, max_spairs=performed)
    with pytest.raises(BudgetExceeded):
        is_reduced_groebner(gens, order, QQ, max_spairs=performed - 1)


def _counted_spairs(monkeypatch):
    calls = []
    real = poly.s_polynomial
    monkeypatch.setattr(
        poly, "s_polynomial", lambda *args: calls.append(args) or real(*args)
    )
    return calls


def test_recorded_pairs_are_not_reduced_again(monkeypatch):
    top = MaxMinors(3, 5)
    order = diagonal_order(top.cells())
    gens = natural_generators(top, QQ, order)
    names = [freeze(g) for g in gens]
    calls = _counted_spairs(monkeypatch)
    record = {}
    basis = buchberger_reduced(gens, order, QQ, names=names, record=record)
    performed = len(calls)
    assert performed and len(record) == performed  # every pair reduced to 0
    del calls[:]
    again = buchberger_reduced(gens, order, QQ, names=names, record=record)
    assert not calls
    assert {freeze(g) for g in again} == {freeze(g) for g in basis}
    # a recorded pair is not a reduction, so it costs no budget
    buchberger_reduced(gens, order, QQ, max_spairs=1, names=names, record=record)
    monic = [p_monic(g, order, QQ) for g in gens]
    assert is_reduced_groebner(monic, order, QQ, names=names, record=record)
    assert not calls


@pytest.mark.parametrize(
    "data",
    [
        {"family": "maxminors", "m": 2, "n": 4},
        {"family": "onesided", "m": 4, "n": 4, "points": [[2, 1], [4, 3]], "t": [2, 2]},
    ],
    ids=["maxminors-2x4", "onesided-4x4"],
)
def test_recorded_pairs_are_settled_before_they_are_queued(monkeypatch, data):
    # on these generators the chain criterion skips no pair, so the first
    # completion records every pair that is not coprime, and the second
    # settles each of them as it forms it: no lcm, no S-polynomial
    gens, order = _monic_generators(data)
    names = [freeze(g) for g in gens]
    record = {}
    basis = buchberger_reduced(gens, order, QQ, names=names, record=record)
    assert record
    calls = {"lcm": 0, "s_polynomial": 0}
    for mod, name in ((mono, "lcm"), (poly, "s_polynomial")):

        def counting(*args, real=getattr(mod, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(mod, name, counting)
    again = buchberger_reduced(gens, order, QQ, names=names, record=record)
    assert calls == {"lcm": 0, "s_polynomial": 0}
    assert {freeze(g) for g in again} == {freeze(g) for g in basis}


def test_interreduction_leaves_a_reduced_basis_alone(monkeypatch):
    # no tail monomial of a reduced basis is divisible by a leading
    # monomial, so every normal form its completion takes is an S-pair's
    gens, order = _monic_generators({"family": "maxminors", "m": 3, "n": 5})
    spairs = _counted_spairs(monkeypatch)
    forms = []
    real = poly.normal_form
    monkeypatch.setattr(
        poly, "normal_form", lambda *args, **kw: forms.append(args) or real(*args, **kw)
    )
    basis = buchberger_reduced(gens, order, QQ)
    assert {freeze(g) for g in basis} == {freeze(g) for g in gens}
    assert spairs and len(forms) == len(spairs)


def test_record_needs_every_reducer_in_the_call(monkeypatch):
    # a pair whose recorded reducers include a name the call does not
    # hold is reduced as if nothing were recorded
    top = MaxMinors(3, 5)
    order = diagonal_order(top.cells())
    gens = natural_generators(top, QQ, order)
    names = [freeze(g) for g in gens]
    calls = _counted_spairs(monkeypatch)
    fresh = buchberger_reduced(gens, order, QQ, names=names, record={})
    performed = len(calls)
    del calls[:]
    stranger = freeze(p_var(len(order.sequence), QQ))
    record = {
        tuple(sorted((names[i], names[j]))): frozenset((names[i], names[j], stranger))
        for i in range(len(names))
        for j in range(i)
    }
    basis = buchberger_reduced(gens, order, QQ, names=names, record=record)
    assert len(calls) == performed
    assert {freeze(g) for g in basis} == {freeze(g) for g in fresh}


def test_reduction_using_an_appended_element_is_not_recorded():
    # in A the pair (f1, f2) reduces to zero only through an element the
    # completion appended, which B does not hold
    sq = p_mul(x(1, 1), x(1, 1), QQ)
    f1 = p_add(sq, p_mul(p_mul(x(1, 2), x(1, 2), QQ), x(2, 1), QQ), QQ)
    f2 = p_mul(sq, x(2, 1), QQ)
    record = {}
    buchberger_reduced([f1, f2, sq], DIAG, QQ, names=["f1", "f2", "sq"], record=record)
    assert ("f1", "f2") not in record
    got = buchberger_reduced([f1, f2], DIAG, QQ, names=["f1", "f2"], record=record)
    fresh = buchberger_reduced([f1, f2], DIAG, QQ)
    assert len(fresh) == 2
    assert {freeze(g) for g in got} == {freeze(g) for g in fresh}


def test_names_must_line_up_with_the_inputs():
    gens = natural_generators(MaxMinors(2, 3), QQ, DIAG)
    with pytest.raises(PreconditionError):
        buchberger_reduced(gens, DIAG, QQ, names=["a", "b"], record={})
    with pytest.raises(PreconditionError):
        is_reduced_groebner(gens, DIAG, QQ, names=["a"], record={})
    # a zero input is dropped with its name
    basis = buchberger_reduced(
        gens + [p_zero()], DIAG, QQ, names=["a", "b", "c", "zero"], record={}
    )
    assert {freeze(g) for g in basis} == {
        freeze(g) for g in buchberger_reduced(gens, DIAG, QQ)
    }


def test_reduced_predicate_rejects_redundancy():
    a = x(1, 1)
    b = p_mul(a, x(1, 2), QQ)  # leading term divisible by a
    assert not is_reduced_groebner([a, b], DIAG, QQ)
    two_a = p_scale(a, QQ.of(2), QQ)
    assert not is_reduced_groebner([two_a], DIAG, QQ)  # not monic
    assert is_reduced_groebner([a], DIAG, QQ)
    assert not is_reduced_groebner([a, p_zero()], DIAG, QQ)


def all_pairs_reduced_groebner(G, order, field):
    """Reference for is_reduced_groebner: the same definition, checked by
    reducing every S-pair, with no criterion skipping any."""
    if any(not g for g in G):
        return False
    lts = [leading_term(g, order) for g in G]
    if any(not field.eq(c, field.one) for _, c in lts):
        return False
    lms = [m for m, _ in lts]
    for i, g in enumerate(G):
        for m in g:
            for j, lm in enumerate(lms):
                if (m != lms[i] or j != i) and mono.divides(lm, m):
                    return False
    return all(
        not normal_form(s_polynomial(G[i], G[j], order, field), G, order, field)
        for i in range(len(G))
        for j in range(i)
    )


def _monic_generators(data, field=QQ):
    top = ladder_from_json(data)
    order = conventional_order(top)
    gens = natural_generators(top, field, order)
    return [p_monic(g, order, field) for g in gens], order


def test_reduced_predicate_matches_reference_on_corpus():
    for data in CORPUS + NEGATIVE_INSTANCES:
        gens, order = _monic_generators(data)
        for G in (gens, buchberger_reduced(gens, order, QQ)):
            assert is_reduced_groebner(G, order, QQ) == all_pairs_reduced_groebner(
                G, order, QQ
            ), data


# top generators of known t=3 defects: not the reduced basis of their ideal
T3_DEFECTS = [
    {"family": "onesided", "m": 5, "n": 5, "points": [[3, 1], [5, 3]], "t": [2, 3]},
    {"family": "symmetric", "n": 5, "points": [[5, 5]], "t": [3]},
]


def test_reduced_predicate_matches_reference_on_t3_defects():
    for data in T3_DEFECTS:
        gens, order = _monic_generators(data)
        assert not is_reduced_groebner(gens, order, QQ)
        assert not all_pairs_reduced_groebner(gens, order, QQ)


GF7 = PrimeField(7)
SMALL = [(1, 1), (1, 2), (2, 1)]
SMALL_ORDER = diagonal_order(SMALL)


@given(st.lists(polys(GF7, 3, SMALL_ORDER, 2), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_reduced_predicate_matches_reference_on_random_sets(F):
    # a reduced basis minus one element is still monic and interreduced,
    # so the S-pair stage decides it
    basis = buchberger_reduced(F, SMALL_ORDER, GF7)
    dropped = [basis[:k] + basis[k + 1 :] for k in range(len(basis))]
    for G in [F, basis] + dropped:
        assert is_reduced_groebner(G, SMALL_ORDER, GF7) == all_pairs_reduced_groebner(
            G, SMALL_ORDER, GF7
        )


def interreduce_reference(G, order, field):
    """Reference for poly._interreduce: sort the monic list G by
    decreasing leading monomial, drop every element whose leading
    monomial another's divides (the first of equal ones stays), and
    replace each kept element by its normal form against the others."""
    ranked = sorted(G, key=lambda g: lex_key(ref_lead(g, order), order), reverse=True)
    lms = [ref_lead(g, order) for g in ranked]
    kept = [
        g
        for i, g in enumerate(ranked)
        if not any(
            j != i and mono.divides(lm, lms[i]) and (lm != lms[i] or j < i)
            for j, lm in enumerate(lms)
        )
    ]
    return [
        normal_form(g, kept[:i] + kept[i + 1 :], order, field)
        for i, g in enumerate(kept)
    ]


@given(st.lists(polys(GF7, 3, SMALL_ORDER, 2).filter(bool), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_interreduce_matches_reference(F):
    G = [p_monic(f, SMALL_ORDER, GF7) for f in F]
    got = poly._interreduce(G, poly.reducers(G, SMALL_ORDER), SMALL_ORDER, GF7)
    want = interreduce_reference(G, SMALL_ORDER, GF7)
    assert [freeze(g) for g in got] == [freeze(g) for g in want]


@given(st.lists(polys(GF7, 3, SMALL_ORDER, 2), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_completion_leads_generate_the_initial_ideal(F):
    # the completion starts with the monic nonzero inputs, its table
    # describes it, it spans the ideal, and its leading monomials
    # minimalize to the reduced basis's: Chain.oracle_initial reads the
    # initial ideal off them
    G, table = poly.groebner_basis(F, SMALL_ORDER, GF7)
    monic = [p_monic(f, SMALL_ORDER, GF7) for f in F if f]
    assert [freeze(g) for g in G[: len(monic)]] == [freeze(g) for g in monic]
    assert table == poly.reducers(G, SMALL_ORDER)
    basis = buchberger_reduced(F, SMALL_ORDER, GF7)
    assert not any(normal_form(g, basis, SMALL_ORDER, GF7) for g in G)
    assert set(minimalize(lm for lm, _, _ in table)) == {
        leading_term(g, SMALL_ORDER)[0] for g in basis
    }


@st.composite
def overlapping_lists(draw):
    """Two generator lists A and B over GF(7) in three variables that
    share some elements, each named by its frozen form."""
    pool = draw(st.lists(polys(GF7, 3, SMALL_ORDER, 2), min_size=2, max_size=5))
    lo = draw(st.integers(0, len(pool) - 1))
    hi = draw(st.integers(lo + 1, len(pool)))
    return pool[:hi], draw(st.permutations(pool[lo:]))


@given(overlapping_lists())
@settings(max_examples=200, deadline=None)
def test_completions_sharing_a_record_match_fresh_ones(lists):
    A, B = lists
    record = {}
    for F in (A, B):
        got = buchberger_reduced(
            F, SMALL_ORDER, GF7, names=[freeze(f) for f in F], record=record
        )
        fresh = buchberger_reduced(F, SMALL_ORDER, GF7)
        assert {freeze(g) for g in got} == {freeze(g) for g in fresh}


FIVE = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
FIVE_ORDER = diagonal_order(FIVE)
SPAIR_CAP = 30


@st.composite
def spair_inputs(draw):
    """Two generator lists over GF(7) in five variables, the second drawn
    from the first, and whether to name them.  The first may hold a
    constant, a multiple of another element (its leading monomial is then
    divisible by the other's) and a repeated element."""
    pool = draw(st.lists(polys(GF7, 3, FIVE_ORDER, 2).filter(bool), min_size=1, max_size=5))
    extras = draw(st.sets(st.sampled_from(["constant", "multiple", "repeat"])))
    if "multiple" in extras:
        v = draw(st.integers(0, len(FIVE) - 1))
        pool.append(p_mul(p_var(v, GF7), draw(st.sampled_from(pool)), GF7))
    if "repeat" in extras:
        pool.append(dict(draw(st.sampled_from(pool))))
    if "constant" in extras:
        pool.append({mono.ONE: GF7.of(draw(st.integers(1, 6)))})
    pool = draw(st.permutations(pool))
    second = draw(st.permutations(pool))[: draw(st.integers(1, len(pool)))]
    return pool, second, draw(st.booleans())


def _spair_run(loop, F, names, record, max_spairs):
    """Complete F as groebner_basis does, with the S-pair loop loop: the
    (i, j) of every reduction in order, the frozen completion, and
    whether the budget ran out."""
    G = [p_monic(f, FIVE_ORDER, GF7) for f in F]
    pairs = []
    real = poly.s_polynomial

    def spy(f, g, *rest):
        pairs.append(tuple(next(k for k, h in enumerate(G) if h is e) for e in (f, g)))
        return real(f, g, *rest)

    with mock.patch.object(poly, "s_polynomial", spy):
        try:
            for r in loop(G, [], FIVE_ORDER, GF7, max_spairs, names, record):
                G.append(p_monic(r, FIVE_ORDER, GF7))
        except BudgetExceeded:
            return pairs, [freeze(g) for g in G], True
    return pairs, [freeze(g) for g in G], False


@given(spair_inputs())
@settings(max_examples=200, deadline=None)
def test_spair_loop_matches_the_reference_loop(inputs):
    # the variable index, the neighbour-only settled sets, the divisor
    # lists and the stop at a unit reduce the pairs the full scan of
    # tests/spairref.py reduces, in its order, and record what it records;
    # a budget of the exact count suffices and one less runs out there
    first, second, named = inputs
    new_record, ref_record = {}, {}
    for F in (first, second):
        names = [freeze(f) for f in F] if named else None
        before = dict(new_record)
        got = _spair_run(poly._nonzero_remainders, F, names, new_record, SPAIR_CAP)
        want = _spair_run(reference_remainders, F, names, ref_record, SPAIR_CAP)
        assert got == want
        assert new_record == ref_record
        if got[2]:
            continue
        count = len(got[0])
        for cap in {count, max(count - 1, 0)}:
            got = _spair_run(poly._nonzero_remainders, F, names, dict(before), cap)
            want = _spair_run(reference_remainders, F, names, dict(before), cap)
            assert got == want
            assert got[2] == (cap < count)


def test_buchberger_over_prime_field_matches_rationals_here():
    gf = PrimeField(32003)
    top = MaxMinors(2, 3)
    order = diagonal_order(top.cells())
    bq = buchberger_reduced(natural_generators(top, QQ, order), order, QQ)
    bp = buchberger_reduced(natural_generators(top, gf, order), order, gf)
    as_int = lambda basis: {
        tuple(sorted((m, int(c) % 32003) for m, c in g.items())) for g in basis
    }
    assert as_int(bq) == as_int(bp)


def test_rational_coefficients_stay_ints():
    # the generators' coefficients and leading coefficients are +-1, so a
    # completion over QQ never leaves the integers; a Fraction here means
    # the coefficients went back to Fraction arithmetic
    def ints(polys):
        return all(type(c) is int for g in polys for c in g.values())

    top = MaxMinors(3, 5)
    order = diagonal_order(top.cells())
    gens = natural_generators(top, QQ, order)
    G, table = poly.groebner_basis(gens, order, QQ)
    assert ints(gens) and ints(G)
    assert all(type(lc) is int for _, lc, _ in table)
    # a completion that appends a remainder, from a -1 leading coefficient
    cells = [(1, 1), (1, 2), (2, 1), (2, 2)]
    order = diagonal_order(cells)
    xv, yv, zv, wv = (p_var(order.var(i, j), QQ) for (i, j) in cells)
    f = p_sub(p_mul(zv, zv, QQ), p_mul(xv, yv, QQ), QQ)
    g = p_sub(p_mul(yv, yv, QQ), p_mul(wv, wv, QQ), QQ)
    G, _ = poly.groebner_basis([f, g], order, QQ)
    assert len(G) == 3 and ints(G)
    assert ints(buchberger_reduced([f, g], order, QQ))
    # and so does a division by it: its quotient coefficients are quotients
    p = p_add(p_mul(p_mul(xv, wv, QQ), f, QQ), p_mul(zv, p_mul(zv, zv, QQ), QQ), QQ)
    r, quotients = division(p, G, order, QQ)
    assert r and ints([r]) and ints(quotients)


# ---------------------------------------------------------------------------
# text forms


def test_text_forms():
    assert mono_text(encode(()), DIAG) == "1"
    assert mono_text(encode((DIAG.var(1, 2), 1)), DIAG) == "x[1,2]"
    assert mono_text(encode((DIAG.var(1, 2), 3)), DIAG) == "x[1,2]^3"
    minor = p_sub(
        p_mul(x(1, 1), x(2, 2), QQ), p_mul(x(1, 2), x(2, 1), QQ), QQ
    )
    assert poly_text(minor, DIAG, QQ) == "x[1,1]*x[2,2] - x[1,2]*x[2,1]"
    assert poly_text(p_zero(), DIAG, QQ) == "0"
    assert poly_text(p_scale(minor, QQ.of(-1), QQ), DIAG, QQ) == (
        "-x[1,1]*x[2,2] + x[1,2]*x[2,1]"
    )
    # factors are written in cell order, terms in decreasing order, in
    # every ring
    x_ = lambda i, j: x(i, j, order=ANTI)  # noqa: E731
    minor = p_sub(p_mul(x_(1, 1), x_(2, 2), QQ), p_mul(x_(1, 2), x_(2, 1), QQ), QQ)
    assert mono_text(
        mono.mul(encode((ANTI.var(2, 1), 2)), encode((ANTI.var(1, 3), 1))), ANTI
    ) == (
        "x[1,3]*x[2,1]^2"
    )
    assert poly_text(minor, ANTI, QQ) == "-x[1,2]*x[2,1] + x[1,1]*x[2,2]"
