"""Matrices of indeterminates and their minors/pfaffians.

Two oracle-grade identities anchor the pfaffian code: pf(S)^2 equals
the determinant of the principal submatrix on S, and the number of
monomials of pf(S) is the double factorial (|S|-1)!!.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laddergb import QQ
from laddergb.errors import PreconditionError
from laddergb.fields import PrimeField
from laddergb.matrices import (
    GenericShape,
    SkewShape,
    SymmetricShape,
    entry_poly,
    minor,
    minor_leading,
    order_for,
    pfaffian,
    pfaffian_leading,
)
from laddergb.poly import leading_term, p_mul, p_scale, p_sub

from tupleref import encode

_RINGS = {}


def ring(shape):
    """The diagonal order of the shape's variables, one per shape object,
    so that its memos serve every call on that shape."""
    if shape not in _RINGS:
        _RINGS[shape] = order_for(shape, "diagonal")
    return _RINGS[shape]


def brute_det(shape, rows, cols, field=QQ):
    """Leibniz-formula determinant; independent of the cofactor code."""
    out = {}
    for perm in itertools.permutations(range(len(cols))):
        sign = 1
        seen = list(perm)
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                if seen[i] > seen[j]:
                    sign = -sign
        term = {encode(()): field.of(sign)}
        for r, k in zip(rows, perm):
            term = p_mul(term, entry_poly(shape, r, cols[k], field, ring(shape)), field)
        from laddergb.poly import p_add

        out = p_add(out, term, field)
    return out


# ---------------------------------------------------------------------------
# shapes


def test_generic_entries():
    s = GenericShape(2, 3)
    assert s.entry(1, 2) == (1, (1, 2))
    assert s.entry(2, 1) == (1, (2, 1))
    assert len(s.cells()) == 6
    with pytest.raises(PreconditionError):
        s.entry(3, 1)


def test_symmetric_entries_reflect():
    s = SymmetricShape(3)
    assert s.entry(2, 3) == (1, (2, 3))
    assert s.entry(3, 2) == (1, (2, 3))
    assert len(s.cells()) == 6  # upper triangle including diagonal


def test_skew_entries_negate():
    s = SkewShape(4)
    assert s.entry(1, 3) == (1, (1, 3))
    assert s.entry(3, 1) == (-1, (1, 3))
    assert s.entry(2, 2) == (0, None)
    assert len(s.cells()) == 6  # strictly upper triangle


# ---------------------------------------------------------------------------
# minors


@pytest.mark.parametrize("m,n,k", [(2, 2, 2), (3, 3, 2), (3, 3, 3), (3, 4, 3)])
def test_minor_matches_leibniz_generic(m, n, k):
    s = GenericShape(m, n)
    for rows in itertools.combinations(range(1, m + 1), k):
        for cols in itertools.combinations(range(1, n + 1), k):
            assert minor(s, rows, cols, QQ, ring(s)) == brute_det(s, rows, cols)


def test_minor_matches_leibniz_symmetric_and_skew():
    for s in (SymmetricShape(4), SkewShape(4)):
        for rows in itertools.combinations(range(1, 5), 2):
            for cols in itertools.combinations(range(1, 5), 2):
                assert minor(s, rows, cols, QQ, ring(s)) == brute_det(s, rows, cols)
        rows = cols = (1, 2, 3)
        assert minor(s, rows, cols, QQ, ring(s)) == brute_det(s, rows, cols)


def test_minor_term_count_is_factorial_for_generic():
    s = GenericShape(4, 4)
    full = minor(s, (1, 2, 3, 4), (1, 2, 3, 4), QQ, ring(s))
    assert len(full) == math.factorial(4)


def test_minor_symmetric_under_transpose_of_symmetric_shape():
    s = SymmetricShape(4)
    assert minor(s, (1, 3), (2, 4), QQ, ring(s)) == minor(s, (2, 4), (1, 3), QQ, ring(s))


def test_minor_rejects_bad_indices():
    s = GenericShape(3, 3)
    with pytest.raises(PreconditionError):
        minor(s, (1, 2), (1,), QQ, ring(s))
    with pytest.raises(PreconditionError):
        minor(s, (2, 1), (1, 2), QQ, ring(s))
    with pytest.raises(PreconditionError):
        minor(s, (1, 4), (1, 2), QQ, ring(s))


def test_empty_minor_is_one():
    s = GenericShape(2, 2)
    assert minor(s, (), (), QQ, ring(s)) == {encode(()): QQ.one}


# ---------------------------------------------------------------------------
# pfaffians


def test_pfaffian_base_cases():
    s = SkewShape(4)
    assert pfaffian(s, (), QQ, ring(s)) == {encode(()): QQ.one}
    assert pfaffian(s, (1, 3), QQ, ring(s)) == {encode((ring(s).var(1, 3), 1)): QQ.one}


def test_pfaffian_of_four_indices():
    # pf(1,2,3,4) = x12*x34 - x13*x24 + x14*x23
    s = SkewShape(4)
    p = pfaffian(s, (1, 2, 3, 4), QQ, ring(s))
    x = lambda i, j: {encode((ring(s).var(i, j), 1)): QQ.one}
    expected = p_sub(
        p_mul(x(1, 2), x(3, 4), QQ), p_mul(x(1, 3), x(2, 4), QQ), QQ
    )
    from laddergb.poly import p_add

    expected = p_add(expected, p_mul(x(1, 4), x(2, 3), QQ), QQ)
    assert p == expected


def double_factorial(n):
    return math.prod(range(n, 0, -2)) if n > 0 else 1


@pytest.mark.parametrize("size", [2, 4, 6])
def test_pfaffian_squared_is_determinant(size):
    s = SkewShape(7)
    for indices in itertools.combinations(range(1, 8), size):
        pf = pfaffian(s, indices, QQ, ring(s))
        det = minor(s, indices, indices, QQ, ring(s))
        assert p_mul(pf, pf, QQ) == det
        assert len(pf) == double_factorial(size - 1)


def test_pfaffian_rejects_bad_input():
    s = SkewShape(5)
    with pytest.raises(PreconditionError):
        pfaffian(s, (1, 2, 3), QQ, ring(s))
    with pytest.raises(PreconditionError):
        pfaffian(s, (2, 1), QQ, ring(s))
    with pytest.raises(PreconditionError):
        pfaffian(GenericShape(4, 4), (1, 2), QQ, ring(GenericShape(4, 4)))


def test_warm_memo_still_rejects_bad_indices():
    # Validation runs on a memo miss only; a warm shape must still refuse
    # every malformed index set instead of answering from the memo.
    s = GenericShape(3, 3)
    for rows in itertools.combinations(range(1, 4), 2):
        for cols in itertools.combinations(range(1, 4), 2):
            minor(s, rows, cols, QQ, ring(s))
    minor(s, (1, 2, 3), (1, 2, 3), QQ, ring(s))
    for rows, cols in [
        ((1, 2), (1,)),  # unequal lengths
        ((2, 1), (1, 2)),  # not increasing
        ((1, 1), (1, 2)),  # repeated index
        ((1, 4), (1, 2)),  # row out of range
        ((1, 2), (0, 1)),  # column out of range
    ]:
        with pytest.raises(PreconditionError):
            minor(s, rows, cols, QQ, ring(s))
    k = SkewShape(5)
    for size in (2, 4):
        for indices in itertools.combinations(range(1, 6), size):
            pfaffian(k, indices, QQ, ring(k))
    for indices in [(1, 2, 3), (2, 1), (1, 3, 2, 4), (1, 1), (0, 1), (4, 6)]:
        with pytest.raises(PreconditionError):
            pfaffian(k, indices, QQ, ring(k))


def test_memo_is_keyed_by_field_name():
    # Two fields alive at different times can share an id(); the memo must
    # tell GF(3) from GF(5) by name, and share entries between two objects
    # of the same field.
    s = GenericShape(2, 2)
    assert minor(s, (1, 2), (1, 2), PrimeField(3), ring(s)) == brute_det(
        s, (1, 2), (1, 2), PrimeField(3)
    )
    gf5 = brute_det(s, (1, 2), (1, 2), PrimeField(5))
    assert sorted(gf5.values()) == [1, 4]
    assert minor(s, (1, 2), (1, 2), PrimeField(5), ring(s)) == gf5
    assert minor(s, (1, 2), (1, 2), PrimeField(5), ring(s)) is minor(
        s, (1, 2), (1, 2), PrimeField(5), ring(s)
    )
    k = SkewShape(4)
    assert sorted(pfaffian(k, (1, 2, 3, 4), PrimeField(3), ring(k)).values()) == [1, 1, 2]
    assert sorted(pfaffian(k, (1, 2, 3, 4), PrimeField(5), ring(k)).values()) == [1, 1, 4]


def test_odd_skew_determinant_vanishes():
    s = SkewShape(5)
    assert minor(s, (1, 2, 3), (1, 2, 3), QQ, ring(s)) == {}
    assert minor(s, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5), QQ, ring(s)) == {}


# ---------------------------------------------------------------------------
# order_for


def test_order_for_kinds():
    s = GenericShape(2, 2)
    assert order_for(s, "diagonal").kind == "diagonal"
    assert order_for(s, "diag").kind == "diagonal"
    assert order_for(s, "antidiagonal").kind == "antidiagonal"
    with pytest.raises(PreconditionError):
        order_for(s, "weights")


# ---------------------------------------------------------------------------
# leading monomials read off index sets


def _subset(draw, n, k):
    drawn = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
    return tuple(sorted(drawn))


@st.composite
def leading_cases(draw):
    """(shape, key, order kind, field): a minor (rows, cols) of a generic,
    symmetric or skew shape, or a pfaffian (indices,) of a skew shape."""
    kind = draw(st.sampled_from(["generic", "symmetric", "skew", "pfaffian"]))
    if kind == "generic":
        shape = GenericShape(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    elif kind == "symmetric":
        shape = SymmetricShape(draw(st.integers(1, 6)))
    else:
        shape = SkewShape(draw(st.integers(1, 8)))
    if kind == "pfaffian":
        t = draw(st.integers(0, shape.n // 2))
        key = (_subset(draw, shape.n, 2 * t),)
    else:
        t = draw(st.integers(0, min(shape.m, shape.n, 4 if kind == "skew" else 6)))
        key = (_subset(draw, shape.m, t), _subset(draw, shape.n, t))
    order = draw(st.sampled_from(["diagonal", "antidiagonal"]))
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]))
    return shape, key, order, field


@given(leading_cases())
@settings(max_examples=300, deadline=None)
def test_leading_rule_matches_expansion(case):
    # Whenever the rule answers, its monomial is the expanded polynomial's
    # leading monomial, over every field: the polynomial is nonzero and
    # its leading coefficient is +-1.
    shape, key, kind, field = case
    order = order_for(shape, kind)
    if len(key) == 1:
        lead = pfaffian_leading(shape, key[0], order)
        g = pfaffian(shape, key[0], field, order)
        assert lead is not None  # every pair is its own variable
    else:
        lead = minor_leading(shape, key[0], key[1], order)
        g = minor(shape, key[0], key[1], field, order)
    if lead is not None:
        m, c = leading_term(g, order)
        assert m == lead
        assert field.eq(c, field.one) or field.eq(c, field.neg(field.one))


def test_symmetric_antidiagonal_minor_falls_back():
    # [12|12] = x11*x22 - x12^2: under the anti-diagonal order x12 is the
    # largest variable and sits at (1,2) and (2,1), so the rule declines
    # and the leading monomial x12^2 only comes from the expansion.
    s = SymmetricShape(2)
    anti = order_for(s, "antidiagonal")
    assert minor_leading(s, (1, 2), (1, 2), anti) is None
    assert leading_term(minor(s, (1, 2), (1, 2), QQ, anti), anti)[0] == encode(
        (anti.var(1, 2), 2)
    )
    diag = order_for(s, "diagonal")
    assert minor_leading(s, (1, 2), (1, 2), diag) == encode(
        (diag.var(1, 1), 1, diag.var(2, 2), 1)
    )
    # the memo keeps one dict per order object
    assert minor_leading(s, (1, 2), (1, 2), anti) is None
    assert set(s._lead) == {anti, diag}
    # and so do the expansions: one shape read in two rings
    assert set(s._minors) == {anti}
    assert minor(s, (1, 2), (1, 2), QQ, diag) == {
        encode((diag.var(1, 1), 1, diag.var(2, 2), 1)): 1,
        encode((diag.var(1, 2), 2)): -1,
    }
    assert set(s._minors) == {anti, diag}


def test_leading_rule_rejects_bad_indices():
    s = GenericShape(3, 3)
    order = order_for(s, "diagonal")
    minor_leading(s, (1, 2), (1, 2), order)
    for rows, cols in [((1, 2), (1,)), ((2, 1), (1, 2)), ((1, 4), (1, 2))]:
        with pytest.raises(PreconditionError):
            minor_leading(s, rows, cols, order)
    k = SkewShape(5)
    korder = order_for(k, "antidiagonal")
    for indices in [(1, 2, 3), (2, 1), (0, 1)]:
        with pytest.raises(PreconditionError):
            pfaffian_leading(k, indices, korder)
    with pytest.raises(PreconditionError):
        pfaffian_leading(s, (1, 2), order)
