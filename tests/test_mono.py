"""Monomial kernel: algebraic properties, and agreement with the tuple
kernel of tupleref.

A monomial is a packed exponent vector, one int (see mono); the tests
draw monomials as flat tuples (v1, e1, v2, e2, ...) with strictly
decreasing variable ids and positive exponents, () being 1, and encode
them.  Over a term order's variables, Python's comparison of the packed
ints is the order, as it is of the tuples.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from laddergb import mono
from laddergb.errors import PreconditionError
from laddergb.mono import deg, div, divides, lcm, mul, support
from laddergb.poly import TermOrder, antidiagonal_order, diagonal_order

import tupleref as ref
from lexref import lex_key
from tupleref import decode, encode

GRID = [(i, j) for i in range(1, 4) for j in range(1, 4)]
_SHUFFLED = list(GRID)
random.Random(16).shuffle(_SHUFFLED)
ORDERS = {
    "diagonal": diagonal_order(GRID),
    "antidiagonal": antidiagonal_order(GRID),
    "custom": TermOrder("custom", _SHUFFLED),
}


def tuples(max_vars=6, max_exp=4):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_vars - 1),
        st.integers(min_value=1, max_value=max_exp),
        max_size=max_vars,
    ).map(lambda d: tuple(x for v in sorted(d, reverse=True) for x in (v, d[v])))


def monomials(max_vars=6, max_exp=4):
    return tuples(max_vars, max_exp).map(encode)


def canonical(m):
    """m is a monomial whose tuple form is canonical and encodes back to
    it: the packed form has one spelling per monomial."""
    t = decode(m)
    ids = t[::2]
    ok = all(a > b for a, b in zip(ids, ids[1:])) and all(e > 0 for e in t[1::2])
    return isinstance(m, int) and m >= 0 and ok and encode(t) == m


@pytest.mark.parametrize("name", sorted(ORDERS))
@given(st.lists(monomials(len(GRID)), min_size=1, max_size=8))
def test_comparison_is_lex_on_exponent_vectors(name, ms):
    order = ORDERS[name]
    key = lambda m: lex_key(m, order)  # noqa: E731
    for a in ms:
        for b in ms:
            assert (a < b) == (key(a) < key(b))
            assert (a == b) == (key(a) == key(b))
    assert max(ms) == max(ms, key=key)
    assert sorted(ms) == sorted(ms, key=key)
    assert sorted(ms, reverse=True) == sorted(ms, key=key, reverse=True)


# agreement with the tuple kernel, over rings wide enough that the guard
# mask is sized past one machine word; squarefree monomials take the
# kernel's shortcuts, the others its guard-mask expressions
WIDE = st.one_of(tuples(40, 1), tuples(40, 60))


@given(WIDE, WIDE)
def test_kernel_agrees_with_the_tuple_kernel(a, b):
    pa, pb = encode(a), encode(b)
    assert decode(pa) == a and decode(pb) == b
    assert mul(pa, pb) == encode(ref.mul(a, b))
    assert lcm(pa, pb) == encode(ref.lcm(a, b))
    assert divides(pa, pb) == ref.divides(a, b)
    assert divides(pb, pa) == ref.divides(b, a)
    assert deg(pa) == ref.deg(a)
    p = ref.mul(a, b)
    assert div(encode(p), pb) == encode(ref.div(p, b))
    # coprimality: the support masks share no bit iff the tuples share no
    # variable
    assert (support(pa) & support(pb) == 0) == (ref.support(a) & ref.support(b) == 0)
    assert mono.variables(pa) == list(a[::2])
    assert [mono.exponent(pa, v) for v in a[::2]] == list(a[1::2])


@given(st.lists(WIDE, max_size=12))
def test_order_agrees_with_the_tuple_order(ts):
    packed = [encode(t) for t in ts]
    for a, pa in zip(ts, packed):
        for b, pb in zip(ts, packed):
            assert (pa < pb) == (a < b)
    assert [decode(m) for m in sorted(packed)] == sorted(ts)
    if ts:
        assert decode(max(packed)) == max(ts)


@given(tuples(), tuples())
def test_results_are_canonical(a, b):
    a, b = encode(a), encode(b)
    m = mul(a, b)
    for out in (m, lcm(a, b), div(m, a), div(m, b)):
        assert canonical(out)


@given(monomials(), monomials())
def test_mul_commutes(a, b):
    assert mul(a, b) == mul(b, a)


@given(monomials(), monomials(), monomials())
def test_mul_associates(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(monomials())
def test_one_is_neutral(a):
    one = encode(())
    assert mul(a, one) == a
    assert divides(one, a)
    assert div(a, one) == a
    assert lcm(a, one) == a


@given(monomials(), monomials())
def test_product_division_inverse(a, b):
    p = mul(a, b)
    assert divides(a, p) and divides(b, p)
    assert div(p, a) == b
    assert div(p, b) == a


@given(monomials(), monomials())
def test_lcm_divisibility(a, b):
    m = lcm(a, b)
    assert divides(a, m) and divides(b, m)
    assert deg(m) <= deg(a) + deg(b)
    # divisor of both that both divide into: must be the lcm itself
    assert lcm(m, a) == m and lcm(m, b) == m


@given(monomials(), monomials())
def test_coprime_iff_lcm_is_product(a, b):
    # coprimality is decided by the support masks
    assert (support(a) & support(b) == 0) == (lcm(a, b) == mul(a, b))


@given(monomials(), monomials())
def test_deg_additive(a, b):
    assert deg(mul(a, b)) == deg(a) + deg(b)


@given(tuples(), tuples())
def test_divides_means_componentwise(a, b):
    da, db = dict(zip(a[::2], a[1::2])), dict(zip(b[::2], b[1::2]))
    expected = all(v in db and db[v] >= e for v, e in da.items())
    assert divides(encode(a), encode(b)) == expected


@given(monomials(), monomials())
def test_divisor_support_lies_in_the_support(a, b):
    if divides(a, b):
        assert support(a) & ~support(b) == 0
    m = mul(a, b)
    assert divides(a, m) and support(a) & ~support(m) == 0


@given(tuples(), tuples())
def test_support_of_lcm_and_coprimality(a, b):
    pa, pb = encode(a), encode(b)
    assert support(lcm(pa, pb)) == support(pa) | support(pb)
    shared = set(a[::2]) & set(b[::2])
    assert (support(pa) & support(pb) == 0) == (not shared)
    # one bit per variable: the lowest bit of its field
    assert support(pa) == sum(1 << (mono.W * v) for v in a[::2])


def test_representation_is_canonical():
    e = encode
    assert mul(e(()), e(())) == e(()) == mono.ONE
    assert mul(e((3, 1)), e((3, 1))) == e((3, 2))
    assert mul(e((5, 1, 1, 2)), e((3, 4))) == e((5, 1, 3, 4, 1, 2))
    assert div(e((3, 4, 1, 2)), e((1, 2))) == e((3, 4))
    assert div(e((3, 4, 1, 2)), e((1, 1))) == e((3, 4, 1, 1))
    assert lcm(e((1, 2)), e((2, 3, 1, 1))) == e((2, 3, 1, 2))
    assert not divides(e((1, 3)), e((1, 2)))
    assert divides(e((4, 1)), e((7, 1, 4, 2, 1, 1)))
    assert not divides(e((4, 1, 2, 1)), e((7, 1, 4, 2, 1, 1)))
    assert not support(e((1, 2))) & support(e((2, 1)))
    assert support(e((2, 1, 1, 2))) & support(e((2, 5)))
    assert deg(e(())) == 0
    assert deg(e((7, 3, 1, 2))) == 5
    # the layout: variable v's exponent in the W-bit field at bit W*v
    assert e((3, 2, 1, 5)) == (2 << (mono.W * 3)) | (5 << mono.W)
    # a larger variable beats any power of smaller ones; a monomial that
    # lacks some smaller variables is the smaller
    assert e((2, 1)) > e((1, 9)) and e((2, 1)) < e((2, 1, 0, 1)) and e(()) < e((0, 1))
    # the builders and readers the rest of the package uses
    assert mono.var(3) == e((3, 1)) and mono.var(3, 5) == e((3, 5))
    assert mono.from_vars([0, 4, 2]) == e((4, 1, 2, 1, 0, 1))
    assert mono.variables(e((7, 1, 4, 2, 1, 1))) == [7, 4, 1]
    assert mono.top(e((7, 1, 4, 2))) == 7 and mono.top(e((0, 3))) == 0
    assert mono.exponent(e((7, 1, 4, 2)), 4) == 2 and mono.exponent(e((7, 1)), 4) == 0
    assert mono.is_squarefree(e((7, 1, 4, 1))) and not mono.is_squarefree(e((7, 1, 4, 2)))
    assert mono.is_squarefree(e(())) and mono.variables(e(())) == []
    assert mono.variables(mono.occurring([e((7, 2, 1, 1)), e((4, 1, 1, 3))])) == [7, 4, 1]
    assert mono.occurring([]) == e(())
    assert mono.is_var(e((5, 1))) and mono.is_var(e((0, 1)))
    assert not any(map(mono.is_var, [e(()), e((5, 2)), e((5, 1, 0, 1)), e((1, 4))]))


def test_exponent_overflow_raises():
    top = mono.MAX_EXP
    assert mul(encode((2, top - 1)), encode((2, 1))) == encode((2, top))
    # a field that would reach the guard bit raises rather than carry into
    # the next variable's field
    with pytest.raises(PreconditionError):
        mul(encode((2, top)), encode((2, 1)))
    with pytest.raises(PreconditionError):
        mul(encode((5, 1, 0, 100)), encode((3, 2, 0, 100)))
    with pytest.raises(PreconditionError):
        mono.var(0, top + 1)
    with pytest.raises(PreconditionError):
        mono.var(-1)
    # the guard covers every variable id var has built, however large
    far = 5_000
    assert mul(mono.var(far, top - 1), mono.var(far)) == mono.var(far, top)
    with pytest.raises(PreconditionError):
        mul(mono.var(far, top), mono.var(far))


def test_backend_is_python():
    assert mono.BACKEND == "python"
