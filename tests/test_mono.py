"""Monomial kernel: algebraic properties.

Monomials are flat tuples (v1, e1, v2, e2, ...) with strictly
decreasing variable ids and positive exponents; () is 1.  Over a term
order's variables, Python's comparison of these tuples is the order.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from laddergb import mono
from laddergb.mono import deg, div, divides, lcm, mul, support
from laddergb.poly import TermOrder, antidiagonal_order, diagonal_order

from lexref import lex_key

GRID = [(i, j) for i in range(1, 4) for j in range(1, 4)]
_SHUFFLED = list(GRID)
random.Random(16).shuffle(_SHUFFLED)
ORDERS = {
    "diagonal": diagonal_order(GRID),
    "antidiagonal": antidiagonal_order(GRID),
    "custom": TermOrder("custom", _SHUFFLED),
}


def monomials(max_vars=6, max_exp=4):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_vars - 1),
        st.integers(min_value=1, max_value=max_exp),
        max_size=max_vars,
    ).map(lambda d: tuple(x for v in sorted(d, reverse=True) for x in (v, d[v])))


def canonical(m):
    ids = m[::2]
    return all(a > b for a, b in zip(ids, ids[1:])) and all(e > 0 for e in m[1::2])


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


@given(monomials(), monomials())
def test_results_are_canonical(a, b):
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
    assert mul(a, ()) == a
    assert divides((), a)
    assert div(a, ()) == a
    assert lcm(a, ()) == a


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


@given(monomials(), monomials())
def test_divides_means_componentwise(a, b):
    da, db = dict(zip(a[::2], a[1::2])), dict(zip(b[::2], b[1::2]))
    expected = all(v in db and db[v] >= e for v, e in da.items())
    assert divides(a, b) == expected


@given(monomials(), monomials())
def test_divisor_support_lies_in_the_support(a, b):
    if divides(a, b):
        assert support(a) & ~support(b) == 0
    m = mul(a, b)
    assert divides(a, m) and support(a) & ~support(m) == 0


@given(monomials(), monomials())
def test_support_of_lcm_and_coprimality(a, b):
    assert support(lcm(a, b)) == support(a) | support(b)
    shared = set(a[::2]) & set(b[::2])
    assert (support(a) & support(b) == 0) == (not shared)
    assert support(a) == sum(1 << v for v in a[::2])


def test_representation_is_canonical():
    assert mul((), ()) == ()
    assert mul((3, 1), (3, 1)) == (3, 2)
    assert mul((5, 1, 1, 2), (3, 4)) == (5, 1, 3, 4, 1, 2)
    assert div((3, 4, 1, 2), (1, 2)) == (3, 4)
    assert div((3, 4, 1, 2), (1, 1)) == (3, 4, 1, 1)
    assert lcm((1, 2), (2, 3, 1, 1)) == (2, 3, 1, 2)
    assert not divides((1, 3), (1, 2))
    assert divides((4, 1), (7, 1, 4, 2, 1, 1))
    assert not divides((4, 1, 2, 1), (7, 1, 4, 2, 1, 1))
    assert not support((1, 2)) & support((2, 1))
    assert support((2, 1, 1, 2)) & support((2, 5))
    assert deg(()) == 0
    assert deg((7, 3, 1, 2)) == 5
    # a larger variable beats any power of smaller ones; a prefix is smaller
    assert (2, 1) > (1, 9) and (2, 1) < (2, 1, 0, 1) and () < (0, 1)


def test_backend_is_python():
    assert mono.BACKEND == "python"
