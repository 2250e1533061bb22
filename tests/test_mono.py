"""Monomial kernel: algebraic properties.

Monomials are flat tuples (v1, e1, v2, e2, ...) with strictly
increasing variable ids and positive exponents; () is 1.
"""

from hypothesis import given
from hypothesis import strategies as st

from laddergb import mono
from laddergb.mono import coprime, deg, div, divides, lcm, mul


def monomials(max_vars=6, max_exp=4):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_vars - 1),
        st.integers(min_value=1, max_value=max_exp),
        max_size=max_vars,
    ).map(lambda d: tuple(x for v in sorted(d) for x in (v, d[v])))


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
    assert coprime(a, b) == (lcm(a, b) == mul(a, b))


@given(monomials(), monomials())
def test_deg_additive(a, b):
    assert deg(mul(a, b)) == deg(a) + deg(b)


@given(monomials(), monomials())
def test_divides_means_componentwise(a, b):
    da, db = dict(zip(a[::2], a[1::2])), dict(zip(b[::2], b[1::2]))
    expected = all(v in db and db[v] >= e for v, e in da.items())
    assert divides(a, b) == expected


def test_representation_is_canonical():
    assert mul((), ()) == ()
    assert mul((3, 1), (3, 1)) == (3, 2)
    assert mul((1, 2, 5, 1), (3, 4)) == (1, 2, 3, 4, 5, 1)
    assert div((1, 2, 3, 4), (1, 2)) == (3, 4)
    assert div((1, 2, 3, 4), (1, 1)) == (1, 1, 3, 4)
    assert lcm((1, 2), (1, 1, 2, 3)) == (1, 2, 2, 3)
    assert not divides((1, 3), (1, 2))
    assert coprime((1, 2), (2, 1))
    assert not coprime((1, 2, 2, 1), (2, 5))
    assert deg(()) == 0
    assert deg((1, 2, 7, 3)) == 5


def test_backend_is_python():
    assert mono.BACKEND == "python"
