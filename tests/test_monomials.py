"""Monomial ideal algebra: minimal generators, colons, the basic double
link, and the Hilbert series against a brute-force count."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laddergb.errors import PreconditionError
from laddergb.monomials import (
    MonomialIdeal,
    basic_double_link,
    hilbert_numerator,
    minimalize,
    series_add,
    series_mul,
)

from brute import hilbert_function_brute
from tupleref import encode as E

AMBIENT = tuple(range(6))


def monomials(max_vars=6, max_exp=3):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_vars - 1),
        st.integers(min_value=1, max_value=max_exp),
        min_size=1,
        max_size=3,
    ).map(lambda d: E(tuple(x for v in sorted(d, reverse=True) for x in (v, d[v]))))


def ideals():
    return st.lists(monomials(), min_size=0, max_size=4).map(
        lambda gens: MonomialIdeal(gens, AMBIENT)
    )


# ---------------------------------------------------------------------------
# minimal generators


def test_minimalize_examples():
    x, y = E((0, 1)), E((1, 1))
    xy = E((1, 1, 0, 1))
    x2 = E((0, 2))
    assert minimalize([x, xy]) == [x]
    assert minimalize([x2, xy, x]) == [x]
    assert minimalize([x2, xy]) == sorted([x2, xy], key=lambda m: (2, m))
    assert minimalize([]) == []
    assert minimalize([E(()), x]) == [E(())]


@given(st.lists(monomials(), max_size=6))
def test_minimalize_is_minimal_and_equivalent(gens):
    mins = minimalize(gens)
    ideal = MonomialIdeal(gens, AMBIENT)
    # same ideal
    assert MonomialIdeal(mins, AMBIENT) == ideal
    # no internal divisibility
    from laddergb import mono

    for a in mins:
        for b in mins:
            if a != b:
                assert not mono.divides(a, b)
    # every original generator is a multiple of some minimal one
    for g in gens:
        assert ideal.contains_monomial(g)


def all_pairs_minimalize(gens):
    """Reference: keep g unless some other generator divides it."""
    from laddergb import mono

    gens = set(gens)
    kept = [g for g in gens if not any(h != g and mono.divides(h, g) for h in gens)]
    return sorted(kept, key=lambda m: (mono.deg(m), m))


@settings(max_examples=300)
@given(
    st.lists(
        st.one_of(st.just(E(())), monomials(max_vars=3), monomials(max_vars=4, max_exp=2)),
        max_size=10,
    )
)
def test_minimalize_matches_all_pairs_reference(gens):
    assert minimalize(gens) == all_pairs_minimalize(gens)


def degree_scan_minimalize(gens):
    """Reference: the scan minimalize ran before the level walk.  Sort by
    (degree, monomial) and keep a monomial unless a kept one of lower
    degree divides it, testing every such kept monomial."""
    from laddergb import mono

    out = []
    lower = 0
    d = None
    for dg, g in sorted((mono.deg(m), m) for m in set(gens)):
        if dg != d:
            d = dg
            lower = len(out)
        if not any(mono.divides(h, g) for h in out[:lower]):
            out.append(g)
    return out


@settings(max_examples=150)
@given(
    st.lists(
        st.one_of(
            st.just(E(())),
            monomials(max_vars=8, max_exp=1),
            monomials(max_vars=8, max_exp=3),
        ),
        max_size=20,
    )
)
def test_minimalize_matches_the_degree_scan(gens):
    # the level walk files kept generators under their largest variable;
    # many generators over a few variables, squarefree or not, exercise
    # every bucket against the full scan.  Most drawn lists hold the unit,
    # which is then the only generator, so each is also checked without it.
    assert minimalize(gens) == degree_scan_minimalize(gens)
    nonunit = [g for g in gens if g]
    assert minimalize(nonunit) == degree_scan_minimalize(nonunit)


# ---------------------------------------------------------------------------
# ideal operations


def test_containment_and_membership():
    ideal = MonomialIdeal([E((1, 1, 0, 1)), E((2, 2))], AMBIENT)
    assert ideal.contains_monomial(E((3, 4, 1, 1, 0, 1)))
    assert ideal.contains_monomial(E((2, 3)))
    assert not ideal.contains_monomial(E((0, 1)))
    assert not ideal.contains_monomial(E(()))
    smaller = MonomialIdeal([E((1, 1, 0, 2))], AMBIENT)
    assert ideal.contains_ideal(smaller)
    assert not smaller.contains_ideal(ideal)


def test_zero_and_unit():
    assert MonomialIdeal([], AMBIENT).is_zero()
    assert MonomialIdeal([E(())], AMBIENT).is_unit()
    assert not MonomialIdeal([E((0, 1))], AMBIENT).is_zero()


def test_ambient_is_enforced():
    with pytest.raises(PreconditionError):
        MonomialIdeal([E((9, 1))], AMBIENT)


def test_colon_examples():
    # (x^2*y, z) : x = (x*y, z)
    ideal = MonomialIdeal([E((1, 1, 0, 2)), E((2, 1))], AMBIENT)
    colon = ideal.colon(E((0, 1)))
    assert set(colon.gens) == {E((1, 1, 0, 1)), E((2, 1))}
    # colon by a variable not involved: unchanged
    assert ideal.colon(E((4, 1))) == ideal
    assert ideal.is_colon_stable(E((4, 1)))
    assert not ideal.is_colon_stable(E((0, 1)))


@given(ideals(), monomials())
def test_colon_contains_ideal(ideal, f):
    colon = ideal.colon(f)
    assert colon.contains_ideal(ideal)
    # definition check on a few witnesses: g in (I : f) iff f*g in I
    from laddergb import mono

    for g in colon.gens:
        assert ideal.contains_monomial(mono.mul(f, g))


def test_squarefree():
    assert MonomialIdeal([E((1, 1, 0, 1))], AMBIENT).is_squarefree()
    assert not MonomialIdeal([E((0, 2))], AMBIENT).is_squarefree()
    assert MonomialIdeal([], AMBIENT).is_squarefree()


# ---------------------------------------------------------------------------
# basic double link


def test_basic_double_link_example():
    # A = (y), B = (x, y), f = z: C = (y, x*z) after minimalization
    a = MonomialIdeal([E((1, 1))], AMBIENT)
    b = MonomialIdeal([E((0, 1)), E((1, 1))], AMBIENT)
    c = basic_double_link(a, b, E((2, 1)))
    assert set(c.gens) == {E((1, 1)), E((2, 1, 0, 1))}


def test_basic_double_link_preconditions():
    a = MonomialIdeal([E((1, 1))], AMBIENT)
    b = MonomialIdeal([E((0, 1)), E((1, 1))], AMBIENT)
    with pytest.raises(PreconditionError):
        basic_double_link(a, b, E(()))  # unit multiplier
    with pytest.raises(PreconditionError):
        basic_double_link(a, b, E((1, 1)))  # A not colon-stable along f
    small = MonomialIdeal([E((3, 1))], AMBIENT)
    with pytest.raises(PreconditionError):
        basic_double_link(small, b, E((2, 1)))  # A not contained in B
    other = MonomialIdeal([E((1, 1))], (0, 1, 2))
    with pytest.raises(PreconditionError):
        basic_double_link(other, b, E((2, 1)))  # different ambient rings


# ---------------------------------------------------------------------------
# Hilbert series and functions, against enumeration


def test_hilbert_free_ring():
    ideal = MonomialIdeal([], (0, 1, 2))
    for d in range(6):
        assert ideal.hilbert_function(d) == math.comb(d + 2, 2)
    assert ideal.hilbert_function(-1) == 0


def test_hilbert_hypersurface():
    # one generator of degree 2 in 2 variables: 1, 2, 2, 2, ...
    ideal = MonomialIdeal([E((0, 2))], (0, 1))
    assert [ideal.hilbert_function(d) for d in range(5)] == [1, 2, 2, 2, 2]


def test_hilbert_of_unit_and_of_linear():
    assert MonomialIdeal([E(())], AMBIENT).hilbert_function(0) == 0
    linear = MonomialIdeal([E((0, 1))], (0, 1))
    assert [linear.hilbert_function(d) for d in range(4)] == [1, 1, 1, 1]


@given(ideals())
@settings(max_examples=60, deadline=None)
def test_hilbert_pivot_equals_brute(ideal):
    for d in range(5):
        assert ideal.hilbert_function(d) == hilbert_function_brute(ideal, d)


def test_hilbert_additive_along_colon_sequence():
    # H(R/I, d) = H(R/(I:x), d-1) + H(R/(I+x), d) for any variable x
    ideal = MonomialIdeal([E((1, 2, 0, 1)), E((2, 1, 1, 1)), E((3, 2))], AMBIENT)
    x = E((1, 1))
    colon = ideal.colon(x)
    added = ideal.plus([x])
    for d in range(7):
        assert ideal.hilbert_function(d) == colon.hilbert_function(
            d - 1
        ) + added.hilbert_function(d)


def numerator(ideal):
    return hilbert_numerator(ideal.gens)


def test_numerator_base_cases():
    assert series_mul((1, -1), (1, 1)) == (1, 0, -1)
    assert series_add((1, 0, -1), (0, 0, 1)) == (1,)
    assert numerator(MonomialIdeal([E(())], AMBIENT)) == ()
    assert numerator(MonomialIdeal([], AMBIENT)) == (1,)
    # two killed variables: (1 - z)^2
    assert numerator(MonomialIdeal([E((0, 1)), E((1, 1))], AMBIENT)) == (1, -2, 1)
    # pure powers x^2, y^3: (1 - z^2)(1 - z^3)
    assert numerator(MonomialIdeal([E((0, 2)), E((1, 3))], AMBIENT)) == (1, 0, -1, -1, 0, 1)


@given(ideals(), st.integers(min_value=0, max_value=len(AMBIENT) - 1))
@settings(max_examples=100, deadline=None)
def test_numerator_additive_along_colon_sequence(ideal, v):
    # K(I) = K(I + (x)) + z K(I : x), the pivot step, for any variable x
    x = E((v, 1))
    assert numerator(ideal) == series_add(
        numerator(ideal.plus([x])), series_mul((0, 1), numerator(ideal.colon(x)))
    )


def test_brute_force_standalone():
    ideal = MonomialIdeal([E((1, 1, 0, 1))], (0, 1))
    # standard monomials: all x^a*y^b with a = 0 or b = 0
    assert [hilbert_function_brute(ideal, d) for d in range(5)] == [1, 2, 2, 2, 2]
