"""Field axioms for the two coefficient fields, and the name parser."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from laddergb import PrimeField, QQ, field_by_name

GF7 = PrimeField(7)
GF32003 = PrimeField(32003)


def rationals():
    return st.fractions(
        min_value=-100, max_value=100, max_denominator=20
    )


@st.composite
def gf7_elements(draw):
    return draw(st.integers(min_value=0, max_value=6))


@pytest.mark.parametrize(
    "field,elements",
    [(QQ, rationals()), (GF7, gf7_elements())],
    ids=["QQ", "GF7"],
)
@given(data=st.data())
def test_field_axioms(field, elements, data):
    a = data.draw(elements)
    b = data.draw(elements)
    c = data.draw(elements)
    assert field.eq(field.add(a, b), field.add(b, a))
    assert field.eq(field.mul(a, b), field.mul(b, a))
    assert field.eq(field.add(field.add(a, b), c), field.add(a, field.add(b, c)))
    assert field.eq(field.mul(field.mul(a, b), c), field.mul(a, field.mul(b, c)))
    assert field.eq(
        field.mul(a, field.add(b, c)), field.add(field.mul(a, b), field.mul(a, c))
    )
    assert field.eq(field.add(a, field.zero), a)
    assert field.eq(field.mul(a, field.one), a)
    assert field.is_zero(field.add(a, field.neg(a)))
    assert field.eq(field.sub(a, b), field.add(a, field.neg(b)))
    if not field.is_zero(a):
        assert field.eq(field.mul(a, field.inv(a)), field.one)
        assert field.eq(field.div(b, a), field.mul(b, field.inv(a)))


def test_rationals_are_exact():
    third = QQ.div(QQ.one, QQ.of(3))
    assert QQ.eq(QQ.add(third, QQ.add(third, third)), QQ.one)
    assert third == Fraction(1, 3)


def mixed_rationals():
    # what a QQ computation can hold: ints, and Fractions, integral ones
    # among them
    return st.one_of(st.integers(min_value=-100, max_value=100), rationals())


@given(mixed_rationals(), mixed_rationals())
def test_rational_ops_match_the_fraction_reference(a, b):
    fa, fb = Fraction(a), Fraction(b)
    got = {
        "add": (QQ.add(a, b), fa + fb),
        "sub": (QQ.sub(a, b), fa - fb),
        "mul": (QQ.mul(a, b), fa * fb),
        "neg": (QQ.neg(a), -fa),
        "of": (QQ.of(a), fa),
    }
    if fb:
        got["inv"] = (QQ.inv(b), 1 / fb)
        got["div"] = (QQ.div(a, b), fa / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(b)
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)
    for op, (value, want) in got.items():
        assert value == want and hash(value) == hash(want), op
        assert QQ.text(value) == str(want), op
        if op in ("of", "inv", "div"):
            # an int exactly when the value is integral
            assert (type(value) is int) == (want.denominator == 1), op
        elif type(a) is int and type(b) is int:
            assert type(value) is int, op


def test_prime_field_wraps():
    assert GF7.of(10) == 3
    assert GF7.add(5, 4) == 2
    assert GF7.neg(3) == 4
    assert GF7.inv(3) == 5  # 3 * 5 = 15 = 1 mod 7
    assert GF32003.mul(GF32003.of(-1), GF32003.of(-1)) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    with pytest.raises(ZeroDivisionError):
        GF7.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF7.inv(14)


@pytest.mark.parametrize("field", [PrimeField(2), GF7, GF32003], ids=str)
def test_prime_field_inverts_plus_minus_one_as_itself(field):
    p = field.p
    for a, want in ((1, 1), (p - 1, p - 1), (-1, p - 1), (p + 1, 1)):
        assert field.inv(a) == want == pow(a, p - 2, p)
        assert field.div(3, a) == field.mul(3, want)
    with pytest.raises(ZeroDivisionError):
        field.inv(0)
    with pytest.raises(ZeroDivisionError):
        field.div(1, p)


def test_field_by_name():
    assert field_by_name("q") is QQ
    gf = field_by_name("gf:32003")
    assert isinstance(gf, PrimeField) and gf.p == 32003
    assert gf.name == "gf:32003"


@pytest.mark.parametrize("bad", ["", "rationals", "gf:", "gf:x", "zz"])
def test_field_by_name_rejects(bad):
    with pytest.raises(ValueError):
        field_by_name(bad)


@pytest.mark.parametrize("composite", [1, 4, 9, 32001])
def test_prime_field_rejects_composite(composite):
    with pytest.raises(ValueError):
        PrimeField(composite)
