"""Coefficient fields for exact computation.

Two fields are supported: the rationals and prime fields GF(p).  A field
object mediates all coefficient arithmetic so the polynomial layer never
touches representation details.  GF(p) elements are plain ints in [0, p).

Rationals are integer-first: an element is a Python int or a
fractions.Fraction, and of, div and inv return an int whenever the value
is integral, so a Fraction appears only where a division leaves the
integers.  add, sub, mul and neg keep ints ints; on Fraction operands
they may give an integral Fraction.  Since Fraction(n) == n and
hash(Fraction(n)) == hash(n), both forms compare, hash and print (text)
alike, so the mix never shows in a polynomial's frozen form or its text.
The paper's generators have coefficients and leading coefficients +-1,
so their S-polynomials and remainders by monic reducers stay ints.
"""

from fractions import Fraction


def _lower(q):
    """A rational q as an int when it is integral, else q itself."""
    return q.numerator if q.denominator == 1 else q


class Rationals:
    """Field of rational numbers; elements are ints, and Fractions only
    where the value is not integral (see the module docstring)."""

    name = "q"

    zero = 0
    one = 1

    def of(self, n):
        return n if type(n) is int else _lower(Fraction(n))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if type(a) is int:
            return a if a == 1 or a == -1 else Fraction(1, a)
        return _lower(1 / a)

    def div(self, a, b):
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return _lower(a / b)

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def text(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p; elements are ints reduced mod p."""

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("modulus must be a prime >= 2")
        for d in range(2, int(p**0.5) + 1):
            if p % d == 0:
                raise ValueError("modulus %d is not prime" % p)
        self.p = p
        self.name = "gf:%d" % p
        self.zero = 0
        self.one = 1 % p

    def of(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        p = self.p
        a %= p
        if a == 1 or a == p - 1:
            return a  # +-1 is its own inverse
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, p - 2, p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def text(self, a):
        return str(a % self.p)

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = Rationals()


def field_by_name(name: str):
    """Parse a field spec: "q" for rationals, "gf:P" for GF(P)."""
    if name == "q":
        return QQ
    if name.startswith("gf:"):
        return PrimeField(int(name[3:]))
    raise ValueError("unknown field %r (expected 'q' or 'gf:P')" % name)
