"""Monomial kernel.

A monomial is one non-negative int, its packed exponent vector: the
exponent of variable id v sits in the W-bit field at bit W*v, and the
monomial 1 is 0 (ONE).  Each ring numbers its variables by rank under
its lex order (poly.TermOrder): the largest variable has the largest id,
so its field is the most significant.  Comparing two monomials as ints
therefore compares the field of the largest variable first, and at the
first field where they differ the larger exponent wins; a variable a
monomial lacks reads as exponent 0.  That is the lex order, so Python's
own comparison is it: sorting, max and heap entries take monomials as
they are, and no order key is computed or kept.

W is 8, and the top bit of every field is a guard that a valid
monomial never sets, so an exponent is at most MAX_EXP = 127.  As long
as both operands keep their guards clear, no carry or borrow crosses a
field:

* mul is +, and a field that reaches the guard bit raises
  PreconditionError: an exponent never overflows silently into the
  next variable's field;
* div is -, for a divisor;
* b - a keeps every guard clear exactly when no field of a exceeds b's
  (a borrow out of a field sets its guard), which decides divides;
* (a | guards) - b sets a field's guard exactly when a's exponent is at
  least b's, which picks each field's maximum for lcm, and with
  b = guards >> 7 marks the fields in use for support.

Where every exponent is 0 or 1, a monomial is the set of its variables,
one bit each: there the lcm is a | b, the degree a.bit_count() and the
support a itself, which the kernel tests for first.  The leading
monomials of minors and pfaffians are squarefree, and so are nearly all
operands of these three functions; BENCH_29.json measures each shortcut.

Only this module reads the layout.  The rest of the package builds
monomials with var and from_vars and takes them apart with variables,
top, exponent, is_var, is_squarefree and occurring.  The guard masks
cover the fields of the variable ids var has been given, and var
widens them for a larger id: any id is accepted, the masks span 64
fields or at most twice the largest id, and every monomial is built
from var so that mul sees an overflow in any of its fields.

These functions are the hot path of Buchberger reduction and of the
Hilbert recursion.  Call sites use `from laddergb import mono` and
attribute access (mono.mul, ...), so that a wrapper installed on the
module (the traced benchmark counts kernel calls this way) reaches every
caller; the helpers below the kernel never call a kernel function.
"""

import functools
import operator

from .errors import PreconditionError

# Name of the kernel implementation; benchmark results record it.
BACKEND = "python"

W = 8
MAX_EXP = (1 << (W - 1)) - 1
ONE = 0

# the guard bit of every field, and every bit of a field but its lowest,
# over the first _FIELDS fields; var widens them
_FIELDS = _GUARD = _ABOVE_ONE = 0


def _cover(v):
    """Widen the masks to cover the field of variable id v, at least
    doubling them so that they are rebuilt only a few times."""
    global _FIELDS, _GUARD, _ABOVE_ONE
    _FIELDS = max(v + 1, 2 * _FIELDS)
    _GUARD = int.from_bytes(bytes([1 << (W - 1)]) * _FIELDS, "little")
    _ABOVE_ONE = int.from_bytes(bytes([(1 << W) - 2]) * _FIELDS, "little")


_cover(63)


def _guards(n):
    """The guard bits of the fields holding the bits of an int of bit
    length n (and none beyond the next field's low bits)."""
    return _GUARD & ((1 << (n + W - 1)) - 1)


def mul(a, b):
    """Product of two monomials; PreconditionError when an exponent
    would exceed MAX_EXP."""
    m = a + b
    if m & _GUARD:
        raise PreconditionError("exponent overflow: an exponent above %d" % MAX_EXP)
    return m


def divides(a, b):
    """True if monomial a divides monomial b."""
    d = b - a
    return d >= 0 and not d & _GUARD


def div(a, b):
    """Quotient a / b; assumes b divides a."""
    return a - b


def lcm(a, b):
    """Least common multiple of two monomials."""
    either = a | b
    if not either & _ABOVE_ONE:
        return either
    g = _guards(either.bit_length())
    t = (a | g) - b
    ge = t & g
    return b + (t & (ge - (ge >> (W - 1))))


def deg(a):
    """Total degree: the sum of the fields, which are bytes."""
    if not a & _ABOVE_ONE:
        return a.bit_count()
    return sum(a.to_bytes((a.bit_length() + 7) >> 3, "little"))


def support(a):
    """Mask of the variables of a monomial: the lowest bit of field v is
    set when v occurs, so a squarefree monomial is its own mask.

    When a divides b, every variable of a occurs in b, so a nonzero
    support(a) & ~support(b) proves that a does not divide b without
    reading the exponents (the short exponent-vector test of Bachmann and
    Schoenemann, ISSAC 1998, with one bit per variable).  With one bit per
    variable the test is exact for coprimality: a and b share no variable
    iff support(a) & support(b) == 0.
    """
    if not a & _ABOVE_ONE:
        return a
    g = _guards(a.bit_length())
    return (((a | g) - (g >> (W - 1))) & g) >> (W - 1)


# ---------------------------------------------------------------------------
# building monomials and taking them apart


def var(v, e=1):
    """The monomial x_v^e."""
    if v >= _FIELDS:
        _cover(v)
    elif v < 0:
        raise PreconditionError("negative variable id %d" % v)
    if not 0 <= e <= MAX_EXP:
        raise PreconditionError("exponent %d outside 0..%d" % (e, MAX_EXP))
    return e << (W * v)


def from_vars(variables):
    """The squarefree monomial on a collection of distinct variable ids."""
    return sum(map(var, variables))


def variables(a):
    """The variable ids of a monomial, largest first."""
    out = []
    while a:
        v = (a.bit_length() - 1) // W
        out.append(v)
        a &= (1 << (W * v)) - 1
    return out


def top(a):
    """The largest variable id of a monomial other than 1."""
    return (a.bit_length() - 1) // W


def exponent(a, v):
    """The exponent of variable id v in a monomial."""
    return (a >> (W * v)) & ((1 << W) - 1)


def is_var(a):
    """Whether a monomial is a single variable."""
    return not a & (a - 1) and a.bit_length() % W == 1


def is_squarefree(a):
    """Whether every exponent of a monomial is at most 1."""
    return not a & _ABOVE_ONE


def occurring(monomials):
    """A monomial whose variables are exactly those occurring in any of
    the monomials: each field is the bitwise or of theirs, which is
    nonzero where one of them is."""
    return functools.reduce(operator.or_, monomials, ONE)
