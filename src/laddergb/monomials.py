"""Monomial ideal algebra: minimal generators, colons, the basic double
link construction, Hilbert series.

The Hilbert series of R/I is K(z)/(1-z)^n, and the numerator K comes from
a pivot recursion (split on a frequently used variable x via the exact
sequence relating I, I:x and I+(x); Bigatti, JPAA 1997).  The Hilbert
function in every degree and the codimension are read off K.
"""

import itertools
import math

from . import mono
from .errors import PreconditionError


def minimalize(gens):
    """Minimal generating set: drop monomials divisible by another one.

    The distinct monomials are grouped by degree and handed to
    minimal_levels, so the result is sorted by (degree, monomial)."""
    levels = {}
    for m in set(gens):
        levels.setdefault(mono.deg(m), []).append(m)
    return minimal_levels(levels)


def minimal_levels(levels):
    """Minimal generators of the union of levels, a dict from a degree d
    to a nonempty collection of distinct monomials of degree d, sorted by
    (degree, monomial).  The degrees are walked upward: two distinct
    monomials of one degree never divide each other, so each level keeps
    the survivors of a DivisorIndex of the lower ones."""
    out = []
    index = DivisorIndex()
    last = max(levels, default=None)
    for d in sorted(levels):
        if d == 0:
            return [mono.ONE]
        level = sorted(index.survivors(levels[d]))
        out.extend(level)
        if d != last:
            index.add(level)
    return out


class DivisorIndex:
    """Monomials indexed to tell which candidates none of them divides.
    A variable is its own support mask, and divides m exactly when its
    bit is in mono.support(m), so the single variables are ORed into one
    mask that decides a candidate with one AND.  Every other monomial g
    is filed under its largest variable mono.top(g), which occurs in
    every monomial g divides, so g is tested only against candidates
    holding that variable.  The unit divides everything."""

    def __init__(self, gens=()):
        self.linear = 0
        self.filed = {}
        self.unit = False
        self.add(gens)

    def add(self, gens):
        is_var, top, file = mono.is_var, mono.top, self.filed.setdefault
        for g in gens:
            if is_var(g):
                self.linear |= g
            elif g == mono.ONE:
                self.unit = True
            else:
                file(top(g), []).append(g)

    def survivors(self, ms):
        """The monomials of ms that no indexed monomial divides, as a
        list in the order of ms."""
        if self.unit:
            return []
        linear, filed = self.linear, self.filed
        if linear:
            support = mono.support
            ms = [m for m in ms if not support(m) & linear]
        if filed:
            divides, variables, get = mono.divides, mono.variables, filed.get
            ms = [
                m
                for m in ms
                if not any(divides(g, m) for v in variables(m) for g in get(v, ()))
            ]
        return ms if linear or filed else list(ms)


def _squarefree(gens):
    """Whether every exponent of every monomial of gens is 1."""
    return all(map(mono.is_squarefree, gens))


class MonomialIdeal:
    """Monomial ideal with an explicit ambient variable set.  An ideal is
    never changed after it is built, so whether it is squarefree is
    decided once, where it is built."""

    def __init__(self, gens, ambient):
        self.ambient = tuple(sorted(set(ambient)))
        avail = set(self.ambient)
        for g in gens:
            if not avail.issuperset(mono.variables(g)):
                raise PreconditionError(
                    "generator uses a variable outside the ambient ring"
                )
        self.gens = tuple(minimalize(gens))
        self._squarefree = _squarefree(self.gens)

    @classmethod
    def _minimal(cls, gens, ambient, squarefree=None):
        """The ideal of gens in the ring of ambient, taken as they are:
        gens a tuple of minimal generators in minimalize order, ambient a
        sorted tuple of distinct variables holding all of theirs.  Nothing
        is checked or copied, so ideals built from one ambient share it.
        squarefree is whether gens are, when the caller knows it; gens
        are scanned only when it is None."""
        ideal = cls.__new__(cls)
        ideal.gens = gens
        ideal.ambient = ambient
        ideal._squarefree = _squarefree(gens) if squarefree is None else squarefree
        return ideal

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return mono.ONE in self.gens

    def contains_monomial(self, m):
        return any(mono.divides(g, m) for g in self.gens)

    def contains_ideal(self, other):
        return not DivisorIndex(self.gens).survivors(other.gens)

    def colon(self, f):
        """(I : f) for a monomial f: each generator g becomes
        g / gcd(g, f) = lcm(g, f) / f."""
        return MonomialIdeal(
            [mono.div(mono.lcm(g, f), f) for g in self.gens], self.ambient
        )

    def is_colon_stable(self, f):
        """True when (I : f) = I."""
        return self.colon(f) == self

    def is_squarefree(self):
        return self._squarefree

    def plus(self, extra):
        return MonomialIdeal(list(self.gens) + list(extra), self.ambient)

    def hilbert_function(self, d):
        """Number of degree-d monomials of the ambient ring not in I: the
        coefficient of z^d in K(z) / (1-z)^n, one prefix sum per variable."""
        if d < 0:
            return 0
        coeffs = hilbert_numerator(self.gens)[: d + 1]
        coeffs += (0,) * (d + 1 - len(coeffs))
        for _ in self.ambient:
            coeffs = tuple(itertools.accumulate(coeffs))
        return coeffs[d]

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.ambient == other.ambient
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ambient, self.gens))

    def __repr__(self):
        return "MonomialIdeal(%d gens, %d vars)" % (len(self.gens), len(self.ambient))


def check_double_link(a_ideal, b_ideal, f):
    """Raise PreconditionError unless A + f*B is a basic double link: A
    colon-stable along the nonunit monomial f and contained in B."""
    if a_ideal.ambient != b_ideal.ambient:
        raise PreconditionError("ingredient ideals live in different rings")
    if f == mono.ONE:
        raise PreconditionError("the multiplier must be a nonunit monomial")
    if not a_ideal.is_colon_stable(f):
        raise PreconditionError("first ingredient is not colon-stable along the multiplier")
    if not b_ideal.contains_ideal(a_ideal):
        raise PreconditionError("first ingredient is not contained in the second")


def basic_double_link(a_ideal, b_ideal, f):
    """C = A + f*B for a monomial f, after check_double_link."""
    check_double_link(a_ideal, b_ideal, f)
    return a_ideal.plus([mono.mul(f, g) for g in b_ideal.gens])


# ---------------------------------------------------------------------------
# Hilbert series: a numerator K is the tuple of its integer coefficients
# (K_0, K_1, ...) without trailing zeros; () is the zero polynomial.


def series_add(p, q):
    out = [a + b for a, b in itertools.zip_longest(p, q, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def series_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def hilbert_numerator(gens):
    """K(z) with HS(R/I) = K(z) / (1-z)^n, for I generated by the minimal
    generators gens (in minimalize order, as MonomialIdeal.gens holds them).
    K does not depend on n.  The recursion's memo serves this one call."""
    return _numerator(gens, {})


def _numerator(gens, memo):
    gens = tuple(gens)
    if gens in memo:
        return memo[gens]
    # degree-1 generators kill their variable: a factor (1-z) each, so
    # (1-z)^k for k of them, multiplied in once by its binomial row; the
    # remaining generators avoid killed variables by minimality
    rest = tuple(g for g in gens if not mono.is_var(g))
    if mono.ONE in gens:
        out = ()
    elif len(rest) < len(gens):
        k = len(gens) - len(rest)
        row = tuple((-1) ** i * math.comb(k, i) for i in range(k + 1))
        out = series_mul(_numerator(rest, memo), row)
    else:
        supports = [mono.variables(g) for g in gens]
        if all(len(vs) == 1 for vs in supports):
            # pure powers (none at all for the zero ideal): the product of
            # (1 - z^e)
            out = (1,)
            for g in gens:
                out = series_mul(out, (1,) + (0,) * (mono.deg(g) - 1) + (-1,))
        else:
            # K(I) = K(I + (x)) + z K(I : x), split on the most used
            # variable, the largest of those on a tie; every candidate
            # sits in a generator of degree at least 2, so both branches
            # shrink
            used = {}
            for vs in supports:
                for v in vs:
                    used[v] = used.get(v, 0) + 1
            x = max(sorted(used, reverse=True), key=lambda v: used[v])
            f = mono.var(x)
            colon = minimalize(
                [mono.div(g, f) if mono.exponent(g, x) else g for g in gens]
            )
            added = minimalize(list(gens) + [f])
            out = series_add(
                _numerator(added, memo),
                series_mul((0, 1), _numerator(colon, memo)),
            )
    memo[gens] = out
    return out


def codim_by_series(k):
    """Codimension of R/I from its Hilbert numerator k: the (1-z)-adic
    order of k, which is n minus the pole order of HS at z = 1."""
    if not k:
        raise PreconditionError("unit ideal has no codimension")
    codim = 0
    while sum(k) == 0:
        k = tuple(itertools.accumulate(k))[:-1]  # k / (1-z)
        codim += 1
    return codim

