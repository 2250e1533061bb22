"""Monomial ideal algebra: minimal generators, colons, the basic double
link construction, Hilbert functions.

Hilbert functions of quotients R/I come in two independent flavours: a
pivot recursion (split on a frequently used variable x via the exact
sequence relating I, I:x and I+(x)) and a brute-force count of standard
monomials, kept as a cross-check oracle for small degrees.
"""

import itertools
import math

from . import mono
from .errors import PreconditionError


def _gcd_mono(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            out.append(a[i])
            out.append(min(a[i + 1], b[j + 1]))
            i += 2
            j += 2
        elif a[i] < b[j]:
            i += 2
        else:
            j += 2
    return tuple(out)


def minimalize(gens):
    """Minimal generating set: drop monomials divisible by another one.

    Candidates are scanned by increasing degree, and each is tested only
    against the kept monomials of strictly lower degree: two distinct
    monomials of the same degree never divide each other."""
    out = []
    lower = 0  # out[:lower] are the kept monomials of lower degree
    d = None
    for dg, g in sorted((mono.deg(m), m) for m in set(gens)):
        if dg != d:
            d = dg
            lower = len(out)
        if not any(mono.divides(h, g) for h in itertools.islice(out, lower)):
            out.append(g)
    return out


class MonomialIdeal:
    """Monomial ideal with an explicit ambient variable set."""

    def __init__(self, gens, ambient):
        self.ambient = tuple(sorted(set(ambient)))
        avail = set(self.ambient)
        for g in gens:
            for k in range(0, len(g), 2):
                if g[k] not in avail:
                    raise PreconditionError(
                        "generator uses a variable outside the ambient ring"
                    )
        self.gens = tuple(minimalize(gens))
        self._hilbert_cache = {}

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return () in self.gens

    def contains_monomial(self, m):
        return any(mono.divides(g, m) for g in self.gens)

    def contains_ideal(self, other):
        return all(self.contains_monomial(g) for g in other.gens)

    def colon(self, f):
        """(I : f) for a monomial f."""
        return MonomialIdeal(
            [mono.div(g, _gcd_mono(g, f)) for g in self.gens], self.ambient
        )

    def is_colon_stable(self, f):
        """True when (I : f) = I."""
        return self.colon(f) == self

    def is_squarefree(self):
        return all(all(g[k] == 1 for k in range(1, len(g), 2)) for g in self.gens)

    def plus(self, extra):
        return MonomialIdeal(list(self.gens) + list(extra), self.ambient)

    def scaled(self, f):
        """f * I."""
        return MonomialIdeal([mono.mul(f, g) for g in self.gens], self.ambient)

    def hilbert_function(self, d):
        """Number of degree-d monomials of the ambient ring not in I."""
        if d < 0:
            return 0
        key = d
        if key not in self._hilbert_cache:
            self._hilbert_cache[key] = _hilbert(frozenset(self.gens), self.ambient, d)
        return self._hilbert_cache[key]

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


def basic_double_link(a_ideal, b_ideal, f):
    """C = A + f*B for a monomial f, with the construction's precondition
    checks: A must be colon-stable along f and contained in B."""
    if a_ideal.ambient != b_ideal.ambient:
        raise PreconditionError("ingredient ideals live in different rings")
    if f == ():
        raise PreconditionError("the multiplier must be a nonunit monomial")
    if not a_ideal.is_colon_stable(f):
        raise PreconditionError("first ingredient is not colon-stable along the multiplier")
    if not b_ideal.contains_ideal(a_ideal):
        raise PreconditionError("first ingredient is not contained in the second")
    return a_ideal.plus([mono.mul(f, g) for g in b_ideal.gens])


# ---------------------------------------------------------------------------
# Hilbert functions


def _free_count(nvars, d):
    if d < 0:
        return 0
    if nvars == 0:
        return 1 if d == 0 else 0
    return math.comb(d + nvars - 1, d)


def _pure_power_series(exps, free, d):
    # product of (1 + z + ... + z^(e-1)) over pure power exponents,
    # convolved with the free polynomial ring series, coefficient of z^d
    coeffs = [0] * (d + 1)
    for k in range(d + 1):
        coeffs[k] = _free_count(free, k)
    for e in exps:
        nxt = [0] * (d + 1)
        for k in range(d + 1):
            total = 0
            for j in range(0, min(e - 1, k) + 1):
                total += coeffs[k - j]
            nxt[k] = total
        coeffs = nxt
    return coeffs[d]


_HILBERT_MEMO = {}


def _hilbert(gens, ambient, d):
    key = (gens, len(ambient), d)
    if key in _HILBERT_MEMO:
        return _HILBERT_MEMO[key]
    out = _hilbert_raw(gens, ambient, d)
    _HILBERT_MEMO[key] = out
    return out


def _hilbert_raw(gens, ambient, d):
    if d < 0:
        return 0
    if () in gens:
        return 0
    if not gens:
        return _free_count(len(ambient), d)
    # degree-1 generators kill their variable outright
    killed = {g[0] for g in gens if len(g) == 2 and g[1] == 1}
    if killed:
        # the remaining generators avoid killed variables by minimality
        rest = frozenset(g for g in gens if not (len(g) == 2 and g[1] == 1))
        amb2 = tuple(v for v in ambient if v not in killed)
        return _hilbert(rest, amb2, d)
    used = {}
    pure = True
    for g in gens:
        if len(g) > 2:
            pure = False
        for k in range(0, len(g), 2):
            used[g[k]] = used.get(g[k], 0) + 1
    if pure:
        exps = [g[1] for g in gens]
        free = len(ambient) - len(gens)
        return _pure_power_series(exps, free, d)
    # split on the most used variable; every candidate sits in a
    # generator of degree at least 2, so both branches shrink
    x = max(sorted(used), key=lambda v: used[v])
    xm = (x, 1)
    colon = frozenset(minimalize([mono.div(g, _gcd_mono(g, xm)) for g in gens]))
    added = frozenset(minimalize(list(gens) + [xm]))
    return _hilbert(colon, ambient, d - 1) + _hilbert(added, ambient, d)


def hilbert_function_brute(ideal, d):
    """Independent count of standard monomials of degree d, by direct
    enumeration.  Only viable for small d and few variables."""
    if d < 0:
        return 0
    count = 0
    for combo in itertools.combinations_with_replacement(ideal.ambient, d):
        m = []
        for v in combo:
            if m and m[-2] == v:
                m[-1] += 1
            else:
                m.extend((v, 1))
        if not ideal.contains_monomial(tuple(m)):
            count += 1
    return count
