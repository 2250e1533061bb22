"""Natural generators of the four ladder families.

Each family enumerates the index sets of its defining minors/pfaffians
region by region: (rows, cols) for a minor, (indices,) for a pfaffian.
index_sets pairs each with its leading monomial, read off the index set
(matrices.minor_leading, pfaffian_leading) without expanding anything
unless that rule is not exact for the order at hand.  Two routes read
that list:

* natural_generators expands the index sets into polynomials, for the
  Buchberger oracle and for localization;
* leading_monomials keeps only the leading monomials.

Both deduplicate by index set and list in one deterministic order:
(degree, leading monomial) under a term order, by default the family's
conventional one (the order under which the generators are expected to
form a reduced Groebner basis).  Distinct index sets give distinct
polynomials: under the conventional order their leading monomials
already differ.
"""

import itertools

from . import matrices
from .fields import QQ
from .poly import leading_term, p_is_zero


def conventional_order(ladder):
    """Term order the family's Groebner claims are stated for."""
    return matrices.order_for(ladder.shape(), ladder.order_kind)


def _maxminors_gens(ladder):
    if ladder.n < ladder.m:
        return
    rows = tuple(range(1, ladder.m + 1))
    for cols in itertools.combinations(range(1, ladder.n + 1), ladder.m):
        yield rows, cols


def _pfaffian_gens(ladder):
    for region in ladder.regions():
        a, b = region.point
        if 2 * region.t > b - a + 1:
            continue
        for idx in itertools.combinations(range(a, b + 1), 2 * region.t):
            yield (idx,)


def _symmetric_gens(ladder):
    # Row/column selections are restricted to row_i <= col_i pointwise.
    # Minors violating this are linear combinations of the kept ones
    # (e.g. [14|23] = [13|24] - [12|34] in a symmetric matrix), so the
    # unrestricted set is neither minimal nor interreduced for n >= 4.
    # Columns come only from those whose cells meet every row inside the
    # region; combinations of that sorted list keep the lexicographic
    # order of all column sets.
    n = ladder.n
    for region in ladder.regions():
        t = region.t
        for rows in itertools.combinations(range(1, n + 1), t):
            fits = [
                c
                for c in range(1, n + 1)
                if all((min(r, c), max(r, c)) in region.cells for r in rows)
            ]
            for cols in itertools.combinations(fits, t):
                if all(r <= c for r, c in zip(rows, cols)):
                    yield rows, cols


def _onesided_gens(ladder):
    for region in ladder.regions():
        a, b = region.point
        t = region.t
        if t > a or t > ladder.n - b + 1:
            continue
        for rows in itertools.combinations(range(1, a + 1), t):
            for cols in itertools.combinations(range(b, ladder.n + 1), t):
                yield rows, cols


_GENS = {
    "maxminors": _maxminors_gens,
    "pfaffian": _pfaffian_gens,
    "symmetric": _symmetric_gens,
    "onesided": _onesided_gens,
}


def expand(shape, key, field):
    """The minor (rows, cols) or pfaffian (indices,) on an index set."""
    if len(key) == 1:
        return matrices.pfaffian(shape, key[0], field)
    return matrices.minor(shape, key[0], key[1], field)


def index_sets(ladder, order=None, shape=None, field=QQ):
    """[(index set, leading monomial)] of the nonzero natural generators,
    each index set once, sorted by (degree, leading monomial) under order
    (conventional order by default).  A generator is expanded only when
    its leading monomial cannot be read off its index set under this
    order; shape is read as in natural_generators."""
    if order is None:
        order = conventional_order(ladder)
    if shape is None:
        shape = ladder.shape()
    out = []
    for key in dict.fromkeys(_GENS[ladder.family](ladder)):
        if len(key) == 1:
            lead = matrices.pfaffian_leading(shape, key[0], order)
        else:
            lead = matrices.minor_leading(shape, key[0], key[1], order)
        if lead is None:
            g = expand(shape, key, field)
            if p_is_zero(g):
                continue
            lead = leading_term(g, order)[0]
        out.append((key, lead))
    out.sort(key=lambda e: (_degree(e[0]), order.key(e[1])))
    return out


def _degree(key):
    """Degree of the generator on an index set: a minor's t rows, or
    half a pfaffian's 2t indices."""
    return len(key[0]) if len(key) == 2 else len(key[0]) // 2


def natural_generators(ladder, field=QQ, order=None, shape=None):
    """Defining generators, deduplicated, sorted by (degree, leading
    monomial) under the given order (conventional order by default).

    shape is the matrix the minors/pfaffians are read from, ladder.shape()
    by default.  A caller may pass a larger shape of the same kind (a
    chain passes its top instance's to every node): positions mean the
    same entries in it, and its memo then serves every ladder read from
    it."""
    if shape is None:
        shape = ladder.shape()
    sets = index_sets(ladder, order, shape, field)
    return [expand(shape, key, field) for key, _ in sets]


def leading_monomials(ladder, order=None, shape=None, field=QQ):
    """Leading monomials of natural_generators, in the same order, read
    off the index sets without expanding the generators.

    field matters only where the index-set rule is not exact (a
    symmetric minor under the anti-diagonal order): that generator is
    expanded over field, as natural_generators would."""
    return [lead for _, lead in index_sets(ladder, order, shape, field)]


def initial_generators(ladder, order=None, field=QQ):
    """Leading monomials of the natural generators, as a sorted list."""
    if order is None:
        order = conventional_order(ladder)
    return sorted(set(leading_monomials(ladder, order, field=field)), key=order.key)
