"""Natural generators of the four ladder families.

natural_generators enumerates the defining minors/pfaffians of an
instance region by region, deduplicated and in a deterministic order.
initial_generators takes their leading monomials under a term order
(by default the family's conventional one: the order under which the
generators are expected to form a reduced Groebner basis).
"""

import itertools

from . import matrices
from .fields import QQ
from .poly import leading_term, p_degree, p_is_zero


def conventional_order(ladder):
    """Term order the family's Groebner claims are stated for."""
    return matrices.order_for(ladder.shape(), ladder.order_kind)


def _maxminors_gens(ladder, shape, field):
    if ladder.n < ladder.m:
        return
    rows = tuple(range(1, ladder.m + 1))
    for cols in itertools.combinations(range(1, ladder.n + 1), ladder.m):
        yield matrices.minor(shape, rows, cols, field)


def _pfaffian_gens(ladder, shape, field):
    for region in ladder.regions():
        a, b = region.point
        if 2 * region.t > b - a + 1:
            continue
        for idx in itertools.combinations(range(a, b + 1), 2 * region.t):
            yield matrices.pfaffian(shape, idx, field)


def _symmetric_gens(ladder, shape, field):
    # Row/column selections are restricted to row_i <= col_i pointwise.
    # Minors violating this are linear combinations of the kept ones
    # (e.g. [14|23] = [13|24] - [12|34] in a symmetric matrix), so the
    # unrestricted set is neither minimal nor interreduced for n >= 4.
    n = ladder.n
    for region in ladder.regions():
        t = region.t
        for rows in itertools.combinations(range(1, n + 1), t):
            for cols in itertools.combinations(range(1, n + 1), t):
                if any(r > c for r, c in zip(rows, cols)):
                    continue
                if all(
                    (min(r, c), max(r, c)) in region.cells for r in rows for c in cols
                ):
                    yield matrices.minor(shape, rows, cols, field)


def _onesided_gens(ladder, shape, field):
    for region in ladder.regions():
        a, b = region.point
        t = region.t
        if t > a or t > ladder.n - b + 1:
            continue
        for rows in itertools.combinations(range(1, a + 1), t):
            for cols in itertools.combinations(range(b, ladder.n + 1), t):
                yield matrices.minor(shape, rows, cols, field)


_GENS = {
    "maxminors": _maxminors_gens,
    "pfaffian": _pfaffian_gens,
    "symmetric": _symmetric_gens,
    "onesided": _onesided_gens,
}


def natural_generators(ladder, field=QQ, order=None, shape=None):
    """Defining generators, deduplicated, sorted by (degree, leading
    monomial) under the given order (conventional order by default).

    shape is the matrix the minors/pfaffians are read from, ladder.shape()
    by default.  A caller may pass a larger shape of the same kind (a
    chain passes its top instance's to every node): positions mean the
    same entries in it, and its memo then serves every ladder read from
    it."""
    if order is None:
        order = conventional_order(ladder)
    if shape is None:
        shape = ladder.shape()
    seen = set()
    out = []
    for g in _GENS[ladder.family](ladder, shape, field):
        if p_is_zero(g):
            continue
        key = tuple(sorted(g.items()))
        if key in seen:
            continue
        seen.add(key)
        out.append(g)
    out.sort(key=lambda g: (p_degree(g), order.key(leading_term(g, order)[0])))
    return out


def initial_generators(ladder, order=None, field=QQ):
    """Leading monomials of the natural generators, as a sorted list."""
    if order is None:
        order = conventional_order(ladder)
    monos = {leading_term(g, order)[0] for g in natural_generators(ladder, field, order)}
    return sorted(monos, key=order.key)
