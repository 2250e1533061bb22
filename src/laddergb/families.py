"""Natural generators of the four ladder families.

The ladder classes own the enumeration: ladder.region_keys(point, t)
lists the index sets of one region's defining minors/pfaffians,
(rows, cols) for a minor and (indices,) for a pfaffian, and
ladder.region_id(point, t) names what that list depends on.  A
RegionTable pairs each index set with its leading monomial, read off the
index set (matrices.minor_leading, pfaffian_leading) without expanding
anything unless that rule is not exact for the order at hand, once per
region: a chain keeps one table for all its nodes (linkage.Chain), and
index_sets makes one for a ladder alone.  A ladder's list merges its
regions' entries.  Two routes read that list:

* natural_generators expands the index sets into polynomials, for the
  Buchberger oracle and for localization;
* leading_monomials keeps only the leading monomials.

Both deduplicate by index set and list in one deterministic order:
(degree, leading monomial) under a term order, by default the family's
conventional one (the order under which the generators are expected to
form a reduced Groebner basis).  The polynomials and monomials are over
that order's variables (see poly.TermOrder), so a leading monomial is
its own sort key.  Distinct index sets give distinct polynomials: under
the conventional order their leading monomials already differ.
"""

from . import matrices
from .fields import QQ
from .poly import leading_term, p_is_zero


def conventional_order(ladder):
    """Term order the family's Groebner claims are stated for."""
    return matrices.order_for(ladder.shape(), ladder.order_kind)


def expand(shape, key, field, order):
    """The minor (rows, cols) or pfaffian (indices,) on an index set,
    over order's variables."""
    if len(key) == 1:
        return matrices.pfaffian(shape, key[0], field, order)
    return matrices.minor(shape, key[0], key[1], field, order)


class RegionTable:
    """Each region's generators, enumerated once per table.

    A node of a corner-removal chain is generated by the minors or
    pfaffians of its regions, and the same few regions recur at almost
    every node.  The table keys a region by ladder.region_id(point, t)
    and keeps its [(index set, leading monomial)] entries, in
    region_keys order with zero generators left out, and the frozenset
    of their leading monomials.  A ladder's natural generators are then
    merged from its regions' entries.  A table reads one term order,
    shape and field, and serves the ladders of one set of dimensions
    (region_id leaves them out): the nodes of one chain, or one ladder
    alone."""

    def __init__(self, order, shape, field=QQ):
        self.order = order
        self.shape = shape
        self.field = field
        self._regions = {}

    def region(self, ladder, point, t):
        """(entries, leading monomials) of the region (point, t) of the
        ladder; a leading monomial is read off its index set, and the
        generator expanded only when that rule is not exact under the
        table's order."""
        ident = ladder.region_id(point, t)
        got = self._regions.get(ident)
        if got is None:
            shape, order, field = self.shape, self.order, self.field
            entries = []
            for key in ladder.region_keys(point, t):
                if len(key) == 1:
                    lead = matrices.pfaffian_leading(shape, key[0], order)
                else:
                    lead = matrices.minor_leading(shape, key[0], key[1], order)
                if lead is None:
                    g = expand(shape, key, field, order)
                    if p_is_zero(g):
                        continue
                    lead = leading_term(g, order)[0]
                entries.append((key, lead))
            got = self._regions[ident] = (entries, frozenset(lead for _, lead in entries))
        return got

    def index_sets(self, ladder):
        """The ladder's [(index set, leading monomial)], each index set
        once, where it first occurs in sizes() order, then sorted stably
        by (degree, leading monomial)."""
        merged = {}
        for point, t in ladder.sizes():
            for entry in self.region(ladder, point, t)[0]:
                merged.setdefault(entry[0], entry)
        return sorted(merged.values(), key=lambda e: (_degree(e[0]), e[1]))

    def leading_monomials(self, ladder):
        """Frozenset of the leading monomials of the ladder's natural
        generators: the union of its regions' sets."""
        sets = [self.region(ladder, point, t)[1] for point, t in ladder.sizes()]
        return sets[0] if len(sets) == 1 else frozenset().union(*sets)


def index_sets(ladder, order=None, shape=None, field=QQ):
    """[(index set, leading monomial)] of the nonzero natural generators,
    each index set once, sorted by (degree, leading monomial) under order
    (conventional order by default), from a table of the ladder's own
    (RegionTable.index_sets).  A generator is expanded only when its
    leading monomial cannot be read off its index set under this order;
    shape is read as in natural_generators."""
    if order is None:
        order = conventional_order(ladder)
    if shape is None:
        shape = ladder.shape()
    return RegionTable(order, shape, field).index_sets(ladder)


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
    if order is None:
        order = conventional_order(ladder)
    if shape is None:
        shape = ladder.shape()
    sets = index_sets(ladder, order, shape, field)
    return [expand(shape, key, field, order) for key, _ in sets]


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
    return sorted(set(leading_monomials(ladder, order, field=field)))
