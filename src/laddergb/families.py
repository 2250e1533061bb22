"""Natural generators of the four ladder families.

The ladder classes own the enumeration: ladder.region_keys(point, t)
lists the index sets of one region's defining minors/pfaffians,
(rows, cols) for a minor and (indices,) for a pfaffian, and
ladder.region_id(point, t) names what that list depends on.  A
RegionTable pairs each index set with its leading monomial, read off the
index set (matrices.minor_leading, pfaffian_leading) without expanding
anything unless that rule is not exact for the order at hand, once per
region: a chain keeps one table for all its nodes (linkage.Chain), and
index_sets makes one for a ladder alone.  The same table answers the
corner split's questions about a region: its cells, whether it holds a
generator and which of its generators are absorbed by the size-one
cells (absorbed_keys), and the height formula's: the cell masks each
region adds to it (shifted).  A ladder's list merges its regions'
entries.
Two routes read that list:

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
from .monomials import MonomialIdeal, _squarefree, minimal_levels
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
    region_keys order with zero generators left out, the frozenset of
    their leading monomials, and whether that set is squarefree.  A
    ladder's natural generators are then merged from its regions'
    entries.  A table reads one term order, shape and field, and serves
    the ladders of one set of dimensions (region_id leaves them out): the
    nodes of one chain, or one ladder alone.  Every leading monomial of a
    region of size t has degree t, as a t-minor or a 2t-pfaffian is
    homogeneous of degree t, so a ladder's minimal generators are built
    from these sets level by level (initial_ideal).

    The table also answers the corner split (ladders._Ladder.split):
    each region's cells and whether it holds a generator (facts), and
    which of its generators keep a term free of the size-one cells
    (absorbed_keys), each found once per region_id, as they depend on
    nothing else among the ladders the table serves.  It also keeps, once
    per (point, t), the int cell masks the region adds to the ladder's
    height formula (shifted, see ladders._Ladder.tilde).  These read no
    term order, shape or field, so a table made for splits or heights
    alone (a ladder's split() or height_formula() with no table) leaves
    them None."""

    def __init__(self, order=None, shape=None, field=QQ):
        self.order = order
        self.shape = shape
        self.field = field
        self._regions = {}
        self._facts = {}  # region_id -> (region_id, cells, holds a generator)
        self._absorbed = {}  # (region_id, positions among its cells) -> index sets
        self._shifted = {}  # (point, t) -> the region's shifted cells, as masks

    def facts(self, ladder, point, t):
        """(region_id, cells, whether it holds a generator) of the region
        (point, t) of the ladder, found once per region: region_id fixes
        both among the ladders the table serves, as it fixes
        region_keys."""
        ident = ladder.region_id(point, t)
        got = self._facts.get(ident)
        if got is None:
            cells = ladder.region_cells(point)
            got = self._facts[ident] = (ident, cells, ladder.holds_generator(point, t))
        return got

    def absorbed_keys(self, ladder, point, t, positions):
        """absorbed_keys of the region (point, t) for the cells positions
        (each cell once, not mirrored), kept under the region_id and the
        positions among the region's cells: every variable of a
        generator's term lies at a region cell, so no other position can
        meet a term.  Outside a generic matrix entry (j, i) holds the
        variable of cell (i, j), so the mirror of each position is
        added."""
        ident, cells, _ = self.facts(ladder, point, t)
        near = cells & positions
        got = self._absorbed.get((ident, near))
        if got is None:
            grid = near
            if ladder.shape().kind != "generic":
                grid = near | {(j, i) for (i, j) in near}
            got = self._absorbed[ident, near] = absorbed_keys(ladder, point, t, grid)
        return got

    def shifted(self, ladder, point, t):
        """ladder._shifted(point, t), the cell masks the region (point, t)
        adds to the ladder's height formula (ladders._Ladder.tilde), kept
        under (point, t): once a chain fixes the dimensions they depend on
        nothing else."""
        got = self._shifted.get((point, t))
        if got is None:
            got = self._shifted[point, t] = ladder._shifted(point, t)
        return got

    def region(self, ladder, point, t):
        """(entries, leading monomials, whether they are all squarefree)
        of the region (point, t) of the ladder; a leading monomial is read
        off its index set, and the generator expanded only when that rule
        is not exact under the table's order."""
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
            leads = frozenset(lead for _, lead in entries)
            got = self._regions[ident] = (entries, leads, _squarefree(leads))
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

    def initial_ideal(self, ladder, ambient):
        """The ideal of leading_monomials(ladder) in the ring of ambient, a
        sorted tuple of distinct variables holding the ladder's.  A region
        of size t holds leading monomials of degree t only, so the
        ladder's region sets are grouped by t and walked to the minimal
        generators level by level (monomials.minimal_levels), with no
        degree computed per monomial.  The minimal generators are a subset
        of the region sets, so the ideal is squarefree when every region
        set is, as region() records once per region; only otherwise are
        the generators scanned."""
        levels = {}
        squarefree = True
        for point, t in ladder.sizes():
            _, leads, flat = self.region(ladder, point, t)
            squarefree = squarefree and flat
            if t in levels:
                levels[t] = levels[t] | leads
            elif leads:
                levels[t] = leads
        return MonomialIdeal._minimal(
            tuple(minimal_levels(levels)), ambient, squarefree or None
        )


def _bijection_avoiding(rows, cols, forbidden):
    """True if some bijection rows -> cols uses no forbidden (row, col)
    pair."""
    if not rows:
        return True
    r = rows[0]
    for i, c in enumerate(cols):
        if (r, c) not in forbidden:
            if _bijection_avoiding(rows[1:], cols[:i] + cols[i + 1 :], forbidden):
                return True
    return False


def _matching_avoiding(elems, forbidden):
    """True if some perfect matching of elems uses no forbidden edge
    (edges are sorted pairs)."""
    if not elems:
        return True
    a = elems[0]
    for i in range(1, len(elems)):
        b = elems[i]
        if (a, b) not in forbidden:
            if _matching_avoiding(elems[1:i] + elems[i + 1 :], forbidden):
                return True
    return False


def absorbed_keys(ladder, point, t, positions):
    """The index sets of the region (point, t), in region_keys order,
    whose generator has a term with no variable at one of positions
    (entries (row, col) of the matrix).  A term of a minor is a bijection
    rows -> cols, one of a pfaffian a perfect matching of its indices.
    The region is absorbed by the positions when it holds a generator and
    this is empty."""
    free = []
    for key in ladder.region_keys(point, t):
        if len(key) == 1:
            avoids = _matching_avoiding(list(key[0]), positions)
        else:
            avoids = _bijection_avoiding(list(key[0]), list(key[1]), positions)
        if avoids:
            free.append(key)
    return tuple(free)


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
