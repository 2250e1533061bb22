"""Corner-removal recursion and its verification.

Chain unfolds an instance into a DAG of nodes: every non-terminal
node L splits into a reduced instance (one size lowered, written B
below) and a middle instance (the corner cell removed, written A), with
the corner variable f as multiplier.  The driving identity is that the
initial ideal of L is A + f*B, a basic double link of height-1 type.

All ideals of a chain live in one polynomial ring, the ring of the top
instance's variables (Chain.ambient) numbered by the chain's term order
(see poly.TermOrder), as the identity relates ideals of one ring.  A
monomial is only read in that ring; the chain's certificate and
complexes name its variables by their cells.  A node's ideals are built
once per chain and shared by every step the node takes part in.  Reading
a node's ideal in a larger ring changes no verdict: the Hilbert
numerator does not depend on the number of variables, so neither the
codimension nor the Hilbert identity does, and the extra variables are
cone points of the node's complex (see Chain._walk).

Verification is deliberately two-route.  The combinatorial route reads
the leading monomial of every natural generator off its index set and
never expands a minor or pfaffian: a node's leading monomials are the
union of its regions' sets in the chain's region table
(families.RegionTable), which enumerates each region once per chain; the
oracle route expands the generators and recomputes initial ideals
from an exact Buchberger completion of each node's generators, which
reuses the S-pairs other nodes of the chain settled (Chain.oracle_initial)
but trusts no leading monomial read off an index set.  The leading
monomials of any Groebner basis generate the initial ideal, so a node's
oracle initial ideal is read off its completion; only the top instance,
whose generators are checked to be its reduced basis, is interreduced
(Chain.oracle_basis).  Both routes must satisfy the Hilbert series
identity HS(R/C) = z HS(R/B) + (1 - z) HS(R/A), checked on the
numerators as K_C = z K_B + (1 - z) K_A, which covers every degree at
once, and the two routes must agree on the initial ideal of every
instance.  The chain keeps one numerator per node (Chain.numerator):
where a step is a double link the identity is the numerator's own
derivation from the children's, and elsewhere the numerator is the
pivot recursion's on the generators.  A completion whose leading
monomials are exactly the ones read off the index sets gives the
combinatorial ideal itself, whose numerator the oracle route reads from
the chain.  Heights are checked against the cell count of the shifted
ladder, codimensions against the pole of the Hilbert series, and
shedding conditions at every removed corner.

A chain is walked once, children first, when it is built (Chain._walk).
The walk sets what every pipeline reads of a node on its one record
(ChainNode): its initial ideal, and at a step the double-link and
shedding verdicts (Chain.is_double_link, Chain.shedding).  It builds
every complex of the chain on the way and keeps the top instance's
(Chain.node_complex).  A terminal's ideal is linear, and its complex one
simplex.  Where a step's initial ideals are a basic double link
C = A + f*B with A inside B and f in no generator of either
(Chain.is_double_link), the complex of C is B's together with the
facets of A's that B's lacks, cut by f (SimplicialComplex.double_link),
and the deletion and link of f in it are the links of f in A's and B's
complexes.  So Berge's algorithm runs only on the steps where that
identity fails.  The same guard settles initial-split-identity and
basic-double-link; verify_step builds A + f*B only where it fails.

The walk is also the top complex's decomposability certificate: where
every step is a double link that passes its shedding conditions, the
corners are shedding vertices all the way down (Chain.certifies_vd).
Which certificate a chain gets is decided in one place (vd_certificate):
"chain" there, and elsewhere the tree of the decomposability search
(complexes.is_vertex_decomposable) on the top complex.  A certificate is
checked in one place too (vd_replay): "chain" by the predicate on the
chain at hand, a tree by replaying it against the top complex.  CLI
chain and verify_family both take their certificate from the first, and
replay_chain and verify_family both check it by the second.

Every report document, of verify_family, replay_chain,
verify_localization and each CLI subcommand, is built by report.

The localization section implements the coordinate change used to pass
from a one-sided ladder to a smaller one after inverting a cell: an
exact inverse pair of substitution maps plus ideal membership in both
directions, with denominators cleared by powers of the inverted cell.
Membership is proved by division by the target ideal's generators, and
a Groebner basis is completed only for an image that leaves a remainder
(see verify_localization).
"""

import itertools

from . import mono, poly
from .complexes import (
    SimplicialComplex,
    check_shedding,
    is_vertex_decomposable,
    replay_certificate,
)
from .errors import LadderError, PreconditionError
from .families import RegionTable, conventional_order, expand, natural_generators
from .fields import QQ
from .ladders import OneSidedLadder, _pair, ensure_valid, ladder_from_json
from .monomials import DivisorIndex, MonomialIdeal, check_double_link, minimalize
from .monomials import codim_by_series, hilbert_numerator, series_add, series_mul
from .poly import (
    _monic_entry,
    buchberger_reduced,
    complete,
    groebner_basis,
    is_reduced_groebner,
    leading_term,
    mono_text,
    normal_form,
    p_add,
    p_is_zero,
    p_monic,
    p_mul,
    p_sub,
    p_term_mul,
    p_var,
    p_zero,
    freeze,
    reducers,
)


def _ambient(ladder, order):
    """The ladder's variables in order's ring, in cell order."""
    return [order.var(i, j) for (i, j) in ladder.variables()]


class ChainNode:
    """One node of a chain, and the chain's one record of it: every fact
    kept about a node lives here, in no table on Chain keyed by canon.

    Set when the chain is built: the ladder and canon, the removed corner
    cell (None for a terminal), the canons of its size-lowered child
    (reduced) and cell-removed child (middle), the ladder's height
    formula (read with the chain's region table), parents (how many
    times a step names the node as a child, counted by Chain._build)
    and, by the walk (Chain._walk), its initial ideal (initial) and, at a
    step, whether the step is a basic double link (linked) and its
    shedding verdict (shedding: the failed condition names as a tuple,
    empty when all hold, or None when the step's ideal is not
    squarefree).

    Left None until verify first asks: the lead summary (summary, see
    Chain.lead_summary), the Hilbert numerator (numerator, see
    Chain.numerator) and the oracle initial ideal (oracle, see
    Chain.oracle_initial).  CLI chain and replay ask for none of them."""

    __slots__ = (
        "ladder",
        "canon",
        "cell",
        "reduced",
        "middle",
        "height",
        "parents",
        "initial",
        "linked",
        "shedding",
        "summary",
        "numerator",
        "oracle",
    )

    def __init__(self, ladder, canon, cell=None, table=None):
        self.ladder = ladder
        self.canon = canon
        self.cell = cell
        self.reduced = self.middle = None  # set once the children are built
        self.height = ladder.height_formula(table)
        self.parents = 0
        self.initial = self.linked = self.shedding = None  # set by the walk
        self.summary = self.numerator = self.oracle = None  # set on first query

    def __repr__(self):
        return "ChainNode(%s)" % self.canon


class Chain:
    """Corner-removal DAG of an instance, with the term order, field and
    matrix shape shared by every node (nodes: canon -> ChainNode, each
    node's one record).

    Every node's minors/pfaffians are read from the top instance's shape:
    a node's indices lie inside the top matrix and name the same entries
    there, so the shape's memos read each index set's leading monomial
    once per chain, and expand it once per chain where the oracle route
    asks for the polynomial.  For the same reason every node's ideals and
    complexes live in one ring, over the top instance's variables
    (ambient, a sorted tuple).

    A node is generated by its regions' minors/pfaffians, and the same
    few regions recur at almost every node, so the chain keeps one
    region table (regions, a families.RegionTable): each region's
    [(index set, leading monomial)] entries and their set of leading
    monomials, computed once per chain.  _build hands the same table to
    every split (ladder.split(regions)), so the facts a split asks of a
    region (its cells, whether it holds a generator, which generators the
    size-one cells absorb) are found once per chain too.
    leading_monomials(canon) is the
    union of the node's region sets, built where it is asked for: a
    chain keeps only how many there are and which variables occur in
    them (lead_summary), as the sets of all nodes together would be the
    largest thing it holds.  A node's initial ideal is walked from the
    same sets by degree to the minimal generators
    (RegionTable.initial_ideal), in one sorted ambient tuple shared by
    every ideal of the chain.

    The oracle route names generators by chain ids (ids), and keeps one
    generator store, a list indexed by id: the generator made monic and
    its reducer entry (lm, one, mask), built once per chain by
    poly._monic_entry from the expanded minor or pfaffian, or None for a
    zero generator.  Every completion of the chain starts from copies of
    its node's entries, so no generator is made monic or searched for its
    leading term twice.  The store's leading monomials come from the
    expansions alone, never from the region table or minor_leading, so
    the oracle stays independent of the combinatorial route.

    The chain is walked once, children first, as it is built (_walk):
    _build records that order beside sequence, which keeps its order as
    certificates list it, and counts each node's parents; the
    constructor then sets every node's initial ideal and every step's
    double-link and shedding verdicts, builds every complex on the way,
    and keeps the top's complex and the first step that keeps the chain
    from being a decomposability certificate.  Every pipeline that
    builds a chain (verify_family, CLI chain, replay_chain) reads them,
    so initial_ideal, is_double_link, shedding, node_complex and
    certifies_vd are plain reads.  The walk is the only way a chain
    builds a complex.

    Lead summaries, Hilbert numerators and oracle initial ideals are left
    to the first query, as only verify asks for them.  The first
    numerator query sets every node's in one children-first pass
    (numerator), deriving a double-link step's from its children's, so
    the pivot recursion runs only on terminals and the other steps, with
    no memo shared between nodes."""

    def __init__(self, top, field=QQ):
        self.top = top
        self.field = field
        self.order = conventional_order(top)
        self.shape = top.shape()
        self.ambient = tuple(sorted(_ambient(top, self.order)))
        self.nodes = {}
        self.sequence = []
        self._children_first = []  # the nodes themselves, children first
        self.regions = RegionTable(self.order, self.shape, field)
        self._ids = {}
        self._store = []  # generator store: entry of each id, by id
        self._top_basis = None
        self.spair_record = {}  # S-pairs settled over generator ids
        self.top_canon = self._build(top).canon
        self._walk()

    def _build(self, ladder):
        """The node of the ladder, built with its children unless the
        chain holds it already."""
        canon = ladder.canon()
        node = self.nodes.get(canon)
        if node is not None:
            return node
        split = ladder.split(self.regions)
        node = self.nodes[canon] = ChainNode(ladder, canon, split and split.cell, self.regions)
        self.sequence.append(canon)
        if split is not None:
            middle = self._build(split.middle)
            reduced = self._build(split.reduced)
            middle.parents += 1
            reduced.parents += 1
            node.middle, node.reduced = middle.canon, reduced.canon
        self._children_first.append(node)
        return node

    def steps(self):
        return [c for c in self.sequence if self.nodes[c].cell is not None]

    def index_sets(self, canon):
        """The node's generator index sets with their leading monomials,
        as families.index_sets lists them, merged from the chain's region
        table (not kept: the oracle route merges them once per node)."""
        return self.regions.index_sets(self.nodes[canon].ladder)

    def names(self, canon):
        """The index sets naming the node's generators, in the order of
        generators(canon).  Every node reads one shape over one field, so
        within a chain equal names mean equal polynomials."""
        return [key for key, _ in self.index_sets(canon)]

    def ids(self, canon):
        """names(canon) as chain-local ints, given out in order of first
        use: two ids are equal iff their index sets are.  The oracle names
        generators by these, so its record hashes small ints, and reads
        their entries in the generator store by them."""
        return self._interned(self.names(canon))

    def generators(self, canon):
        """The node's natural generators, expanded (the shape's memo
        expands each index set once per chain)."""
        shape, field, order = self.shape, self.field, self.order
        return [expand(shape, key, field, order) for key in self.names(canon)]

    def _interned(self, names):
        """The ids of the index sets names; a new id gets its generator
        store entry, from the generator's expansion."""
        ids, store = self._ids, self._store
        out = []
        for key in names:
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(store)
                g = expand(self.shape, key, self.field, self.order)
                store.append(_monic_entry(g, self.order, self.field) if g else None)
            out.append(i)
        return out

    def leading_monomials(self, canon):
        """Frozenset of the leading monomials of the node's natural
        generators: the union of its regions' sets in the chain's region
        table, read off the index sets without expanding them and with no
        per-node list (not kept)."""
        return self.regions.leading_monomials(self.nodes[canon].ladder)

    def lead_summary(self, canon):
        """(count, occurring) of leading_monomials(canon): how many there
        are, and the monomial whose variables are those occurring in any
        of them (mono.occurring).  Kept on the node in place of the set."""
        node = self.nodes[canon]
        if node.summary is None:
            leads = self.leading_monomials(canon)
            node.summary = (len(leads), mono.occurring(leads))
        return node.summary

    def initial_ideal(self, canon):
        """The ideal of leading_monomials(canon) in the chain's ring,
        ambient, as the walk set it when the chain was built.  Its Hilbert
        numerator, and so its codimension, is the one it has in the node's
        own ring: the numerator does not depend on the number of
        variables."""
        return self.nodes[canon].initial

    def numerator(self, canon):
        """The Hilbert numerator of initial_ideal(canon), the one
        monomials.hilbert_numerator gives.  The first call sets every
        node's in one pass, children first: a step that passes
        is_double_link takes K_C = (1 - z) K_A + z K_B from its children's
        (_linked_numerator), and a terminal or any other step runs the
        recursion on its generators.  Nothing else computes a numerator,
        so chain and replay, which ask for none, do no Hilbert work.

        Proof of the derivation: at such a step C = A + f*B, with A
        inside B and the variable f in no generator of A or B.  Then
        C + (f) = A + (f), as f*B lies in (f); and C : f = (A : f) + B =
        A + B = B, as A : f = A for f in no generator of A.  The exact
        sequence 0 -> R/(C : f)(-1) -> R/C -> R/(C + (f)) -> 0, whose
        first map is multiplication by f, gives K_C = K(C + (f)) +
        z K(C : f), the split hilbert_numerator makes on a variable; and f
        is regular on R/A, so K(A + (f)) = (1 - z) K_A.  Hence K_C =
        (1 - z) K_A + z K_B.  That is the identity
        hilbert-identity-combinatorial checks: it holds by construction at
        such a step, and is a check at every other one."""
        node = self.nodes[canon]
        if node.numerator is None:
            nodes = self.nodes
            for n in self._children_first:
                if n.linked:
                    n.numerator = _linked_numerator(
                        nodes[n.middle].numerator, nodes[n.reduced].numerator
                    )
                else:
                    n.numerator = hilbert_numerator(n.initial.gens)
        return node.numerator

    def node_complex(self, canon):
        """Simplicial complex of the top instance's initial ideal, on the
        cells of its variables, as the walk of the chain (_walk) built
        it.  Only the top instance's complex is kept, for the
        decomposability search or replay, so canon must be top_canon.  An
        initial ideal that is not squarefree has no complex, and raises
        PreconditionError."""
        if canon != self.top_canon:
            raise PreconditionError("only the top instance's complex is kept")
        if self._top_complex is None:
            raise PreconditionError("ideal is not squarefree")
        return self._top_complex

    def _step(self, canon):
        """The node of a step; a terminal raises PreconditionError."""
        node = self.nodes[canon]
        if node.cell is None:
            raise PreconditionError("terminal instance has no removal step")
        return node

    def is_double_link(self, canon):
        """Whether a step's initial ideals C = in(L), A = in(M) and
        B = in(L') meet the hypotheses of SimplicialComplex.double_link
        with C = A + f*B, for the corner variable f: C is squarefree, f is
        in no generator of A or B, A lies in B, and

            gens(C) = gens(A) + {f*b : b in gens(B) - gens(A)}.

        Given the middle two conditions, the right side is the minimal
        generating set of A + f*B.  A generator a of A stays minimal, as f
        divides no generator of A.  A product f*b with b a generator of B
        is divisible by another f*b' only when b' divides b, so b' = b;
        and by a generator a of A exactly when a divides b, f being in
        neither.  Then a, in B, is divisible by some generator of B, which
        divides b, so it is b and a = b.  Hence f*b is minimal exactly
        when b is not a generator of A.

        A lies in B when each generator of A is one of B (a set test) or
        is divisible by one, which one monomials.DivisorIndex of B decides
        for all the rest.  The walk decides every step as the chain is
        built (node.linked), and the complexes, the numerators and
        verify_step read that verdict.  A terminal node has no step and
        raises PreconditionError."""
        return self._step(canon).linked

    def shedding(self, canon):
        """A step's shedding-at-corner verdict, (ok, failed condition
        names) as check_shedding gives them for its corner in the complex
        of the step's initial ideal, as the walk recorded it when the
        chain was built.  A terminal node has no step, and a step whose
        initial ideal is not squarefree no complex: both raise
        PreconditionError."""
        bad = self._step(canon).shedding
        if bad is None:
            raise PreconditionError("ideal is not squarefree")
        return not bad, list(bad)

    def certifies_vd(self):
        """Whether the chain certifies that the top instance's complex is
        vertex decomposable, as (ok, reason): reason is "ok", or names the
        first step, children first, that keeps it from doing so, as the
        walk (_walk) recorded it.  The chain certifies when

        * every step passes is_double_link,
        * the walk recorded no failed shedding verdict and no step left
          without a complex,
        * every terminal's complex is one simplex that is not void, and
        * the top instance's complex exists.

        The walk builds every terminal's complex as one facet, so the
        third condition always holds, and the second gives the fourth.

        Proof, by induction over the children-first order; decomposable
        is meant as complexes.is_vertex_decomposable decides it (_vd_core,
        after cone points are stripped): a one-facet complex is, and so is
        a pure complex with a vertex v passing check_shedding whose
        deletion and link are.  A terminal's complex is one simplex, so it
        is decomposable.  At a step C = A + f*B that is a double link, the
        deletion of the corner v in Delta(C) is the link of v in Delta(A),
        and its link is the link of v in Delta(B) (the proof of
        SimplicialComplex.double_link).  f is in no generator of A or B,
        so v is a cone point of Delta(A) and of Delta(B), and a link at a
        cone point strips only that cone point: the two links are
        decomposable exactly when Delta(A) and Delta(B) are, which holds
        by induction.  check_shedding passing gives that Delta(C) is pure,
        v no cone point of it, the deletion pure of the dimension of
        Delta(C) and the link pure one lower.  Stripping Delta(C)'s cone
        points, none of them v, lowers all of these dimensions together
        and strips the same points from the deletion and the link, so v
        is a shedding vertex of the stripped complex whose deletion and
        link are decomposable: Delta(C) is decomposable.  At the top this
        is the top instance's complex, so the search, which tries every
        vertex, finds it decomposable too (Provan-Billera, Math. Oper.
        Res. 5 (1980))."""
        if self._vd_breach is None:
            return True, "ok"
        return False, self._vd_breach

    def _walk(self):
        """Walk the nodes once, children first; the constructor calls it,
        and nothing else does.  At each node it sets the initial ideal
        (node.initial), walked from the node's region sets by the chain's
        table (RegionTable.initial_ideal), and at each step, from the
        children's ideals set before it, the double-link verdict
        (node.linked, see is_double_link) and the shedding verdict
        (node.shedding).  It keeps the top instance's complex for
        node_complex, and the first step that is not a double link
        passing its shedding conditions (_vd_breach, a reason naming it,
        or None) for certifies_vd.  The complexes live only while a step
        still has to read them: a child's is dropped after the last of its
        parents' steps.

        Every complex lives in the chain's ring, on the cells of the top
        instance's variables, named once for the whole walk: those
        outside a node's ladder are cone points of its complex.  Coning
        keeps purity and raises the dimension of a complex, and of its
        deletion and link at any other vertex, by the same amount, so
        every shedding verdict is the one of the node's own ring.

        A terminal's complex is one simplex.  split() is None only when
        no region of size at least 2 holds a generator, so a terminal's
        generators are all variables (or there are none), and its
        complex is the simplex on every vertex but their cells, with the
        full ambient set, as Berge's algorithm would build it.  A step
        that passes is_double_link takes its complex from its children's
        (SimplicialComplex.double_link), and the deletion and link of its
        corner from their links.  Both children have one: C is
        squarefree, so are the generators of A, which are C's, and of B,
        each of which is one of A's or divides one of C's, and a node
        whose ideal is squarefree always gets a complex.  Only the other
        steps run Berge's algorithm (SimplicialComplex.from_squarefree);
        one whose ideal is not squarefree gets no complex."""
        nodes, order, regions = self.nodes, self.order, self.regions
        unread = {node.canon: node.parents for node in self._children_first}
        cells = [order.cell(x) for x in self.ambient]
        simplex = SimplicialComplex([cells], cells)
        (every,) = simplex.masks
        # a terminal's generators are variables: each one's vertex bit
        vertex = {mono.var(x): simplex._bit(order.cell(x)) for x in self.ambient}
        complexes = {}
        breach = None
        for node in self._children_first:
            canon, v = node.canon, node.cell
            ideal = node.initial = regions.initial_ideal(node.ladder, self.ambient)
            if v is None:
                cut = sum(map(vertex.__getitem__, ideal.gens))
                complexes[canon] = simplex._derive((every ^ cut,), ())
                continue
            a, b = nodes[node.middle], nodes[node.reduced]
            linked = node.linked = ideal.is_squarefree() and _is_double_link(
                ideal.gens, a.initial.gens, b.initial.gens, order.var(*v)
            )
            cx = None
            if linked:
                a_cx, b_cx = complexes[a.canon], complexes[b.canon]
                cx = SimplicialComplex.double_link(a_cx, b_cx, v)
                _, bad = check_shedding(cx, v, a_cx.link(v), b_cx.link(v))
            elif ideal.is_squarefree():
                cx = SimplicialComplex.from_squarefree(ideal, order.cell)
                _, bad = check_shedding(cx, v)
            for child in (a.canon, b.canon):
                unread[child] -= 1
                if not unread[child]:
                    complexes.pop(child, None)
            if cx is not None:
                complexes[canon] = cx
            node.shedding = None if cx is None else tuple(bad)
            if breach is None and (cx is None or bad or not linked):
                if cx is None:
                    why = "ideal is not squarefree"
                elif not linked:
                    why = "not a basic double link"
                else:
                    why = "shedding conditions fail: " + ", ".join(bad)
                breach = "step %s: %s" % (canon, why)
        self._top_complex = complexes.get(self.top_canon)
        self._vd_breach = breach

    def monic_generators(self, canon):
        """(ids, monic generators, reducer table) of the node's nonzero
        generators, in the order of generators(canon), as fresh lists
        read off the generator store: a zero generator is dropped with
        its id."""
        ids, gens, table = [], [], []
        store = self._store
        for i in self.ids(canon):
            entry = store[i]
            if entry is not None:
                ids.append(i)
                gens.append(entry[0])
                table.append(entry[1])
        return ids, gens, table

    def _complete(self, canon, max_spairs):
        """The oracle's completion of a node (poly.complete): its monic
        generators from the store, named by their ids, over the chain's
        shared spair_record.  Returns (G, table)."""
        ids, gens, table = self.monic_generators(canon)
        return complete(
            gens, table, self.order, self.field, max_spairs, ids, self.spair_record
        )

    def oracle_basis(self, canon, max_spairs=None):
        """Reduced basis of the node's ideal: a Buchberger completion of
        its generators, interreduced.  The completions of one chain name
        the generators by ids(canon) and share spair_record, so an S-pair
        that reduced to zero in one node is not reduced again in a node
        holding the generators its division used; the first completion
        starts from an empty record.  Only the top instance's basis is
        read (by verify_node_groebner), and only it is cached."""
        if canon == self.top_canon and self._top_basis is not None:
            return self._top_basis
        gb, table = self._complete(canon, max_spairs)
        basis = poly._interreduce(gb, table, self.order, self.field)
        if canon == self.top_canon:
            self._top_basis = basis
        return basis

    def oracle_initial(self, canon, max_spairs=None):
        """The node's initial ideal by the oracle route, in the chain's
        ring, kept on the node.  The top instance's is read off
        oracle_basis, so the top is completed once.  Any other node's is
        read off the leading monomials of its completion (poly.complete),
        which generate the initial ideal as those of any Groebner basis
        do; minimalize reduces them to the reduced basis's.  No basis is
        kept for such a node.  When the leading monomials found equal
        leading_monomials(canon), the two sets minimalize to the same
        ideal, so initial_ideal(canon) itself is returned."""
        node = self.nodes[canon]
        if node.oracle is None:
            if canon == self.top_canon:
                gb = self.oracle_basis(canon, max_spairs=max_spairs)
                leads = {leading_term(g, self.order)[0] for g in gb}
            else:
                _, table = self._complete(canon, max_spairs)
                leads = {lm for lm, _, _ in table}
            if leads == self.leading_monomials(canon):
                node.oracle = node.initial
            else:
                node.oracle = MonomialIdeal._minimal(
                    tuple(minimalize(leads)), self.ambient
                )
        return node.oracle


def _is_double_link(c_gens, a_gens, b_gens, fvar):
    """Chain.is_double_link on minimal generators, C's squarefreeness
    aside: the variable fvar in no generator of A or B, A inside B, and
    gens(C) = gens(A) + {f*b : b in gens(B) - gens(A)}."""
    if any(mono.exponent(mono.occurring(gens), fvar) for gens in (a_gens, b_gens)):
        return False
    own = set(b_gens)
    outside = [a for a in a_gens if a not in own]
    if outside and DivisorIndex(b_gens).survivors(outside):
        return False
    common = set(a_gens)
    f = mono.var(fvar)
    linked = common.union(mono.mul(f, b) for b in b_gens if b not in common)
    return len(c_gens) == len(linked) and linked.issuperset(c_gens)


# ---------------------------------------------------------------------------
# per-node and per-step checks


def _check(name, ok, detail=""):
    return {"name": name, "pass": bool(ok), "detail": detail}


def report(instance, checks, **extra):
    """A report document (schema laddergb-report/1) on the JSON instance:
    the extra fields, then the checks, unless None, and their verdict
    pass."""
    doc = {"schema": "laddergb-report/1", "instance": instance, **extra}
    if checks is not None:
        doc["checks"] = checks
        doc["pass"] = all(c["pass"] for c in checks)
    return doc


def initial_ideal(ladder, order, field=QQ):
    """Monomial ideal of the leading monomials of the ladder's natural
    generators under order, in the ladder's own ambient ring, built as a
    chain builds a node's (RegionTable.initial_ideal) from a table of the
    ladder's own.  The monomials are read off the index sets; field is
    used only where a generator has to be expanded (see
    families.leading_monomials)."""
    table = RegionTable(order, ladder.shape(), field)
    return table.initial_ideal(ladder, tuple(sorted(_ambient(ladder, order))))


def groebner_checks(gens, order, field, max_spairs=None):
    """The generators must be a Buchberger fixed point: the reduced
    basis of their ideal is the generators themselves (up to scaling),
    and they pass the reduced-basis predicate.  The generators are
    completed here, named by position, over a fresh record, which the
    predicate reads (_fixed_point_checks)."""
    names, record = range(len(gens)), {}
    basis = buchberger_reduced(
        gens, order, field, max_spairs=max_spairs, names=names, record=record
    )
    monic = [p_monic(g, order, field) for g in gens]
    return _fixed_point_checks(monic, basis, order, field, max_spairs, names, record)


def _fixed_point_checks(monic, basis, order, field, max_spairs, names, record):
    """groebner-fixed-point and reduced-basis-predicate on the monic
    generators, against their reduced basis.  names and record are the
    names and S-pair record the basis's completion used; the predicate
    reads them (see poly.is_reduced_groebner), so the S-pairs the
    completion reduced to zero are not reduced again."""
    same = {freeze(g) for g in monic} == {freeze(g) for g in basis}
    return [
        _check(
            "groebner-fixed-point",
            same,
            "%d generators, %d basis elements" % (len(monic), len(basis)),
        ),
        _check(
            "reduced-basis-predicate",
            is_reduced_groebner(
                monic, order, field, max_spairs=max_spairs, names=names, record=record
            ),
        ),
    ]


def squarefree_check(ideal):
    return _check("initial-squarefree", ideal.is_squarefree())


def height_check(h, k):
    """Codimension of an ideal read off its Hilbert numerator k (the
    (1-z)-adic order of k, codim_by_series), against h, the ladder's
    closed height formula; returns (check, codimension)."""
    codim = codim_by_series(k)
    detail = "codim %d, formula %d" % (codim, h)
    return _check("codim-equals-height", codim == h, detail), codim


def vd_checks(cx, max_faces=None):
    """Vertex decomposability of a complex by the search under max_faces,
    and a replay of the shedding certificate found.  Returns (checks,
    certificate); the certificate is None when the complex is not vertex
    decomposable."""
    _, cert = is_vertex_decomposable(cx, max_faces=max_faces)
    return _vd_checks(cx, cert, lambda c: replay_certificate(cx, c)), cert


def _vd_checks(cx, cert, replay):
    """vertex-decomposable on the complex cx, passing when there is a
    certificate cert, and certificate-replay with replay(cert)'s (ok,
    reason) when there is."""
    detail = "%d facets" % len(cx.masks)
    checks = [_check("vertex-decomposable", cert is not None, detail)]
    if cert is not None:
        checks.append(_check("certificate-replay", *replay(cert)))
    return checks


def vd_certificate(chain, max_faces=None):
    """The decomposability certificate of the chain's top complex: "chain"
    where the chain is one (Chain.certifies_vd), and elsewhere the tree of
    the search on the top complex under max_faces, or None when it is not
    vertex decomposable.  The top's initial ideal must be squarefree
    (Chain.node_complex)."""
    if chain.certifies_vd()[0]:
        return "chain"
    return is_vertex_decomposable(chain.node_complex(chain.top_canon), max_faces)[1]


def vd_replay(chain, vd):
    """Check a decomposability certificate of the chain's top complex,
    as vd_certificate gives it or a chain certificate records it, as
    (ok, reason).  "chain" is checked by the chain's own predicate
    (Chain.certifies_vd), whose reason names the first step where it
    fails; any other value is read as the search's tree
    (vd_cert_from_json) and replayed against the top complex, and fails
    with "malformed node" unless it parses as one."""
    if vd == "chain":
        return chain.certifies_vd()
    try:
        tree = vd_cert_from_json(vd)
    except LadderError as e:
        return False, str(e)
    return replay_certificate(chain.node_complex(chain.top_canon), tree)


def verify_node_groebner(chain, canon, max_spairs=None):
    """groebner_checks' two checks on a node's natural generators, made
    monic in the chain's generator store, against the chain's oracle
    basis (computed once per node and shared with the oracle route of
    verify_step).  The predicate reads the chain's S-pair record, so it
    does not repeat the completion's reductions."""
    basis = chain.oracle_basis(canon, max_spairs=max_spairs)
    ids, monic, _ = chain.monic_generators(canon)
    return _fixed_point_checks(
        monic, basis, chain.order, chain.field, max_spairs, ids, chain.spair_record
    )


def verify_node_initial(chain, canon):
    """Squarefreeness and the codimension/height agreement of the
    initial ideal.  Its codimension is read off the chain's numerator of
    the node (Chain.numerator), which does not depend on the number of
    variables, so it is the codimension in the node's own ring."""
    height, _ = height_check(chain.nodes[canon].height, chain.numerator(canon))
    return [squarefree_check(chain.initial_ideal(canon)), height]


def _linked_numerator(k_a, k_b):
    """z K_B + (1 - z) K_A = K_A + z (K_B - K_A): the Hilbert numerator
    of C = A + f*B at a basic double link, from those of A and B (see
    Chain.numerator), by one subtraction shifted up one degree."""
    diff = [b - a for a, b in itertools.zip_longest(k_a, k_b, fillvalue=0)]
    return series_add(k_a, [0] + diff)


def _hilbert_identity(k_c, k_a, k_b):
    """K_C = z K_B + (1 - z) K_A for the Hilbert numerators.  The lowest
    power of z where the two sides differ is the lowest degree where the
    Hilbert functions do."""
    diff = series_add(k_c, series_mul((-1,), _linked_numerator(k_a, k_b)))
    if not diff:
        return True, "every degree"
    return False, "fails at degree %d" % next(d for d, c in enumerate(diff) if c)


def verify_step(chain, canon, max_spairs=None):
    """All checks tied to one corner removal L -> (A, B, f)."""
    node = chain._step(canon)
    fvar = chain.order.var(*node.cell)
    f = mono.var(fvar)
    out = []

    c_count, _ = chain.lead_summary(canon)
    a_count, a_vars = chain.lead_summary(node.middle)
    b_count, _ = chain.lead_summary(node.reduced)
    c_ideal = chain.initial_ideal(canon)
    a_ideal = chain.initial_ideal(node.middle)
    b_ideal = chain.initial_ideal(node.reduced)
    # Where the step is a double link (Chain.is_double_link), gens(C) is
    # the minimal generating set of A + f*B, A is colon-stable along f, as
    # f is in no generator of A, and A lies in B: both identities below
    # hold.  Elsewhere A + f*B, built once, is compared against C by both:
    # minimal generating sets in one ring, so the corner multiples of a
    # region untouched by the removal are absorbed.
    link_detail = "C = A + f*B as ideals"
    if chain.is_double_link(canon):
        split = linked = True
    else:
        split = linked = a_ideal.plus(mono.mul(f, g) for g in b_ideal.gens) == c_ideal
        try:
            check_double_link(a_ideal, b_ideal, f)
        except PreconditionError as e:
            linked, link_detail = False, str(e)
    out.append(
        _check(
            "initial-split-identity",
            split,
            "%d = %d + %d monomials (%d minimal)"
            % (c_count, a_count, b_count, len(c_ideal.gens)),
        )
    )
    untouched = not mono.exponent(a_vars, fvar)
    out.append(_check("corner-avoids-middle", untouched))

    h_l = node.height
    h_m = chain.nodes[node.middle].height
    h_r = chain.nodes[node.reduced].height
    out.append(
        _check(
            "height-step",
            h_m == h_l - 1 and h_r == h_l,
            "h(L)=%d, h(M)=%d, h(L')=%d" % (h_l, h_m, h_r),
        )
    )

    out.append(_check("basic-double-link", linked, link_detail))

    keys = (canon, node.middle, node.reduced)
    ks = [chain.numerator(key) for key in keys]
    out.append(_check("hilbert-identity-combinatorial", *_hilbert_identity(*ks)))

    # independent route: initial ideals from a Buchberger pass
    oracle = {key: chain.oracle_initial(key, max_spairs) for key in keys}
    # Both sides are minimal generating sets in canonical order in one ring.
    same = all(oracle[key] == chain.initial_ideal(key) for key in oracle)
    out.append(
        _check(
            "oracle-initial-match",
            same,
            "raw leading terms generate the oracle initial ideal (L, M, L')",
        )
    )
    # an oracle ideal that is the chain's own has the chain's numerator
    for i, key in enumerate(keys):
        if oracle[key] is not chain.initial_ideal(key):
            ks[i] = hilbert_numerator(oracle[key].gens)
    out.append(_check("hilbert-identity-oracle", *_hilbert_identity(*ks)))

    shed_ok, bad = chain.shedding(canon)
    out.append(
        _check(
            "shedding-at-corner",
            shed_ok,
            "corner (%d, %d)" % node.cell + ("" if shed_ok else ": " + ", ".join(bad)),
        )
    )
    return out


def verify_family(top, field=QQ, max_spairs=None, max_faces=None):
    """Full verification run for one instance: reduced-basis status of
    the instance itself, squarefreeness and codimension at every node,
    all per-step checks, plus decomposability of the top complex.
    Returns (report, chain, decomposability certificate).

    The certificate is the one CLI chain writes (vd_certificate): "chain"
    where the chain certifies decomposability, with no search run, and
    elsewhere the search's tree under max_faces, or None when the top
    complex is not vertex decomposable.  vertex-decomposable passes when
    there is one, and certificate-replay checks it as replay_chain checks
    a recorded one (vd_replay).

    The reduced-basis fixed point is asserted for the top instance only.
    Children of a removal step can present non-interreduced natural
    generators (a nested region of lower minor size makes some leading
    terms divisible by others), so for chain-internal nodes the claim
    checked is the basis property itself: their leading terms generate
    the oracle initial ideal, covered by oracle-initial-match at each
    step they participate in."""
    chain = Chain(top, field)
    checks = []

    def add(canon, found):
        for c in found:
            c["instance"] = canon
            checks.append(c)

    root = chain.top_canon
    add(root, verify_node_groebner(chain, root, max_spairs))
    for canon in chain.sequence:
        add(canon, verify_node_initial(chain, canon))
    for canon in chain.steps():
        add(canon, verify_step(chain, canon, max_spairs))
    cx = chain.node_complex(root)
    cert = vd_certificate(chain, max_faces)
    add(root, _vd_checks(cx, cert, lambda vd: vd_replay(chain, vd)))
    return report(top.to_json(), checks, field=field.name), chain, cert


# ---------------------------------------------------------------------------
# chain certificates


# the schema chain_certificate writes, and every one replay_chain reads: a
# laddergb-chain/1 certificate's vd is always a tree, which /2 also allows
CHAIN_SCHEMA = "laddergb-chain/2"
CHAIN_SCHEMAS = ("laddergb-chain/1", CHAIN_SCHEMA)


def vd_cert_from_json(data):
    """The certificate node of its JSON form.  Raises LadderError
    "malformed node" unless every node is a leaf or a split with a
    vertex, a deletion and a link, and every cell is a pair of ints (read
    as the instance reader reads a point)."""
    try:
        cone = [_pair(c, "cell") for c in data.get("cone", [])]
        out = {"cone": cone, "kind": data.get("kind")}
        if out["kind"] == "leaf":
            out["facet"] = sorted(_pair(c, "cell") for c in data.get("facet", []))
            return out
        if out["kind"] == "split":
            out["vertex"] = _pair(data["vertex"], "cell")
            out["deletion"] = vd_cert_from_json(data["deletion"])
            out["link"] = vd_cert_from_json(data["link"])
            return out
    except (AttributeError, KeyError, LadderError, TypeError):
        pass
    raise LadderError("malformed node")


def node_records(chain):
    """Yield the record of each node of the chain, in chain order: its
    structure, initial ideal and height, as a chain certificate lists
    them.  Each distinct monomial is rendered once, and its text shared
    by every record that holds it."""
    texts = {}

    def text(m):
        t = texts.get(m)
        if t is None:
            t = texts[m] = mono_text(m, chain.order)
        return t

    for canon in chain.sequence:
        node = chain.nodes[canon]
        ideal = chain.initial_ideal(canon)
        yield {
            "id": canon,
            "instance": node.ladder.to_json(),
            "terminal": node.cell is None,
            "cell": list(node.cell) if node.cell else None,
            "reduced": node.reduced,
            "middle": node.middle,
            "initial": sorted(text(g) for g in ideal.gens),
            "height": node.height,
        }


def chain_certificate(chain, vd_cert=None, nodes=None):
    """Serializable record of a chain: its node_records, and optionally
    a decomposability certificate: "chain" where the chain is one
    (Chain.certifies_vd), or the tree of
    complexes.is_vertex_decomposable.  nodes stands for the list of node
    records when given: CLI chain hands node_records(chain) itself, whose
    writer renders each record as it is yielded, so the list is never
    held whole."""
    out = {
        "schema": CHAIN_SCHEMA,
        "field": chain.field.name,
        "order": chain.top.order_kind,
        "top": chain.top.to_json(),
        "nodes": list(node_records(chain)) if nodes is None else nodes,
    }
    if vd_cert is not None:
        out["vd"] = vd_cert
    return out


# replay check -> the fields of a node record it compares; with the id
# they cover every field node_records records
_NODE_FACTS = (
    ("node-structure", ("instance", "terminal", "cell", "reduced", "middle")),
    ("node-initial", ("initial",)),
    ("node-height", ("height",)),
)


def replay_chain(cert, field=QQ):
    """Recompute a chain from its certificate's top instance over field
    and check every recorded fact, the field and term order included:
    each recorded node is compared against the recomputed chain's
    node_records, one record at a time, and node-set fails unless every
    recomputed node is recorded exactly once.  A recorded vd of "chain"
    passes vd-replay when the recomputed chain certifies decomposability
    (Chain.certifies_vd), whose reason names the first step where it
    does not; any other vd is replayed as the search's tree against the
    top complex, and fails with "malformed node" unless it parses as
    one (vd_replay).  Returns a report dict; a document that is not a
    chain certificate of a schema in CHAIN_SCHEMAS, or whose top, node
    list or node ids are malformed, or whose top validate rejects,
    raises LadderError."""
    if not isinstance(cert, dict) or cert.get("schema") not in CHAIN_SCHEMAS:
        raise LadderError(
            "not a chain certificate (expected schema %s)" % " or ".join(CHAIN_SCHEMAS)
        )
    top = ensure_valid(ladder_from_json(cert.get("top", {})))
    nodes = cert.get("nodes", [])
    if not isinstance(nodes, list) or not all(
        isinstance(n, dict) and isinstance(n.get("id"), str) for n in nodes
    ):
        raise LadderError("certificate nodes must be a list of objects with a string id")
    chain = Chain(top, field)
    recorded = {n["id"]: n for n in nodes}
    checks = [
        _check(
            "certificate-field",
            cert.get("field") == field.name,
            "recorded %s, replayed over %s" % (cert.get("field"), field.name),
        ),
        _check(
            "certificate-order",
            cert.get("order") == top.order_kind,
            "recorded %s, conventional %s" % (cert.get("order"), top.order_kind),
        ),
        _check(
            "node-set",
            sorted(n["id"] for n in nodes) == sorted(chain.sequence),
            "%d recorded, %d recomputed" % (len(nodes), len(chain.sequence)),
        ),
    ]
    for fresh in node_records(chain):
        rec = recorded.get(fresh["id"])
        if rec is None:
            continue
        for name, keys in _NODE_FACTS:
            ok = all(rec.get(k) == fresh[k] for k in keys)
            checks.append(_check(name, ok, fresh["id"]))
    for canon in chain.steps():
        ok, bad = chain.shedding(canon)
        checks.append(
            _check("shedding-at-corner", ok, canon if ok else ", ".join(bad))
        )
    if "vd" in cert:
        checks.append(_check("vd-replay", *vd_replay(chain, cert["vd"])))
    return report(cert.get("top"), checks, field=field.name)


# ---------------------------------------------------------------------------
# localization at a cell of a one-sided ladder


def _affected_range(ladder, cell):
    u, v = cell
    hit = [
        k
        for k, r in enumerate(ladder.regions())
        if u <= r.point[0] and v >= r.point[1]
    ]
    if not hit:
        raise LadderError("cell (%d, %d) lies in no region" % cell)
    return hit


def localization_maps(ladder, cell, field=QQ):
    """Substitution pair (phi, psi) used after inverting the cell's
    variable.  Each map sends a variable x to (numerator, e) meaning
    numerator / x_cell^e; variables in the inverted cell's row or
    column are fixed.  psi is the exact inverse of phi.  Variables are
    those of the ladder's conventional order."""
    order = conventional_order(ladder)
    if not isinstance(ladder, OneSidedLadder):
        raise PreconditionError("localization maps are built for one-sided ladders")
    u, v = cell
    if cell not in set(ladder.cells()):
        raise LadderError("cell (%d, %d) is not a ladder cell" % cell)
    hit = _affected_range(ladder, cell)
    regions = ladder.regions()
    for k in hit:
        if regions[k].t < 2:
            raise PreconditionError(
                "affected region %d has size below 2; the localized ideal is the unit ideal"
                % k
            )
    affected = set()
    for k in hit:
        affected |= regions[k].cells
    var = order.var
    uv = var(u, v)
    phi, psi = {}, {}
    for (i, j) in ladder.cells():
        x = var(i, j)
        if (i, j) in affected and i != u and j != v:
            correction = p_term_mul(
                p_var(var(i, v), field), mono.var(var(u, j)), field.one, field
            )
            base = p_term_mul(p_var(x, field), mono.var(uv), field.one, field)
            phi[x] = (p_add(base, correction, field), 1)
            psi[x] = (p_sub(base, correction, field), 1)
        else:
            phi[x] = (p_var(x, field), 0)
            psi[x] = (p_var(x, field), 0)
    return phi, psi


def substitute(p, mapping, uv, field=QQ):
    """Apply a localization map to a polynomial; returns (numerator, e)
    with the common denominator x_uv^e cleared."""
    parts = []
    maxden = 0
    for m, c in p.items():
        num = {mono.ONE: c}
        den = 0
        for var in mono.variables(m):
            img, e = mapping[var]
            for _ in range(mono.exponent(m, var)):
                num = p_mul(num, img, field)
                den += e
        parts.append((num, den))
        maxden = max(maxden, den)
    total = p_zero()
    for num, den in parts:
        pad = maxden - den
        if pad:
            num = p_term_mul(num, mono.var(uv, pad), field.one, field)
        total = p_add(total, num, field)
    return total, maxden


def localized_ideal_generators(ladder, cell, field=QQ, shape=None, order=None):
    """Generators of the ideal seen after inverting the cell: affected
    regions lose the cell's row and column and drop one minor size,
    untouched regions keep their minors.  The index sets come from
    ladder.region_keys, each once, in region order; shape and order are
    read as in natural_generators (ladder.shape() and the conventional
    order by default)."""
    u, v = cell
    hit = set(_affected_range(ladder, cell))
    if order is None:
        order = conventional_order(ladder)
    if shape is None:
        shape = ladder.shape()
    keys = {}  # index sets, each once, in the order first met
    for k, (point, t) in enumerate(ladder.sizes()):
        if k not in hit:
            keys.update(dict.fromkeys(ladder.region_keys(point, t)))
        elif t >= 2:
            for rows, cols in ladder.region_keys(point, t - 1):
                if u not in rows and v not in cols:
                    keys[rows, cols] = None
    return [expand(shape, key, field, order) for key in keys]


# the largest power of the inverted cell a membership check multiplies an
# image by (see verify_localization)
_MAX_POWER = 3


def verify_localization(ladder, cell, field=QQ, max_spairs=None):
    """Checks that the substitution pair is an exact inverse pair and
    that it carries each ideal into the other after clearing
    denominators (allowing a small extra power of the inverted cell):
    forward-membership sends the ladder's generators into the localized
    ideal, reverse-membership the localized generators into the ladder's
    ideal.

    Each image p is first divided by the target ideal's own generators
    (see _memberships), times uv^e for e = 0.._MAX_POWER, uv the
    inverted cell's variable.  A zero remainder proves membership
    whether or not those generators are a Groebner basis: the division
    wrote uv^e * p as a combination sum(q_i * g_i) of them.  A nonzero
    remainder proves nothing without a basis, so only when every power
    leaves one is the target completed (once per check) and the image
    decided against the completion.  The verdicts are therefore those of
    completing both ideals before testing any image.  max_spairs bounds
    the S-pair reductions of each completion that actually runs; where
    every image divides to zero, as on every passing cell of a ladder
    whose generators are a Groebner basis, none runs and no budget is
    spent."""
    order = conventional_order(ladder)
    phi, psi = localization_maps(ladder, cell, field)
    uv = order.var(*cell)
    checks = []

    ok = True
    for (i, j) in ladder.cells():
        x = order.var(i, j)
        for first, second in ((phi, psi), (psi, phi)):
            num, e = first[x]
            num2, e2 = substitute(num, second, uv, field)
            want = p_var(x, field)
            if e + e2:
                want = p_term_mul(want, mono.var(uv, e + e2), field.one, field)
            if freeze(num2) != freeze(want):
                ok = False
    checks.append(_check("inverse-pair", ok, "composition fixes every variable"))

    shape = ladder.shape()
    gens = natural_generators(ladder, field, order, shape)
    hat_gens = localized_ideal_generators(ladder, cell, field, shape, order)
    fwd_ok = _memberships(
        (substitute(g, phi, uv, field)[0] for g in gens),
        hat_gens, order, field, uv, max_spairs,
    )
    fwd_detail = "" if fwd_ok else "a generator image escapes the localized ideal"
    checks.append(_check("forward-membership", fwd_ok, fwd_detail))

    rev_ok = _memberships(
        (substitute(g, psi, uv, field)[0] for g in hat_gens),
        gens, order, field, uv, max_spairs,
    )
    rev_detail = "" if rev_ok else "a localized generator image escapes the ladder ideal"
    checks.append(_check("reverse-membership", rev_ok, rev_detail))

    return report(ladder.to_json(), checks, cell=list(cell))


def _memberships(images, gens, order, field, uv, max_spairs):
    """Whether each polynomial of images, times uv^e for some
    e <= _MAX_POWER, lies in ideal(gens); stops at the first that does
    not.  An image is divided by the nonzero generators first and is in
    the ideal when a remainder is zero.  The completion of gens (under
    max_spairs) is computed only when an image leaves a remainder at
    every power, at most once, and decides that image."""
    gens = [g for g in gens if g]
    table = reducers(gens, order)
    basis = None
    for p in images:
        if _member_with_saturation(p, gens, table, order, field, uv):
            continue
        if basis is None:
            basis = groebner_basis(gens, order, field, max_spairs)
        if not _member_with_saturation(p, *basis, order, field, uv):
            return False
    return True


def _member_with_saturation(p, G, table, order, field, uv):
    """Whether uv^e * p leaves a zero remainder on division by G for some
    e <= _MAX_POWER; table is G's reducer table.  A zero remainder proves
    membership in ideal(G); when G is a Groebner basis, so does nothing
    else."""
    if p_is_zero(p):
        return True
    work = dict(p)
    for _ in range(_MAX_POWER + 1):
        if p_is_zero(normal_form(work, G, order, field, table)):
            return True
        work = p_term_mul(work, mono.var(uv), field.one, field)
    return False
