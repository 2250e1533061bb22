"""Corner-removal recursion and its verification.

build_chain unfolds an instance into a DAG of nodes: every non-terminal
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
cone points of the node's complex (see Chain.node_complex).

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
identity HS(R/C) = z HS(R/B) + (1 - z) HS(R/A), checked on the numerators as K_C = z K_B + (1 - z) K_A, which
covers every degree at once, and the two routes must agree on the
initial ideal of every instance.  A completion whose leading monomials
are exactly the ones read off the index sets gives the combinatorial
ideal itself, and a step whose three oracle ideals all are so reports
the combinatorial identity's verdict for the oracle route.  Heights are
checked against the cell count of the shifted ladder, codimensions
against the pole of the Hilbert series, and shedding conditions at every
removed corner.

The localization section implements the coordinate change used to pass
from a one-sided ladder to a smaller one after inverting a cell: an
exact inverse pair of substitution maps plus ideal membership in both
directions, with denominators cleared by powers of the inverted cell.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

from . import mono
from .complexes import (
    SimplicialComplex,
    check_shedding,
    is_vertex_decomposable,
    replay_certificate,
)
from .errors import LadderError, PreconditionError
from .families import (
    RegionTable,
    conventional_order,
    expand,
    leading_monomials,
    natural_generators,
)
from .fields import QQ
from .ladders import OneSidedLadder, ensure_valid, ladder_from_json
from .matrices import minor
from .monomials import MonomialIdeal, check_double_link
from .monomials import codim_by_series, hilbert_numerator, series_add, series_mul
from .poly import (
    buchberger_reduced,
    cell_id,
    groebner_basis,
    id_cell,
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
)


def _ambient(ladder, order):
    """The ladder's variables in order's ring, in cell order."""
    return [order.var(i, j) for (i, j) in ladder.variables()]


@dataclass
class ChainNode:
    ladder: object
    canon: str
    cell: Optional[tuple]  # removed corner, None for terminal nodes
    reduced: Optional[str]  # canon of the size-lowered child
    middle: Optional[str]  # canon of the cell-removed child


class Chain:
    """Corner-removal DAG of an instance, with the term order, field and
    matrix shape shared by every node.

    Every node's minors/pfaffians are read from the top instance's shape:
    a node's indices lie inside the top matrix and name the same entries
    there, so the shape's memos read each index set's leading monomial
    once per chain, and expand it once per chain where the oracle route
    asks for the polynomial.  For the same reason every node's ideals and
    complexes live in one ring, over the top instance's variables
    (ambient).

    A node is generated by its regions' minors/pfaffians, and the same
    few regions recur at almost every node, so the chain keeps one
    region table (regions, a families.RegionTable): each region's
    [(index set, leading monomial)] entries and their set of leading
    monomials, computed once per chain.  leading_monomials(canon) is the
    union of the node's region sets; the sorted list index_sets(canon)
    is merged from the same entries when the oracle route first asks."""

    def __init__(self, top, field=QQ):
        self.top = top
        self.field = field
        self.order = conventional_order(top)
        self.shape = top.shape()
        self.ambient = tuple(_ambient(top, self.order))
        self.nodes = {}
        self.sequence = []
        self.regions = RegionTable(self.order, self.shape, field)
        self._sets_cache = {}
        self._ids = {}
        self._gens_cache = {}
        self._lead_cache = {}
        self._initial_cache = {}
        self._top_basis = None
        self._oracle_initial_cache = {}
        self._top_complex = None
        self.hilbert_memo = {}  # numerators depend only on the generators
        self.spair_record = {}  # S-pairs settled over generator ids
        self.top_canon = self._build(top)

    def _build(self, ladder):
        canon = ladder.canon()
        if canon in self.nodes:
            return canon
        split = ladder.split()
        if split is None:
            node = ChainNode(ladder, canon, None, None, None)
            self.nodes[canon] = node
            self.sequence.append(canon)
            return canon
        node = ChainNode(ladder, canon, split.cell, None, None)
        self.nodes[canon] = node
        self.sequence.append(canon)
        node.middle = self._build(split.middle)
        node.reduced = self._build(split.reduced)
        return canon

    def steps(self):
        return [c for c in self.sequence if self.nodes[c].cell is not None]

    def index_sets(self, canon):
        """The node's generator index sets with their leading monomials,
        as families.index_sets lists them, merged from the chain's region
        table on first use (cached).  Only the oracle route reads them,
        through generators, names and ids."""
        if canon not in self._sets_cache:
            self._sets_cache[canon] = self.regions.index_sets(self.nodes[canon].ladder)
        return self._sets_cache[canon]

    def names(self, canon):
        """The index sets naming the node's generators, in the order of
        generators(canon).  Every node reads one shape over one field, so
        within a chain equal names mean equal polynomials."""
        return [key for key, _ in self.index_sets(canon)]

    def ids(self, canon):
        """names(canon) as chain-local ints, given out in order of first
        use: two ids are equal iff their index sets are.  The oracle names
        generators by these, so its record hashes small ints."""
        ids = self._ids
        return [ids.setdefault(key, len(ids)) for key in self.names(canon)]

    def generators(self, canon):
        """The node's natural generators, expanded (cached)."""
        if canon not in self._gens_cache:
            self._gens_cache[canon] = [
                expand(self.shape, key, self.field, self.order)
                for key, _ in self.index_sets(canon)
            ]
        return self._gens_cache[canon]

    def leading_monomials(self, canon):
        """Frozenset of the leading monomials of the node's natural
        generators: the union of its regions' sets in the chain's region
        table, read off the index sets without expanding them and with no
        per-node list (cached)."""
        if canon not in self._lead_cache:
            self._lead_cache[canon] = self.regions.leading_monomials(
                self.nodes[canon].ladder
            )
        return self._lead_cache[canon]

    def initial_ideal(self, canon):
        """The ideal of leading_monomials(canon) in the chain's ring,
        ambient (cached: it is built once per chain).  Its Hilbert
        numerator, and so its codimension, is the one it has in the
        node's own ring: the numerator does not depend on the number of
        variables."""
        if canon not in self._initial_cache:
            self._initial_cache[canon] = MonomialIdeal(
                self.leading_monomials(canon), self.ambient
            )
        return self._initial_cache[canon]

    def node_complex(self, canon):
        """Simplicial complex of a node's initial ideal, in the chain's
        ring, on the cells of its variables: the top instance's
        variables outside the node's ladder are cone points of it.
        Coning keeps purity and raises the dimension of a complex, and
        of its deletion and link at any other vertex, by the same
        amount, so every shedding verdict is the one of the node's own
        ring.  Only the top instance's complex is kept: the top step's
        shedding check and the decomposability search or replay share
        it."""
        if canon == self.top_canon and self._top_complex is not None:
            return self._top_complex
        cx = SimplicialComplex.from_squarefree(
            self.initial_ideal(canon), self.order.cell
        )
        if canon == self.top_canon:
            self._top_complex = cx
        return cx

    def _oracle_args(self, canon, max_spairs):
        """Arguments of the oracle's completion of a node: its generators,
        named by ids(canon), over the chain's shared spair_record."""
        gens = self.generators(canon)
        return gens, self.order, self.field, max_spairs, self.ids(canon), self.spair_record

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
        basis = buchberger_reduced(*self._oracle_args(canon, max_spairs))
        if canon == self.top_canon:
            self._top_basis = basis
        return basis

    def oracle_initial(self, canon, max_spairs=None):
        """The node's initial ideal by the oracle route, in the chain's
        ring (cached).  The top instance's is read off oracle_basis, so
        the top is completed once.  Any other node's is read off the
        leading monomials of its completion (poly.groebner_basis), which
        generate the initial ideal as those of any Groebner basis do;
        MonomialIdeal minimalizes them to the reduced basis's.  No basis
        is kept for such a node.  When the leading monomials found equal
        leading_monomials(canon), the two sets minimalize to the same
        ideal, so initial_ideal(canon) itself is returned."""
        if canon not in self._oracle_initial_cache:
            if canon == self.top_canon:
                gb = self.oracle_basis(canon, max_spairs=max_spairs)
                leads = {leading_term(g, self.order)[0] for g in gb}
            else:
                _, table = groebner_basis(*self._oracle_args(canon, max_spairs))
                leads = {lm for lm, _, _ in table}
            if leads == self.leading_monomials(canon):
                ideal = self.initial_ideal(canon)
            else:
                ideal = MonomialIdeal(leads, self.ambient)
            self._oracle_initial_cache[canon] = ideal
        return self._oracle_initial_cache[canon]


# ---------------------------------------------------------------------------
# per-node and per-step checks


def _check(name, ok, detail=""):
    return {"name": name, "pass": bool(ok), "detail": detail}


def initial_ideal(ladder, order, field=QQ):
    """Monomial ideal of the leading monomials of the ladder's natural
    generators under order, in the ladder's own ambient ring.  The
    monomials are read off the index sets; field is used only where a
    generator has to be expanded (see families.leading_monomials)."""
    return MonomialIdeal(
        set(leading_monomials(ladder, order, field=field)), _ambient(ladder, order)
    )


def groebner_checks(
    gens, order, field, max_spairs=None, basis=None, names=None, record=None
):
    """The generators must be a Buchberger fixed point: the reduced
    basis of their ideal is the generators themselves (up to scaling),
    and they pass the reduced-basis predicate.  basis is that reduced
    basis when the caller already has it, and names and record the names
    and S-pair record its completion used; the predicate reads them (see
    poly.is_reduced_groebner), so the S-pairs the completion reduced to
    zero are not reduced again.  Without a basis the generators are
    completed here, named by position, over a fresh record."""
    if basis is None:
        names, record = range(len(gens)), {}
        basis = buchberger_reduced(
            gens, order, field, max_spairs=max_spairs, names=names, record=record
        )
    monic = [p_monic(g, order, field) for g in gens]
    same = {freeze(g) for g in monic} == {freeze(g) for g in basis}
    return [
        _check(
            "groebner-fixed-point",
            same,
            "%d generators, %d basis elements" % (len(gens), len(basis)),
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


def height_check(ladder, ideal, memo):
    """Codimension of the squarefree ideal, read off its Hilbert series
    (the (1-z)-adic order of the numerator), against the ladder's closed
    height formula; returns (check, codimension).  memo is a Hilbert
    numerator memo, as Chain.hilbert_memo."""
    if not ideal.is_squarefree():
        raise PreconditionError("ideal is not squarefree")
    codim = codim_by_series(ideal, memo)
    h = ladder.height_formula()
    detail = "codim %d, formula %d" % (codim, h)
    return _check("codim-equals-height", codim == h, detail), codim


def vd_checks(cx, max_faces=None):
    """Vertex decomposability of a complex, and a replay of the shedding
    certificate found.  Returns (checks, certificate); the certificate
    is None when the complex is not vertex decomposable."""
    _, cert = is_vertex_decomposable(cx, max_faces=max_faces)
    detail = "%d facets" % len(cx.masks)
    checks = [_check("vertex-decomposable", cert is not None, detail)]
    if cert is not None:
        ok, why = replay_certificate(cx, cert)
        checks.append(_check("certificate-replay", ok, why))
    return checks, cert


def verify_node_groebner(chain, canon, max_spairs=None):
    """groebner_checks on a node's natural generators, against the
    chain's oracle basis (computed once per node and shared with the
    oracle route of verify_step).  The predicate reads the chain's
    S-pair record, so it does not repeat the completion's reductions."""
    basis = chain.oracle_basis(canon, max_spairs=max_spairs)
    return groebner_checks(
        chain.generators(canon),
        chain.order,
        chain.field,
        max_spairs,
        basis,
        chain.ids(canon),
        chain.spair_record,
    )


def verify_node_initial(chain, canon):
    """Squarefreeness and the codimension/height agreement of the
    initial ideal.  The ideal lives in the chain's ring; its codimension
    is read off the Hilbert numerator, which does not depend on the
    number of variables, so it is the codimension in the node's own
    ring."""
    ideal = chain.initial_ideal(canon)
    height, _ = height_check(chain.nodes[canon].ladder, ideal, chain.hilbert_memo)
    return [squarefree_check(ideal), height]


def _hilbert_identity(c_ideal, a_ideal, b_ideal, memo):
    """K_C = z K_B + (1 - z) K_A for the Hilbert numerators.  The lowest
    power of z where the two sides differ is the lowest degree where the
    Hilbert functions do."""
    k_a, k_b, k_c = (
        hilbert_numerator(i.gens, memo) for i in (a_ideal, b_ideal, c_ideal)
    )
    rhs = series_add(series_mul((0, 1), k_b), series_mul((1, -1), k_a))
    diff = series_add(k_c, series_mul((-1,), rhs))
    if not diff:
        return True, "every degree"
    return False, "fails at degree %d" % next(d for d, c in enumerate(diff) if c)


def verify_step(chain, canon, max_spairs=None):
    """All checks tied to one corner removal L -> (A, B, f)."""
    node = chain.nodes[canon]
    if node.cell is None:
        raise PreconditionError("terminal instance has no removal step")
    f = (chain.order.var(*node.cell), 1)
    out = []

    c_raw = chain.leading_monomials(canon)
    a_raw = chain.leading_monomials(node.middle)
    b_raw = chain.leading_monomials(node.reduced)
    c_ideal = chain.initial_ideal(canon)
    a_ideal = chain.initial_ideal(node.middle)
    b_ideal = chain.initial_ideal(node.reduced)
    # A + f*B, built once, is compared against C by initial-split-identity
    # and basic-double-link: minimal generating sets in one ring, so the
    # corner multiples of a region untouched by the removal are absorbed.
    linked = a_ideal.plus(mono.mul(f, g) for g in b_ideal.gens)
    out.append(
        _check(
            "initial-split-identity",
            linked == c_ideal,
            "%d = %d + %d monomials (%d minimal)"
            % (len(c_raw), len(a_raw), len(b_raw), len(c_ideal.gens)),
        )
    )
    fvar = f[0]
    untouched = all(
        all(g[k] != fvar for k in range(0, len(g), 2)) for g in a_raw
    )
    out.append(_check("corner-avoids-middle", untouched))

    h_l = node.ladder.height_formula()
    h_m = chain.nodes[node.middle].ladder.height_formula()
    h_r = chain.nodes[node.reduced].ladder.height_formula()
    out.append(
        _check(
            "height-step",
            h_m == h_l - 1 and h_r == h_l,
            "h(L)=%d, h(M)=%d, h(L')=%d" % (h_l, h_m, h_r),
        )
    )

    try:
        check_double_link(a_ideal, b_ideal, f)
        out.append(
            _check("basic-double-link", linked == c_ideal, "C = A + f*B as ideals")
        )
    except PreconditionError as e:
        out.append(_check("basic-double-link", False, str(e)))

    identity = _hilbert_identity(c_ideal, a_ideal, b_ideal, chain.hilbert_memo)
    out.append(_check("hilbert-identity-combinatorial", *identity))

    # independent route: initial ideals from a Buchberger pass
    oracle = {
        key: chain.oracle_initial(key, max_spairs)
        for key in (canon, node.middle, node.reduced)
    }
    # Both sides are minimal generating sets in canonical order in one ring.
    same = all(oracle[key] == chain.initial_ideal(key) for key in oracle)
    out.append(
        _check(
            "oracle-initial-match",
            same,
            "raw leading terms generate the oracle initial ideal (L, M, L')",
        )
    )
    # when every oracle ideal is the chain's own, the identity is the one
    # checked above
    if any(oracle[key] is not chain.initial_ideal(key) for key in oracle):
        identity = _hilbert_identity(
            oracle[canon], oracle[node.middle], oracle[node.reduced], chain.hilbert_memo
        )
    out.append(_check("hilbert-identity-oracle", *identity))

    shed_ok, bad = check_shedding(chain.node_complex(canon), node.cell)
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
    vd, cert = vd_checks(chain.node_complex(root), max_faces)
    add(root, vd)
    report = {
        "schema": "laddergb-report/1",
        "instance": top.to_json(),
        "field": field.name,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return report, chain, cert


# ---------------------------------------------------------------------------
# chain certificates


def vd_cert_to_json(node):
    """The JSON form of a certificate node over cell vertices."""
    out = {"cone": [list(c) for c in node.get("cone", [])]}
    if node["kind"] == "leaf":
        out["kind"] = "leaf"
        out["facet"] = [list(c) for c in node["facet"]]
        return out
    out["kind"] = "split"
    out["vertex"] = list(node["vertex"])
    out["deletion"] = vd_cert_to_json(node["deletion"])
    out["link"] = vd_cert_to_json(node["link"])
    return out


def vd_cert_from_json(data):
    """The certificate node of its JSON form.  Raises LadderError
    "malformed node" unless every node is a leaf or a split with a
    vertex, a deletion and a link, and every cell is an index pair."""
    try:
        out = {"cone": [_cert_cell(c) for c in data.get("cone", [])], "kind": data.get("kind")}
        if out["kind"] == "leaf":
            out["facet"] = sorted(_cert_cell(c) for c in data.get("facet", []))
            return out
        if out["kind"] == "split":
            out["vertex"] = _cert_cell(data["vertex"])
            out["deletion"] = vd_cert_from_json(data["deletion"])
            out["link"] = vd_cert_from_json(data["link"])
            return out
    except (AttributeError, KeyError, TypeError, ValueError):
        pass
    raise LadderError("malformed node")


def _cert_cell(c):
    """A certificate's cell as an index pair; cell_id raises on anything
    else."""
    return id_cell(cell_id(*c))


def chain_certificate(chain, vd_cert=None):
    """Serializable record of a chain: per-node structure, initial
    ideals, heights, and optionally a decomposability certificate."""
    texts = {}  # each distinct monomial is rendered once per certificate

    def text(m):
        t = texts.get(m)
        if t is None:
            t = texts[m] = mono_text(m, chain.order)
        return t

    nodes = []
    for canon in chain.sequence:
        node = chain.nodes[canon]
        ideal = chain.initial_ideal(canon)
        nodes.append(
            {
                "id": canon,
                "instance": node.ladder.to_json(),
                "terminal": node.cell is None,
                "cell": list(node.cell) if node.cell else None,
                "reduced": node.reduced,
                "middle": node.middle,
                "initial": sorted(text(g) for g in ideal.gens),
                "height": node.ladder.height_formula(),
            }
        )
    out = {
        "schema": "laddergb-chain/1",
        "field": chain.field.name,
        "order": chain.top.order_kind,
        "top": chain.top.to_json(),
        "nodes": nodes,
    }
    if vd_cert is not None:
        out["vd"] = vd_cert_to_json(vd_cert)
    return out


# replay check -> the fields of a node record it compares; with the id
# they cover every field chain_certificate records
_NODE_FACTS = (
    ("node-structure", ("instance", "terminal", "cell", "reduced", "middle")),
    ("node-initial", ("initial",)),
    ("node-height", ("height",)),
)


def replay_chain(cert, field=QQ):
    """Recompute a chain from its certificate's top instance over field
    and check every recorded fact, the field and term order included:
    each recorded node is compared against chain_certificate of the
    recomputed chain.  Returns a report dict; a document whose top, node
    list or node ids are malformed, or whose top validate rejects, raises
    LadderError."""
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
            set(recorded) == set(chain.sequence),
            "%d recorded, %d recomputed" % (len(recorded), len(chain.sequence)),
        ),
    ]
    for fresh in chain_certificate(chain)["nodes"]:
        rec = recorded.get(fresh["id"])
        if rec is None:
            continue
        for name, keys in _NODE_FACTS:
            ok = all(rec.get(k) == fresh[k] for k in keys)
            checks.append(_check(name, ok, fresh["id"]))
    for canon in chain.steps():
        node = chain.nodes[canon]
        ok, bad = check_shedding(chain.node_complex(canon), node.cell)
        checks.append(
            _check("shedding-at-corner", ok, canon if ok else ", ".join(bad))
        )
    if "vd" in cert:
        try:
            vd = vd_cert_from_json(cert["vd"])
        except LadderError as e:
            ok, why = False, str(e)
        else:
            ok, why = replay_certificate(chain.node_complex(chain.top_canon), vd)
        checks.append(_check("vd-replay", ok, why))
    return {
        "schema": "laddergb-report/1",
        "instance": cert.get("top"),
        "field": field.name,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


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
            correction = p_term_mul(p_var(var(i, v), field), (var(u, j), 1), field.one, field)
            base = p_term_mul(p_var(x, field), (uv, 1), field.one, field)
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
        num = {(): c}
        den = 0
        for k in range(0, len(m), 2):
            var, exp = m[k], m[k + 1]
            img, e = mapping[var]
            for _ in range(exp):
                num = p_mul(num, img, field)
                den += e
        parts.append((num, den))
        maxden = max(maxden, den)
    total = p_zero()
    for num, den in parts:
        pad = maxden - den
        if pad:
            num = p_term_mul(num, (uv, pad), field.one, field)
        total = p_add(total, num, field)
    return total, maxden


def localized_ideal_generators(ladder, cell, field=QQ, shape=None, order=None):
    """Generators of the ideal seen after inverting the cell: affected
    regions lose the cell's row and column and drop one minor size,
    untouched regions keep their minors.  shape and order are read as
    in natural_generators (ladder.shape() and the conventional order by
    default)."""
    u, v = cell
    hit = set(_affected_range(ladder, cell))
    if order is None:
        order = conventional_order(ladder)
    if shape is None:
        shape = ladder.shape()
    seen = set()
    out = []
    for k, region in enumerate(ladder.regions()):
        a, b = region.point
        t = region.t
        if k in hit:
            rows = [i for i in range(1, a + 1) if i != u]
            cols = [j for j in range(b, ladder.n + 1) if j != v]
            size = t - 1
        else:
            rows = list(range(1, a + 1))
            cols = list(range(b, ladder.n + 1))
            size = t
        if size == 0 or size > len(rows) or size > len(cols):
            continue
        for rs in itertools.combinations(rows, size):
            for cs in itertools.combinations(cols, size):
                g = minor(shape, rs, cs, field, order)
                key = freeze(g)
                if key not in seen:
                    seen.add(key)
                    out.append(g)
    return out


def verify_localization(ladder, cell, field=QQ, max_spairs=None, max_power=3):
    """Checks that the substitution pair is an exact inverse pair and
    that it carries each ideal into the other after clearing
    denominators (allowing a small extra power of the inverted cell)."""
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
                want = p_term_mul(want, (uv, e + e2), field.one, field)
            if freeze(num2) != freeze(want):
                ok = False
    checks.append(_check("inverse-pair", ok, "composition fixes every variable"))

    shape = ladder.shape()
    gens = natural_generators(ladder, field, order, shape)
    hat_gens = localized_ideal_generators(ladder, cell, field, shape, order)
    hat_gb, hat_table = groebner_basis(hat_gens, order, field, max_spairs)
    fwd_ok = True
    fwd_detail = ""
    for g in gens:
        num, _ = substitute(g, phi, uv, field)
        if not _member_with_saturation(num, hat_gb, hat_table, order, field, uv, max_power):
            fwd_ok = False
            fwd_detail = "a generator image escapes the localized ideal"
            break
    checks.append(_check("forward-membership", fwd_ok, fwd_detail))

    lad_gb, lad_table = groebner_basis(gens, order, field, max_spairs)
    rev_ok = True
    rev_detail = ""
    for g in hat_gens:
        num, _ = substitute(g, psi, uv, field)
        if not _member_with_saturation(num, lad_gb, lad_table, order, field, uv, max_power):
            rev_ok = False
            rev_detail = "a localized generator image escapes the ladder ideal"
            break
    checks.append(_check("reverse-membership", rev_ok, rev_detail))

    return {
        "schema": "laddergb-report/1",
        "instance": ladder.to_json(),
        "cell": list(cell),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _member_with_saturation(p, gb, table, order, field, uv, max_power):
    """Whether uv^e * p reduces to zero modulo the Groebner basis gb for
    some e <= max_power; table is gb's reducer table."""
    if p_is_zero(p):
        return True
    work = dict(p)
    for _ in range(max_power + 1):
        if p_is_zero(normal_form(work, gb, order, field, table)):
            return True
        work = p_term_mul(work, (uv, 1), field.one, field)
    return False
