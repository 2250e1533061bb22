"""Corner-removal recursion and its verification.

build_chain unfolds an instance into a DAG of nodes: every non-terminal
node L splits into a reduced instance (one size lowered, written B
below) and a middle instance (the corner cell removed, written A), with
the corner variable f as multiplier.  The driving identity is that the
initial ideal of L is A + f*B, a basic double link of height-1 type.

Verification is deliberately two-route.  The combinatorial route takes
the raw leading monomials of the natural generators; the oracle route
recomputes initial ideals through an independent Buchberger pass over
the actual polynomial generators.  Both routes must satisfy the Hilbert
function identity

    H(R/C, d) = H(R/B, d-1) + H(R/A, d) - H(R/A, d-1)

degree by degree, and the two routes must agree on the initial ideal of
every instance.  Heights are checked against the cell count of the
shifted ladder, codimensions against the Stanley-Reisner complex, and
shedding conditions at every removed corner.

The localization section implements the coordinate change used to pass
from a one-sided ladder to a smaller one after inverting a cell: an
exact inverse pair of substitution maps plus ideal membership in both
directions, with denominators cleared by powers of the inverted cell.
"""

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
from .families import conventional_order, natural_generators
from .fields import QQ
from .ladders import OneSidedLadder, ladder_from_json
from .matrices import minor
from .monomials import MonomialIdeal, basic_double_link, minimalize
from .poly import (
    buchberger_reduced,
    cell_id,
    id_cell,
    is_reduced_groebner,
    leading_term,
    mono_text,
    normal_form,
    p_add,
    p_degree,
    p_is_zero,
    p_monic,
    p_mul,
    p_sub,
    p_term_mul,
    p_var,
    p_zero,
    freeze,
)


def _ambient(ladder):
    return [cell_id(i, j) for (i, j) in ladder.variables()]


def _initial_set(gens, order):
    return {leading_term(g, order)[0] for g in gens}


@dataclass
class ChainNode:
    ladder: object
    canon: str
    cell: Optional[tuple]  # removed corner, None for terminal nodes
    reduced: Optional[str]  # canon of the size-lowered child
    middle: Optional[str]  # canon of the cell-removed child


class Chain:
    """Corner-removal DAG of an instance, with the term order and field
    shared by every node."""

    def __init__(self, top, field=QQ):
        self.top = top
        self.field = field
        self.order = conventional_order(top)
        self.nodes = {}
        self.sequence = []
        self._gens_cache = {}
        self._oracle_cache = {}
        self._build(top)

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

    def generators(self, canon):
        if canon not in self._gens_cache:
            self._gens_cache[canon] = natural_generators(
                self.nodes[canon].ladder, self.field, self.order
            )
        return self._gens_cache[canon]

    def initial_ideal(self, canon):
        ladder = self.nodes[canon].ladder
        return initial_ideal(ladder, self.generators(canon), self.order)

    def oracle_basis(self, canon, max_spairs=None):
        """Reduced basis of the node's ideal, recomputed from scratch by
        the completion pass (cached: nodes are shared across steps)."""
        if canon not in self._oracle_cache:
            self._oracle_cache[canon] = buchberger_reduced(
                self.generators(canon), self.order, self.field, max_spairs=max_spairs
            )
        return self._oracle_cache[canon]


# ---------------------------------------------------------------------------
# per-node and per-step checks


def _check(name, ok, detail=""):
    return {"name": name, "pass": bool(ok), "detail": detail}


def initial_ideal(ladder, gens, order):
    """Monomial ideal of the leading monomials of gens under order, in
    the ladder's own ambient ring."""
    return MonomialIdeal(_initial_set(gens, order), _ambient(ladder))


def groebner_checks(gens, order, field, max_spairs=None, basis=None):
    """The generators must be a Buchberger fixed point: the reduced
    basis of their ideal is the generators themselves (up to scaling),
    and they pass the reduced-basis predicate.  basis is that reduced
    basis when the caller already has it; it is computed otherwise."""
    if basis is None:
        basis = buchberger_reduced(gens, order, field, max_spairs=max_spairs)
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
            is_reduced_groebner(monic, order, field, max_spairs=max_spairs),
        ),
    ]


def squarefree_check(ideal):
    return _check("initial-squarefree", ideal.is_squarefree())


def height_check(ladder, ideal):
    """Codimension of the squarefree ideal's complex against the
    ladder's closed height formula; returns (check, codimension)."""
    codim = SimplicialComplex.from_squarefree(ideal).codimension()
    h = ladder.height_formula()
    detail = "codim %d, formula %d" % (codim, h)
    return _check("codim-equals-height", codim == h, detail), codim


def vertex_decomposition(ideal, max_faces=None):
    """(complex, shedding certificate) of the squarefree ideal; the
    certificate is None when the complex is not vertex decomposable."""
    cx = SimplicialComplex.from_squarefree(ideal)
    _, cert = is_vertex_decomposable(cx, max_faces=max_faces)
    return cx, cert


def vd_checks(ideal, max_faces=None):
    """Vertex decomposability of the squarefree ideal's complex, and a
    replay of the shedding certificate found.  Returns (checks,
    certificate) as vertex_decomposition does."""
    cx, cert = vertex_decomposition(ideal, max_faces)
    detail = "%d facets" % len(cx.facets)
    checks = [_check("vertex-decomposable", cert is not None, detail)]
    if cert is not None:
        ok, why = replay_certificate(cx, cert)
        checks.append(_check("certificate-replay", ok, why))
    return checks, cert


def verify_node_groebner(chain, canon, max_spairs=None):
    """groebner_checks on a node's natural generators, against the
    chain's oracle basis (computed once per node and shared with the
    oracle route of verify_step)."""
    basis = chain.oracle_basis(canon, max_spairs=max_spairs)
    return groebner_checks(
        chain.generators(canon), chain.order, chain.field, max_spairs, basis
    )


def verify_node_initial(chain, canon):
    """Squarefreeness and the codimension/height agreement of the
    initial ideal, in the instance's own ambient ring."""
    ideal = chain.initial_ideal(canon)
    squarefree = squarefree_check(ideal)
    height, _ = height_check(chain.nodes[canon].ladder, ideal)
    return [squarefree, height]


def _hilbert_identity(c_ideal, a_ideal, b_ideal, dmax):
    for d in range(0, dmax + 1):
        lhs = c_ideal.hilbert_function(d)
        rhs = (
            b_ideal.hilbert_function(d - 1)
            + a_ideal.hilbert_function(d)
            - a_ideal.hilbert_function(d - 1)
        )
        if lhs != rhs:
            return False, "fails at degree %d: %d vs %d" % (d, lhs, rhs)
    return True, "degrees 0..%d" % dmax


def verify_step(chain, canon, dmax=None, max_spairs=None):
    """All checks tied to one corner removal L -> (A, B, f)."""
    node = chain.nodes[canon]
    if node.cell is None:
        raise PreconditionError("terminal instance has no removal step")
    order, field = chain.order, chain.field
    amb = _ambient(node.ladder)
    f = (cell_id(*node.cell), 1)
    out = []

    c_raw = _initial_set(chain.generators(canon), order)
    a_raw = _initial_set(chain.generators(node.middle), order)
    b_raw = _initial_set(chain.generators(node.reduced), order)
    shifted = {mono.mul(f, g) for g in b_raw}
    # Compare minimal generating sets: when a region untouched by the
    # removal contributes to both children, the union picks up corner
    # multiples of its leading terms, which minimalization absorbs.
    lhs_min = set(minimalize(c_raw))
    rhs_min = set(minimalize(a_raw | shifted))
    out.append(
        _check(
            "initial-split-identity",
            lhs_min == rhs_min,
            "%d = %d + %d monomials (%d minimal)"
            % (len(c_raw), len(a_raw), len(shifted), len(lhs_min)),
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

    a_ideal = MonomialIdeal(a_raw, amb)
    b_ideal = MonomialIdeal(b_raw, amb)
    c_ideal = MonomialIdeal(c_raw, amb)
    try:
        linked = basic_double_link(a_ideal, b_ideal, f)
        out.append(
            _check("basic-double-link", linked == c_ideal, "C = A + f*B as ideals")
        )
    except PreconditionError as e:
        out.append(_check("basic-double-link", False, str(e)))

    if dmax is None:
        degs = [p_degree(g) for g in chain.generators(canon)]
        dmax = 2 * max(degs, default=1) + 2
    ok, detail = _hilbert_identity(c_ideal, a_ideal, b_ideal, dmax)
    out.append(_check("hilbert-identity-combinatorial", ok, detail))

    # independent route: initial ideals from a Buchberger pass
    oracle = {}
    for key in (canon, node.middle, node.reduced):
        gb = chain.oracle_basis(key, max_spairs=max_spairs)
        oracle[key] = MonomialIdeal(_initial_set(gb, order), amb)
    same = all(
        oracle[key].contains_ideal(raw_ideal) and raw_ideal.contains_ideal(oracle[key])
        for key, raw_ideal in (
            (canon, c_ideal),
            (node.middle, a_ideal),
            (node.reduced, b_ideal),
        )
    )
    out.append(
        _check(
            "oracle-initial-match",
            same,
            "raw leading terms generate the oracle initial ideal (L, M, L')",
        )
    )
    ok, detail = _hilbert_identity(
        oracle[canon], oracle[node.middle], oracle[node.reduced], dmax
    )
    out.append(_check("hilbert-identity-oracle", ok, detail))

    cx = SimplicialComplex.from_squarefree(c_ideal)
    shed_ok, bad = check_shedding(cx, fvar)
    out.append(
        _check(
            "shedding-at-corner",
            shed_ok,
            "corner (%d, %d)" % node.cell + ("" if shed_ok else ": " + ", ".join(bad)),
        )
    )
    return out


def verify_family(top, field=QQ, dmax=None, max_spairs=None, max_faces=None):
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

    add(top.canon(), verify_node_groebner(chain, top.canon(), max_spairs))
    for canon in chain.sequence:
        add(canon, verify_node_initial(chain, canon))
    for canon in chain.steps():
        add(canon, verify_step(chain, canon, dmax, max_spairs))
    vd, cert = vd_checks(chain.initial_ideal(top.canon()), max_faces)
    add(top.canon(), vd)
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


def _cells_json(ids):
    return [list(id_cell(v)) for v in sorted(ids)]


def vd_cert_to_json(node):
    out = {"cone": [list(id_cell(v)) for v in node.get("cone", [])]}
    if node["kind"] == "leaf":
        out["kind"] = "leaf"
        out["facet"] = [list(id_cell(v)) for v in node["facet"]]
        return out
    out["kind"] = "split"
    out["vertex"] = list(id_cell(node["vertex"]))
    out["deletion"] = vd_cert_to_json(node["deletion"])
    out["link"] = vd_cert_to_json(node["link"])
    return out


def vd_cert_from_json(data):
    out = {"cone": [cell_id(*c) for c in data.get("cone", [])]}
    if data.get("kind") == "leaf":
        out["kind"] = "leaf"
        out["facet"] = sorted(cell_id(*c) for c in data.get("facet", []))
        return out
    out["kind"] = "split"
    out["vertex"] = cell_id(*data["vertex"])
    out["deletion"] = vd_cert_from_json(data["deletion"])
    out["link"] = vd_cert_from_json(data["link"])
    return out


def chain_certificate(chain, vd_cert=None):
    """Serializable record of a chain: per-node structure, initial
    ideals, heights, and optionally a decomposability certificate."""
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
                "initial": sorted(mono_text(g) for g in ideal.gens),
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


def replay_chain(cert, field=QQ):
    """Recompute a chain from its certificate's top instance over field
    and check every recorded fact, the field and term order included.
    Returns a report dict."""
    top = ladder_from_json(cert.get("top", {}))
    chain = Chain(top, field)
    recorded = {n["id"]: n for n in cert.get("nodes", [])}
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
    ]
    checks.append(
        _check(
            "node-set",
            set(recorded) == set(chain.sequence),
            "%d recorded, %d recomputed" % (len(recorded), len(chain.sequence)),
        )
    )
    for canon in chain.sequence:
        rec = recorded.get(canon)
        if rec is None:
            continue
        node = chain.nodes[canon]
        cell = tuple(rec["cell"]) if rec.get("cell") else None
        ok = (
            cell == node.cell
            and rec.get("reduced") == node.reduced
            and rec.get("middle") == node.middle
            and rec.get("terminal") == (node.cell is None)
        )
        checks.append(_check("node-structure", ok, canon))
        ideal = chain.initial_ideal(canon)
        ok = sorted(mono_text(g) for g in ideal.gens) == rec.get("initial")
        checks.append(_check("node-initial", ok, canon))
        ok = node.ladder.height_formula() == rec.get("height")
        checks.append(_check("node-height", ok, canon))
    for canon in chain.steps():
        node = chain.nodes[canon]
        cx = SimplicialComplex.from_squarefree(chain.initial_ideal(canon))
        ok, bad = check_shedding(cx, cell_id(*node.cell))
        checks.append(
            _check("shedding-at-corner", ok, canon if ok else ", ".join(bad))
        )
    if "vd" in cert:
        cx = SimplicialComplex.from_squarefree(chain.initial_ideal(top.canon()))
        ok, why = replay_certificate(cx, vd_cert_from_json(cert["vd"]))
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
    column are fixed.  psi is the exact inverse of phi."""
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
    uv = cell_id(u, v)
    phi, psi = {}, {}
    for (i, j) in ladder.cells():
        x = cell_id(i, j)
        if (i, j) in affected and i != u and j != v:
            correction = p_term_mul(p_var(cell_id(i, v), field), (cell_id(u, j), 1), field.one, field)
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


def localized_ideal_generators(ladder, cell, field=QQ):
    """Generators of the ideal seen after inverting the cell: affected
    regions lose the cell's row and column and drop one minor size,
    untouched regions keep their minors."""
    u, v = cell
    hit = set(_affected_range(ladder, cell))
    shape = ladder.shape()
    import itertools as _it

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
        for rs in _it.combinations(rows, size):
            for cs in _it.combinations(cols, size):
                g = minor(shape, rs, cs, field)
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
    uv = cell_id(*cell)
    checks = []

    ok = True
    for (i, j) in ladder.cells():
        x = cell_id(i, j)
        for first, second in ((phi, psi), (psi, phi)):
            num, e = first[x]
            num2, e2 = substitute(num, second, uv, field)
            want = p_var(x, field)
            if e + e2:
                want = p_term_mul(want, (uv, e + e2), field.one, field)
            if freeze(num2) != freeze(want):
                ok = False
    checks.append(_check("inverse-pair", ok, "composition fixes every variable"))

    hat_gens = localized_ideal_generators(ladder, cell, field)
    hat_gb = buchberger_reduced(hat_gens, order, field, max_spairs=max_spairs)
    fwd_ok = True
    fwd_detail = ""
    for g in natural_generators(ladder, field, order):
        num, _ = substitute(g, phi, uv, field)
        if not _member_with_saturation(num, hat_gb, order, field, uv, max_power):
            fwd_ok = False
            fwd_detail = "a generator image escapes the localized ideal"
            break
    checks.append(_check("forward-membership", fwd_ok, fwd_detail))

    lad_gb = buchberger_reduced(
        natural_generators(ladder, field, order), order, field, max_spairs=max_spairs
    )
    rev_ok = True
    rev_detail = ""
    for g in hat_gens:
        num, _ = substitute(g, psi, uv, field)
        if not _member_with_saturation(num, lad_gb, order, field, uv, max_power):
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


def _member_with_saturation(p, gb, order, field, uv, max_power):
    if p_is_zero(p):
        return True
    work = dict(p)
    for _ in range(max_power + 1):
        if p_is_zero(normal_form(work, gb, order, field)):
            return True
        work = p_term_mul(work, (uv, 1), field.one, field)
    return False
