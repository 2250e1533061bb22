"""Simplicial complexes attached to squarefree monomial ideals.

A squarefree ideal determines the complex whose faces are the subsets
of variables containing no generator's support.  Facets are computed as
complements of minimal transversals of the support hypergraph.

Vertex decomposability is decided recursively: after removing cone
points, a complex is accepted if it is a single simplex, or if some
vertex has a pure link and deletion of the expected dimensions and both
are themselves decomposable.  The search emits a certificate tree that
can be replayed against a recomputed complex.

codim_by_cover is an independent route to the codimension (smallest
vertex cover of the supports), used to cross-check the height formulas.
"""

import itertools

from .errors import BudgetExceeded, PreconditionError


def _minimal_sets(sets):
    out = []
    for s in sorted(set(sets), key=len):
        if not any(t <= s for t in out):
            out.append(s)
    return out


def minimal_transversals(supports):
    """All minimal hitting sets of a family of vertex sets."""
    trans = [frozenset()]
    for s in supports:
        nxt = set()
        for t in trans:
            if t & s:
                nxt.add(t)
            else:
                for v in s:
                    nxt.add(t | {v})
        trans = _minimal_sets(nxt)
    return trans


class SimplicialComplex:
    def __init__(self, facets, ambient):
        facets = [frozenset(f) for f in facets]
        self.facets = frozenset(_minimal_sets([]) if not facets else _max_sets(facets))
        self.ambient = tuple(sorted(set(ambient)))

    @classmethod
    def from_squarefree(cls, ideal):
        if not ideal.is_squarefree():
            raise PreconditionError("ideal is not squarefree")
        if ideal.is_unit():
            return cls([], ideal.ambient)
        supports = [frozenset(g[k] for k in range(0, len(g), 2)) for g in ideal.gens]
        trans = minimal_transversals(supports)
        verts = frozenset(ideal.ambient)
        return cls([verts - t for t in trans], ideal.ambient)

    def vertices(self):
        out = set()
        for f in self.facets:
            out |= f
        return sorted(out)

    def is_void(self):
        return not self.facets

    def dim(self):
        if self.is_void():
            raise PreconditionError("the void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    def is_pure(self):
        if self.is_void():
            return True
        sizes = {len(f) for f in self.facets}
        return len(sizes) == 1

    def codimension(self):
        """Codimension of the face ring inside the ambient polynomial
        ring: number of ambient variables minus (dim + 1)."""
        return len(self.ambient) - (self.dim() + 1)

    def link(self, v):
        fs = [f - {v} for f in self.facets if v in f]
        return SimplicialComplex(fs, set(self.ambient) - {v})

    def deletion(self, v):
        fs = [f - {v} for f in self.facets]
        return SimplicialComplex(fs, set(self.ambient) - {v})

    def cone_points(self):
        if self.is_void():
            return []
        common = None
        for f in self.facets:
            common = f if common is None else common & f
        return sorted(common)

    def strip_cones(self):
        cones = self.cone_points()
        if not cones:
            return self, []
        cs = set(cones)
        fs = [f - cs for f in self.facets]
        return SimplicialComplex(fs, set(self.ambient) - cs), cones

    def facet_key(self):
        return tuple(sorted(tuple(sorted(f)) for f in self.facets))

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.facets == other.facets
            and self.ambient == other.ambient
        )

    def __hash__(self):
        return hash((self.facets, self.ambient))

    def __repr__(self):
        return "SimplicialComplex(%d facets, dim %s)" % (
            len(self.facets),
            "void" if self.is_void() else self.dim(),
        )


def _max_sets(sets):
    out = []
    for s in sorted(set(sets), key=len, reverse=True):
        if not any(s <= t for t in out):
            out.append(s)
    return out


def codim_by_cover(ideal):
    """Smallest vertex cover of the generator supports; equals the
    codimension of the squarefree ideal.  Brute force."""
    if ideal.is_unit():
        raise PreconditionError("unit ideal has no codimension")
    supports = [frozenset(g[k] for k in range(0, len(g), 2)) for g in ideal.gens]
    if not supports:
        return 0
    verts = sorted(set().union(*supports))
    for k in range(0, len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            cset = set(combo)
            if all(s & cset for s in supports):
                return k
    raise AssertionError("no cover found")


# ---------------------------------------------------------------------------
# vertex decomposability


def check_shedding(cx, v):
    """Conditions making v a usable shedding vertex of cx: cx pure, v a
    non-cone vertex, deletion pure of the same dimension, link pure one
    dimension lower.  Returns (ok, failed condition names)."""
    bad = []
    if cx.is_void():
        return False, ["void complex"]
    if not cx.is_pure():
        bad.append("complex not pure")
    if not any(v in f for f in cx.facets):
        return False, bad + ["not a vertex"]
    if all(v in f for f in cx.facets):
        return False, bad + ["cone point"]
    d = cx.dim()
    dele = cx.deletion(v)
    lk = cx.link(v)
    if dele.is_void() or dele.dim() != d:
        bad.append("deletion drops dimension")
    elif not dele.is_pure():
        bad.append("deletion not pure")
    if lk.is_void() or lk.dim() != d - 1:
        bad.append("link has wrong dimension")
    elif not lk.is_pure():
        bad.append("link not pure")
    return not bad, bad


class _Budget:
    """State of one decomposability search: the face budget and the
    verdicts found so far, keyed by the cone-stripped complex."""

    def __init__(self, limit):
        self.limit = limit
        self.spent = 0
        self.memo = {}

    def tick(self):
        self.spent += 1
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExceeded("face-budget exhausted", self.limit)


def is_vertex_decomposable(cx, max_faces=None):
    """Decide vertex decomposability; returns (ok, certificate).

    The certificate is a tree of dicts: every node records the cone
    points stripped there; a leaf records its single facet; an inner
    node records the shedding vertex used and subtrees for link and
    deletion.  On failure the certificate is None.
    """
    budget = _Budget(max_faces)
    ok, cert = _vd(cx, budget)
    return ok, cert


def _vd(cx, budget):
    budget.tick()
    stripped, cones = cx.strip_cones()
    key = stripped.facet_key()
    if key in budget.memo:
        ok, sub = budget.memo[key]
        if not ok:
            return False, None
        return True, {"cone": list(cones), **sub}
    ok, sub = _vd_core(stripped, budget)
    budget.memo[key] = (ok, sub)
    if not ok:
        return False, None
    return True, {"cone": list(cones), **sub}


def _vd_core(cx, budget):
    if cx.is_void():
        return False, None
    if len(cx.facets) == 1:
        facet = sorted(next(iter(cx.facets)))
        return True, {"kind": "leaf", "facet": facet}
    if not cx.is_pure():
        return False, None
    for v in cx.vertices():
        ok, _ = check_shedding(cx, v)
        if not ok:
            continue
        ok_d, cert_d = _vd(cx.deletion(v), budget)
        if not ok_d:
            continue
        ok_l, cert_l = _vd(cx.link(v), budget)
        if not ok_l:
            continue
        return True, {
            "kind": "split",
            "vertex": v,
            "deletion": cert_d,
            "link": cert_l,
        }
    return False, None


def replay_certificate(cx, node):
    """Re-run a decomposability certificate against a freshly computed
    complex.  Returns (ok, reason)."""
    stripped, cones = cx.strip_cones()
    if sorted(node.get("cone", [])) != sorted(cones):
        return False, "cone points differ"
    if node.get("kind") == "leaf":
        if len(stripped.facets) != 1:
            return False, "leaf node but complex is not a simplex"
        facet = sorted(next(iter(stripped.facets)))
        if facet != list(node.get("facet", [])):
            return False, "leaf facet differs"
        return True, "ok"
    if node.get("kind") != "split":
        return False, "malformed node"
    v = node.get("vertex")
    ok, bad = check_shedding(stripped, v)
    if not ok:
        return False, "shedding conditions fail at %s: %s" % (v, ", ".join(bad))
    ok, why = replay_certificate(stripped.deletion(v), node["deletion"])
    if not ok:
        return False, why
    return replay_certificate(stripped.link(v), node["link"])
