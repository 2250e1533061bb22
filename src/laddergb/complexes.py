"""Simplicial complexes attached to squarefree monomial ideals.

A squarefree ideal determines the complex whose faces are the subsets
of variables containing no generator's support.  from_squarefree
computes its facets as complements of minimal transversals of the
support hypergraph (Berge's algorithm).  A chain of corner removals
needs that only at its steps that are not basic double links: it builds
every other complex by double_link from its children's, down to its
terminals, whose complexes are simplices (see linkage.Chain._walk).  A
ladder's complex names each variable by its matrix cell (i, j), so its
vertices, the order the decomposability search tries them in, and the
certificates it writes do not depend on how a term order numbers the
variables.

A complex stores its facets as int bit masks over one sorted vertex
tuple: vertex verts[i] is bit 1 << i, so a subset test is a & b == a
and a face's size is a.bit_count().  The tuple is fixed where a complex
is built and shared by every complex derived from it, so masks of
related complexes compare directly; so is the ambient tuple, where the
derived complex keeps it.  The facets always form an antichain.  The
public constructor, which takes arbitrary facets, discards the
non-maximal ones.  deletion(v) discards too, but only among
the faces F - v with v in F, each tested against the facets that lack
v: those facets stay maximal, and no F - v lies in another.  The other
constructors keep an antichain by construction: from_squarefree takes
complements of minimal transversals, link and strip_cones remove
vertices every affected facet contains, and double_link, the complex of
a basic double link A + f*B built from the complexes of A and B with no
transversal search, takes the facets of B's and cuts the cone point f
from the facets of A's that B's lacks (see its proof).  The facets
attribute is a read-only frozenset-of-frozensets view of the masks.

Vertex decomposability is decided recursively: after removing cone
points, a complex is accepted if it is a single simplex, or if some
vertex has a pure link and deletion of the expected dimensions and both
are themselves decomposable.  The search emits a certificate tree that
can be replayed against a recomputed complex.  On a pure complex the
shedding test needs no deletion scan: F - v survives in the deletion
exactly when no facet (F - v) + w lacks v, one set lookup per vertex w
(see _shedding).
"""

import functools
import operator

from . import mono
from .errors import BudgetExceeded, PreconditionError


def _bits(mask):
    """Indices of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _transversal_masks(supports):
    """Berge's algorithm on masks: all minimal hitting sets of the
    support masks.

    A transversal that hits the next support s stays minimal.  Each one
    that misses s gives the candidates t | v for v in s.  A candidate
    meets s only in v, so every transversal inside it contains v.  That
    is never another candidate t' | v, since t' < t cannot hold between
    minimal transversals; so a candidate is tested only against the
    kept transversals that contain v, and no candidate repeats."""
    trans = [0]
    for s in supports:
        kept = [t for t in trans if t & s]
        missed = [t for t in trans if not t & s]
        trans = list(kept)
        for i in _bits(s):
            v = 1 << i
            own = [k for k in kept if k & v]
            for t in missed:
                c = t | v
                if not any(k & c == k for k in own):
                    trans.append(c)
    return trans


class SimplicialComplex:
    """Facets as an antichain of masks over the vertex tuple verts,
    inside an ambient vertex set (which link, deletion and strip_cones
    shrink while verts stays)."""

    __slots__ = ("verts", "masks", "ambient", "_index")

    def __init__(self, facets, ambient):
        facets = [frozenset(f) for f in facets]
        ambient = set(ambient)
        verts = tuple(sorted(ambient.union(*facets)))
        index = {v: i for i, v in enumerate(verts)}
        kept = []
        for m in sorted(
            {sum(1 << index[v] for v in f) for f in facets},
            key=int.bit_count,
            reverse=True,
        ):
            if not any(m & k == m for k in kept):
                kept.append(m)
        self._set(verts, index, frozenset(kept), tuple(sorted(ambient)))

    def _set(self, verts, index, masks, ambient):
        self.verts = verts
        self._index = index
        self.masks = masks
        self.ambient = ambient

    def _derive(self, masks, drop):
        """Complex over the same vertex tuple whose facet masks are
        already an antichain; drop is removed from the ambient set, and
        when it is empty the ambient tuple is shared."""
        ambient = self.ambient
        if drop:
            ambient = tuple(v for v in ambient if v not in drop)
        out = object.__new__(SimplicialComplex)
        out._set(self.verts, self._index, frozenset(masks), ambient)
        return out

    @classmethod
    def from_squarefree(cls, ideal, vertex=None):
        """The complex of a squarefree ideal.  vertex, when given, maps a
        variable of the ideal's ring to the vertex standing for it (a term
        order's cell), and the vertex tuple is sorted by vertex; by
        default each variable is its own vertex.  The unit ideal has no
        transversal, so its complex is void.  A chain builds its
        terminals' complexes, whose ideals are linear, without this (see
        linkage.Chain._walk)."""
        if not ideal.is_squarefree():
            raise PreconditionError("ideal is not squarefree")
        named = sorted((v if vertex is None else vertex(v), v) for v in ideal.ambient)
        verts = tuple(u for u, _ in named)
        index = {u: i for i, u in enumerate(verts)}
        bit = {v: i for i, (_, v) in enumerate(named)}
        # Berge's algorithm takes the supports by size, then by their
        # sorted vertex positions: on ladder complexes it then keeps far
        # fewer partial transversals than in the ring's order, and the
        # variables of linear generators, which lie in no other, go first
        # at the cost of one transversal each
        places = sorted(
            (len(vs), sorted(bit[v] for v in vs))
            for vs in map(mono.variables, ideal.gens)
        )
        supports = [sum(1 << i for i in idx) for _, idx in places]
        every = (1 << len(verts)) - 1
        masks = (every ^ t for t in _transversal_masks(supports))
        out = object.__new__(cls)
        out._set(verts, index, frozenset(masks), verts)
        return out

    @classmethod
    def double_link(cls, a_cx, b_cx, v):
        """The complex of C = A + f*B, given a_cx, the complex of A, and
        b_cx, the complex of B, over one vertex tuple, where f is the
        variable of vertex v, A is contained in B, and f occurs in no
        generator of A or B.  Its deletion at v is a_cx.link(v) and its
        link at v is b_cx.link(v).

        Proof.  As f is in no generator, v is a cone point of Delta(A)
        and of Delta(B), and A in B gives Delta(B) inside Delta(A).  A
        set s without v is a face of Delta(C) exactly when it is one of
        Delta(A).  The set s + v is a face of Delta(C) exactly when s
        holds no generator of B, since f*b lies in s + v only when b lies
        in s, and then s holds no generator of A either.  So with L_A and
        L_B the links of v in Delta(A) and Delta(B), Delta(C) is L_A
        together with the cone v * L_B = Delta(B), and L_B lies in L_A.
        Its faces without v form L_A and the link of v is L_B, which
        gives the deletion and link above.  A facet of Delta(B) is a
        facet of Delta(C): a face of Delta(C) containing it contains v,
        so lies in Delta(B).  For a facet F of Delta(A), F - v is a facet
        of Delta(C) unless it lies in a face of Delta(B); that happens
        exactly when F is a face of Delta(B), and then F is a facet of
        Delta(B), as Delta(B) lies in Delta(A).  Hence

            facets(Delta(C)) = facets(Delta(B))
                               + {F - v : F in facets(Delta(A)) - facets(Delta(B))}.

        This is an antichain by construction: the first part is one, and
        its sets hold v while the second part's do not; F - v lies in no
        facet of Delta(B), as F would; and F - v inside F' - v gives
        F inside F', so F = F' for facets of Delta(A)."""
        bit = a_cx._bit(v)
        lifted = b_cx.masks
        masks = set(lifted)
        masks.update(m ^ bit for m in a_cx.masks if m not in lifted)
        return a_cx._derive(masks, ())

    @property
    def facets(self):
        """The facets as a frozenset of frozensets of vertices."""
        return frozenset(frozenset(self._vertices(m)) for m in self.masks)

    def _vertices(self, mask):
        """The vertices of mask, sorted."""
        return [self.verts[i] for i in _bits(mask)]

    def _bit(self, v):
        """Mask of vertex v; 0 when v is not in the vertex tuple."""
        i = self._index.get(v)
        return 0 if i is None else 1 << i

    def vertices(self):
        return self._vertices(functools.reduce(operator.or_, self.masks, 0))

    def is_void(self):
        return not self.masks

    def dim(self):
        if self.is_void():
            raise PreconditionError("the void complex has no dimension")
        return max(m.bit_count() for m in self.masks) - 1

    def is_pure(self):
        return len({m.bit_count() for m in self.masks}) <= 1

    def codimension(self):
        """Codimension of the face ring inside the ambient polynomial
        ring: number of ambient variables minus (dim + 1)."""
        return len(self.ambient) - (self.dim() + 1)

    def link(self, v):
        bit = self._bit(v)
        return self._derive([m ^ bit for m in self.masks if m & bit], (v,))

    def deletion(self, v):
        bit = self._bit(v)
        without = [m for m in self.masks if not m & bit]
        cut = [
            c
            for c in (m ^ bit for m in self.masks if m & bit)
            if not any(c & m == c for m in without)
        ]
        return self._derive(without + cut, (v,))

    def strip_cones(self):
        common = functools.reduce(operator.and_, self.masks) if self.masks else 0
        if not common:
            return self, []
        cones = self._vertices(common)
        return self._derive([m ^ common for m in self.masks], set(cones)), cones

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
            len(self.masks),
            "void" if self.is_void() else self.dim(),
        )


# ---------------------------------------------------------------------------
# vertex decomposability


def check_shedding(cx, v, deletion=None, link=None):
    """Conditions making v a usable shedding vertex of cx: cx pure, v a
    non-cone vertex, deletion pure of the same dimension, link pure one
    dimension lower.  deletion and link, when given, are the deletion
    and link of v in cx, as a caller that built cx by
    SimplicialComplex.double_link already has them.  Returns (ok, failed
    condition names)."""
    bad, _, _ = _shedding(cx, v, deletion, link)
    return not bad, bad


def _shedding(cx, v, dele=None, lk=None):
    """check_shedding's failed condition names, with the deletion and
    link of v it built or was given (None when it stopped before
    building them), so a search or replay that goes on to recurse into
    them builds each once.

    On a pure complex, when no deletion is given, the deletion comes
    from one set lookup per face F - v and vertex w instead of the scan
    of SimplicialComplex.deletion.  Proof.  Let cx be pure of dimension
    d, and v a vertex but not a cone point.  The deletion's facets are
    the maximal sets among the facets lacking v, of size d + 1, and the
    faces F - v for the facets F holding v, of size d.  Two distinct
    sets F - v do not contain one another, having one size, so F - v is
    dropped exactly when it lies in a facet G lacking v, and then
    G = (F - v) + w for a vertex w outside F.  If every F - v is
    dropped so, the deletion is the facets lacking v: pure of dimension
    d, and not void, as v is no cone point.  Otherwise the deletion
    holds F - v of size d beside a facet of size d + 1 (again as v is no
    cone point), so it keeps dimension d and is not pure.  The link, the
    faces F - v, is an antichain of sets of size d, not void as v is a
    vertex, so pure of dimension d - 1.  So the only condition that can
    fail is "deletion not pure", and it fails exactly when some F - v
    has no such w."""
    if cx.is_void():
        return ["void complex"], None, None
    pure = cx.is_pure()
    bad = [] if pure else ["complex not pure"]
    bit = cx._bit(v)
    cut = [m ^ bit for m in cx.masks if m & bit]
    if not cut:
        return bad + ["not a vertex"], None, None
    if len(cut) == len(cx.masks):
        return bad + ["cone point"], None, None
    if pure and dele is None:
        masks = cx.masks
        others = [1 << i for i in _bits(functools.reduce(operator.or_, masks) ^ bit)]
        for c in cut:
            if not any(c | w in masks for w in others if not c & w):
                return ["deletion not pure"], None, None
        dele = cx._derive([m for m in masks if not m & bit], (v,))
        return [], dele, cx._derive(cut, (v,)) if lk is None else lk
    d = cx.dim()
    if dele is None:
        dele = cx.deletion(v)
    if lk is None:
        lk = cx.link(v)
    if dele.is_void() or dele.dim() != d:
        bad.append("deletion drops dimension")
    elif not dele.is_pure():
        bad.append("deletion not pure")
    if lk.is_void() or lk.dim() != d - 1:
        bad.append("link has wrong dimension")
    elif not lk.is_pure():
        bad.append("link not pure")
    return bad, dele, lk


class _Budget:
    """State of one decomposability search: the face budget and the
    verdicts found so far, keyed by the facet masks of the cone-stripped
    complex (every complex of one search shares one vertex tuple)."""

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
    key = stripped.masks
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
    if len(cx.masks) == 1:
        return True, {"kind": "leaf", "facet": cx.vertices()}
    if not cx.is_pure():
        return False, None
    for v in cx.vertices():
        bad, dele, lk = _shedding(cx, v)
        if bad:
            continue
        ok_d, cert_d = _vd(dele, budget)
        if not ok_d:
            continue
        ok_l, cert_l = _vd(lk, budget)
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
    complex.  Returns (ok, reason).

    The search's certificate repeats a memoized subtree in full wherever
    its complex recurs, so each distinct complex is replayed once: a node
    whose cone-stripped complex already accepted an equal subtree (its
    own cone points aside, which are checked at every node) is accepted
    without re-deriving it.  Any other node is replayed in full, so a
    certificate fails at the same node, with the same reason, as a
    replay of every node would."""
    return _replay(cx, node, {})


def _replay(cx, node, accepted):
    """replay_certificate's recursion; accepted maps the facet masks of
    a cone-stripped complex to the node bodies (the node less its cone
    points) already accepted for it.  Every complex of one replay shares
    one vertex tuple, so equal masks are equal complexes."""
    stripped, cones = cx.strip_cones()
    if sorted(node.get("cone", [])) != sorted(cones):
        return False, "cone points differ"
    body = {k: val for k, val in node.items() if k != "cone"}
    seen = accepted.setdefault(stripped.masks, [])
    if body in seen:
        return True, "ok"
    ok, why = _replay_body(stripped, body, accepted)
    if ok:
        seen.append(body)
    return ok, why


def _replay_body(stripped, node, accepted):
    """Check one node against its cone-stripped complex, recursing
    through _replay."""
    if node.get("kind") == "leaf":
        if len(stripped.masks) != 1:
            return False, "leaf node but complex is not a simplex"
        if stripped.vertices() != list(node.get("facet", [])):
            return False, "leaf facet differs"
        return True, "ok"
    if node.get("kind") != "split":
        return False, "malformed node"
    v = node.get("vertex")
    bad, dele, lk = _shedding(stripped, v)
    if bad:
        return False, "shedding conditions fail at %s: %s" % (v, ", ".join(bad))
    ok, why = _replay(dele, node["deletion"], accepted)
    if not ok:
        return False, why
    return _replay(lk, node["link"], accepted)
