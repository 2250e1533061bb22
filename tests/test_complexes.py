"""Simplicial complexes of squarefree ideals: transversals, links,
codimension by two routes, shedding, and decomposability certificates."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laddergb.errors import BudgetExceeded, PreconditionError
from laddergb.complexes import (
    SimplicialComplex,
    check_shedding,
    is_vertex_decomposable,
    replay_certificate,
)
from laddergb import complexes, mono
from laddergb.linkage import Chain, vd_cert_from_json
from laddergb.ladders import ladder_from_json
from laddergb.monomials import MonomialIdeal, codim_by_series, hilbert_numerator

from brute import codim_by_cover
from corpus import CORPUS, NEGATIVE_INSTANCES


# ---------------------------------------------------------------------------
# frozenset reference for the mask-based complexes: a complex is a pair
# (facets, ambient), facets a frozenset of frozensets


def ref_max(sets):
    sets = set(map(frozenset, sets))
    return frozenset(s for s in sets if not any(s < t for t in sets))


def ref_from_supports(supports, ambient):
    faces = [
        frozenset(c)
        for k in range(len(ambient) + 1)
        for c in itertools.combinations(ambient, k)
        if not any(s <= set(c) for s in supports)
    ]
    return ref_max(faces), tuple(ambient)


def ref_link(cx, v):
    facets, amb = cx
    return ref_max(f - {v} for f in facets if v in f), tuple(w for w in amb if w != v)


def ref_deletion(cx, v):
    facets, amb = cx
    return ref_max(f - {v} for f in facets), tuple(w for w in amb if w != v)


def ref_cone_points(cx):
    facets, _ = cx
    return sorted(frozenset.intersection(*facets)) if facets else []


def ref_strip_cones(cx):
    facets, amb = cx
    cones = ref_cone_points(cx)
    stripped = frozenset(f - set(cones) for f in facets)
    return (stripped, tuple(w for w in amb if w not in cones)), cones


def ref_dim(cx):
    return max(len(f) for f in cx[0]) - 1


def ref_is_pure(cx):
    return len({len(f) for f in cx[0]}) <= 1


def ref_check_shedding(cx, v):
    facets, _ = cx
    if not facets:
        return False, ["void complex"]
    bad = [] if ref_is_pure(cx) else ["complex not pure"]
    if not any(v in f for f in facets):
        return False, bad + ["not a vertex"]
    if all(v in f for f in facets):
        return False, bad + ["cone point"]
    d = ref_dim(cx)
    dele, lk = ref_deletion(cx, v), ref_link(cx, v)
    if not dele[0] or ref_dim(dele) != d:
        bad.append("deletion drops dimension")
    elif not ref_is_pure(dele):
        bad.append("deletion not pure")
    if not lk[0] or ref_dim(lk) != d - 1:
        bad.append("link has wrong dimension")
    elif not ref_is_pure(lk):
        bad.append("link not pure")
    return not bad, bad


def ref_vd(cx, limit):
    """Pass/fail of the decomposability search under a face budget, or
    "budget" when the search visits more than limit complexes."""
    spent = [0]
    memo = {}

    def vd(cx):
        spent[0] += 1
        if spent[0] > limit:
            raise BudgetExceeded("face-budget exhausted", limit)
        stripped, _ = ref_strip_cones(cx)
        if stripped[0] not in memo:
            memo[stripped[0]] = core(stripped)
        return memo[stripped[0]]

    def core(cx):
        facets, _ = cx
        if len(facets) <= 1:
            return bool(facets)
        if not ref_is_pure(cx):
            return False
        for v in sorted(frozenset.union(*facets)):
            if (
                ref_check_shedding(cx, v)[0]
                and vd(ref_deletion(cx, v))
                and vd(ref_link(cx, v))
            ):
                return True
        return False

    try:
        return vd(cx)
    except BudgetExceeded:
        return "budget"


def brute_transversals(supports):
    verts = sorted(set().union(*supports)) if supports else []
    hitting = [
        frozenset(c)
        for k in range(len(verts) + 1)
        for c in itertools.combinations(verts, k)
        if all(set(c) & s for s in supports)
    ]
    return {t for t in hitting if not any(u < t for u in hitting)}


# ---------------------------------------------------------------------------
# transversals


def minimal_transversals(supports, ambient):
    """The minimal transversals of the supports, as complements of the
    facets from_squarefree builds."""
    gens = [tuple(x for v in sorted(s, reverse=True) for x in (v, 1)) for s in supports]
    cx = SimplicialComplex.from_squarefree(MonomialIdeal(gens, ambient))
    return [frozenset(ambient) - f for f in cx.facets]


def test_minimal_transversals_examples():
    supports = [frozenset({1, 2}), frozenset({2, 3})]
    assert set(minimal_transversals(supports, (1, 2, 3))) == {
        frozenset({2}),
        frozenset({1, 3}),
    }
    assert minimal_transversals([], (1, 2, 3)) == [frozenset()]


@given(
    st.lists(
        st.frozensets(st.integers(0, 5), min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=80)
def test_minimal_transversals_match_brute_force(supports):
    ambient = tuple(sorted(set().union(*supports)))
    assert set(minimal_transversals(supports, ambient)) == brute_transversals(supports)


# ---------------------------------------------------------------------------
# complexes from ideals


def square_ideal():
    # (x0*x2, x1*x3): the 4-cycle; facets 01, 12, 23, 30
    return MonomialIdeal([(2, 1, 0, 1), (3, 1, 1, 1)], (0, 1, 2, 3))


def test_from_squarefree_square():
    cx = SimplicialComplex.from_squarefree(square_ideal())
    assert cx.facets == frozenset(
        frozenset(f) for f in [{0, 1}, {1, 2}, {2, 3}, {3, 0}]
    )
    assert cx.dim() == 1
    assert cx.is_pure()
    assert cx.codimension() == 2
    assert cx.vertices() == [0, 1, 2, 3]


def test_from_squarefree_rejects_powers():
    with pytest.raises(PreconditionError):
        SimplicialComplex.from_squarefree(MonomialIdeal([(0, 2)], (0, 1)))


def test_zero_ideal_gives_full_simplex():
    cx = SimplicialComplex.from_squarefree(MonomialIdeal([], (0, 1, 2)))
    assert cx.facets == frozenset([frozenset({0, 1, 2})])
    assert cx.codimension() == 0


def test_unit_ideal_gives_void_complex():
    cx = SimplicialComplex.from_squarefree(MonomialIdeal([()], (0, 1)))
    assert cx.is_void()
    with pytest.raises(PreconditionError):
        cx.dim()


def test_link_and_deletion():
    cx = SimplicialComplex.from_squarefree(square_ideal())
    lk = cx.link(0)
    assert lk.facets == frozenset([frozenset({1}), frozenset({3})])
    dele = cx.deletion(0)
    assert dele.facets == frozenset([frozenset({1, 2}), frozenset({2, 3})])
    # ambient shrinks in both
    assert 0 not in lk.ambient and 0 not in dele.ambient


def test_cone_points_and_strip():
    # cone over the 4-cycle: add vertex 4 to every facet
    base = SimplicialComplex.from_squarefree(square_ideal())
    cone = SimplicialComplex(
        [f | {4} for f in base.facets], tuple(range(5))
    )
    stripped, cones = cone.strip_cones()
    assert cones == [4]
    assert stripped.facets == base.facets
    assert base.strip_cones() == (base, [])


def assert_matches_reference(cx, ref, verts=None):
    """cx against its frozenset reference at every vertex below verts
    (VERTS by default) and one more, which is not a vertex."""
    assert (cx.facets, cx.ambient) == ref
    assert cx.vertices() == sorted(set().union(*ref[0]))
    stripped, cones = cx.strip_cones()
    ref_stripped, ref_cones = ref_strip_cones(ref)
    assert cones == ref_cones
    assert (stripped.facets, stripped.ambient) == ref_stripped
    assert cx.is_pure() == ref_is_pure(ref)
    if ref[0]:
        assert cx.dim() == ref_dim(ref)
    for v in range((VERTS if verts is None else verts) + 1):
        assert check_shedding(cx, v) == ref_check_shedding(ref, v)
        lk, dele = cx.link(v), cx.deletion(v)
        assert (lk.facets, lk.ambient) == ref_link(ref, v)
        assert (dele.facets, dele.ambient) == ref_deletion(ref, v)
    for k in (1, 2, 3, 5, 8):
        try:
            ok = is_vertex_decomposable(cx, max_faces=k)[0]
        except BudgetExceeded:
            ok = "budget"
        assert ok == ref_vd(ref, k), k


VERTS = 6
vertex_sets = st.frozensets(st.integers(0, VERTS - 1), max_size=VERTS)


@given(st.lists(vertex_sets.filter(bool), max_size=5), vertex_sets)
@settings(max_examples=150)
def test_from_squarefree_matches_frozenset_reference(supports, extra):
    ambient = tuple(sorted(set(extra).union(*supports)))
    gens = [tuple(x for v in sorted(s, reverse=True) for x in (v, 1)) for s in supports]
    cx = SimplicialComplex.from_squarefree(MonomialIdeal(gens, ambient))
    ref = ref_from_supports(supports, ambient)
    assert_matches_reference(cx, ref)
    # derived complexes share the vertex tuple and stay consistent
    for v in cx.vertices():
        assert_matches_reference(cx.link(v), ref_link(ref, v))


def _squarefree(support):
    return tuple(x for v in sorted(support, reverse=True) for x in (v, 1))


@given(
    st.integers(0, VERTS - 1),
    st.lists(vertex_sets, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), vertex_sets), max_size=4),
)
@settings(max_examples=150)
def test_double_link_matches_from_squarefree(v, b_supports, a_picks):
    # A is generated by multiples of B's generators, so A lies in B, and
    # neither uses v
    b_supports = [s - {v} for s in b_supports]
    a_supports = [
        (b_supports[k % len(b_supports)] | extra) - {v}
        for k, extra in a_picks
        if b_supports
    ]
    ambient = tuple(range(VERTS))
    a = MonomialIdeal([_squarefree(s) for s in a_supports], ambient)
    b = MonomialIdeal([_squarefree(s) for s in b_supports], ambient)
    c = a.plus(mono.mul((v, 1), g) for g in b.gens)
    a_cx = SimplicialComplex.from_squarefree(a)
    b_cx = SimplicialComplex.from_squarefree(b)
    got = SimplicialComplex.double_link(a_cx, b_cx, v)
    want = SimplicialComplex.from_squarefree(c)
    assert (got.masks, got.verts, got.ambient) == (want.masks, want.verts, want.ambient)
    assert want.deletion(v) == a_cx.link(v)
    assert want.link(v) == b_cx.link(v)
    given_parts = check_shedding(got, v, a_cx.link(v), b_cx.link(v))
    assert given_parts == check_shedding(want, v)


@given(st.lists(vertex_sets, max_size=6))
@settings(max_examples=150)
def test_constructor_matches_frozenset_reference(facets):
    ambient = tuple(range(VERTS))
    cx = SimplicialComplex(facets, ambient)
    assert_matches_reference(cx, (ref_max(facets), ambient))


@st.composite
def pure_facets(draw):
    """(facets, number of vertices): k-subsets of 7 or 8 vertices."""
    n = draw(st.integers(7, 8))
    k = draw(st.integers(1, n - 1))
    subsets = st.frozensets(st.integers(0, n - 1), min_size=k, max_size=k)
    return draw(st.lists(subsets, min_size=1, max_size=12)), n


@given(pure_facets())
@settings(max_examples=100)
def test_pure_complex_matches_frozenset_reference(drawn):
    # the shedding test on a pure complex finds its deletion by lookup;
    # the deletions themselves, mostly impure, take the scan
    facets, n = drawn
    ambient = tuple(range(n))
    cx = SimplicialComplex(facets, ambient)
    ref = (ref_max(facets), ambient)
    assert cx.is_pure()
    assert_matches_reference(cx, ref, n)
    for v in cx.vertices():
        assert_matches_reference(cx.deletion(v), ref_deletion(ref, v), n)
    ok, cert = is_vertex_decomposable(cx)
    assert ok == ref_vd(ref, float("inf"))
    if ok:
        assert replay_certificate(cx, cert) == (True, "ok")


# ---------------------------------------------------------------------------
# codimension, three routes: complex, vertex cover, Hilbert series


@given(
    st.lists(
        st.frozensets(st.integers(0, 4), min_size=1, max_size=3),
        min_size=0,
        max_size=4,
    )
)
@settings(max_examples=80)
def test_codim_routes_agree(supports):
    gens = [tuple(x for v in sorted(s, reverse=True) for x in (v, 1)) for s in supports]
    ideal = MonomialIdeal(gens, tuple(range(5)))
    if ideal.is_unit():
        return
    cx = SimplicialComplex.from_squarefree(ideal)
    series = codim_by_series(hilbert_numerator(ideal.gens))
    assert cx.codimension() == codim_by_cover(ideal) == series


def test_codim_routes_agree_on_corpus_chains():
    nodes = 0
    for data in CORPUS + NEGATIVE_INSTANCES:
        chain = Chain(ladder_from_json(data))
        for canon in chain.sequence:
            ideal = chain.initial_ideal(canon)
            cx = SimplicialComplex.from_squarefree(ideal)
            series = codim_by_series(chain.numerator(canon))
            assert series == cx.codimension() == codim_by_cover(ideal), canon
            nodes += 1
    assert nodes > len(CORPUS)


def test_codim_by_cover_rejects_unit():
    unit = MonomialIdeal([()], (0, 1))
    with pytest.raises(PreconditionError):
        codim_by_cover(unit)
    with pytest.raises(PreconditionError):
        codim_by_series(hilbert_numerator(unit.gens))


# ---------------------------------------------------------------------------
# shedding


def test_shedding_on_square():
    cx = SimplicialComplex.from_squarefree(square_ideal())
    ok, bad = check_shedding(cx, 0)
    assert ok and not bad
    ok, bad = check_shedding(cx, 9)
    assert not ok and "not a vertex" in bad


def test_shedding_rejects_cone_point():
    base = SimplicialComplex.from_squarefree(square_ideal())
    cone = SimplicialComplex([f | {4} for f in base.facets], tuple(range(5)))
    ok, bad = check_shedding(cone, 4)
    assert not ok and "cone point" in bad


def test_shedding_detects_impure_deletion():
    # two triangles glued at a vertex: deleting 0 leaves a triangle and
    # an edge
    cx = SimplicialComplex([{0, 1, 2}, {2, 3, 4}], tuple(range(5)))
    ok, bad = check_shedding(cx, 0)
    assert not ok
    assert "deletion not pure" in bad


def test_shedding_detects_dimension_drop():
    # non-pure: deleting 0 collapses the only top facet to an edge
    cx = SimplicialComplex([{0, 1, 2}, {3, 4}], tuple(range(5)))
    ok, bad = check_shedding(cx, 0)
    assert not ok
    assert "complex not pure" in bad
    assert "deletion drops dimension" in bad


def test_shedding_on_void():
    cx = SimplicialComplex([], (0, 1))
    ok, bad = check_shedding(cx, 0)
    assert not ok and bad == ["void complex"]


# ---------------------------------------------------------------------------
# vertex decomposability


def test_simplex_is_decomposable():
    cx = SimplicialComplex([{0, 1, 2}], (0, 1, 2))
    ok, cert = is_vertex_decomposable(cx)
    assert ok
    assert cert["kind"] == "leaf"
    assert cert["cone"] == [0, 1, 2]  # a simplex is a cone over its vertices
    assert replay_certificate(cx, cert) == (True, "ok")


def test_square_is_decomposable():
    cx = SimplicialComplex.from_squarefree(square_ideal())
    ok, cert = is_vertex_decomposable(cx)
    assert ok
    assert cert["kind"] == "split"
    assert replay_certificate(cx, cert) == (True, "ok")


def test_disjoint_edges_are_not_decomposable():
    # pure, 1-dimensional, disconnected: deleting any vertex drops a
    # component to a point, so no shedding vertex exists
    cx = SimplicialComplex([{0, 1}, {2, 3}], (0, 1, 2, 3))
    ok, cert = is_vertex_decomposable(cx)
    assert not ok and cert is None


def test_nonpure_complex_is_rejected():
    cx = SimplicialComplex([{0, 1, 2}, {3, 4}], tuple(range(5)))
    ok, cert = is_vertex_decomposable(cx)
    assert not ok and cert is None


def test_octahedron_boundary_is_decomposable():
    # boundary of the octahedron = joins of three 0-spheres; facets are
    # the 8 triangles avoiding each antipodal pair
    facets = [
        {a, b, c}
        for a in (0, 1)
        for b in (2, 3)
        for c in (4, 5)
    ]
    cx = SimplicialComplex(facets, tuple(range(6)))
    ok, cert = is_vertex_decomposable(cx)
    assert ok
    assert replay_certificate(cx, cert) == (True, "ok")


def test_budget_exhaustion():
    facets = [{a, b, c} for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    cx = SimplicialComplex(facets, tuple(range(6)))
    with pytest.raises(BudgetExceeded):
        is_vertex_decomposable(cx, max_faces=2)


PFAFFIAN_8 = {"family": "pfaffian", "n": 8, "corners": [[1, 8]], "t": [2]}

# Complexes the search visits on each top, in the order of
# CORPUS + NEGATIVE_INSTANCES + [PFAFFIAN_8]: every --budget-faces
# outcome on these instances follows from them.
SEARCH_VISITS = (
    [1, 3, 5, 7, 9]  # maxminors
    + [3, 7, 15, 5, 5, 7]  # pfaffian
    + [7, 5, 15, 7, 13, 9]  # symmetric
    + [5, 11, 7, 11, 11]  # onesided
    + [7, 3]  # negative instances
    + [51]  # pfaffian n=8
)


def test_search_visits_are_pinned_on_corpus_tops():
    instances = CORPUS + NEGATIVE_INSTANCES + [PFAFFIAN_8]
    assert len(instances) == len(SEARCH_VISITS)
    for data, visits in zip(instances, SEARCH_VISITS):
        chain = Chain(ladder_from_json(data))
        cx = chain.node_complex(chain.top_canon)
        ok, cert = is_vertex_decomposable(cx, max_faces=visits)
        assert ok and replay_certificate(cx, cert) == (True, "ok"), data
        with pytest.raises(BudgetExceeded):
            is_vertex_decomposable(cx, max_faces=visits - 1)


# ---------------------------------------------------------------------------
# certificate replay negatives


def test_replay_rejects_edited_vertex():
    cx = SimplicialComplex.from_squarefree(square_ideal())
    ok, cert = is_vertex_decomposable(cx)
    assert ok
    tampered = dict(cert)
    tampered["vertex"] = 99
    ok, why = replay_certificate(cx, tampered)
    assert not ok and "not a vertex" in why


def test_replay_rejects_wrong_cone_points():
    cx = SimplicialComplex([{0, 1, 2}], (0, 1, 2))
    ok, cert = is_vertex_decomposable(cx)
    tampered = dict(cert)
    tampered["cone"] = [0, 1]
    ok, why = replay_certificate(cx, tampered)
    assert not ok and why == "cone points differ"


def test_replay_rejects_malformed_node():
    cx = SimplicialComplex.from_squarefree(square_ideal())
    ok, why = replay_certificate(cx, {"cone": []})
    assert not ok and why == "malformed node"


def ref_replay(cx, node, splits):
    """A certificate replay that re-derives every node, deletions by the
    scan of SimplicialComplex.deletion: the reference for
    replay_certificate's verdict and reason.  splits collects the facet
    masks of each split node's cone-stripped complex, repeats included."""
    stripped, cones = cx.strip_cones()
    if sorted(node.get("cone", [])) != sorted(cones):
        return False, "cone points differ"
    if node.get("kind") == "leaf":
        if len(stripped.masks) != 1:
            return False, "leaf node but complex is not a simplex"
        if stripped.vertices() != list(node.get("facet", [])):
            return False, "leaf facet differs"
        return True, "ok"
    if node.get("kind") != "split":
        return False, "malformed node"
    v = node.get("vertex")
    ok, bad = check_shedding(stripped, v)
    if not ok:
        return False, "shedding conditions fail at %s: %s" % (v, ", ".join(bad))
    splits.append(stripped.masks)
    ok, why = ref_replay(stripped.deletion(v), node["deletion"], splits)
    if not ok:
        return False, why
    return ref_replay(stripped.link(v), node["link"], splits)


def _cert_nodes(node, path=()):
    """(path, node) for every node of a certificate tree, in replay order."""
    yield path, node
    if node.get("kind") == "split":
        yield from _cert_nodes(node["deletion"], path + ("deletion",))
        yield from _cert_nodes(node["link"], path + ("link",))


def _json_cert(cert):
    return vd_cert_from_json(json.loads(json.dumps(cert)))


PFAFFIAN_6 = {"family": "pfaffian", "n": 6, "corners": [[1, 6]], "t": [2]}


def test_replay_checks_each_distinct_complex_once(monkeypatch):
    chain = Chain(ladder_from_json(PFAFFIAN_6))
    cx = chain.node_complex(chain.top_canon)
    ok, cert = is_vertex_decomposable(cx)
    cert = _json_cert(cert)
    splits = []
    assert ok and ref_replay(cx, cert, splits) == (True, "ok")
    calls = []
    shedding = complexes._shedding
    monkeypatch.setattr(
        complexes, "_shedding", lambda *args: calls.append(1) or shedding(*args)
    )
    assert replay_certificate(cx, cert) == (True, "ok")
    # the tree repeats memoized subtrees: 13 split nodes, 7 distinct complexes
    assert (len(splits), len(set(splits)), len(calls)) == (13, 7, 7)


def test_replay_of_tampered_copies_gives_the_full_replays_reason():
    # every node of a JSON-read certificate edited in turn, repeated
    # subtrees' later copies included: a leaf gains a vertex, a split
    # swaps its deletion and link
    chain = Chain(ladder_from_json(PFAFFIAN_6))
    cx = chain.node_complex(chain.top_canon)
    _, cert = is_vertex_decomposable(cx)
    repeats = 0
    seen = set()
    for path, node in _cert_nodes(_json_cert(cert)):
        tampered = _json_cert(cert)
        target = tampered
        for key in path:
            target = target[key]
        if target["kind"] == "leaf":
            target["facet"] = target["facet"] + [(99, 99)]
        else:
            target["deletion"], target["link"] = target["link"], target["deletion"]
        want = ref_replay(cx, tampered, [])
        assert not want[0], path
        assert replay_certificate(cx, tampered) == want, path
        body = json.dumps({k: v for k, v in node.items() if k != "cone"})
        repeats += body in seen
        seen.add(body)
    assert repeats > 0
