"""Simplicial complexes of squarefree ideals: transversals, links,
codimension by two routes, shedding, and decomposability certificates."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laddergb.errors import BudgetExceeded, PreconditionError
from laddergb.complexes import (
    SimplicialComplex,
    check_shedding,
    codim_by_cover,
    is_vertex_decomposable,
    minimal_transversals,
    replay_certificate,
)
from laddergb.linkage import Chain
from laddergb.ladders import ladder_from_json
from laddergb.monomials import MonomialIdeal, codim_by_series

from corpus import CORPUS, NEGATIVE_INSTANCES


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


def test_minimal_transversals_examples():
    supports = [frozenset({1, 2}), frozenset({2, 3})]
    assert set(minimal_transversals(supports)) == {
        frozenset({2}),
        frozenset({1, 3}),
    }
    assert minimal_transversals([]) == [frozenset()]


@given(
    st.lists(
        st.frozensets(st.integers(0, 5), min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=80)
def test_minimal_transversals_match_brute_force(supports):
    assert set(minimal_transversals(supports)) == brute_transversals(supports)


# ---------------------------------------------------------------------------
# complexes from ideals


def square_ideal():
    # (x0*x2, x1*x3): the 4-cycle; facets 01, 12, 23, 30
    return MonomialIdeal([(0, 1, 2, 1), (1, 1, 3, 1)], (0, 1, 2, 3))


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
    assert cone.cone_points() == [4]
    stripped, cones = cone.strip_cones()
    assert cones == [4]
    assert stripped.facets == base.facets
    assert base.cone_points() == []


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
    gens = [tuple(x for v in sorted(s) for x in (v, 1)) for s in supports]
    ideal = MonomialIdeal(gens, tuple(range(5)))
    if ideal.is_unit():
        return
    cx = SimplicialComplex.from_squarefree(ideal)
    assert cx.codimension() == codim_by_cover(ideal) == codim_by_series(ideal, {})


def test_codim_routes_agree_on_corpus_chains():
    nodes = 0
    for data in CORPUS + NEGATIVE_INSTANCES:
        chain = Chain(ladder_from_json(data))
        for canon in chain.sequence:
            ideal = chain.initial_ideal(canon)
            cx = SimplicialComplex.from_squarefree(ideal)
            series = codim_by_series(ideal, chain.hilbert_memo)
            assert series == cx.codimension() == codim_by_cover(ideal), canon
            nodes += 1
    assert nodes > len(CORPUS)


def test_codim_by_cover_rejects_unit():
    unit = MonomialIdeal([()], (0, 1))
    with pytest.raises(PreconditionError):
        codim_by_cover(unit)
    with pytest.raises(PreconditionError):
        codim_by_series(unit, {})


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
