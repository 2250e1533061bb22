"""Natural generators: counts, dedup, degrees, leading monomials."""

import itertools
import math

from laddergb import (
    MaxMinors,
    OneSidedLadder,
    PfaffianLadder,
    QQ,
    SymmetricLadder,
    conventional_order,
    initial_generators,
    ladder_from_json,
    natural_generators,
)
from laddergb import families, matrices
from laddergb.fields import PrimeField
from laddergb import linkage
from laddergb.linkage import Chain
from laddergb.monomials import MonomialIdeal
from laddergb.poly import freeze, leading_term, p_degree, p_is_zero

from corpus import CORPUS, NEGATIVE_INSTANCES
from lexref import lex_key


# ---------------------------------------------------------------------------
# counts


def test_maxminors_counts():
    assert len(natural_generators(MaxMinors(2, 3))) == 3
    assert len(natural_generators(MaxMinors(3, 4))) == 4
    assert len(natural_generators(MaxMinors(1, 3))) == 3
    assert natural_generators(MaxMinors(3, 2)) == []  # zero ideal


def test_pfaffian_counts():
    # one full block: all 2t-subsets
    assert len(natural_generators(PfaffianLadder(4, [(1, 4)], [2]))) == 1
    assert len(natural_generators(PfaffianLadder(5, [(1, 5)], [2]))) == 5
    assert len(natural_generators(PfaffianLadder(6, [(1, 6)], [2]))) == math.comb(6, 4)
    # overlapping blocks contribute their own pfaffians
    assert len(natural_generators(PfaffianLadder(5, [(1, 4), (2, 5)], [2, 2]))) == 2
    # too-small block contributes nothing
    assert natural_generators(PfaffianLadder(4, [(2, 4)], [2])) == []


def test_symmetric_counts_use_ordered_selections():
    # pairs of 2-subsets (R, C) with R <= C pointwise: 6 for n=3, 20 for n=4
    assert len(natural_generators(SymmetricLadder(3, [(3, 3)], [2]))) == 6
    assert len(natural_generators(SymmetricLadder(4, [(4, 4)], [2]))) == 20


def test_symmetric_skips_transpose_violations():
    # [13|24] is kept, [14|23] is not generated separately: it equals
    # [13|24] - [12|34] and would break interreducedness
    gens = natural_generators(SymmetricLadder(4, [(4, 4)], [2]))
    keys = {freeze(g) for g in gens}
    assert len(keys) == len(gens) == 20


def test_onesided_counts():
    assert len(natural_generators(OneSidedLadder(2, 3, [(2, 1)], [2]))) == 3
    assert len(natural_generators(OneSidedLadder(3, 3, [(3, 1)], [2]))) == 9
    two = OneSidedLadder(3, 3, [(2, 1), (3, 2)], [2, 2])
    # region 1: rows in {1,2}, all column pairs: 3; region 2: rows pairs
    # from {1,2,3}, cols {2,3}: 3; the overlap [12|23] is deduplicated
    assert len(natural_generators(two)) == 5


def test_dedup_shared_minors():
    l = SymmetricLadder(4, [(2, 4), (3, 3)], [2, 2])
    gens = natural_generators(l)
    assert len({freeze(g) for g in gens}) == len(gens)


# ---------------------------------------------------------------------------
# degrees and leading monomials


def test_generator_degrees_match_region_sizes():
    assert {p_degree(g) for g in natural_generators(MaxMinors(3, 4))} == {3}
    assert {p_degree(g) for g in natural_generators(PfaffianLadder(6, [(1, 6)], [2]))} == {2}
    assert {p_degree(g) for g in natural_generators(SymmetricLadder(4, [(4, 4)], [2]))} == {2}


def test_maxminors_leading_monomials_are_diagonals():
    l = MaxMinors(2, 3)
    monos = initial_generators(l)
    v = conventional_order(l).var
    expect = {
        (v(1, 1), 1, v(2, 2), 1),
        (v(1, 1), 1, v(2, 3), 1),
        (v(1, 2), 1, v(2, 3), 1),
    }
    assert set(monos) == expect


def test_onesided_leading_monomials_are_antidiagonals():
    l = OneSidedLadder(2, 3, [(2, 1)], [2])
    monos = set(initial_generators(l))
    v = conventional_order(l).var
    # 2-minor on columns (j1 < j2) leads with x[1,j2]*x[2,j1]
    expect = {
        (v(1, 2), 1, v(2, 1), 1),
        (v(1, 3), 1, v(2, 1), 1),
        (v(1, 3), 1, v(2, 2), 1),
    }
    assert monos == expect


def test_pfaffian_leading_monomials():
    l = PfaffianLadder(4, [(1, 4)], [2])
    (g,) = natural_generators(l)
    # pf = x12*x34 - x13*x24 + x14*x23; antidiagonal order leads x14*x23
    order = conventional_order(l)
    m, c = leading_term(g, order)
    assert m == (order.var(1, 4), 1, order.var(2, 3), 1)
    assert QQ.eq(c, QQ.one)


# ---------------------------------------------------------------------------
# determinism and the conventional orders


def test_conventional_order_kind_per_family():
    assert conventional_order(MaxMinors(2, 3)).kind == "diagonal"
    assert conventional_order(SymmetricLadder(3, [(3, 3)], [2])).kind == "diagonal"
    assert conventional_order(PfaffianLadder(4, [(1, 4)], [2])).kind == "antidiagonal"
    assert conventional_order(OneSidedLadder(2, 3, [(2, 1)], [2])).kind == "antidiagonal"


def test_generators_are_deterministic():
    for data in CORPUS:
        l = ladder_from_json(data)
        a = [freeze(g) for g in natural_generators(l)]
        b = [freeze(g) for g in natural_generators(l)]
        assert a == b


def test_initial_generators_sorted():
    for data in CORPUS:
        l = ladder_from_json(data)
        order = conventional_order(l)
        monos = initial_generators(l)
        assert monos == sorted(monos, key=lambda m: lex_key(m, order))
        assert len(set(monos)) == len(monos)


# ---------------------------------------------------------------------------
# the index-set route against full expansion


def ref_index_sets(ladder):
    """Brute-force enumeration of each family's index sets, region by
    region: (rows, cols) of a minor, (indices,) of a pfaffian."""
    combos = itertools.combinations
    if ladder.family == "maxminors":
        rows = tuple(range(1, ladder.m + 1))
        for cols in combos(range(1, ladder.n + 1), ladder.m):
            yield rows, cols
        return
    for region in ladder.regions():
        t = region.t
        if ladder.family == "pfaffian":
            a, b = region.point
            for idx in combos(range(a, b + 1), 2 * t):
                yield (idx,)
        elif ladder.family == "symmetric":
            n = ladder.n
            for rows in combos(range(1, n + 1), t):
                for cols in combos(range(1, n + 1), t):
                    cells = {(min(r, c), max(r, c)) for r in rows for c in cols}
                    ordered = all(r <= c for r, c in zip(rows, cols))
                    if ordered and cells <= region.cells:
                        yield rows, cols
        else:
            a, b = region.point
            for rows in combos(range(1, a + 1), t):
                for cols in combos(range(b, ladder.n + 1), t):
                    yield rows, cols


def ref_generators(ladder, field, order, shape):
    """Every index set expanded, zero and repeated polynomials dropped
    (by freeze), sorted by (degree, leading monomial)."""
    seen = set()
    out = []
    for key in ref_index_sets(ladder):
        if len(key) == 1:
            g = matrices.pfaffian(shape, key[0], field, order)
        else:
            g = matrices.minor(shape, key[0], key[1], field, order)
        if p_is_zero(g) or freeze(g) in seen:
            continue
        seen.add(freeze(g))
        out.append(g)
    def lead_key(g):
        return lex_key(max(g, key=lambda m: lex_key(m, order)), order)

    out.sort(key=lambda g: (p_degree(g), lead_key(g)))
    return out


def test_index_set_route_matches_expansion_on_every_chain_node():
    for data in CORPUS + NEGATIVE_INSTANCES:
        for field in (QQ, PrimeField(2)):
            chain = Chain(ladder_from_json(data), field)
            for kind in ("diagonal", "antidiagonal"):
                order = matrices.order_for(chain.shape, kind)
                for canon in chain.sequence:
                    ladder = chain.nodes[canon].ladder
                    ref = ref_generators(ladder, field, order, ladder.shape())
                    gens = natural_generators(ladder, field, order, chain.shape)
                    assert list(map(freeze, gens)) == list(map(freeze, ref))
                    leads = families.leading_monomials(
                        ladder, order, chain.shape, field
                    )
                    assert leads == [leading_term(g, order)[0] for g in ref]
            # the chain reads its generators and leading monomials from
            # its region table
            for canon in chain.sequence:
                ladder = chain.nodes[canon].ladder
                ref = ref_generators(ladder, field, chain.order, ladder.shape())
                gens = chain.generators(canon)
                assert list(map(freeze, gens)) == list(map(freeze, ref))
                leads = {leading_term(g, chain.order)[0] for g in ref}
                assert chain.leading_monomials(canon) == leads


def test_initial_ideal_route_matches_a_minimalized_one():
    # linkage.initial_ideal, which CLI initial, height and vd read, walks
    # the region table as a chain does; the reference minimalizes the
    # sorted leading monomials as a whole
    for data in CORPUS + NEGATIVE_INSTANCES:
        ladder = ladder_from_json(data)
        for field in (QQ, PrimeField(2)):
            for kind in ("diagonal", "antidiagonal"):
                order = matrices.order_for(ladder.shape(), kind)
                got = linkage.initial_ideal(ladder, order, field)
                want = MonomialIdeal(
                    set(families.leading_monomials(ladder, order, field=field)),
                    [order.var(i, j) for i, j in ladder.variables()],
                )
                assert got.gens == want.gens, (data, kind)
                assert got.ambient == want.ambient, (data, kind)
                assert got.is_squarefree() == want.is_squarefree(), (data, kind)
