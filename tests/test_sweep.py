"""A small exhaustive sweep of instances: pinned chains, and region
enumeration, absorption, heights and the nested-region scan against
independent references.

The candidates are every one-sided ladder with m, n <= 4, every
symmetric ladder with n <= 4 and every pfaffian ladder with n <= 6, each
with one or two distinguished points (corners) and sizes t <= 3; the
sweep keeps those that validate accepts without an error.  For every
node of every chain the digest reads its canon, removed cell, both
children and its generator index sets, so any change to splitting,
normalization or generator enumeration shows up.  Each instance's
verdict over GF(32003), its set of failing checks, is pinned too."""

import hashlib
import itertools

import pytest

from laddergb import OneSidedLadder, PfaffianLadder, QQ, SymmetricLadder
from laddergb import field_by_name, verify_family
from laddergb import families, matrices, mono
from laddergb.complexes import SimplicialComplex, check_shedding, is_vertex_decomposable
from laddergb.errors import PreconditionError
from laddergb.ladders import _Ladder, errors_of
from laddergb.linkage import Chain
from laddergb.monomials import MonomialIdeal, _squarefree, check_double_link
from laddergb.monomials import hilbert_numerator

import ladderref
from tupleref import encode

# recorded before the families shared one region enumerator and one
# normalization path; a change to any chain has to update it on purpose
SWEEP_DIGEST = "96c3b66df3758f7595ed0eec4e79acbc4e2659b80452e8b690949619a1eb01f2"
SWEEP_LADDERS = 4812
# verify_family over GF(32003) on every sweep instance: the digest reads
# each instance's canon and sorted set of failing check names, and the
# counts are the failing instances of each family (642 in all).  A change
# that fixes or breaks a verdict moves both on purpose.
VERDICT_DIGEST = "8b564a671a3ceb6d03deffef2eef977f6a01e7985eb37ea4525b87b1ba6bfb81"
VERDICT_FAILURES = {"onesided": 386, "symmetric": 157, "pfaffian": 99}


def _with_sizes(points, build):
    for k in (1, 2):
        for pts in itertools.combinations(points, k):
            for ts in itertools.product((1, 2, 3), repeat=k):
                yield build(pts, ts)


def sweep_candidates():
    """Every candidate instance of the sweep, errors included."""
    for m in range(1, 5):
        for n in range(1, 5):
            cells = [(a, b) for a in range(1, m + 1) for b in range(1, n + 1)]
            yield from _with_sizes(
                cells, lambda p, t, m=m, n=n: OneSidedLadder(m, n, p, t)
            )
    for n in range(1, 5):
        cells = [(v, w) for v in range(1, n + 1) for w in range(v, n + 1)]
        yield from _with_sizes(cells, lambda p, t, n=n: SymmetricLadder(n, p, t))
    for n in range(2, 7):
        cells = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        yield from _with_sizes(cells, lambda p, t, n=n: PfaffianLadder(n, p, t))


def sweep_ladders():
    return [l for l in sweep_candidates() if not errors_of(l.validate())]


@pytest.fixture(scope="module")
def sweep_chains():
    """(number of instances, digest of their chains, every distinct
    chain node's ladder, each such node's canon mapped to the first
    chain holding it, and the nested-region scans of the builds: each
    distinct (family, pairs) that _Ladder._outer was called on, mapped to
    (a ladder that called it, the list it returned))."""
    ladders = sweep_ladders()
    h = hashlib.sha256()
    nodes = {}
    chains = {}
    scans = {}
    outer = _Ladder._outer

    def recorded(ladder, pairs):
        got = outer(ladder, pairs)
        scans.setdefault((ladder.family, tuple(pairs)), (ladder, got))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Ladder, "_outer", recorded)
        for top in ladders:
            chain = Chain(top)
            for canon in chain.sequence:
                node = chain.nodes[canon]
                row = (canon, node.cell, node.reduced, node.middle, chain.names(canon))
                h.update(repr(row).encode())
                nodes[canon] = node.ladder
                chains.setdefault(canon, chain)
    return len(ladders), h.hexdigest(), list(nodes.values()), chains, scans


def test_every_sweep_chain_is_pinned(sweep_chains):
    count, digest, _, _, _ = sweep_chains
    assert count == SWEEP_LADDERS
    assert digest == SWEEP_DIGEST


def test_every_sweep_verdict_is_pinned():
    gf = field_by_name("gf:32003")
    h = hashlib.sha256()
    failures = dict.fromkeys(VERDICT_FAILURES, 0)
    for top in sweep_ladders():
        report, _, _ = verify_family(top, gf)
        failing = sorted({c["name"] for c in report["checks"] if not c["pass"]})
        h.update(repr((top.canon(), failing)).encode())
        failures[top.family] += bool(failing)
    assert failures == VERDICT_FAILURES
    assert h.hexdigest() == VERDICT_DIGEST


def test_heights_match_the_set_reference_on_every_sweep_node(sweep_chains):
    # heights and tilde() read one mask built from the table's shifted
    # cells; they must be the set-based reference's on every node, alone
    # and with the chain's table.  The symmetric height is a conjunction
    # of constraints: the sweep reaches 111 nodes where a union of
    # shifted regions would differ from it
    _, _, _, chains, _ = sweep_chains
    symmetric = differ = 0
    for canon, chain in chains.items():
        node = chain.nodes[canon]
        ladder = node.ladder
        want = ladderref.tilde(ladder)
        assert ladder.tilde() == ladder.tilde(chain.regions) == want, canon
        assert node.height == ladder.height_formula() == len(want), canon
        if ladder.family == "symmetric":
            symmetric += 1
            differ += ladderref.rectangles(ladder) != want
    assert (symmetric, differ) == (469, 111)


def test_nested_scans_match_the_reference_on_every_sweep_build(sweep_chains):
    # every pairs list _normalized scanned for nested regions while the
    # sweep chains were built gives the reference comprehension's list
    _, _, _, _, scans = sweep_chains
    assert {family for family, _ in scans} == {"onesided", "symmetric", "pfaffian"}
    for (family, pairs), (ladder, got) in scans.items():
        assert got == ladderref.outer(ladder, list(pairs)), (family, pairs)


# ---------------------------------------------------------------------------
# region_keys and absorbed_keys against references


def ref_region_keys(ladder, point, t):
    """Every t-subset of rows and of columns (2t-subset of indices for a
    pfaffian) whose entries all lie in the region, in lexicographic
    order; a symmetric minor also needs rows <= columns pointwise."""
    cells = ladder.region_cells(point)
    combos = itertools.combinations
    if ladder.family == "pfaffian":
        return [
            (idx,)
            for idx in combos(range(1, ladder.n + 1), 2 * t)
            if all(pair in cells for pair in combos(idx, 2))
        ]
    symmetric = ladder.family == "symmetric"
    out = []
    for rows in combos(range(1, ladder.shape().m + 1), t):
        for cols in combos(range(1, ladder.n + 1), t):
            if symmetric and any(r > c for r, c in zip(rows, cols)):
                continue
            entries = {
                (min(r, c), max(r, c)) if symmetric else (r, c)
                for r in rows
                for c in cols
            }
            if entries <= cells:
                out.append((rows, cols))
    return out


def test_chain_region_table_matches_a_fresh_one_on_every_sweep_node(sweep_chains):
    # a chain merges every node's generators from one table of regions;
    # a region identity that let two different regions share entries
    # would show here, as the table had read the chain's other nodes
    _, _, _, chains, _ = sweep_chains
    for canon, chain in chains.items():
        ladder = chain.nodes[canon].ladder
        fresh = families.index_sets(ladder, chain.order, chain.shape, chain.field)
        assert chain.index_sets(canon) == fresh, canon
        assert chain.leading_monomials(canon) == {lead for _, lead in fresh}, canon


def test_chain_initial_ideal_matches_a_minimalized_one_on_every_sweep_node(sweep_chains):
    # a node's ideal is walked level by level from its region sets; it must
    # be the ideal the public constructor minimalizes from the whole set
    _, _, _, chains, _ = sweep_chains
    assert len(chains) == 6509
    for canon, chain in chains.items():
        got = chain.initial_ideal(canon)
        want = MonomialIdeal(chain.leading_monomials(canon), chain.ambient)
        assert (got.gens, got.ambient) == (want.gens, want.ambient), canon


def test_shedding_walk_matches_berge_on_every_sweep_step(sweep_chains):
    # the walk derives a step's complex from its children's where the
    # step is a double link (Chain.is_double_link); every verdict must be
    # check_shedding's on a complex built by Berge's algorithm, and the
    # guard the double link that basic-double-link checks
    _, _, _, chains, _ = sweep_chains
    steps = derived = 0
    for canon, chain in chains.items():
        node = chain.nodes[canon]
        if node.cell is None:
            continue
        c, a, b = (chain.initial_ideal(k) for k in (canon, node.middle, node.reduced))
        berge = SimplicialComplex.from_squarefree(c, chain.order.cell)
        assert chain.shedding(canon) == check_shedding(berge, node.cell), canon
        fvar = chain.order.var(*node.cell)
        f = encode((fvar, 1))
        try:
            check_double_link(a, b, f)
        except PreconditionError:
            linked = False
        else:
            linked = a.plus(mono.mul(f, g) for g in b.gens) == c
        linked = linked and not any(fvar in mono.variables(g) for g in b.gens)
        assert chain.is_double_link(canon) == linked, canon
        steps += 1
        derived += linked
    # distinct steps; the 4 812 chains take 4 255 steps, 4 114 derived
    assert (steps, derived) == (2044, 1909)
    # every top complex, a terminal's simplex included, is Berge's
    for chain in {id(chain): chain for chain in chains.values()}.values():
        got = chain.node_complex(chain.top_canon)
        want = SimplicialComplex.from_squarefree(
            chain.initial_ideal(chain.top_canon), chain.order.cell
        )
        assert (got.masks, got.verts, got.ambient) == (
            want.masks,
            want.verts,
            want.ambient,
        ), chain.top_canon


def test_chain_numerators_match_the_recursion_on_every_sweep_node(sweep_chains):
    # a double-link step derives its numerator from its children's
    # (Chain.numerator); every node's must be the pivot recursion's on
    # its own generators
    _, _, _, chains, _ = sweep_chains
    derived = 0
    for canon, chain in chains.items():
        want = hilbert_numerator(chain.initial_ideal(canon).gens)
        assert chain.numerator(canon) == want, canon
        derived += chain.nodes[canon].cell is not None and chain.is_double_link(canon)
    # distinct nodes; the other 4 600 run the recursion
    assert (len(chains), derived) == (6509, 1909)


# sweep instances whose chain is its own decomposability certificate
# (Chain.certifies_vd); the search runs on the other 408 tops
CERTIFYING_CHAINS = 4404


def test_certifying_chains_are_decomposable_by_the_search():
    # the chain's verdict is a proof; the search, which tries every
    # vertex, must find every top it holds on decomposable too
    certified = 0
    for top in sweep_ladders():
        chain = Chain(top)
        ok, why = chain.certifies_vd()
        assert ok == (why == "ok"), top.canon()
        if ok:
            certified += 1
            cx = chain.node_complex(chain.top_canon)
            assert is_vertex_decomposable(cx)[0], top.canon()
    assert certified == CERTIFYING_CHAINS


def test_chain_ideal_squarefree_flag_matches_a_scan_on_every_sweep_node(sweep_chains):
    # a node's ideal takes its flag from its region sets where they are
    # all squarefree, and scans its generators only otherwise
    _, _, _, chains, _ = sweep_chains
    for canon, chain in chains.items():
        ideal = chain.initial_ideal(canon)
        assert ideal.is_squarefree() == _squarefree(ideal.gens), canon


def test_region_keys_match_brute_force_on_every_sweep_node(sweep_chains):
    _, _, nodes, _, _ = sweep_chains
    for ladder in nodes:
        for point, t in ladder.sizes():
            keys = list(ladder.region_keys(point, t))
            assert keys == ref_region_keys(ladder, point, t), (ladder, point, t)
            assert ladder.holds_generator(point, t) == bool(keys)


def _size_one_cells(ladder):
    cells = set()
    for point, t in ladder.sizes():
        if t == 1:
            cells |= ladder.region_cells(point)
    return cells


def test_absorbed_regions_have_a_size_one_variable_in_every_term(sweep_chains):
    rings = {}
    seen = {"onesided": 0, "symmetric": 0, "pfaffian": 0}
    _, _, nodes, _, _ = sweep_chains
    for ladder in list(sweep_candidates()) + nodes:
        cells = _size_one_cells(ladder)
        if not cells:
            continue
        if repr(ladder.shape()) not in rings:
            shape = ladder.shape()
            rings[repr(shape)] = shape, matrices.order_for(shape, "diagonal")
        shape, order = rings[repr(ladder.shape())]
        size_one = {order.var(i, j) for (i, j) in cells}
        # the positions of the size-one cells: outside a generic matrix,
        # entry (j, i) is the variable of cell (i, j) too
        mirrored = ladder.shape().kind != "generic"
        positions = set(cells)
        if mirrored:
            positions |= {(j, i) for (i, j) in cells}
        for point, t in ladder.sizes():
            if t == 1:
                continue
            free = families.absorbed_keys(ladder, point, t, positions)
            absorbed = ladder.holds_generator(point, t) and not free
            # the key RegionTable.absorbed_keys keeps it under: the
            # positions among the region's cells, plus their mirror
            near = cells & ladder.region_cells(point)
            if mirrored:
                near |= {(j, i) for (i, j) in near}
            assert families.absorbed_keys(ladder, point, t, near) == free, (ladder, point, t)
            avoiding = False
            for key in ladder.region_keys(point, t):
                if len(key) == 1:
                    g = matrices.pfaffian(shape, key[0], QQ, order)
                else:
                    g = matrices.minor(shape, key[0], key[1], QQ, order)
                for m in g:
                    if size_one.isdisjoint(mono.variables(m)):
                        avoiding = True
            if absorbed:
                seen[ladder.family] += 1
                assert not avoiding, (ladder, point, t)
            elif ladder.family != "symmetric":
                # distinct terms of a generic minor or of a pfaffian are
                # distinct monomials, so an avoiding term survives
                assert avoiding or not ladder.holds_generator(point, t)
    assert all(seen.values()), seen


def test_node_parents_count_the_steps_naming_them_on_every_sweep_chain(sweep_chains):
    # _build counts each node's parents once, as the chain is built; the
    # walk drops a child's complex after that many steps have read it
    _, _, _, chains, _ = sweep_chains
    shared = 0
    for chain in {id(chain): chain for chain in chains.values()}.values():
        named = dict.fromkeys(chain.sequence, 0)
        for canon in chain.steps():
            node = chain.nodes[canon]
            named[node.middle] += 1
            named[node.reduced] += 1
        assert {c: chain.nodes[c].parents for c in chain.sequence} == named
        assert named[chain.top_canon] == 0
        shared += any(count > 1 for count in named.values())
    assert shared
