"""A small exhaustive sweep of instances: pinned chains, and region
enumeration and absorption against independent references.

The candidates are every one-sided ladder with m, n <= 4, every
symmetric ladder with n <= 4 and every pfaffian ladder with n <= 6, each
with one or two distinguished points (corners) and sizes t <= 3; the
sweep keeps those that validate accepts without an error.  For every
node of every chain the digest reads its canon, removed cell, both
children and its generator index sets, so any change to splitting,
normalization or generator enumeration shows up."""

import hashlib
import itertools

import pytest

from laddergb import OneSidedLadder, PfaffianLadder, QQ, SymmetricLadder
from laddergb import families, matrices
from laddergb.ladders import _absorbed, errors_of
from laddergb.linkage import Chain

# recorded before the families shared one region enumerator and one
# normalization path; a change to any chain has to update it on purpose
SWEEP_DIGEST = "96c3b66df3758f7595ed0eec4e79acbc4e2659b80452e8b690949619a1eb01f2"
SWEEP_LADDERS = 4812


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
    chain node's ladder, and each such node's canon mapped to the first
    chain holding it)."""
    ladders = sweep_ladders()
    h = hashlib.sha256()
    nodes = {}
    chains = {}
    for top in ladders:
        chain = Chain(top)
        for canon in chain.sequence:
            node = chain.nodes[canon]
            row = (canon, node.cell, node.reduced, node.middle, chain.names(canon))
            h.update(repr(row).encode())
            nodes[canon] = node.ladder
            chains.setdefault(canon, chain)
    return len(ladders), h.hexdigest(), list(nodes.values()), chains


def test_every_sweep_chain_is_pinned(sweep_chains):
    count, digest, _, _ = sweep_chains
    assert count == SWEEP_LADDERS
    assert digest == SWEEP_DIGEST


# ---------------------------------------------------------------------------
# region_keys and _absorbed against references


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
    _, _, _, chains = sweep_chains
    for canon, chain in chains.items():
        ladder = chain.nodes[canon].ladder
        fresh = families.index_sets(ladder, chain.order, chain.shape, chain.field)
        assert chain.index_sets(canon) == fresh, canon
        assert chain.leading_monomials(canon) == {lead for _, lead in fresh}, canon


def test_region_keys_match_brute_force_on_every_sweep_node(sweep_chains):
    _, _, nodes, _ = sweep_chains
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
    _, _, nodes, _ = sweep_chains
    for ladder in list(sweep_candidates()) + nodes:
        cells = _size_one_cells(ladder)
        if not cells:
            continue
        if repr(ladder.shape()) not in rings:
            shape = ladder.shape()
            rings[repr(shape)] = shape, matrices.order_for(shape, "diagonal")
        shape, order = rings[repr(ladder.shape())]
        size_one = {order.var(i, j) for (i, j) in cells}
        # the positions normalization hands _absorbed: outside a generic
        # matrix, entry (j, i) is the variable of cell (i, j) too
        positions = set(cells)
        if ladder.shape().kind != "generic":
            positions |= {(j, i) for (i, j) in cells}
        for point, t in ladder.sizes():
            if t == 1:
                continue
            absorbed = _absorbed(ladder, (point, t), positions)
            avoiding = False
            for key in ladder.region_keys(point, t):
                if len(key) == 1:
                    g = matrices.pfaffian(shape, key[0], QQ, order)
                else:
                    g = matrices.minor(shape, key[0], key[1], QQ, order)
                for mono in g:
                    if not any(mono[k] in size_one for k in range(0, len(mono), 2)):
                        avoiding = True
            if absorbed:
                seen[ladder.family] += 1
                assert not avoiding, (ladder, point, t)
            elif ladder.family != "symmetric":
                # distinct terms of a generic minor or of a pfaffian are
                # distinct monomials, so an avoiding term survives
                assert avoiding or not ladder.holds_generator(point, t)
    assert all(seen.values()), seen
