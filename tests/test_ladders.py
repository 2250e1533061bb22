"""Ladder instances: validation diagnostics, corner-removal splits,
normalization rules, shifted ladders and height formulas."""

import pytest

from laddergb import (
    LadderError,
    MaxMinors,
    OneSidedLadder,
    PfaffianLadder,
    SymmetricLadder,
    ensure_valid,
    ladder_from_json,
)
from laddergb.ladders import errors_of

from corpus import CORPUS


def diag_messages(ladder, level=None):
    return [d.message for d in ladder.validate() if level in (None, d.level)]


def normalized(ladder):
    """The ladder its own family rebuilds from its (point, t) pairs."""
    return ladder._normalize(ladder.sizes())


# ---------------------------------------------------------------------------
# maximal minors


def test_maxminors_basics():
    l = MaxMinors(2, 3)
    assert len(l.cells()) == 6
    assert l.variables() == l.cells()
    assert len(l.regions()) == 1 and l.regions()[0].t == 2
    assert l.height_formula() == 2
    assert len(l.tilde()) == 2
    assert not l.is_terminal()


def test_maxminors_split_recipe():
    split = MaxMinors(3, 4).split()
    assert split.cell == (3, 4)
    assert split.reduced == MaxMinors(2, 3)
    assert split.middle == MaxMinors(3, 3)


def test_maxminors_terminal_cases():
    assert MaxMinors(1, 5).is_terminal()
    assert MaxMinors(3, 2).is_terminal()  # zero ideal
    assert MaxMinors(3, 2).height_formula() == 0
    assert "zero ideal" in diag_messages(MaxMinors(3, 2), "warning")[0]
    assert not diag_messages(MaxMinors(2, 3))


def test_maxminors_rejects_bad_dimensions():
    with pytest.raises(LadderError):
        MaxMinors(0, 3)


def test_maxminors_row_case_height_is_variable_count():
    # 1 x n: the generators are the variables themselves
    l = MaxMinors(1, 4)
    assert l.height_formula() == 4 == len(l.variables())


# ---------------------------------------------------------------------------
# pfaffian ladders


def test_pfaffian_cells_and_variables():
    l = PfaffianLadder(5, [(1, 4), (2, 5)], [2, 2])
    assert (1, 5) not in l.cells()  # not covered by either block
    assert (2, 5) in l.cells()
    assert all(i < j for (i, j) in l.variables())
    assert len(l.variables()) == 9  # 16 + 16 - 9 block cells, upper part


def test_pfaffian_corner_sorting():
    l = PfaffianLadder(6, [(3, 6), (1, 4)], [2, 2])
    assert l.corners == ((1, 4), (3, 6))
    assert l.t == (2, 2)


def test_pfaffian_validate_diagnostics():
    assert "corner outside matrix" in diag_messages(PfaffianLadder(4, [(1, 5)], [2]))
    assert "corner needs a < b" in diag_messages(PfaffianLadder(4, [(3, 3)], [1]))
    assert "coincident corners" in diag_messages(
        PfaffianLadder(5, [(1, 4), (1, 4)], [2, 2])
    )
    assert "size entries must be positive" in diag_messages(
        PfaffianLadder(4, [(1, 4)], [0])
    )
    # (2,4) sits strictly inside the (1,5) block: (1,5) is a ladder cell
    assert "corner not on the ladder border" in diag_messages(
        PfaffianLadder(5, [(2, 4), (1, 5)], [2, 2])
    )
    assert "region nested inside another region" in diag_messages(
        PfaffianLadder(5, [(1, 4), (1, 5)], [2, 2])
    )
    assert "region too small for its pfaffian size" in diag_messages(
        PfaffianLadder(4, [(2, 4)], [2]), "warning"
    )
    assert not errors_of(PfaffianLadder(5, [(1, 4), (2, 5)], [2, 2]).validate())


def test_pfaffian_construction_errors():
    with pytest.raises(LadderError):
        PfaffianLadder(4, [(1, 4)], [2, 2])
    with pytest.raises(LadderError):
        PfaffianLadder(4, [], [])


def test_pfaffian_split_recipe():
    split = PfaffianLadder(5, [(1, 5)], [2]).split()
    assert split.cell == (1, 5)
    assert split.reduced == PfaffianLadder(5, [(2, 4)], [1])
    assert split.middle == PfaffianLadder(5, [(1, 4), (2, 5)], [2, 2])


def test_pfaffian_split_picks_largest_size_first():
    l = PfaffianLadder(6, [(1, 3), (2, 6)], [1, 2])
    assert l.split().cell == (2, 6)


def test_pfaffian_terminal():
    assert PfaffianLadder(4, [(1, 4)], [1]).is_terminal()
    assert PfaffianLadder(4, [(2, 4)], [2]).is_terminal()  # too small to split
    assert not PfaffianLadder(4, [(1, 4)], [2]).is_terminal()


def test_pfaffian_height_formula():
    # full 5 x 5, 4-pfaffians: shifted block [2..4], three upper cells
    assert PfaffianLadder(5, [(1, 5)], [2]).height_formula() == 3
    # size one everywhere: every variable
    l = PfaffianLadder(5, [(1, 5)], [1])
    assert l.height_formula() == len(l.variables()) == 10


def test_pfaffian_normalize_drops_duplicates_and_nested():
    l = normalized(PfaffianLadder(6, [(1, 5), (2, 4)], [2, 2]))
    assert l.corners == ((1, 5),) and l.t == (2,)
    l = normalized(PfaffianLadder(6, [(1, 5), (1, 5)], [2, 3]))
    assert l.corners == ((1, 5),) and l.t == (2,)


def test_pfaffian_normalize_drops_absorbed_region():
    # every 4-pfaffian of the (2,5) block has, in each term, a variable
    # of the size-one (2,4) block, so the region adds nothing
    l = normalized(PfaffianLadder(6, [(2, 4), (2, 5), (3, 6)], [1, 2, 2]))
    assert l.corners == ((2, 4), (3, 6))
    assert l.t == (1, 2)


def test_pfaffian_normalize_keeps_zero_capacity_blocks():
    # a block too small for its pfaffian size has no generators but
    # still carries cells
    l = normalized(PfaffianLadder(6, [(1, 2), (2, 6)], [2, 2]))
    assert ((1, 2), 2) in list(zip(l.corners, l.t))


# ---------------------------------------------------------------------------
# symmetric ladders


def test_symmetric_cells_derived_from_points():
    l = SymmetricLadder(3, [(2, 3)], [2])
    assert sorted(l.cell_set) == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]
    full = SymmetricLadder(3, [(3, 3)], [2])
    assert len(full.cell_set) == 6


def test_symmetric_explicit_cells_respected():
    cells = {(1, 1), (1, 2), (2, 2)}
    l = SymmetricLadder(3, [(2, 2)], [2], cells)
    assert l.cell_set == frozenset(cells)
    assert l.to_json().get("cells") is None  # derived cells are omitted


def test_symmetric_validate_diagnostics():
    assert "coincident points" in diag_messages(
        SymmetricLadder(3, [(2, 3), (2, 3)], [2, 2])
    )
    assert "point outside upper triangle" in diag_messages(
        SymmetricLadder(3, [(3, 2)], [2])
    )
    full = SymmetricLadder(3, [(3, 3)], [2]).cell_set
    assert "point not on the lower border" in diag_messages(
        SymmetricLadder(3, [(1, 2)], [2], full)
    )
    assert "points not sortable with rows nondecreasing and columns nonincreasing" in (
        diag_messages(SymmetricLadder(4, [(2, 3), (3, 4)], [2, 2]))
    )
    assert "lower outside corner is not a distinguished point" in diag_messages(
        SymmetricLadder(3, [(2, 3)], [2], {(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)})
    )
    assert "region too small for its minor size" in diag_messages(
        SymmetricLadder(3, [(1, 3)], [2]), "warning"
    )
    assert not errors_of(SymmetricLadder(4, [(2, 4), (3, 3)], [2, 2]).validate())


def test_symmetric_split_diagonal_corner():
    split = SymmetricLadder(3, [(3, 3)], [2]).split()
    assert split.cell == (3, 3)
    red = split.reduced
    assert red.points == ((2, 2),) and red.t == (1,)
    assert red.cell_set == frozenset({(1, 1), (1, 2), (2, 2)})
    mid = split.middle
    assert (3, 3) not in mid.cell_set
    assert len(mid.cell_set) == 5


def test_symmetric_split_off_diagonal_corner():
    split = SymmetricLadder(3, [(2, 3)], [2]).split()
    assert split.cell == (2, 3)
    red = split.reduced
    assert red.points == ((1, 2),) and red.t == (1,)
    mid = split.middle
    # the row-band leftover cannot hold a 2-minor; only (2,2) survives
    assert mid.points == ((2, 2),) and mid.t == (2,)
    assert mid.cell_set == frozenset({(1, 1), (1, 2), (1, 3), (2, 2)})


def test_symmetric_height_formula():
    # full n x n symmetric, t-minors: height comb(n - t + 2, 2)
    assert SymmetricLadder(3, [(3, 3)], [2]).height_formula() == 3
    assert SymmetricLadder(4, [(4, 4)], [2]).height_formula() == 6
    l = SymmetricLadder(3, [(3, 3)], [1])
    assert l.height_formula() == len(l.variables()) == 6


def test_symmetric_normalize_merges_and_filters():
    # both out-of-ladder points land on maximal cells; (2,2) is then
    # redundant inside the equal-size (2,3) region
    cells = SymmetricLadder(3, [(3, 3)], [2]).cell_set - {(3, 3)}
    l = normalized(SymmetricLadder(3, [(3, 2), (4, 3)], [2, 2], cells))
    assert l.points == ((2, 3),) and l.t == (2,)
    assert l.cell_set == frozenset(cells)


def test_symmetric_normalize_drops_absorbed_region():
    # size-one region on the first two columns absorbs every 2-minor of
    # the (2, 2)-bounded region
    cells = frozenset({(1, 1), (1, 2), (2, 2), (1, 3)})
    l = normalized(SymmetricLadder(3, [(2, 2), (1, 3)], [2, 1], cells))
    assert list(zip(l.points, l.t)) == [((1, 3), 1)]
    assert l.cell_set == frozenset({(1, 1), (1, 2), (1, 3)})


def test_symmetric_construction_errors():
    with pytest.raises(LadderError):
        SymmetricLadder(3, [(2, 3)], [2, 2])
    with pytest.raises(LadderError):
        SymmetricLadder(3, [], [])


# ---------------------------------------------------------------------------
# one-sided ladders


def test_onesided_cells_and_regions():
    l = OneSidedLadder(3, 3, [(2, 1), (3, 2)], [2, 2])
    assert (3, 1) not in l.cells()
    assert (3, 2) in l.cells()
    assert len(l.cells()) == 8
    assert [r.point for r in l.regions()] == [(2, 1), (3, 2)]


def test_onesided_validate_diagnostics():
    assert "point outside matrix" in diag_messages(OneSidedLadder(3, 3, [(4, 1)], [2]))
    assert "coincident points" in diag_messages(
        OneSidedLadder(3, 3, [(2, 1), (2, 1)], [2, 2])
    )
    assert "point not on the lower border" in diag_messages(
        OneSidedLadder(3, 3, [(2, 2), (3, 1)], [2, 2])
    )
    assert "points not sortable with both coordinates nondecreasing" in diag_messages(
        OneSidedLadder(4, 4, [(2, 3), (3, 1)], [2, 2])
    )
    assert "region too small for its minor size" in diag_messages(
        OneSidedLadder(3, 3, [(1, 1)], [2]), "warning"
    )
    assert "adjacent regions violate the size staircase inequalities" in diag_messages(
        OneSidedLadder(3, 4, [(2, 1), (2, 3)], [2, 2]), "warning"
    )
    ok = OneSidedLadder(4, 4, [(2, 1), (4, 3)], [2, 2])
    assert not ok.validate()


def test_onesided_split_recipe():
    split = OneSidedLadder(3, 3, [(3, 1)], [2]).split()
    assert split.cell == (3, 1)
    assert split.reduced == OneSidedLadder(3, 3, [(2, 2)], [1])
    assert split.middle == OneSidedLadder(3, 3, [(2, 1), (3, 2)], [2, 2])


def test_onesided_terminal():
    assert OneSidedLadder(3, 3, [(3, 1)], [1]).is_terminal()
    assert OneSidedLadder(3, 3, [(1, 1)], [2]).is_terminal()  # cannot fit


def test_onesided_height_formula():
    # full 3 x 3, 2-minors: (3 - 2 + 1)^2
    assert OneSidedLadder(3, 3, [(3, 1)], [2]).height_formula() == 4
    l = OneSidedLadder(3, 3, [(3, 1)], [1])
    assert l.height_formula() == len(l.variables()) == 9


def test_onesided_normalize_drops_absorbed_region():
    l = normalized(OneSidedLadder(3, 3, [(1, 2), (2, 2), (3, 3)], [1, 2, 2]))
    assert list(zip(l.points, l.t)) == [((1, 2), 1), ((3, 3), 2)]


def test_onesided_construction_errors():
    with pytest.raises(LadderError):
        OneSidedLadder(3, 3, [(2, 1)], [1, 1])
    with pytest.raises(LadderError):
        OneSidedLadder(3, 3, [], [])


# ---------------------------------------------------------------------------
# shared machinery


def test_ensure_valid():
    with pytest.raises(LadderError):
        ensure_valid(PfaffianLadder(5, [(1, 4), (1, 4)], [2, 2]))
    # warnings do not block
    assert ensure_valid(MaxMinors(3, 2)) is not None


def test_json_round_trip_all_families():
    for data in CORPUS:
        l = ladder_from_json(data)
        again = ladder_from_json(l.to_json())
        assert again == l
        assert again.canon() == l.canon()


def test_json_round_trip_explicit_cells():
    # a cell set the points alone cannot produce must be serialized
    l = SymmetricLadder(3, [(2, 3)], [2], {(1, 2), (1, 3), (2, 2), (2, 3)})
    blob = l.to_json()
    assert "cells" in blob
    assert ladder_from_json(blob) == l


def test_from_json_rejects():
    with pytest.raises(LadderError):
        ladder_from_json({"family": "twosided", "m": 3, "n": 3})
    with pytest.raises(LadderError):
        ladder_from_json({"family": "frobnicate"})
    with pytest.raises(LadderError):
        ladder_from_json({})
    with pytest.raises(LadderError):
        ladder_from_json({"family": "maxminors", "m": 2})


def test_canon_is_stable_under_input_order():
    a = PfaffianLadder(6, [(3, 6), (1, 4)], [2, 2]).canon()
    b = PfaffianLadder(6, [(1, 4), (3, 6)], [2, 2]).canon()
    assert a == b
    c = OneSidedLadder(4, 4, [(4, 3), (2, 1)], [2, 2]).canon()
    d = OneSidedLadder(4, 4, [(2, 1), (4, 3)], [2, 2]).canon()
    assert c == d


def test_corpus_instances_are_valid():
    for data in CORPUS:
        assert not errors_of(ladder_from_json(data).validate())
