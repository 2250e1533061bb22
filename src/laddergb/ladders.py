"""Ladder data for four families of determinantal/pfaffian ideals.

Four instance kinds are supported:

* MaxMinors(m, n): maximal minors of a generic m x n matrix.
* PfaffianLadder: a symmetric ladder inside an n x n skew-symmetric
  matrix, given by upper corners (a_k, b_k) whose square blocks
  [a_k..b_k] x [a_k..b_k] cover the ladder, with pfaffian sizes 2*t_k.
* SymmetricLadder: a staircase region of the upper triangle of an n x n
  symmetric matrix, given by distinguished points (v_k, w_k) on its
  lower border; region k consists of the ladder cells weakly above and
  left of (v_k, w_k), with minor sizes t_k.
* OneSidedLadder: a region of a generic m x n matrix covered by
  "upper-left row band / right column band" regions {i <= a_k, j >= b_k}
  for distinguished points (a_k, b_k) on the lower border, with minor
  sizes t_k.

Each ladder knows its cells, its regions as (point, t) pairs (sizes),
the index sets of each region's generators (region_keys) and what they
depend on within a chain (region_id), a validation report, a one-step
corner removal split (the inductive step of the liaison argument: a
reduced instance with one size lowered, a middle instance with the
corner cell removed, and the shedding cell), a shifted copy whose
variable count is the predicted height, and the height formula itself.

The three region families share one split (_Ladder._corner_split): it
takes the corner of the first largest region; the family states where
that corner moves in the reduced ladder and which two points replace it
in the middle ladder (_corner_moves), and rebuilds a ladder from
(point, t) pairs (_normalize).  Split products are normalized by one
procedure for every family (_Ladder._normalized): each point keeps its
smallest size, a region inside an equal-size region is dropped (its
generators are a subset), and so is a region whose generators have, in
every term, a variable of a size-one region.  The symmetric family also
re-expresses points at genuine maximal cells of their regions and drops
regions too small to hold a minor (its cell set is stored explicitly,
so this never changes the cells); the other families keep such regions
as cell carriers.  These rules never change the ideal.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import LadderError
from .matrices import GenericShape, SkewShape, SymmetricShape


@dataclass(frozen=True)
class Diagnostic:
    level: str  # "error" | "warning"
    message: str
    cell: Optional[tuple] = None

    def text(self):
        loc = " at (%d, %d)" % self.cell if self.cell else ""
        return "%s: %s%s" % (self.level, self.message, loc)


@dataclass(frozen=True)
class Region:
    """One generating region: its distinguished point (or corner), the
    minor/pfaffian size t, and the variable cells available to it."""

    point: Optional[tuple]
    t: int
    cells: frozenset


@dataclass(frozen=True)
class SplitResult:
    reduced: object  # sizes lowered at the chosen region
    middle: object  # corner cell removed, size duplicated
    cell: tuple  # the removed corner (shedding cell)


def errors_of(diags):
    return [d for d in diags if d.level == "error"]


def ensure_valid(ladder):
    errs = errors_of(ladder.validate())
    if errs:
        raise LadderError("; ".join(d.text() for d in errs))
    return ladder


# a term order names each cell by poly.cell_id, which packs each row and
# column index into six bits (the variables themselves are numbered per
# ring, by rank, so no monomial depends on this bound)
_MAX_INDEX = 63


def _index_limit(*dims):
    """Every family's error for a dimension a cell id cannot hold."""
    if max(dims) > _MAX_INDEX:
        msg = "matrix dimension above %d, the largest index a cell id holds"
        return [Diagnostic("error", msg % _MAX_INDEX)]
    return []


def _maximal_cells(cells):
    """Cells not dominated componentwise by another cell."""
    return sorted(
        c for c in cells if not any(d != c and d[0] >= c[0] and d[1] >= c[1] for d in cells)
    )


# ---------------------------------------------------------------------------
# what every family shares


class _Ladder:
    """Machinery shared by the four families.

    A family gives its regions as (point, t) pairs (sizes), the cells of
    the region at a point (region_cells) and the index sets of a
    region's generators (region_keys): (rows, cols) of a minor,
    (indices,) of a pfaffian; region_id(point, t) determines
    region_keys(point, t) among the ladders of one chain.  A region
    family splits by _corner_split and states only its geometry:
    _corner_moves(a, b), the point the corner (a, b) moves to in the
    reduced ladder and the two points that replace it in the middle
    ladder; _inside(p, q), whether the region at p lies in the one at q;
    and _normalize(pairs, corner), its ladder of (point, t) pairs (less
    the corner cell for a middle ladder), made by _normalized and
    _rebuild.  Each class still holds its own split and validate
    attribute: bench/tracer.py wraps them class by class."""

    _sort_key = None  # order of the (point, t) pairs; natural by default

    def _set_sizes(self, points, t, noun="point"):
        """Keep the regions as sorted (point, t) pairs; return the points."""
        points = [tuple(p) for p in points]
        t = list(t)
        if len(points) != len(t):
            raise LadderError("%s list and size vector differ in length" % noun)
        if not points:
            raise LadderError("a %s ladder needs at least one %s" % (self.family, noun))
        self._sizes = tuple(sorted(zip(points, t), key=self._sort_key))
        self.t = tuple(x for _, x in self._sizes)
        return tuple(p for p, _ in self._sizes)

    def sizes(self):
        return list(self._sizes)

    def variables(self):
        return self.cells()

    def regions(self):
        return [Region(p, t, self.region_cells(p)) for p, t in self.sizes()]

    def region_id(self, point, t):
        """What region_keys(point, t) depends on besides the dimensions,
        which a chain keeps fixed (_rebuild keeps m and n): here the
        point and the size.  families.RegionTable keys regions by it."""
        return point, t

    def holds_generator(self, point, t):
        """True if the region (point, t) has at least one generator."""
        return next(self.region_keys(point, t), None) is not None

    def height_formula(self):
        return len(self.tilde())

    def _split_index(self):
        """Index in sizes() of the region a split removes the corner of:
        the first region of largest size t >= 2 that holds a generator,
        or None when there is none."""
        best, best_t = None, 1
        for k, (point, t) in enumerate(self.sizes()):
            if t > best_t and self.holds_generator(point, t):
                best, best_t = k, t
        return best

    def _corner_split(self):
        """The split of a region family at the corner of _split_index()."""
        k = self._split_index()
        if k is None:
            return None
        sizes = self.sizes()
        corner, t = sizes[k]
        inward, halves = self._corner_moves(*corner)
        rest = sizes[:k] + sizes[k + 1 :]
        return SplitResult(
            reduced=self._normalize(rest + [(inward, t - 1)]),
            middle=self._normalize(rest + [(p, t) for p in halves], corner),
            cell=corner,
        )

    def _normalized(self, pairs, cells=None):
        """The ladder of the (point, t) pairs without redundant regions.

        Each point keeps its smallest size.  A region inside an equal-size
        region (_inside(p, q): the region at p lies in the one at q) adds
        no generators.  A region whose generators have, in every term, a
        variable of a size-one region adds nothing to the ideal; keeping
        it would later remove a corner that is a cone point of the
        complex.  _rebuild(pairs, cells) makes the ladder: cells is the
        argument, or, once absorbed regions are dropped, the cells of the
        regions kept."""
        best = {}
        for point, t in pairs:
            if point not in best or t < best[point]:
                best[point] = t
        pairs = sorted(best.items())
        outer = [
            (p, t)
            for p, t in pairs
            if not any(s == t and q != p and self._inside(p, q) for q, s in pairs)
        ]
        if not outer:
            raise LadderError("normalization removed every region")
        ladder = self._rebuild(outer, cells)
        sizes = ladder.sizes()
        positions = set()
        for point, t in sizes:
            if t == 1:
                positions |= ladder.region_cells(point)
        if not positions:
            return ladder
        # outside a generic matrix entry (j, i) holds the variable of (i, j)
        if ladder.shape().kind != "generic":
            positions |= {(j, i) for (i, j) in positions}
        kept = [r for r in sizes if r[1] == 1 or not _absorbed(ladder, r, positions)]
        if len(kept) == len(sizes):
            return ladder
        return self._rebuild(kept, set().union(*(ladder.region_cells(p) for p, _ in kept)))

    def is_terminal(self):
        return self.split() is None

    def __eq__(self, other):
        return type(other) is type(self) and self.canon() == other.canon()

    def __hash__(self):
        return hash(self.canon())

    def __repr__(self):
        fields = list(self.to_json().items())[1:]
        return "%s(%s)" % (type(self).__name__, ", ".join("%s=%s" % f for f in fields))


def _bijection_avoiding(rows, cols, forbidden):
    """True if some bijection rows -> cols uses no forbidden (row, col)
    pair."""
    if not rows:
        return True
    r = rows[0]
    for i, c in enumerate(cols):
        if (r, c) not in forbidden:
            if _bijection_avoiding(rows[1:], cols[:i] + cols[i + 1 :], forbidden):
                return True
    return False


def _matching_avoiding(elems, forbidden):
    """True if some perfect matching of elems uses no forbidden edge
    (edges are sorted pairs)."""
    if not elems:
        return True
    a = elems[0]
    for i in range(1, len(elems)):
        b = elems[i]
        if (a, b) not in forbidden:
            if _matching_avoiding(elems[1:i] + elems[i + 1 :], forbidden):
                return True
    return False


def _absorbed(ladder, region, positions):
    """True if the region (point, t) has generators and every term of
    each of them contains a variable at one of positions.  A term of a
    minor is a bijection rows -> cols, one of a pfaffian a perfect
    matching of its indices."""
    found = False
    for key in ladder.region_keys(*region):
        found = True
        if len(key) == 1:
            free = _matching_avoiding(list(key[0]), positions)
        else:
            free = _bijection_avoiding(list(key[0]), list(key[1]), positions)
        if free:
            return False
    return found


# ---------------------------------------------------------------------------
# maximal minors of a generic matrix


class MaxMinors(_Ladder):
    """All m x m minors of a generic m x n matrix (zero ideal if n < m)."""

    family = "maxminors"
    order_kind = "diagonal"

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise LadderError("matrix dimensions must be positive")
        self.m = m
        self.n = n

    def shape(self):
        return GenericShape(self.m, self.n)

    def cells(self):
        return [(i, j) for i in range(1, self.m + 1) for j in range(1, self.n + 1)]

    def sizes(self):
        return [(None, self.m)]

    def region_cells(self, point):
        return frozenset(self.cells())

    def region_id(self, point, t):
        # a child has fewer columns
        return self.n, t

    def region_keys(self, point, t):
        rows = tuple(range(1, t + 1))
        for cols in itertools.combinations(range(1, self.n + 1), t):
            yield rows, cols

    def validate(self):
        out = _index_limit(self.m, self.n)
        if self.n < self.m:
            out.append(
                Diagnostic(
                    "warning",
                    "no maximal minors exist (m > n); this is the zero ideal",
                )
            )
        return out

    def split(self):
        if self.m == 1 or self.n < self.m:
            return None
        return SplitResult(
            reduced=MaxMinors(self.m - 1, self.n - 1),
            middle=MaxMinors(self.m, self.n - 1),
            cell=(self.m, self.n),
        )

    def tilde(self):
        # the top-right band of width n-m+1 realizes the height count
        if self.n < self.m:
            return []
        return [(1, j) for j in range(self.m, self.n + 1)]

    def canon(self):
        return "maxminors:m=%d,n=%d" % (self.m, self.n)

    def to_json(self):
        return {"family": "maxminors", "m": self.m, "n": self.n}


# ---------------------------------------------------------------------------
# pfaffian ladders


class PfaffianLadder(_Ladder):
    """Union of principal blocks [a_k..b_k]^2 of an n x n skew matrix,
    with 2*t_k-pfaffians generated from block k."""

    family = "pfaffian"
    order_kind = "antidiagonal"

    def __init__(self, n: int, corners, t):
        self.n = n
        self.corners = self._set_sizes(corners, t, "corner")

    def shape(self):
        return SkewShape(self.n)

    def cells(self):
        out = set()
        for (a, b) in self.corners:
            block = range(max(1, a), min(self.n, b) + 1)
            out |= {(i, j) for i in block for j in block}
        return sorted(out)

    def variables(self):
        return sorted({(i, j) for (i, j) in self.cells() if i < j})

    def region_cells(self, corner):
        a, b = corner
        return frozenset((i, j) for i in range(a, b + 1) for j in range(i + 1, b + 1))

    def region_keys(self, corner, t):
        a, b = corner
        if 2 * t <= b - a + 1:
            for idx in itertools.combinations(range(a, b + 1), 2 * t):
                yield (idx,)

    def validate(self):
        out = _index_limit(self.n)
        seen = set()
        cells = set(self.cells())
        prev_b = None
        for (a, b), tk in zip(self.corners, self.t):
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                out.append(Diagnostic("error", "corner outside matrix", (a, b)))
                continue
            if a >= b:
                out.append(Diagnostic("error", "corner needs a < b", (a, b)))
            if (a, b) in seen:
                out.append(Diagnostic("error", "coincident corners", (a, b)))
            seen.add((a, b))
            if tk < 1:
                out.append(Diagnostic("error", "size entries must be positive", (a, b)))
            if prev_b is not None and b < prev_b:
                out.append(
                    Diagnostic("error", "corners not sortable with both coordinates nondecreasing", (a, b))
                )
            prev_b = b
            if (a - 1, b + 1) in cells:
                out.append(
                    Diagnostic("error", "corner not on the ladder border", (a, b))
                )
            if 2 * tk > b - a + 1:
                out.append(
                    Diagnostic("warning", "region too small for its pfaffian size", (a, b))
                )
        for p in self.corners:
            for q in self.corners:
                if p != q and self._inside(p, q):
                    out.append(Diagnostic("warning", "region nested inside another region", p))
        return out

    split = _Ladder._corner_split

    def _corner_moves(self, a, b):
        return (a + 1, b - 1), ((a, b - 1), (a + 1, b))

    @staticmethod
    def _inside(p, q):
        return q[0] <= p[0] and p[1] <= q[1]

    def _normalize(self, pairs, corner=None):
        # blocks with no off-diagonal cell go, the rest are clamped to the matrix
        n = self.n
        return self._normalized(
            [((max(1, a), min(n, b)), t) for (a, b), t in pairs if a < b and b >= 1 and a <= n]
        )

    def _rebuild(self, pairs, cells):
        return PfaffianLadder(self.n, *zip(*pairs))

    def tilde(self):
        """Strictly upper cells of the shifted ladder: the height count."""
        cells = set()
        for (a, b), tk in self._sizes:
            lo, hi = max(1, a + tk - 1), min(self.n, b - tk + 1)
            cells |= {(i, j) for i in range(lo, hi + 1) for j in range(i + 1, hi + 1)}
        return sorted(cells)

    def canon(self):
        cs = ",".join("(%d,%d)" % c for c in self.corners)
        ts = ",".join(str(x) for x in self.t)
        return "pfaffian:n=%d;corners=%s;t=%s" % (self.n, cs, ts)

    def to_json(self):
        return {
            "family": "pfaffian",
            "n": self.n,
            "corners": [list(c) for c in self.corners],
            "t": list(self.t),
        }


# ---------------------------------------------------------------------------
# symmetric ladders (upper triangle staircase regions)


def _upper_cells_below(cells, v, w):
    return frozenset((i, j) for (i, j) in cells if i <= v and j <= w)


def _derived_cells(n, points):
    """The upper-triangle cells weakly above and left of some point."""
    return frozenset(
        (i, j)
        for (v, w) in points
        for i in range(1, min(v, n) + 1)
        for j in range(i, min(w, n) + 1)
    )


class SymmetricLadder(_Ladder):
    """Staircase region of the upper triangle of a symmetric matrix with
    distinguished points on its lower border.

    The cell set is stored explicitly: corner removal during the liaison
    recursion produces regions that are not unions of fresh point
    regions, so cells are carried through splits.  For user input the
    cells are derived from the points.
    """

    family = "symmetric"
    order_kind = "diagonal"

    @staticmethod
    def _sort_key(pair):
        (v, w), t = pair
        return v, -w, t

    def __init__(self, n: int, points, t, cells=None):
        self.n = n
        self.points = self._set_sizes(points, t)
        self.cell_set = _derived_cells(n, self.points) if cells is None else frozenset(cells)

    def shape(self):
        return SymmetricShape(self.n)

    def cells(self):
        return sorted(self.cell_set)

    def region_cells(self, point):
        return _upper_cells_below(self.cell_set, *point)

    def region_id(self, point, t):
        # the cells are the node's own, not a function of the point
        return self.region_cells(point), t

    def region_keys(self, point, t):
        # Row/column selections are restricted to row_i <= col_i pointwise.
        # Minors violating this are linear combinations of the kept ones
        # (e.g. [14|23] = [13|24] - [12|34] in a symmetric matrix), so the
        # unrestricted set is neither minimal nor interreduced for n >= 4.
        # Columns come only from those whose cells meet every row inside the
        # region; combinations of that sorted list keep the lexicographic
        # order of all column sets.
        region = self.region_cells(point)
        idx = range(1, self.n + 1)
        for rows in itertools.combinations(idx, t):
            fits = [
                c for c in idx if all((min(r, c), max(r, c)) in region for r in rows)
            ]
            for cols in itertools.combinations(fits, t):
                if all(r <= c for r, c in zip(rows, cols)):
                    yield rows, cols

    def validate(self):
        out = _index_limit(self.n)
        cells = self.cell_set
        for (i, j) in cells:
            if not (1 <= i <= j <= self.n):
                out.append(Diagnostic("error", "cell outside upper triangle", (i, j)))
        seen = set()
        prev = None
        for (v, w), tk in zip(self.points, self.t):
            if (v, w) in seen:
                out.append(Diagnostic("error", "coincident points", (v, w)))
            seen.add((v, w))
            if tk < 1:
                out.append(Diagnostic("error", "size entries must be positive", (v, w)))
            if not (1 <= v <= w <= self.n):
                out.append(Diagnostic("error", "point outside upper triangle", (v, w)))
                continue
            if (v, w) not in cells:
                out.append(Diagnostic("error", "point not a ladder cell", (v, w)))
                continue
            if (v + 1, w) in cells and (v, w + 1) in cells:
                out.append(Diagnostic("error", "point not on the lower border", (v, w)))
            if prev is not None and w > prev:
                out.append(
                    Diagnostic(
                        "error",
                        "points not sortable with rows nondecreasing and columns nonincreasing",
                        (v, w),
                    )
                )
            prev = w
            if not self.holds_generator((v, w), tk):
                out.append(Diagnostic("warning", "region too small for its minor size", (v, w)))
        for c in _maximal_cells(self.cell_set):
            if c not in seen:
                out.append(Diagnostic("error", "lower outside corner is not a distinguished point", c))
        regions = self.regions()
        for k, rk in enumerate(regions):
            for l, rl in enumerate(regions):
                if k != l and rk.cells < rl.cells and rk.t >= rl.t:
                    out.append(
                        Diagnostic("warning", "region is redundant (inside an equal or smaller size region)", rk.point)
                    )
        return out

    split = _Ladder._corner_split

    def _corner_moves(self, v, w):
        if (v, w) not in self.cell_set:
            raise LadderError("split point (%d, %d) is not a ladder cell" % (v, w))
        return (v - 1, w - 1), ((v, w - 1), (v + 1, w))

    @staticmethod
    def _inside(p, q):
        return p[0] <= q[0] and p[1] <= q[1]

    def _normalize(self, pairs, corner=None):
        """The ladder of pairs inside this ladder's cells, less corner if
        given (a middle ladder), else the cells of the pairs' regions."""
        if corner is None:
            cells = frozenset().union(*(self.region_cells(p) for p, _ in pairs))
        else:
            cells = self.cell_set - {corner}
        # re-express every point at the maximal cells of its region; this is
        # exact: a minor fits in a staircase region iff it fits below one of
        # the region's maximal cells
        return self._normalized(
            [(c, t) for (v, w), t in pairs for c in _maximal_cells(_upper_cells_below(cells, v, w))],
            cells,
        )

    def _rebuild(self, pairs, cells):
        ladder = SymmetricLadder(self.n, *zip(*pairs), cells)
        # drop the regions that cannot hold a minor, unless none can;
        # cells are explicit, so this never changes them
        fits = [r for r in ladder.sizes() if ladder.holds_generator(*r)]
        if fits and len(fits) < len(pairs):
            ladder = SymmetricLadder(self.n, *zip(*fits), ladder.cell_set)
        return ladder

    def tilde(self):
        """Cells surviving the size-shift constraints; their count is the
        predicted height."""
        low = [(v - tk + 1, w - tk + 1) for (v, w), tk in self._sizes]
        return [
            (i, j)
            for (i, j) in sorted(self.cell_set)
            if j <= low[0][1]
            and i <= low[-1][0]
            and all(i <= low[k - 1][0] or j <= low[k][1] for k in range(1, len(low)))
        ]

    def canon(self):
        ps = ",".join("(%d,%d)" % p for p in self.points)
        ts = ",".join(str(x) for x in self.t)
        cs = ",".join("(%d,%d)" % c for c in sorted(self.cell_set))
        return "symmetric:n=%d;points=%s;t=%s;cells=%s" % (self.n, ps, ts, cs)

    def to_json(self):
        out = {
            "family": "symmetric",
            "n": self.n,
            "points": [list(p) for p in self.points],
            "t": list(self.t),
        }
        if self.cell_set != _derived_cells(self.n, self.points):
            out["cells"] = [list(c) for c in sorted(self.cell_set)]
        return out


# ---------------------------------------------------------------------------
# one-sided ladders


class OneSidedLadder(_Ladder):
    """Union of regions {i <= a_k, j >= b_k} of a generic m x n matrix,
    with t_k-minors generated from region k."""

    family = "onesided"
    order_kind = "antidiagonal"

    def __init__(self, m: int, n: int, points, t):
        self.m = m
        self.n = n
        self.points = self._set_sizes(points, t)

    def shape(self):
        return GenericShape(self.m, self.n)

    def cells(self):
        out = set()
        for p in self.points:
            out |= self.region_cells(p)
        return sorted(out)

    def region_cells(self, point):
        a, b = point
        return frozenset(
            (i, j)
            for i in range(1, min(a, self.m) + 1)
            for j in range(max(b, 1), self.n + 1)
        )

    def region_keys(self, point, t):
        a, b = point
        if t <= a and t <= self.n - b + 1:
            for rows in itertools.combinations(range(1, a + 1), t):
                for cols in itertools.combinations(range(b, self.n + 1), t):
                    yield rows, cols

    def validate(self):
        out = _index_limit(self.m, self.n)
        cells = set(self.cells())
        seen = set()
        prev = None
        for (a, b), tk in zip(self.points, self.t):
            if not (1 <= a <= self.m and 1 <= b <= self.n):
                out.append(Diagnostic("error", "point outside matrix", (a, b)))
                continue
            if (a, b) in seen:
                out.append(Diagnostic("error", "coincident points", (a, b)))
            seen.add((a, b))
            if tk < 1:
                out.append(Diagnostic("error", "size entries must be positive", (a, b)))
            if prev is not None and b < prev:
                out.append(
                    Diagnostic(
                        "error",
                        "points not sortable with both coordinates nondecreasing",
                        (a, b),
                    )
                )
            prev = b
            if (a + 1, b - 1) in cells:
                out.append(Diagnostic("error", "point not on the lower border", (a, b)))
            if tk > min(a, self.n - b + 1):
                out.append(Diagnostic("warning", "region too small for its minor size", (a, b)))
        if (1, self.n) not in cells:
            out.append(Diagnostic("error", "ladder must contain the top-right cell", (1, self.n)))
        for (c, d) in cells:
            if (c + 1, d) not in cells and (c, d - 1) not in cells and c + 1 <= self.m and d - 1 >= 1:
                if (c, d) not in seen:
                    out.append(
                        Diagnostic("error", "lower outside corner is not a distinguished point", (c, d))
                    )
        for ((a0, b0), t0), ((a1, b1), t1) in zip(self._sizes, self._sizes[1:]):
            if not (b0 - b1 < t1 - t0 < a1 - a0):
                out.append(
                    Diagnostic(
                        "warning",
                        "adjacent regions violate the size staircase inequalities",
                        (a1, b1),
                    )
                )
        return out

    split = _Ladder._corner_split

    def _corner_moves(self, a, b):
        return (a - 1, b + 1), ((a - 1, b), (a, b + 1))

    @staticmethod
    def _inside(p, q):
        return p[0] <= q[0] and p[1] >= q[1]

    def _normalize(self, pairs, corner=None):
        # regions with no cell go, the rest are clamped to the matrix
        m, n = self.m, self.n
        return self._normalized(
            [((min(a, m), max(b, 1)), t) for (a, b), t in pairs if a >= 1 and b <= n]
        )

    def _rebuild(self, pairs, cells):
        return OneSidedLadder(self.m, self.n, *zip(*pairs))

    def tilde(self):
        out = set()
        for (a, b), tk in self._sizes:
            out |= self.region_cells((a - tk + 1, b + tk - 1))
        return sorted(out)

    def canon(self):
        ps = ",".join("(%d,%d)" % p for p in self.points)
        ts = ",".join(str(x) for x in self.t)
        return "onesided:m=%d,n=%d;points=%s;t=%s" % (self.m, self.n, ps, ts)

    def to_json(self):
        return {
            "family": "onesided",
            "m": self.m,
            "n": self.n,
            "points": [list(p) for p in self.points],
            "t": list(self.t),
        }


# ---------------------------------------------------------------------------
# construction from JSON

_FAMILIES = {"maxminors", "pfaffian", "symmetric", "onesided"}


def _int(value, name):
    # a bool is an int to Python, and int() would truncate 2.9
    if type(value) is not int:
        raise LadderError("%s must be an integer" % name)
    return value


def _list(value, name, item=_int):
    """value, a list, with each entry checked by item(entry, its name)."""
    if not isinstance(value, (list, tuple)):
        raise LadderError("%s must be a list" % name)
    return [item(v, "%s[%d]" % (name, k)) for k, v in enumerate(value)]


def _pair(value, name):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise LadderError("%s must be a pair" % name)
    return tuple(_list(value, name))


def ladder_from_json(data: dict):
    """The ladder of a JSON instance; LadderError names a bad field."""
    if not isinstance(data, dict):
        raise LadderError("a ladder instance must be a JSON object")
    fam = data.get("family")
    if fam == "twosided":
        raise LadderError("two-sided ladders are out of scope")
    if fam not in _FAMILIES:
        raise LadderError("unknown family %r" % fam)
    try:
        if fam == "maxminors":
            return MaxMinors(_int(data["m"], "m"), _int(data["n"], "n"))
        n, t = _int(data["n"], "n"), _list(data["t"], "t")
        if fam == "pfaffian":
            return PfaffianLadder(n, _list(data["corners"], "corners", _pair), t)
        points = _list(data["points"], "points", _pair)
        if fam == "symmetric":
            cells = data.get("cells")
            if cells is not None:
                cells = _list(cells, "cells", _pair)
            return SymmetricLadder(n, points, t, cells)
        return OneSidedLadder(_int(data["m"], "m"), n, points, t)
    except KeyError as e:
        raise LadderError("missing field %s" % e) from None
