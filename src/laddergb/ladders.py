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
the index sets of each region's generators (region_keys), a validation
report, a one-step corner removal split (the inductive step of the
liaison argument: a reduced instance with one size lowered, a middle
instance with the corner cell removed, and the shedding cell), a
shifted copy whose cell count is the predicted height, and the height
formula itself.

Split products are normalized before use, by one procedure for every
family: each point keeps its smallest size, a region inside an
equal-size region is dropped (its generators are a subset), and so is a
region whose generators have, in every term, a variable of a size-one
region.  The symmetric normalizer also re-expresses points at genuine
maximal cells of their regions and drops regions too small to hold a
minor (its cell set is stored explicitly, so this never changes the
cells); the other families keep such regions as cell carriers.  These
rules never change the ideal.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import LadderError


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


def _maximal_cells(cells):
    """Cells not dominated componentwise by another cell."""
    out = []
    for c in cells:
        if not any(d != c and d[0] >= c[0] and d[1] >= c[1] for d in cells):
            out.append(c)
    return sorted(out)


def _sorted_points(points, ts):
    pairs = sorted(zip(points, ts), key=lambda pt: (pt[0][0], -pt[0][1], pt[1]))
    return tuple(p for p, _ in pairs), tuple(t for _, t in pairs)


# ---------------------------------------------------------------------------
# what every family shares


class _Ladder:
    """Machinery shared by the four families.

    A family gives its regions as (point, t) pairs (sizes), the cells of
    the region at a point (region_cells) and the index sets of a
    region's generators (region_keys): (rows, cols) of a minor,
    (indices,) of a pfaffian.  Each family keeps its own split and
    validate: bench/tracer.py wraps them class by class."""

    def variables(self):
        return self.cells()

    def regions(self):
        return [Region(p, t, self.region_cells(p)) for p, t in self.sizes()]

    def generator_keys(self):
        """Index sets of the natural generators, region by region; a set
        two regions share comes once per region."""
        for point, t in self.sizes():
            yield from self.region_keys(point, t)

    def holds_generator(self, point, t):
        """True if the region (point, t) has at least one generator."""
        return next(self.region_keys(point, t), None) is not None

    def _split_index(self):
        """Index in sizes() of the region a split removes the corner of:
        the first region of largest size t >= 2 that holds a generator,
        or None when there is none."""
        best, best_t = None, 1
        for k, (point, t) in enumerate(self.sizes()):
            if t > best_t and self.holds_generator(point, t):
                best, best_t = k, t
        return best

    def is_terminal(self):
        return self.split() is None

    def __eq__(self, other):
        return type(other) is type(self) and self.canon() == other.canon()

    def __hash__(self):
        return hash(self.canon())


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


def _unzip(pairs):
    return [p for p, _ in pairs], [t for _, t in pairs]


def _normalized(build, inside, pairs):
    """The ladder of the (point, t) pairs without redundant regions.

    Each point keeps its smallest size.  A region inside an equal-size
    region (inside(p, q): the region at p lies in the one at q) adds no
    generators.  A region whose generators have, in every term, a
    variable of a size-one region adds nothing to the ideal; keeping it
    would later remove a corner that is a cone point of the complex.
    build(pairs, cells) makes the ladder: cells is None, or, once
    absorbed regions are dropped, the cells of the regions kept."""
    best = {}
    for point, t in pairs:
        if point not in best or t < best[point]:
            best[point] = t
    pairs = sorted(best.items())
    outer = []
    for p, t in pairs:
        for q, s in pairs:
            if s == t and q != p and inside(p, q):
                break
        else:
            outer.append((p, t))
    if not outer:
        raise LadderError("normalization removed every region")
    ladder = build(outer, None)
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
    return build(kept, set().union(*(ladder.region_cells(p) for p, _ in kept)))


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
        from .matrices import GenericShape

        return GenericShape(self.m, self.n)

    def cells(self):
        return [(i, j) for i in range(1, self.m + 1) for j in range(1, self.n + 1)]

    def sizes(self):
        return [(None, self.m)]

    def region_cells(self, point):
        return frozenset(self.cells())

    def region_keys(self, point, t):
        rows = tuple(range(1, t + 1))
        for cols in itertools.combinations(range(1, self.n + 1), t):
            yield rows, cols

    def validate(self):
        out = []
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

    def height_formula(self):
        if self.n < self.m:
            return 0
        return self.n - self.m + 1

    def tilde(self):
        # the top-right band of width n-m+1 realizes the height count
        if self.n < self.m:
            return []
        return [(1, j) for j in range(self.m, self.n + 1)]

    def canon(self):
        return "maxminors:m=%d,n=%d" % (self.m, self.n)

    def to_json(self):
        return {"family": "maxminors", "m": self.m, "n": self.n}

    def __repr__(self):
        return "MaxMinors(%d, %d)" % (self.m, self.n)


# ---------------------------------------------------------------------------
# pfaffian ladders


class PfaffianLadder(_Ladder):
    """Union of principal blocks [a_k..b_k]^2 of an n x n skew matrix,
    with 2*t_k-pfaffians generated from block k."""

    family = "pfaffian"
    order_kind = "antidiagonal"

    def __init__(self, n: int, corners, t):
        corners = [tuple(c) for c in corners]
        t = list(t)
        if len(corners) != len(t):
            raise LadderError("corner list and size vector differ in length")
        if not corners:
            raise LadderError("a pfaffian ladder needs at least one corner")
        pairs = sorted(zip(corners, t), key=lambda ct: (ct[0][0], ct[0][1], ct[1]))
        self.n = n
        self.corners = tuple(c for c, _ in pairs)
        self.t = tuple(x for _, x in pairs)

    def shape(self):
        from .matrices import SkewShape

        return SkewShape(self.n)

    def cells(self):
        out = set()
        for (a, b) in self.corners:
            lo, hi = max(1, a), min(self.n, b)
            for i in range(lo, hi + 1):
                for j in range(lo, hi + 1):
                    out.add((i, j))
        return sorted(out)

    def variables(self):
        return sorted({(i, j) for (i, j) in self.cells() if i < j})

    def sizes(self):
        return list(zip(self.corners, self.t))

    def region_cells(self, corner):
        a, b = corner
        return frozenset((i, j) for i in range(a, b + 1) for j in range(i + 1, b + 1))

    def region_keys(self, corner, t):
        a, b = corner
        if 2 * t <= b - a + 1:
            for idx in itertools.combinations(range(a, b + 1), 2 * t):
                yield (idx,)

    def validate(self):
        out = []
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
        for (a, b), tk in zip(self.corners, self.t):
            for (a2, b2), t2 in zip(self.corners, self.t):
                if (a, b) != (a2, b2) and a2 <= a and b <= b2:
                    out.append(
                        Diagnostic("warning", "region nested inside another region", (a, b))
                    )
        return out

    def split(self):
        k = self._split_index()
        if k is None:
            return None
        a, b = self.corners[k]
        red_corners = list(self.corners)
        red_t = list(self.t)
        red_corners[k] = (a + 1, b - 1)
        red_t[k] = self.t[k] - 1
        mid_corners = list(self.corners)
        mid_t = list(self.t)
        mid_corners[k : k + 1] = [(a, b - 1), (a + 1, b)]
        mid_t[k : k + 1] = [self.t[k], self.t[k]]
        return SplitResult(
            reduced=_normalize_pfaffian(self.n, red_corners, red_t),
            middle=_normalize_pfaffian(self.n, mid_corners, mid_t),
            cell=(a, b),
        )

    def tilde(self):
        """Shifted ladder whose strictly-upper cell count is the height."""
        cells = set()
        for (a, b), tk in zip(self.corners, self.t):
            lo, hi = a + tk - 1, b - tk + 1
            for i in range(max(1, lo), min(self.n, hi) + 1):
                for j in range(max(1, lo), min(self.n, hi) + 1):
                    cells.add((i, j))
        return sorted(cells)

    def height_formula(self):
        return sum(1 for (i, j) in self.tilde() if i < j)

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

    def __repr__(self):
        return "PfaffianLadder(n=%d, corners=%s, t=%s)" % (
            self.n,
            list(self.corners),
            list(self.t),
        )


def _normalize_pfaffian(n, corners, t):
    # blocks with no off-diagonal cell go, the rest are clamped to the matrix
    pairs = [
        ((max(1, a), min(n, b)), tk)
        for (a, b), tk in zip(corners, t)
        if a < b and b >= 1 and a <= n
    ]
    return _normalized(
        lambda pairs, cells: PfaffianLadder(n, *_unzip(pairs)),
        lambda p, q: q[0] <= p[0] and p[1] <= q[1],
        pairs,
    )


# ---------------------------------------------------------------------------
# symmetric ladders (upper triangle staircase regions)


def _upper_cells_below(cells, v, w):
    return frozenset((i, j) for (i, j) in cells if i <= v and j <= w)


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

    def __init__(self, n: int, points, t, cells=None):
        points = [tuple(p) for p in points]
        t = list(t)
        if len(points) != len(t):
            raise LadderError("point list and size vector differ in length")
        if not points:
            raise LadderError("a symmetric ladder needs at least one point")
        self.n = n
        if cells is None:
            derived = set()
            for (v, w) in points:
                for i in range(1, min(v, self.n) + 1):
                    for j in range(i, min(w, self.n) + 1):
                        derived.add((i, j))
            cells = derived
        self.cell_set = frozenset(cells)
        self.points, self.t = _sorted_points(points, t)

    def shape(self):
        from .matrices import SymmetricShape

        return SymmetricShape(self.n)

    def cells(self):
        return sorted(self.cell_set)

    def sizes(self):
        return list(zip(self.points, self.t))

    def region_cells(self, point):
        return _upper_cells_below(self.cell_set, *point)

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
        out = []
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
        for k, rk in enumerate(self.regions()):
            for l, rl in enumerate(self.regions()):
                if k != l and rk.cells < rl.cells and rk.t >= rl.t:
                    out.append(
                        Diagnostic("warning", "region is redundant (inside an equal or smaller size region)", rk.point)
                    )
        return out

    def split(self):
        k = self._split_index()
        if k is None:
            return None
        v, w = self.points[k]
        if (v, w) not in self.cell_set:
            raise LadderError("split point (%d, %d) is not a ladder cell" % (v, w))
        mid_points = list(self.points)
        mid_t = list(self.t)
        mid_points[k : k + 1] = [(v, w - 1), (v + 1, w)]
        mid_t[k : k + 1] = [self.t[k], self.t[k]]
        mid_cells = self.cell_set - {(v, w)}
        red_points = list(self.points)
        red_t = list(self.t)
        red_points[k] = (v - 1, w - 1)
        red_t[k] = self.t[k] - 1
        red_cells = set()
        for p in red_points:
            red_cells |= self.region_cells(p)
        return SplitResult(
            reduced=_normalize_symmetric(self.n, red_points, red_t, red_cells),
            middle=_normalize_symmetric(self.n, mid_points, mid_t, mid_cells),
            cell=(v, w),
        )

    def tilde(self):
        """Cells surviving the size-shift constraints; their count is the
        predicted height."""
        pts, ts = self.points, self.t
        s = len(pts)
        out = []
        for (i, j) in sorted(self.cell_set):
            if j > pts[0][1] - ts[0] + 1:
                continue
            if i > pts[s - 1][0] - ts[s - 1] + 1:
                continue
            ok = True
            for k in range(1, s):
                if not (i <= pts[k - 1][0] - ts[k - 1] + 1 or j <= pts[k][1] - ts[k] + 1):
                    ok = False
                    break
            if ok:
                out.append((i, j))
        return out

    def height_formula(self):
        return len(self.tilde())

    def canon(self):
        ps = ",".join("(%d,%d)" % p for p in self.points)
        ts = ",".join(str(x) for x in self.t)
        cs = ",".join("(%d,%d)" % c for c in sorted(self.cell_set))
        return "symmetric:n=%d;points=%s;t=%s;cells=%s" % (self.n, ps, ts, cs)

    def _cells_are_derived(self):
        derived = SymmetricLadder(self.n, self.points, self.t).cell_set
        return derived == self.cell_set

    def to_json(self):
        out = {
            "family": "symmetric",
            "n": self.n,
            "points": [list(p) for p in self.points],
            "t": list(self.t),
        }
        if not self._cells_are_derived():
            out["cells"] = [list(c) for c in sorted(self.cell_set)]
        return out

    def __repr__(self):
        return "SymmetricLadder(n=%d, points=%s, t=%s)" % (
            self.n,
            list(self.points),
            list(self.t),
        )


def _normalize_symmetric(n, points, t, cells):
    cells = frozenset(cells)
    # re-express every point at the maximal cells of its region; this is
    # exact: a minor fits in a staircase region iff it fits below one of
    # the region's maximal cells
    expanded = [
        (c, tk)
        for (v, w), tk in zip(points, t)
        for c in _maximal_cells(_upper_cells_below(cells, v, w))
    ]

    def build(pairs, kept_cells):
        if kept_cells is None:
            kept_cells = cells
        ladder = SymmetricLadder(n, *_unzip(pairs), kept_cells)
        # drop the regions that cannot hold a minor, unless none can;
        # cells are explicit, so this never changes them
        fits = [r for r in ladder.sizes() if ladder.holds_generator(*r)]
        if fits and len(fits) < len(pairs):
            ladder = SymmetricLadder(n, *_unzip(fits), ladder.cell_set)
        return ladder

    return _normalized(build, lambda p, q: p[0] <= q[0] and p[1] <= q[1], expanded)


# ---------------------------------------------------------------------------
# one-sided ladders


class OneSidedLadder(_Ladder):
    """Union of regions {i <= a_k, j >= b_k} of a generic m x n matrix,
    with t_k-minors generated from region k."""

    family = "onesided"
    order_kind = "antidiagonal"

    def __init__(self, m: int, n: int, points, t):
        points = [tuple(p) for p in points]
        t = list(t)
        if len(points) != len(t):
            raise LadderError("point list and size vector differ in length")
        if not points:
            raise LadderError("a one-sided ladder needs at least one point")
        self.m = m
        self.n = n
        pairs = sorted(zip(points, t), key=lambda pt: (pt[0][0], pt[0][1], pt[1]))
        self.points = tuple(p for p, _ in pairs)
        self.t = tuple(x for _, x in pairs)

    def shape(self):
        from .matrices import GenericShape

        return GenericShape(self.m, self.n)

    def cells(self):
        out = set()
        for p in self.points:
            out |= self.region_cells(p)
        return sorted(out)

    def sizes(self):
        return list(zip(self.points, self.t))

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
        out = []
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
        for k in range(1, len(self.points)):
            (a0, b0), t0 = self.points[k - 1], self.t[k - 1]
            (a1, b1), t1 = self.points[k], self.t[k]
            if not (b0 - b1 < t1 - t0 < a1 - a0):
                out.append(
                    Diagnostic(
                        "warning",
                        "adjacent regions violate the size staircase inequalities",
                        (a1, b1),
                    )
                )
        return out

    def split(self):
        k = self._split_index()
        if k is None:
            return None
        a, b = self.points[k]
        red_points = list(self.points)
        red_t = list(self.t)
        red_points[k] = (a - 1, b + 1)
        red_t[k] = self.t[k] - 1
        mid_points = list(self.points)
        mid_t = list(self.t)
        mid_points[k : k + 1] = [(a - 1, b), (a, b + 1)]
        mid_t[k : k + 1] = [self.t[k], self.t[k]]
        return SplitResult(
            reduced=_normalize_onesided(self.m, self.n, red_points, red_t),
            middle=_normalize_onesided(self.m, self.n, mid_points, mid_t),
            cell=(a, b),
        )

    def tilde(self):
        out = set()
        for (a, b), tk in zip(self.points, self.t):
            a2, b2 = a - tk + 1, b + tk - 1
            for i in range(1, min(a2, self.m) + 1):
                for j in range(max(b2, 1), self.n + 1):
                    out.add((i, j))
        return sorted(out)

    def height_formula(self):
        return len(self.tilde())

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

    def __repr__(self):
        return "OneSidedLadder(%dx%d, points=%s, t=%s)" % (
            self.m,
            self.n,
            list(self.points),
            list(self.t),
        )


def _normalize_onesided(m, n, points, t):
    # regions with no cell go, the rest are clamped to the matrix
    pairs = [
        ((min(a, m), max(b, 1)), tk)
        for (a, b), tk in zip(points, t)
        if a >= 1 and b <= n
    ]
    return _normalized(
        lambda pairs, cells: OneSidedLadder(m, n, *_unzip(pairs)),
        lambda p, q: p[0] <= q[0] and p[1] >= q[1],
        pairs,
    )


# ---------------------------------------------------------------------------
# construction from JSON

_FAMILIES = {"maxminors", "pfaffian", "symmetric", "onesided"}


def ladder_from_json(data: dict):
    fam = data.get("family")
    if fam == "twosided":
        raise LadderError("two-sided ladders are out of scope")
    if fam not in _FAMILIES:
        raise LadderError("unknown family %r" % fam)
    try:
        if fam == "maxminors":
            return MaxMinors(int(data["m"]), int(data["n"]))
        if fam == "pfaffian":
            return PfaffianLadder(int(data["n"]), data["corners"], data["t"])
        if fam == "symmetric":
            cells = data.get("cells")
            if cells is not None:
                cells = frozenset(tuple(c) for c in cells)
            return SymmetricLadder(int(data["n"]), data["points"], data["t"], cells)
        return OneSidedLadder(int(data["m"]), int(data["n"]), data["points"], data["t"])
    except KeyError as e:
        raise LadderError("missing field %s" % e) from None
