"""Matrices of indeterminates: generic, symmetric and skew-symmetric.

A shape resolves positions to signed variables: symmetric matrices store
only cells with i <= j and reflect, skew-symmetric matrices store i < j,
vanish on the diagonal and negate below it.  Minors are computed by
cofactor expansion, pfaffians by the standard expansion along the first
index, pf() = 1, pf(i, j) = x[i,j].

minor_leading and pfaffian_leading give the leading monomial of a minor
or pfaffian under a lex order without expanding it: they repeatedly take
the largest variable of the submatrix (for a pfaffian, the largest pair)
and strike its row and column (its pair).  This is exact whenever that
variable sits at one position only, which holds for every minor and
pfaffian the families generate under their conventional orders; in any
other case minor_leading returns None and the caller expands.

A polynomial or monomial is built over the variables of one ring, the
numbering of a term order (poly.TermOrder.var), so every function that
returns one takes that order.  Each shape object carries memos of the
minors and pfaffians it has expanded and of their leading monomials,
one memo of each per term order (one shape may be read under two
orders), keyed by the index tuples and, for an expansion, the field's
name; so every caller that shares a shape (a whole corner-removal chain
shares its top instance's) expands each index set once per field and
reads its leading monomial once per order.  The memos are looked up
first; indices are validated only on a miss, before anything is stored,
so a key in a memo is always a valid one.
"""

from . import mono, poly
from .errors import PreconditionError


class GenericShape:
    """An m x n matrix of independent indeterminates."""

    kind = "generic"

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise PreconditionError("matrix dimensions must be positive")
        self.m = m
        self.n = n
        self._minors = {}
        self._lead = {}

    def cells(self):
        return [(i, j) for i in range(1, self.m + 1) for j in range(1, self.n + 1)]

    def variables(self):
        return self.cells()

    def entry(self, i, j):
        """(sign, cell) of position (i, j); sign 0 means a zero entry."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise PreconditionError("position (%d, %d) outside matrix" % (i, j))
        return 1, (i, j)

    def __repr__(self):
        return "GenericShape(%d, %d)" % (self.m, self.n)


class SymmetricShape:
    """An n x n symmetric matrix: position (i, j) holds x[min,max]."""

    kind = "symmetric"

    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("matrix dimension must be positive")
        self.m = self.n = n
        self._minors = {}
        self._lead = {}

    def cells(self):
        return [(i, j) for i in range(1, self.n + 1) for j in range(i, self.n + 1)]

    def variables(self):
        return self.cells()

    def entry(self, i, j):
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise PreconditionError("position (%d, %d) outside matrix" % (i, j))
        return 1, (min(i, j), max(i, j))

    def __repr__(self):
        return "SymmetricShape(%d)" % self.n


class SkewShape:
    """An n x n skew-symmetric matrix: zero diagonal, x[j,i] = -x[i,j]."""

    kind = "skew"

    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("matrix dimension must be positive")
        self.m = self.n = n
        self._minors = {}
        self._pf = {}
        self._lead = {}

    def cells(self):
        return [(i, j) for i in range(1, self.n + 1) for j in range(i + 1, self.n + 1)]

    def variables(self):
        return self.cells()

    def entry(self, i, j):
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise PreconditionError("position (%d, %d) outside matrix" % (i, j))
        if i == j:
            return 0, None
        if i < j:
            return 1, (i, j)
        return -1, (j, i)

    def __repr__(self):
        return "SkewShape(%d)" % self.n


def entry_poly(shape, i, j, field, order):
    """Entry (i, j) of the matrix, over order's variables."""
    sign, cell = shape.entry(i, j)
    if sign == 0:
        return {}
    c = field.one if sign > 0 else field.neg(field.one)
    return {mono.var(order.var(*cell)): c}


def _ring_memo(memos, order):
    """The memo for one term order out of one of a shape's memo tables,
    keyed by the order object itself (a live object, so no other order
    can reuse its key)."""
    memo = memos.get(order)
    if memo is None:
        memo = memos[order] = {}
    return memo


def _check_indices(idx, bound, what):
    if list(idx) != sorted(set(idx)):
        raise PreconditionError("%s must be strictly increasing" % what)
    if idx and (idx[0] < 1 or idx[-1] > bound):
        raise PreconditionError("%s out of range" % what)


def minor(shape, rows, cols, field, order):
    """Determinant of the submatrix on rows x cols, as a polynomial over
    order's variables.

    rows and cols are strictly increasing index tuples of equal length.
    Memoized in the shape per order on (rows, cols, field name): the
    polynomial is built once per shape, order and field, and shared by
    every later call.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    memo = _ring_memo(shape._minors, order)
    key = (rows, cols, field.name)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if len(rows) != len(cols):
        raise PreconditionError("minor needs equally many rows and columns")
    _check_indices(rows, shape.m, "rows")
    _check_indices(cols, shape.n, "columns")
    if not rows:
        out = {mono.ONE: field.one}
    elif len(rows) == 1:
        out = entry_poly(shape, rows[0], cols[0], field, order)
    else:
        out = {}
        rest_rows = rows[1:]
        sign = 1
        for k, c in enumerate(cols):
            e = entry_poly(shape, rows[0], c, field, order)
            if e:
                rest_cols = cols[:k] + cols[k + 1 :]
                sub = minor(shape, rest_rows, rest_cols, field, order)
                term = poly.p_mul(e, sub, field)
                if sign < 0:
                    term = poly.p_scale(term, field.neg(field.one), field)
                out = poly.p_add(out, term, field)
            sign = -sign
    memo[key] = out
    return out


def pfaffian(shape, indices, field, order):
    """Pfaffian of the principal skew submatrix on the given indices, as
    a polynomial over order's variables.

    Expansion along the first index with alternating signs; the square
    of the result is the determinant of the same submatrix.  Memoized in
    the shape per order on (indices, field name), like minor.
    """
    if shape.kind != "skew":
        raise PreconditionError("pfaffian requires a skew-symmetric shape")
    indices = tuple(indices)
    memo = _ring_memo(shape._pf, order)
    key = (indices, field.name)
    cached = memo.get(key)
    if cached is not None:
        return cached
    _check_indices(indices, shape.n, "indices")
    if len(indices) % 2 != 0:
        raise PreconditionError("pfaffian needs an even number of indices")
    if not indices:
        out = {mono.ONE: field.one}
    elif len(indices) == 2:
        out = entry_poly(shape, indices[0], indices[1], field, order)
    else:
        out = {}
        first = indices[0]
        for pos in range(1, len(indices)):
            other = indices[pos]
            e = entry_poly(shape, first, other, field, order)
            rest = tuple(x for x in indices if x != first and x != other)
            sub = pfaffian(shape, rest, field, order)
            term = poly.p_mul(e, sub, field)
            # position is 1-based j = pos + 1; sign (-1)^j
            if (pos + 1) % 2 == 1:
                term = poly.p_scale(term, field.neg(field.one), field)
            out = poly.p_add(out, term, field)
    memo[key] = out
    return out


def minor_leading(shape, rows, cols, order):
    """Leading monomial of the minor on rows x cols under the lex order,
    read off the index sets; None when the rule below is not exact.

    Let x be the largest variable of the submatrix.  If x sits at one
    position (r, c) only, the minor is +-x times the minor without row r
    and column c, plus terms free of x, and every term with x beats
    every term without it.  So the leading monomial is x times that of
    the smaller minor, whose leading coefficient is +-1 by the same
    argument, over any field.  When x sits at two positions (in a
    symmetric or skew matrix, both (r, c) and (c, r) are inside) or the
    submatrix has no variable left, the answer is None and the caller
    expands the minor.  Memoized in the shape per order on (rows, cols);
    indices are validated on a miss, as in minor.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    memo = _ring_memo(shape._lead, order)
    key = (rows, cols)
    if key in memo:
        return memo[key]
    if len(rows) != len(cols):
        raise PreconditionError("minor needs equally many rows and columns")
    _check_indices(rows, shape.m, "rows")
    _check_indices(cols, shape.n, "columns")
    var = order.var
    left_rows, left_cols = list(rows), list(cols)
    picked = []
    while left_rows:
        best = None
        count = 0
        for r in left_rows:
            for c in left_cols:
                sign, cell = shape.entry(r, c)
                if sign == 0:
                    continue
                v = var(*cell)
                if best is None or v > best[0]:
                    best = (v, r, c)
                    count = 1
                elif v == best[0]:
                    count += 1
        if best is None or count > 1:
            memo[key] = None
            return None
        v, r, c = best
        picked.append(v)
        left_rows.remove(r)
        left_cols.remove(c)
    out = memo[key] = mono.from_vars(picked)
    return out


def pfaffian_leading(shape, indices, order):
    """Leading monomial of the pfaffian on the indices under the lex
    order, read off the index set.

    Every variable x[i,j] of a skew matrix belongs to one pair, so the
    pfaffian is +-x[i,j] times the pfaffian without i and j plus terms
    free of x[i,j].  Taking the largest pair and repeating is therefore
    always exact.  Memoized in the shape per order on (indices,).
    """
    if shape.kind != "skew":
        raise PreconditionError("pfaffian requires a skew-symmetric shape")
    indices = tuple(indices)
    memo = _ring_memo(shape._lead, order)
    key = (indices,)
    if key in memo:
        return memo[key]
    _check_indices(indices, shape.n, "indices")
    if len(indices) % 2 != 0:
        raise PreconditionError("pfaffian needs an even number of indices")
    var = order.var
    left = list(indices)
    picked = []
    while left:
        v, i, j = max((var(i, j), i, j) for k, i in enumerate(left) for j in left[k + 1 :])
        picked.append(v)
        left.remove(i)
        left.remove(j)
    out = memo[key] = mono.from_vars(picked)
    return out


def order_for(shape, kind: str):
    """Term order of the requested kind over all variables of the shape."""
    if kind == "diagonal" or kind == "diag":
        return poly.diagonal_order(shape.variables())
    if kind == "antidiagonal" or kind == "antidiag":
        return poly.antidiagonal_order(shape.variables())
    raise PreconditionError("unknown order kind %r" % kind)
