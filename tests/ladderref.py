"""The set-based height formula and nested-region scan of the ladder
families, as they were before both read int masks and a plain loop, a
reference for them.

tilde(ladder) lists the cells of the shifted ladder from Python sets:
the union of the regions' shifted cells for the pfaffian and one-sided
families, and for the symmetric family the ladder's cells that satisfy
every size-shift constraint.  rectangles(ladder) is the symmetric
family's union of shifted regions, which is not its height formula: the
tests count the nodes where the two differ, so that the sweep is known
to reach them.  outer(ladder, pairs) is the comprehension that dropped
the regions lying inside an equal-size one.
"""


def tilde(ladder):
    """The sorted cells of the shifted ladder, by set operations."""
    family = ladder.family
    if family == "maxminors":
        if ladder.n < ladder.m:
            return []
        return [(1, j) for j in range(ladder.m, ladder.n + 1)]
    if family == "pfaffian":
        cells = set()
        for (a, b), tk in ladder.sizes():
            lo, hi = max(1, a + tk - 1), min(ladder.n, b - tk + 1)
            cells |= {(i, j) for i in range(lo, hi + 1) for j in range(i + 1, hi + 1)}
        return sorted(cells)
    if family == "onesided":
        cells = set()
        for (a, b), tk in ladder.sizes():
            cells |= ladder.region_cells((a - tk + 1, b + tk - 1))
        return sorted(cells)
    low = [(v - tk + 1, w - tk + 1) for (v, w), tk in ladder.sizes()]
    return [
        (i, j)
        for (i, j) in sorted(ladder.cell_set)
        if j <= low[0][1]
        and i <= low[-1][0]
        and all(i <= low[k - 1][0] or j <= low[k][1] for k in range(1, len(low)))
    ]


def rectangles(ladder):
    """The symmetric ladder's cells inside some shifted region
    {i <= v - t + 1, j <= w - t + 1}, sorted."""
    return sorted(
        (i, j)
        for (i, j) in ladder.cell_set
        if any(i <= v - tk + 1 and j <= w - tk + 1 for (v, w), tk in ladder.sizes())
    )


def outer(ladder, pairs):
    """The (point, t) pairs inside no other region of equal size."""
    return [
        (p, t)
        for p, t in pairs
        if not any(s == t and q != p and ladder._inside(p, q) for q, s in pairs)
    ]
