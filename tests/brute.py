"""Brute-force references for monomial ideals, for the tests.

Each enumerates directly instead of running the library's algorithms
(the Hilbert recursion, the complex of the ideal), so it is only viable
for small degrees and few variables.
"""

import itertools

from laddergb.errors import PreconditionError


def hilbert_function_brute(ideal, d):
    """Number of standard monomials of degree d, by direct enumeration."""
    if d < 0:
        return 0
    count = 0
    for combo in itertools.combinations_with_replacement(ideal.ambient[::-1], d):
        m = []
        for v in combo:
            if m and m[-2] == v:
                m[-1] += 1
            else:
                m.extend((v, 1))
        if not ideal.contains_monomial(tuple(m)):
            count += 1
    return count


def codim_by_cover(ideal):
    """Smallest vertex cover of the generator supports; equals the
    codimension of the squarefree ideal."""
    if ideal.is_unit():
        raise PreconditionError("unit ideal has no codimension")
    supports = [frozenset(g[k] for k in range(0, len(g), 2)) for g in ideal.gens]
    if not supports:
        return 0
    verts = sorted(set().union(*supports))
    for k in range(0, len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            cset = set(combo)
            if all(s & cset for s in supports):
                return k
    raise AssertionError("no cover found")
