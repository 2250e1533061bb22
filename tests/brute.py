"""Brute-force references for the tests.

The monomial-ideal references enumerate directly instead of running the
library's algorithms (the Hilbert recursion, the complex of the ideal),
so they are only viable for small degrees and few variables.  The
localization reference completes both ideals to Groebner bases before
it tests any membership, which linkage.verify_localization does only
where dividing by the generators leaves a remainder.
"""

import itertools

from laddergb import mono
from laddergb.errors import PreconditionError
from laddergb.families import conventional_order, natural_generators
from laddergb.fields import QQ
from laddergb.linkage import (
    localization_maps,
    localized_ideal_generators,
    substitute,
)
from laddergb.poly import freeze, groebner_basis, normal_form, p_term_mul, p_var

from tupleref import encode


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
        if not ideal.contains_monomial(encode(m)):
            count += 1
    return count


def codim_by_cover(ideal):
    """Smallest vertex cover of the generator supports; equals the
    codimension of the squarefree ideal."""
    if ideal.is_unit():
        raise PreconditionError("unit ideal has no codimension")
    supports = [frozenset(mono.variables(g)) for g in ideal.gens]
    if not supports:
        return 0
    verts = sorted(set().union(*supports))
    for k in range(0, len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            cset = set(combo)
            if all(s & cset for s in supports):
                return k
    raise AssertionError("no cover found")


def localization_complete_first(ladder, cell, field=QQ, max_spairs=None, max_power=3):
    """verify_localization's report, each membership decided against a
    Groebner basis of the target ideal completed before any image is
    tested: uv^e * p is in the ideal for some e <= max_power exactly when
    one of these remainders is zero."""
    order = conventional_order(ladder)
    phi, psi = localization_maps(ladder, cell, field)
    uv = order.var(*cell)

    ok = True
    for (i, j) in ladder.cells():
        x = order.var(i, j)
        for first, second in ((phi, psi), (psi, phi)):
            num, e = first[x]
            num2, e2 = substitute(num, second, uv, field)
            want = p_var(x, field)
            if e + e2:
                want = p_term_mul(want, encode((uv, e + e2)), field.one, field)
            ok = ok and freeze(num2) == freeze(want)
    checks = [{"name": "inverse-pair", "pass": ok, "detail": "composition fixes every variable"}]

    def member(p, gb, table):
        for _ in range(max_power + 1):
            if not normal_form(p, gb, order, field, table):
                return True
            p = p_term_mul(p, encode((uv, 1)), field.one, field)
        return False

    shape = ladder.shape()
    gens = natural_generators(ladder, field, order, shape)
    hat_gens = localized_ideal_generators(ladder, cell, field, shape, order)
    for name, sources, mapping, target, escape in (
        ("forward-membership", gens, phi, hat_gens, "a generator image escapes the localized ideal"),
        ("reverse-membership", hat_gens, psi, gens, "a localized generator image escapes the ladder ideal"),
    ):
        gb, table = groebner_basis(target, order, field, max_spairs)
        ok = all(member(substitute(g, mapping, uv, field)[0], gb, table) for g in sources)
        checks.append({"name": name, "pass": ok, "detail": "" if ok else escape})
    return {
        "schema": "laddergb-report/1",
        "instance": ladder.to_json(),
        "cell": list(cell),
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
