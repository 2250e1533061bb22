"""Sparse multivariate polynomials over an exact field, with lexicographic
term orders and a Buchberger engine.

A term order is a pure lexicographic order given by a "biggest first"
sequence of matrix cells; the diagonal order reads the matrix row by row
left to right, the anti-diagonal order reads each row right to left.
Either realizes the property that leading terms of minors are their
(anti-)diagonal products; that property is asserted by tests, not
assumed here.  A term order also numbers the variables of its ring by
rank, the largest variable last (TermOrder.var, TermOrder.cell).  A
monomial is the packed exponent vector of the mono kernel over these
ids, one int, and a polynomial is a dict mapping monomial -> nonzero
coefficient.  Two monomials then compare as lex with Python's own <,
so leading terms, the S-pair queue and canonical text take
monomials as they are, with no sort key and no memo of one.  A
polynomial is only meaningful together with the order whose ring it was
built in.

Division runs against a reducer table (see reducers): the leading
monomial, leading coefficient and variable-support bitmask of every basis
element, built once by whoever owns the basis and extended as the basis
grows.  The mask rules a reducer out before its exponents are compared
(a divisor's support lies in the support of the monomial it divides), and
each reduction step subtracts its multiple of the reducer from the work
polynomial in place.  Neither changes the result: reduction always picks
the reducer with the smallest index whose leading monomial divides.

Buchberger's algorithm runs in two stages.  Completion (groebner_basis)
appends every nonzero S-pair remainder to the monic inputs and returns
that Groebner basis with its reducer table; its leading monomials
generate the initial ideal already.  Reduction (_interreduce) turns it
into the reduced basis; buchberger_reduced is the two in sequence.

Completion and the reduced-basis predicate share one S-pair loop.  It
takes pairs in the normal selection order (increasing lcm degree) and
settles a pair without reducing it in three ways: the product criterion,
Buchberger's chain criterion, and a recorded standard representation.  The last applies when the caller names the generators
and hands in a record of earlier calls: a pair whose S-polynomial
reduced to zero over a set U of named generators is settled in any call
holding U.  The first and the last settle a pair as it is formed, before
it costs an lcm or a place in the queue.  A budget counts the reductions
the loop performs.  All results are deterministic.
"""

import heapq
from typing import Iterable

from . import mono
from .errors import BudgetExceeded, PreconditionError

# ---------------------------------------------------------------------------
# term orders


class TermOrder:
    """Pure lex order determined by a biggest-first sequence of cells,
    and the variable numbering of its ring.

    sequence holds the cells (i, j) themselves, biggest first; a cell
    has no other name outside a ring, so its indices are not bounded.
    The variable of the k-th cell of the sequence has id n - 1 - k, its
    rank: the largest variable has the largest id.  Monomials over these
    ids compare as lex with Python's own comparison (see mono).  var and
    cell map a cell to its variable and back; rendering, certificates
    and complexes speak of cells, everything else of variables.  kind is
    "diagonal", "antidiagonal" or "custom"; the sequence itself is
    exposed so callers can substitute any realizing permutation.
    """

    def __init__(self, kind: str, sequence):
        self.kind = kind
        self.sequence = tuple(sequence)
        if len(set(self.sequence)) != len(self.sequence):
            raise ValueError("term order sequence has repeated cells")
        self._cells = self.sequence[::-1]
        self._var = {c: v for v, c in enumerate(self._cells)}

    def var(self, i: int, j: int) -> int:
        """Variable id of cell (i, j)."""
        return self._var[(i, j)]

    def cell(self, v: int):
        """Cell (i, j) of variable v."""
        return self._cells[v]

    def __repr__(self):
        return "TermOrder(%s, %d vars)" % (self.kind, len(self.sequence))


def diagonal_order(cells) -> TermOrder:
    """Row-major lex order: top row largest, left to right within a row."""
    return TermOrder("diagonal", sorted(cells))


def antidiagonal_order(cells) -> TermOrder:
    """Row-major lex order with columns reversed within each row."""
    return TermOrder("antidiagonal", sorted(cells, key=lambda c: (c[0], -c[1])))


# ---------------------------------------------------------------------------
# polynomial arithmetic (dict monomial -> coefficient)


def p_zero():
    return {}


def p_var(v, field):
    return {mono.var(v): field.one}


def p_add(p, q, field):
    out = dict(p)
    for m, c in q.items():
        acc = out.get(m)
        if acc is None:
            out[m] = c
        else:
            s = field.add(acc, c)
            if field.is_zero(s):
                del out[m]
            else:
                out[m] = s
    return out


def p_sub(p, q, field):
    return p_add(p, {m: field.neg(c) for m, c in q.items()}, field)


def p_scale(p, c, field):
    if field.is_zero(c):
        return {}
    return {m: field.mul(k, c) for m, k in p.items()}


def p_term_mul(p, m, c, field):
    """Multiply p by the term c * m."""
    if field.is_zero(c):
        return {}
    mul = mono.mul
    return {mul(k, m): field.mul(a, c) for k, a in p.items()}


def p_mul(p, q, field):
    out = {}
    mul = mono.mul
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mul(m1, m2)
            acc = out.get(m)
            if acc is None:
                out[m] = field.mul(c1, c2)
            else:
                s = field.add(acc, field.mul(c1, c2))
                if field.is_zero(s):
                    del out[m]
                else:
                    out[m] = s
    return out


def p_is_zero(p) -> bool:
    return not p


def p_degree(p) -> int:
    """Total degree; -1 for the zero polynomial."""
    if not p:
        return -1
    return max(mono.deg(m) for m in p)


def freeze(p):
    """Canonical hashable form (sorted term tuple) for sets and dedup."""
    return tuple(sorted(p.items()))


def leading_term(p, order: TermOrder):
    """(monomial, coefficient) of the largest term; error on zero.  The
    monomials of p are over order's variables, so max compares them in
    order."""
    if not p:
        raise PreconditionError("leading term of the zero polynomial")
    m = max(p)
    return m, p[m]


def p_monic(p, order, field):
    return _monic_entry(p, order, field)[0] if p else p


def _monic_entry(p, order, field):
    """Nonzero p scaled to lead with coefficient one, and its reducer
    table entry (see reducers), from one leading-term search."""
    lm, lc = leading_term(p, order)
    if not field.eq(lc, field.one):
        ci = field.inv(lc)
        p = {m: field.mul(a, ci) for m, a in p.items()}
    return p, (lm, field.one, mono.support(lm))


# ---------------------------------------------------------------------------
# division and normal forms


def reducers(G, order):
    """The reducer table of the list G: one (lm, lc, mask) per element,
    its leading monomial, leading coefficient and mono.support(lm).

    Whoever owns a basis builds this once and hands it to every division
    by that basis, so the leading terms are not searched for again on each
    call.  Entry i describes G[i]; a table for a growing list is extended
    by appending the entries of the new elements.
    """
    out = []
    for g in G:
        lm, lc = leading_term(g, order)
        out.append((lm, lc, mono.support(lm)))
    return out


def _reduce(p, G, table, order, field, quotients=None, used=None):
    """The division loop of division and normal_form; returns the
    remainder and, when quotients is a list of dicts, adds each quotient
    term to quotients[i].  When used is a set, the index of every reducer
    that took a step is added to it.

    The largest monomial m of the work polynomial is reduced by the first
    entry of table that divides it.  An entry whose mask has a bit outside
    support(m) is passed over without calling mono.divides; this never
    changes which reducer is chosen.  The multiple qc*qm*G[i] is
    subtracted from the work polynomial in place, term by term.
    """
    remainder = {}
    work = dict(p)
    divides, dv, mul, support = mono.divides, mono.div, mono.mul, mono.support
    fadd, fmul, is_zero = field.add, field.mul, field.is_zero
    while work:
        m = max(work)
        c = work[m]
        outside = ~support(m)
        for idx, (lm, lc, mask) in enumerate(table):
            if not mask & outside and divides(lm, m):
                break
        else:
            remainder[m] = c
            del work[m]
            continue
        qm = dv(m, lm)
        qc = field.div(c, lc)
        if used is not None:
            used.add(idx)
        if quotients is not None:
            q = quotients[idx]
            acc = q.get(qm)
            if acc is None:
                q[qm] = qc
            else:
                s = fadd(acc, qc)
                if is_zero(s):
                    del q[qm]
                else:
                    q[qm] = s
        nqc = field.neg(qc)
        for k, a in G[idx].items():
            t = mul(k, qm)
            v = fmul(a, nqc)
            acc = work.get(t)
            if acc is None:
                work[t] = v
            else:
                s = fadd(acc, v)
                if is_zero(s):
                    del work[t]
                else:
                    work[t] = s
    return remainder


def division(p, G, order, field, table=None):
    """Divide p by the list G; returns (remainder, quotients).

    Deterministic: at each step the largest not-yet-final monomial of the
    work polynomial is reduced by the first listed reducer whose leading
    monomial divides it.  The invariant p = sum(q_i g_i) + r holds
    exactly and is exercised by tests.  table is reducers(G, order) when
    the caller keeps one; it is built here otherwise.  The support-mask
    filter and the in-place update of the work polynomial leave the
    choice of reducer, and so the result, as it is without them.
    """
    if table is None:
        table = reducers(G, order)
    quotients = [{} for _ in G]
    return _reduce(p, G, table, order, field, quotients), quotients


def normal_form(p, G, order, field, table=None, used=None):
    """Remainder of p on division by G, as division computes it (table
    as there), without keeping the quotients.  used, when a set, collects
    the indices of the elements of G that the division used."""
    if table is None:
        table = reducers(G, order)
    return _reduce(p, G, table, order, field, used=used)


def s_polynomial(f, g, order, field, lead_f=None, lead_g=None):
    """S-polynomial of f and g, both nonzero.  lead_f and lead_g start
    with the (lm, lc) of f and g when the caller has them, as a reducer
    table entry does; they are found with leading_term otherwise."""
    mf, cf = (lead_f or leading_term(f, order))[:2]
    mg, cg = (lead_g or leading_term(g, order))[:2]
    l = mono.lcm(mf, mg)
    a = p_term_mul(f, mono.div(l, mf), field.inv(cf), field)
    b = p_term_mul(g, mono.div(l, mg), field.inv(cg), field)
    return p_sub(a, b, field)


# ---------------------------------------------------------------------------
# Buchberger


def _divisible(m, table):
    """Whether the leading monomial of some entry of the reducer table
    divides m; an entry whose mask has a bit outside support(m) is passed
    over without calling mono.divides."""
    outside = ~mono.support(m)
    return any(not mask & outside and mono.divides(lm, m) for lm, _, mask in table)


def _interreduce(G, table, order, field):
    """Minimal, tail-reduced basis from the monic list G and its reducer
    table; keeps determinism by processing in decreasing leading-monomial
    order.  An element whose tail no kept leading monomial divides is its
    own normal form against the others; only the rest are reduced."""
    ranked = sorted(zip(G, table), key=lambda e: e[1][0], reverse=True)
    # drop generators whose leading monomial is divisible by another's
    gens, kept = [], []
    for i, (g, entry) in enumerate(ranked):
        mi, _, si = entry
        outside = ~si
        redundant = False
        for j, (_, (mj, _, sj)) in enumerate(ranked):
            if j == i or sj & outside:
                continue
            if mono.divides(mj, mi) and (mj != mi or j < i):
                redundant = True
                break
        if not redundant:
            gens.append(g)
            kept.append(entry)
    # tail-reduce each against the others; the leading terms stay, so the
    # result is monic and still in decreasing leading-monomial order
    out = []
    for i, g in enumerate(gens):
        lm = kept[i][0]
        if any(m != lm and _divisible(m, kept) for m in g):
            rest = gens[:i] + gens[i + 1 :]
            g = normal_form(g, rest, order, field, kept[:i] + kept[i + 1 :])
        out.append(g)
    return out


def _nonzero_remainders(
    G, table, order: TermOrder, field, max_spairs=None, names=None, record=None
):
    """Reduce the S-pairs of the list G and yield every nonzero remainder.

    table is the reducer table of G (see reducers), possibly empty or
    short; it is extended to cover G, also when the caller appends to G
    before resuming the generator.  The pairs of every appended element
    join the queue.  Pairs are taken in the normal selection order: by lcm
    degree, then by the lcm monomial and the pair indices, for
    determinism.  A pair is settled once it is reduced or skipped, and two
    criteria skip a pair (i, j) without reducing it: the product criterion
    (the support masks of lm_i and lm_j share no bit), tested as the pair
    is formed, and Buchberger's chain criterion (some lm_k divides
    lcm(lm_i, lm_j) while the pairs (i, k) and (j, k) are both settled;
    Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, section 2.10),
    tested as it leaves the queue.  Either way the S-polynomial has a
    standard representation, so G is a Groebner basis exactly when the
    generator ends without yielding.  Raises BudgetExceeded when a
    reduction would exceed max_spairs performed reductions.

    names, when given, names the elements G holds on entry (names[k] is
    G[k]'s; equal names must mean equal polynomials), and record maps an
    unordered pair of names to a set U of names over which the pair's
    S-polynomial reduced to zero in an earlier call.  Such a division is
    a standard representation over U, and it stays one over any list
    holding U, so a named pair whose recorded U lies inside names is
    settled without reducing it (section 2.9), whenever that is read: so
    it is settled as it is formed, never queued.  A reduction to zero that
    used only named elements records the names of the pair and of the
    reducers it used; a nonzero remainder, or a division that used an
    appended element, records nothing.
    """
    named = 0
    if names is not None:
        if len(names) != len(G):
            raise PreconditionError(
                "%d names for %d generators" % (len(names), len(G))
            )
        named = len(G)
        held = frozenset(names)
        if record is None:
            record = {}
    settled = []  # settled[i]: the k with (i, k) reduced or skipped
    heap = []
    spent = 0
    while True:
        table.extend(reducers(G[len(table) :], order))
        for new in range(len(settled), len(G)):
            lm, _, mask = table[new]
            done = set()
            for k in range(new):
                lk, _, mk = table[k]
                if mk & mask:
                    known = new < named and record.get(frozenset((names[k], names[new])))
                    if not (known and known <= held):
                        l = mono.lcm(lk, lm)
                        heapq.heappush(heap, (mono.deg(l), l, k, new))
                        continue
                done.add(k)
                settled[k].add(new)
            settled.append(done)
        if not heap:
            return
        _, l, i, j = heapq.heappop(heap)
        # the support of lcm(lm_i, lm_j) is the union of the two masks
        outside = ~(table[i][2] | table[j][2])
        skip = any(
            not table[k][2] & outside and mono.divides(table[k][0], l)
            for k in settled[i] & settled[j]
        )
        settled[i].add(j)
        settled[j].add(i)
        if skip:
            continue
        if max_spairs is not None and spent >= max_spairs:
            raise BudgetExceeded("buchberger S-pairs", max_spairs)
        spent += 1
        s = s_polynomial(G[i], G[j], order, field, table[i], table[j])
        pair = frozenset((names[i], names[j])) if j < named else None
        used = set() if pair is not None else None
        r = normal_form(s, G, order, field, table, used=used)
        if r:
            yield r
        elif pair is not None and all(u < named for u in used):
            record[pair] = pair.union(names[u] for u in used)


def groebner_basis(
    F: Iterable[dict], order: TermOrder, field, max_spairs=None, names=None, record=None
):
    """Buchberger completion of ideal(F): returns (G, table), the monic
    nonzero inputs followed by the monic nonzero S-pair remainders, and
    their reducer table.  G is a Groebner basis, so its leading monomials
    generate the initial ideal, but it is not interreduced.

    Pairs that the product or the chain criterion settles, or that
    record settles over names (see _nonzero_remainders), are never
    reduced.  names[k] names F[k]; a zero input is dropped with its name.
    Raises BudgetExceeded when max_spairs S-pair reductions have been
    performed and another is due.
    """
    F = list(F)
    if names is not None:
        if len(names) != len(F):
            raise PreconditionError("%d names for %d generators" % (len(names), len(F)))
        names = [n for f, n in zip(F, names) if f]
    G, table = [], []
    for f in F:
        if f:
            g, entry = _monic_entry(dict(f), order, field)
            G.append(g)
            table.append(entry)
    for r in _nonzero_remainders(G, table, order, field, max_spairs, names, record):
        g, entry = _monic_entry(r, order, field)
        G.append(g)
        table.append(entry)
    return G, table


def buchberger_reduced(
    F: Iterable[dict], order: TermOrder, field, max_spairs=None, names=None, record=None
):
    """Reduced Groebner basis of ideal(F): the completion groebner_basis
    (arguments as there) followed by its interreduction, which reads the
    completion's reducer table."""
    G, table = groebner_basis(F, order, field, max_spairs, names, record)
    return _interreduce(G, table, order, field)


def is_reduced_groebner(
    G, order: TermOrder, field, max_spairs=None, names=None, record=None
) -> bool:
    """True iff G is exactly the reduced Groebner basis of ideal(G):
    monic, interreduced (no leading monomial divides another, no tail
    monomial divisible by any leading monomial), and every S-polynomial
    reduces to zero.  S-pairs settled by the product or the chain
    criterion, or by record over names (as in buchberger_reduced), are
    not reduced; max_spairs bounds the reductions performed, as in
    buchberger_reduced.  One reducer table serves every check."""
    G = [dict(g) for g in G]
    if any(not g for g in G):
        return False
    table = reducers(G, order)
    if any(not field.eq(lc, field.one) for _, lc, _ in table):
        return False
    # no leading monomial divides another element's leading monomial, nor
    # any tail monomial of its own or another element
    for i, g in enumerate(G):
        lm = table[i][0]
        if _divisible(lm, table[:i] + table[i + 1 :]) or any(
            m != lm and _divisible(m, table) for m in g
        ):
            return False
    for _ in _nonzero_remainders(G, table, order, field, max_spairs, names, record):
        return False
    return True


# ---------------------------------------------------------------------------
# text form


def mono_text(m, order: TermOrder) -> str:
    """The monomial m over order's variables, its factors in cell order."""
    if not m:
        return "1"
    cell = order.cell
    parts = []
    for (i, j), e in sorted((cell(v), mono.exponent(m, v)) for v in mono.variables(m)):
        var = "x[%d,%d]" % (i, j)
        parts.append(var if e == 1 else "%s^%d" % (var, e))
    return "*".join(parts)


def poly_text(p, order: TermOrder, field) -> str:
    """Canonical text: terms in decreasing order, explicit coefficients."""
    if not p:
        return "0"
    chunks = []
    for m in sorted(p, reverse=True):
        c = p[m]
        txt = field.text(c)
        neg = txt.startswith("-")
        mag = txt[1:] if neg else txt
        if m and mag == "1":
            body = mono_text(m, order)
        elif m:
            body = "%s*%s" % (mag, mono_text(m, order))
        else:
            body = mag
        if not chunks:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)
