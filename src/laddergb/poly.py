"""Sparse multivariate polynomials over an exact field, with lexicographic
term orders and a Buchberger engine.

Variables are matrix cells (i, j) packed into small ints; a monomial is a
flat tuple handled by the mono kernel; a polynomial is a dict mapping
monomial -> nonzero coefficient.  Term orders are pure lexicographic
orders given by a "biggest first" sequence of variables; the diagonal
order reads the matrix row by row left to right, the anti-diagonal order
reads each row right to left.  Either realizes the property that leading
terms of minors are their (anti-)diagonal products; that property is
asserted by tests, not assumed here.

Division runs against a reducer table (see reducers): the leading
monomial, leading coefficient and variable-support bitmask of every basis
element, built once by whoever owns the basis and extended as the basis
grows.  The mask rules a reducer out before its exponents are compared
(a divisor's support lies in the support of the monomial it divides), and
each reduction step subtracts its multiple of the reducer from the work
polynomial in place.  Neither changes the result: reduction always picks
the reducer with the smallest index whose leading monomial divides.

Buchberger's algorithm and the reduced-basis predicate share one S-pair
loop.  It takes pairs in the normal selection order (increasing lcm
degree) and settles a pair without reducing it in three ways: the
product criterion, Buchberger's chain criterion, and a recorded standard
representation.  The last applies when the caller names the generators
and hands in a record of earlier calls: a pair whose S-polynomial
reduced to zero over a set U of named generators is settled in any call
holding U.  A budget counts the reductions the loop performs.  All
results are deterministic.
"""

import heapq
from typing import Iterable

from . import mono
from .errors import BudgetExceeded, PreconditionError

# ---------------------------------------------------------------------------
# variables


def cell_id(i: int, j: int) -> int:
    """Pack cell (i, j) into one int; indices must fit in six bits."""
    if not (0 <= i < 64 and 0 <= j < 64):
        raise ValueError("cell index out of range: (%d, %d)" % (i, j))
    return (i << 6) | j


def id_cell(v: int):
    return (v >> 6, v & 63)


def var_text(v: int) -> str:
    i, j = id_cell(v)
    return "x[%d,%d]" % (i, j)


# ---------------------------------------------------------------------------
# term orders


class TermOrder:
    """Pure lex order determined by a biggest-first variable sequence.

    kind is "diagonal", "antidiagonal" or "custom"; the sequence itself is
    exposed so callers can substitute any realizing permutation.
    """

    def __init__(self, kind: str, sequence):
        self.kind = kind
        self.sequence = tuple(sequence)
        if len(set(self.sequence)) != len(self.sequence):
            raise ValueError("term order sequence has repeated variables")
        n = len(self.sequence)
        self._rank = {v: n - k for k, v in enumerate(self.sequence)}
        self._keys = {}

    def rank(self, v: int) -> int:
        """Rank of a variable; larger rank means larger variable."""
        return self._rank[v]

    def key(self, m):
        """Sort key; comparing keys compares monomials in this order."""
        k = self._keys.get(m)
        if k is None:
            rank = self._rank
            k = tuple(
                sorted(((rank[m[i]], m[i + 1]) for i in range(0, len(m), 2)), reverse=True)
            )
            self._keys[m] = k
        return k

    def compare(self, a, b) -> int:
        """-1, 0 or 1 as a <, =, > b."""
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0

    def __repr__(self):
        return "TermOrder(%s, %d vars)" % (self.kind, len(self.sequence))


def diagonal_order(cells) -> TermOrder:
    """Row-major lex order: top row largest, left to right within a row."""
    seq = [cell_id(i, j) for (i, j) in sorted(cells)]
    return TermOrder("diagonal", seq)


def antidiagonal_order(cells) -> TermOrder:
    """Row-major lex order with columns reversed within each row."""
    seq = [cell_id(i, j) for (i, j) in sorted(cells, key=lambda c: (c[0], -c[1]))]
    return TermOrder("antidiagonal", seq)


# ---------------------------------------------------------------------------
# polynomial arithmetic (dict monomial -> coefficient)


def p_zero():
    return {}

def p_const(field, c):
    return {} if field.is_zero(c) else {(): c}


def p_var(v, field):
    return {(v, 1): field.one}


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
    """(monomial, coefficient) of the largest term; error on zero."""
    if not p:
        raise PreconditionError("leading term of the zero polynomial")
    m = max(p, key=order.key)
    return m, p[m]


def p_monic(p, order, field):
    if not p:
        return p
    _, c = leading_term(p, order)
    if field.eq(c, field.one):
        return p
    ci = field.inv(c)
    return {m: field.mul(a, ci) for m, a in p.items()}


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
    key = order.key
    divides, dv, mul, support = mono.divides, mono.div, mono.mul, mono.support
    fadd, fmul, is_zero = field.add, field.mul, field.is_zero
    while work:
        m = max(work, key=key)
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


def s_polynomial(f, g, order, field):
    """S-polynomial of f and g, both nonzero."""
    mf, cf = leading_term(f, order)
    mg, cg = leading_term(g, order)
    l = mono.lcm(mf, mg)
    a = p_term_mul(f, mono.div(l, mf), field.inv(cf), field)
    b = p_term_mul(g, mono.div(l, mg), field.inv(cg), field)
    return p_sub(a, b, field)


# ---------------------------------------------------------------------------
# Buchberger


def _interreduce(G, table, order, field):
    """Minimal, tail-reduced basis from the monic list G and its reducer
    table; keeps determinism by processing in decreasing leading-monomial
    order."""
    ranked = sorted(zip(G, table), key=lambda e: order.key(e[1][0]), reverse=True)
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
        if len(gens) > 1:
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
    (lm_i and lm_j coprime), and Buchberger's chain criterion (some lm_k
    divides lcm(lm_i, lm_j) while the pairs (i, k) and (j, k) are both
    settled; Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, section
    2.10).  Either way the S-polynomial has a standard representation, so
    G is a Groebner basis exactly when the generator ends without
    yielding.  Raises BudgetExceeded when a reduction would exceed
    max_spairs performed reductions.

    names, when given, names the elements G holds on entry (names[k] is
    G[k]'s; equal names must mean equal polynomials), and record maps an
    unordered pair of names to a set U of names over which the pair's
    S-polynomial reduced to zero in an earlier call.  Such a division is
    a standard representation over U, and it stays one over any list
    holding U, so a named pair whose recorded U lies inside names is
    settled without reducing it (section 2.9).  A reduction to zero that
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
            lm = table[new][0]
            done = set()
            for k in range(new):
                lk = table[k][0]
                if mono.coprime(lk, lm):
                    done.add(k)
                    settled[k].add(new)
                else:
                    l = mono.lcm(lk, lm)
                    heapq.heappush(heap, (mono.deg(l), order.key(l), k, new, l))
            settled.append(done)
        if not heap:
            return
        _, _, i, j, l = heapq.heappop(heap)
        pair = frozenset((names[i], names[j])) if j < named else None
        known = record.get(pair) if pair is not None else None
        # the support of lcm(lm_i, lm_j) is the union of the two masks
        outside = ~(table[i][2] | table[j][2])
        skip = (known is not None and known <= held) or any(
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
        s = s_polynomial(G[i], G[j], order, field)
        used = set() if pair is not None else None
        r = normal_form(s, G, order, field, table, used=used)
        if r:
            yield r
        elif pair is not None and all(u < named for u in used):
            record[pair] = pair.union(names[u] for u in used)


def buchberger_reduced(
    F: Iterable[dict], order: TermOrder, field, max_spairs=None, names=None, record=None
):
    """Reduced Groebner basis of ideal(F).

    Every nonzero S-pair remainder joins the basis; pairs that the
    product or the chain criterion settles, or that record settles over
    names (see _nonzero_remainders), are never reduced.  names[k] names
    F[k]; a zero input is dropped with its name.  One reducer table
    follows the basis as it grows and serves the final interreduction.
    Raises BudgetExceeded when max_spairs S-pair reductions have been
    performed and another is due.
    """
    F = list(F)
    if names is not None:
        if len(names) != len(F):
            raise PreconditionError("%d names for %d generators" % (len(names), len(F)))
        names = [n for f, n in zip(F, names) if f]
    G = [p_monic(dict(f), order, field) for f in F if f]
    table = []
    for r in _nonzero_remainders(G, table, order, field, max_spairs, names, record):
        G.append(p_monic(r, order, field))
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
        for m in g:
            outside = ~mono.support(m)
            if any(
                (j != i or m != lm) and not sj & outside and mono.divides(mj, m)
                for j, (mj, _, sj) in enumerate(table)
            ):
                return False
    for _ in _nonzero_remainders(G, table, order, field, max_spairs, names, record):
        return False
    return True


def ideal_member(p, G, order, field) -> bool:
    """Membership of p in ideal(G) given a Groebner basis G."""
    if not p:
        return True
    if not G:
        return False
    return not normal_form(p, G, order, field)


# ---------------------------------------------------------------------------
# text form


def mono_text(m) -> str:
    if not m:
        return "1"
    parts = []
    for i in range(0, len(m), 2):
        v, e = m[i], m[i + 1]
        parts.append(var_text(v) if e == 1 else "%s^%d" % (var_text(v), e))
    return "*".join(parts)


def poly_text(p, order: TermOrder, field) -> str:
    """Canonical text: terms in decreasing order, explicit coefficients."""
    if not p:
        return "0"
    terms = sorted(p, key=order.key, reverse=True)
    chunks = []
    for m in terms:
        c = p[m]
        txt = field.text(c)
        neg = txt.startswith("-")
        mag = txt[1:] if neg else txt
        if m and mag == "1":
            body = mono_text(m)
        elif m:
            body = "%s*%s" % (mag, mono_text(m))
        else:
            body = mag
        if not chunks:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)
