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

The Buchberger loop uses the product criterion and the normal selection
strategy (S-pairs by increasing lcm degree); reduction always picks the
reducer with the smallest index whose leading monomial divides.  All
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


def var_mono(v: int):
    """The monomial consisting of a single variable."""
    return (v, 1)


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


def division(p, G, order, field):
    """Divide p by the list G; returns (remainder, quotients).

    Deterministic: at each step the largest not-yet-final monomial of the
    work polynomial is reduced by the first listed reducer whose leading
    monomial divides it.  The invariant p = sum(q_i g_i) + r holds
    exactly and is exercised by tests.
    """
    lts = [leading_term(g, order) for g in G]
    quotients = [{} for _ in G]
    remainder = {}
    work = dict(p)
    divides = mono.divides
    dv = mono.div
    while work:
        m = max(work, key=order.key)
        c = work[m]
        for idx, (lm, lc) in enumerate(lts):
            if divides(lm, m):
                qm = dv(m, lm)
                qc = field.div(c, lc)
                q = quotients[idx]
                acc = q.get(qm)
                if acc is None:
                    q[qm] = qc
                else:
                    s = field.add(acc, qc)
                    if field.is_zero(s):
                        del q[qm]
                    else:
                        q[qm] = s
                work = p_sub(work, p_term_mul(G[idx], qm, qc, field), field)
                break
        else:
            remainder[m] = c
            del work[m]
    return remainder, quotients


def normal_form(p, G, order, field):
    """Remainder of p on division by G."""
    r, _ = division(p, G, order, field)
    return r


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


def _interreduce(G, order, field):
    """Minimal, tail-reduced, monic basis from G; keeps determinism by
    processing in decreasing leading-monomial order."""
    G = [g for g in G if g]
    G.sort(key=lambda g: order.key(leading_term(g, order)[0]), reverse=True)
    # drop generators whose leading monomial is divisible by another's
    lms = [leading_term(g, order)[0] for g in G]
    keep = []
    for i, g in enumerate(G):
        mi = lms[i]
        redundant = False
        for j in range(len(G)):
            if j == i:
                continue
            mj = lms[j]
            if mono.divides(mj, mi) and (mj != mi or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(g)
    # tail-reduce each against the others
    out = []
    for i, g in enumerate(keep):
        rest = keep[:i] + keep[i + 1 :]
        if rest:
            g = normal_form(g, rest, order, field)
        out.append(p_monic(g, order, field))
    out.sort(key=lambda g: order.key(leading_term(g, order)[0]), reverse=True)
    return out


def buchberger_reduced(F: Iterable[dict], order: TermOrder, field, max_spairs=None):
    """Reduced Groebner basis of ideal(F).

    Product criterion S-pairs are skipped; the queue is ordered by lcm
    degree, then by the lcm monomial and pair indices for determinism.
    Raises BudgetExceeded when max_spairs S-pair reductions are spent.
    """
    G = [p_monic(dict(f), order, field) for f in F if f]
    if not G:
        return []
    lms = [leading_term(g, order)[0] for g in G]
    heap = []
    counter = 0

    def push(i, j):
        nonlocal counter
        li, lj = lms[i], lms[j]
        if mono.coprime(li, lj):
            return
        l = mono.lcm(li, lj)
        counter += 1
        heapq.heappush(heap, (mono.deg(l), order.key(l), i, j, counter))

    for i in range(len(G)):
        for j in range(i):
            push(j, i)

    spent = 0
    while heap:
        _, _, i, j, _ = heapq.heappop(heap)
        if max_spairs is not None and spent >= max_spairs:
            raise BudgetExceeded("buchberger S-pairs", max_spairs)
        spent += 1
        s = s_polynomial(G[i], G[j], order, field)
        r = normal_form(s, G, order, field)
        if r:
            G.append(p_monic(r, order, field))
            lms.append(leading_term(G[-1], order)[0])
            new = len(G) - 1
            for k in range(new):
                push(k, new)
    return _interreduce(G, order, field)


def is_reduced_groebner(G, order: TermOrder, field, max_spairs=None) -> bool:
    """True iff G is exactly the reduced Groebner basis of ideal(G):
    monic, interreduced (no leading monomial divides another, no tail
    monomial divisible by any leading monomial), and every S-polynomial
    reduces to zero."""
    G = [dict(g) for g in G]
    if any(not g for g in G):
        return False
    lts = [leading_term(g, order) for g in G]
    for _, c in lts:
        if not field.eq(c, field.one):
            return False
    for i, (mi, _) in enumerate(lts):
        for j, (mj, _) in enumerate(lts):
            if i != j and mono.divides(mj, mi):
                return False
    for i, g in enumerate(G):
        lm = lts[i][0]
        for m in g:
            if m == lm:
                continue
            if any(mono.divides(lts[j][0], m) for j in range(len(G))):
                return False
    spent = 0
    for i in range(len(G)):
        for j in range(i):
            if mono.coprime(lts[i][0], lts[j][0]):
                continue
            if max_spairs is not None and spent >= max_spairs:
                raise BudgetExceeded("buchberger S-pairs", max_spairs)
            spent += 1
            s = s_polynomial(G[i], G[j], order, field)
            if normal_form(s, G, order, field):
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
