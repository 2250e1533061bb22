"""The S-pair loop of poly._nonzero_remainders as it was before its pair
bookkeeping indexed leading monomials by variable, a reference for it.

This loop forms every pair (k, new), tests the product criterion on each
one and keeps in settled[i] every k whose pair with i is settled, coprime
ones included, so the chain criterion scans settled[i] & settled[j] in
full.  A constant leading monomial ends nothing here: it settles every
pair by the product criterion, and then skips every pair by the chain
criterion.  The tests drive both loops on the same inputs and compare
the pairs they reduce, in order, and the records they leave.  The loop
calls poly.reducers, poly.s_polynomial and poly.normal_form through the
module, so a test that wraps one of them sees the calls of both loops.
"""

import heapq

from laddergb import mono, poly
from laddergb.errors import BudgetExceeded, PreconditionError


def nonzero_remainders(G, table, order, field, max_spairs=None, names=None, record=None):
    """poly._nonzero_remainders' contract, by the loop described above."""
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
        table.extend(poly.reducers(G[len(table) :], order))
        for new in range(len(settled), len(G)):
            lm, _, mask = table[new]
            done = set()
            for k in range(new):
                lk, _, mk = table[k]
                if mk & mask:
                    known = new < named and record.get(tuple(sorted((names[k], names[new]))))
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
        s = poly.s_polynomial(G[i], G[j], order, field, table[i], table[j])
        pair = tuple(sorted((names[i], names[j]))) if j < named else None
        used = set() if pair is not None else None
        r = poly.normal_form(s, G, order, field, table, used=used)
        if r:
            yield r
        elif pair is not None and all(u < named for u in used):
            record[pair] = frozenset(pair).union(names[u] for u in used)
