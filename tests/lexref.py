"""A reference lex comparison for the tests.

A monomial over a term order's variables is read as its dense exponent
vector over the order's sequence, biggest variable first.  Comparing two
such vectors as tuples is the lex order by definition, and it does not
read how the order numbers its variables.
"""


def lex_key(m, order):
    """Dense exponent vector of the monomial m over order.sequence."""
    exps = dict.fromkeys(order.sequence, 0)
    for k in range(0, len(m), 2):
        exps[order.cell(m[k])] = m[k + 1]
    return tuple(exps.values())
