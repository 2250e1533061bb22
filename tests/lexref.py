"""A reference lex comparison for the tests.

A monomial over a term order's variables is read as its dense exponent
vector over the order's sequence, biggest variable first.  Comparing two
such vectors as tuples is the lex order by definition, and it does not
read how the order numbers its variables.
"""

from laddergb import mono


def lex_key(m, order):
    """Dense exponent vector of the monomial m over order.sequence."""
    exps = dict.fromkeys(order.sequence, 0)
    for v in mono.variables(m):
        exps[order.cell(v)] = mono.exponent(m, v)
    return tuple(exps.values())
