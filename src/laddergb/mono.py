"""Monomial kernel.

A monomial is a flat tuple (v1, e1, v2, e2, ...) of variable ids and
positive exponents with the ids strictly decreasing; the empty tuple is
the monomial 1.  Each ring numbers its variables by rank under its lex
order (poly.TermOrder): the largest variable has the largest id.  So
Python's own tuple comparison is that lex order: at the first position
where two monomials differ, the one with the larger variable id or the
larger exponent is the larger, and a proper prefix, which lacks some
smaller variables, is the smaller.  Sorting, max and heap entries take
monomials as they are; no order key is computed or kept.  These
functions are the hot path of Buchberger reduction and of the Hilbert
recursion.

Call sites use `from laddergb import mono` and attribute access
(mono.mul, ...), so that a wrapper installed on the module (the traced
benchmark counts kernel calls this way) reaches every caller.
"""

# Name of the kernel implementation; benchmark results record it.
BACKEND = "python"


def mul(a, b):
    """Product of two monomials."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, vb = a[i], b[j]
        if va == vb:
            out.append(va)
            out.append(a[i + 1] + b[j + 1])
            i += 2
            j += 2
        elif va > vb:
            out.append(va)
            out.append(a[i + 1])
            i += 2
        else:
            out.append(vb)
            out.append(b[j + 1])
            j += 2
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def divides(a, b):
    """True if monomial a divides monomial b."""
    i = j = 0
    la, lb = len(a), len(b)
    while i < la:
        va = a[i]
        while j < lb and b[j] > va:
            j += 2
        if j >= lb or b[j] != va or b[j + 1] < a[i + 1]:
            return False
        i += 2
        j += 2
    return True


def div(a, b):
    """Quotient a / b; assumes b divides a."""
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la:
        va = a[i]
        if j < lb and b[j] == va:
            e = a[i + 1] - b[j + 1]
            if e:
                out.append(va)
                out.append(e)
            j += 2
        else:
            out.append(va)
            out.append(a[i + 1])
        i += 2
    return tuple(out)


def lcm(a, b):
    """Least common multiple of two monomials."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, vb = a[i], b[j]
        if va == vb:
            ea, eb = a[i + 1], b[j + 1]
            out.append(va)
            out.append(ea if ea >= eb else eb)
            i += 2
            j += 2
        elif va > vb:
            out.append(va)
            out.append(a[i + 1])
            i += 2
        else:
            out.append(vb)
            out.append(b[j + 1])
            j += 2
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def deg(a):
    """Total degree."""
    return sum(a[1::2])


def support(a):
    """Bitmask of the variables of a monomial: bit v is set when v occurs.

    When a divides b, every variable of a occurs in b, so a nonzero
    support(a) & ~support(b) proves that a does not divide b without
    reading the exponents (the short exponent-vector test of Bachmann and
    Schoenemann, ISSAC 1998, with one bit per variable).  With one bit per
    variable the test is exact for coprimality: a and b share no variable
    iff support(a) & support(b) == 0.  Variable ids lie below the ring's
    number of variables, so a mask has at most that many bits.
    """
    s = 0
    for v in a[::2]:
        s |= 1 << v
    return s
