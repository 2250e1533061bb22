"""The tuple monomial kernel, a reference for the packed one in mono.

Here a monomial is a flat tuple (v1, e1, v2, e2, ...) of variable ids
and positive exponents with the ids strictly decreasing; () is 1.  Over
a term order's variables, Python's comparison of these tuples is the
lex order: at the first position where two monomials differ, the one
with the larger variable id or the larger exponent is the larger, and a
proper prefix, which lacks some smaller variables, is the smaller.  The
tests write monomials in this form and encode them, and compare the
kernel on encoded monomials against the functions below.
"""

from laddergb import mono


def encode(t):
    """The monomial of the flat tuple t, built from mono.var alone."""
    return sum(mono.var(t[k], t[k + 1]) for k in range(0, len(t), 2))


def decode(m):
    """The flat tuple of the monomial m."""
    return tuple(x for v in mono.variables(m) for x in (v, mono.exponent(m, v)))


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
    """Bitmask of the variables of a monomial: bit v is set when v occurs."""
    s = 0
    for v in a[::2]:
        s |= 1 << v
    return s
