"""The exponent remap that `polinv.groups.act` once used for (perm, signs)
pairs, kept as an independent reference for the tests.  A signed
permutation sends each monomial to a signed monomial, so its image is read
off the exponent tuples without forming a product."""

from polinv.poly import Poly, VariableLayout


def layout_map(sp, layout: VariableLayout):
    """(src, odd) for a signed permutation acting on every block of the layout.

    The image of x^e is (-1)^(sum of e[i], i in odd) * x^e' with
    e'[t] = e[src[t]].
    """
    perm, signs = sp
    m = layout.vars_per_block
    src = [0] * layout.total
    odd = []
    for base in range(0, layout.total, m):
        for j in range(m):
            src[base + perm[j]] = base + j
            if signs[j] < 0:
                odd.append(base + j)
    return src, odd


def signed_remap(sp, p: Poly) -> Poly:
    """g.p for the (perm, signs) pair g, term by term through `layout_map`."""
    src, odd = layout_map(sp, p.layout)
    terms = {}
    for e, c in p.terms():
        terms[tuple(map(e.__getitem__, src))] = -c if sum(map(e.__getitem__, odd)) & 1 else c
    return Poly(p.layout, terms)
