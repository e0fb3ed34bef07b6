"""The `Fraction` product loop that `Poly.__mul__` replaced, kept as an
independent reference for the tests: every pair of terms is multiplied and
summed in `Fraction` arithmetic, with no integer scaling and no shared code
with `poly._int_mul`."""

from fractions import Fraction

from polinv.poly import Poly


def fraction_product(p: Poly, q: Poly) -> Poly:
    if p.layout != q.layout:
        raise ValueError("layout mismatch")
    terms = {}
    for e1, c1 in p._terms.items():
        for e2, c2 in q._terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = terms.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
    return Poly._trusted(p.layout, terms)


def fraction_substitution(p: Poly, images: dict, target) -> Poly:
    """sum c * prod_j q_j^{e_j} over the terms of p, each power a chain of
    `fraction_product`s and each sum taken in `Fraction`s; a variable with no
    image maps to the target variable of the same index."""
    terms = {}
    for exps, c in p._terms.items():
        term = Poly.constant(target, c)
        for j, k in enumerate(exps):
            q = images[j] if j in images else Poly.variable(target, j)
            for _ in range(k):
                term = fraction_product(term, q)
        for e, v in term._terms.items():
            s = terms.get(e, Fraction(0)) + v
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
    return Poly._trusted(target, terms)
