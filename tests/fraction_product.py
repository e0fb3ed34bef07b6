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
