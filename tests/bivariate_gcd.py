"""The route `polinv.nullcone.binary_nullcone_witness` replaced, kept as an
independent reference for the tests: the form as a bivariate `Poly`, its
mixed partials of order floor(d/2) by `Poly.derivative`, and their monic
homogeneous gcd by the Euclidean algorithm on Fraction coefficient lists."""

from fractions import Fraction as Q

from polinv.nullcone import BinaryForm
from polinv.poly import Poly, VariableLayout

L2 = VariableLayout(1, 2)


def binary_poly(f: BinaryForm) -> Poly:
    """f as a Poly in x, y: coeffs[i] multiplies x^(d-i) y^i."""
    d = f.degree
    return Poly(L2, {(d - i, i): c for i, c in enumerate(f.coeffs) if c != 0})


def multiplicity_partials(f: BinaryForm) -> list:
    """All mixed partials of order floor(d/2); their common roots are exactly
    the roots of multiplicity exceeding d/2."""
    base = [binary_poly(f)]
    for _ in range(f.degree // 2):
        base = [q.derivative(0) for q in base] + [base[-1].derivative(1)]
    return base


def _uni_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _uni_mod(a: list, b: list) -> list:
    # remainder of a by b, coefficient lists ascending in degree, b nonzero
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        q = a[-1] / lead
        shift = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[shift + i] -= q * bc
        _uni_trim(a)
    return a


def _uni_gcd(a: list, b: list) -> list:
    a, b = _uni_trim(list(a)), _uni_trim(list(b))
    while b:
        a, b = b, _uni_mod(a, b)
    lead = a[-1]
    return [x / lead for x in a]


def homogeneous_bivariate_gcd(polys) -> Poly:
    """Monic gcd of homogeneous polynomials in two variables.  Zero inputs
    are ignored and all-zero input is an error."""
    ps = [p for p in polys if not p.is_zero()]
    if not ps:
        raise ValueError("gcd of all-zero inputs")
    layout = ps[0].layout
    if layout.total != 2 or any(p.layout != layout for p in ps):
        raise ValueError("homogeneous gcd needs one layout of two variables")
    if any(len({sum(e) for e, _ in p.terms()}) > 1 for p in ps):
        raise ValueError("inputs must be homogeneous")
    g = None
    k_common = None
    for p in ps:
        terms = p.terms()
        k = min(e[1] for e, _ in terms)  # largest common power of the second variable
        u = [Q(0)] * (p.total_degree() - k + 1)
        for (i, _), c in terms:
            u[i] = c
        g = u if g is None else _uni_gcd(g, u)
        k_common = k if k_common is None else min(k_common, k)
    g = _uni_trim(list(g))
    deg = len(g) - 1
    return Poly(layout, {(i, deg - i + k_common): c for i, c in enumerate(g) if c != 0})


def reference_binary_witness(f: BinaryForm):
    """(a, b) with (a x + b y)^(floor(d/2)+1) dividing f, read from the gcd
    of the partials, or None; f is nonzero."""
    if f.degree < 1:
        return None
    g = homogeneous_bivariate_gcd(multiplicity_partials(f))
    e = g.total_degree()
    if e < 1:
        return None
    top = g.coefficient((e, 0))
    if top == 0:
        return (0, 1)
    t = g.coefficient((e - 1, 1)) / (e * top)
    return (t.denominator, t.numerator)
