"""Classical n-polarization of invariants and the polarization algebra.

The polarizations of f on V are the multihomogeneous components of
f(x_1 v_1 + ... + x_n v_n) viewed as functions on n copies of V.  They are
computed here by substituting x_j -> sum_a x_{a,j} into f and splitting the
result by block multidegree; the component of multidegree I is exactly the
coefficient of the scalar monomial alpha^I in the formal expansion, with no
extra normalization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .limits import CapExceededError, DEFAULT_CAPS, DEFAULT_SEED
from .linalg import Matrix, rref, solve_in_span
from .groups import (DiagonalAction, MatrixGroup, builtin_family,
                     invariant_dimension, is_invariant, point_image, same_orbit)
from .poly import Poly, VariableLayout, glex_key, is_scalar_multiple, multidegrees

Q = Fraction


def copies_layout(m: int, n: int) -> VariableLayout:
    """Layout of V^n for an m-dimensional V: n blocks of m variables."""
    return VariableLayout(n, m)


def embed_in_copies(f: Poly, n: int) -> Poly:
    """View a polynomial on V as a polynomial on V^n via the first block."""
    if f.layout.blocks != 1:
        raise ValueError("expected a single-block polynomial")
    target = copies_layout(f.layout.vars_per_block, n)
    return f.substitute({0: Poly.variable(target, 0)})


def polarize(f: Poly, n: int) -> Dict[tuple, Poly]:
    """All nonzero polarization components of f on n copies of V.

    Keys are multidegrees I; the defining identity
    f(sum_a alpha_a v_a) = sum_I alpha^I f_I(v_1, ..., v_n) holds exactly.
    """
    if f.layout.blocks != 1:
        raise ValueError("polarize expects a polynomial on a single copy of V")
    if n < 1:
        raise ValueError("need at least one copy")
    m = f.layout.vars_per_block
    target = copies_layout(m, n)
    images = {}
    for j in range(m):
        span = Poly.zero(target)
        for a in range(n):
            span = span + Poly.variable(target, a * m + j)
        images[j] = span
    return f.substitute(images).multidegree_components()


@dataclass(frozen=True)
class GeneratorSet:
    """Multihomogeneous generators with their multidegrees, on one layout."""

    layout: VariableLayout
    generators: Tuple[Tuple[Poly, tuple], ...]

    def __post_init__(self):
        for p, deg in self.generators:
            if p.layout != self.layout:
                raise ValueError("generator layout mismatch")
            if p.is_zero():
                raise ValueError("zero generator")
            if p.multidegree() != tuple(deg):
                raise ValueError("generator is not multihomogeneous of its recorded multidegree")


@dataclass(frozen=True)
class GradedSpan:
    """A row-reduced basis of one graded piece of the polarization algebra."""

    multidegree: tuple
    basis: Tuple[Poly, ...]
    dimension: int


def polarization_generators(invariant_gens: Sequence[Poly], n: int,
                            group: Optional[MatrixGroup] = None) -> GeneratorSet:
    """Polarize every generator and collect the components, de-duplicated
    up to exact scalar multiples.  Constant components are dropped; when a
    group is supplied, every input is checked to be invariant first.
    """
    if not invariant_gens:
        raise ValueError("no generators given")
    m = invariant_gens[0].layout.vars_per_block
    layout = copies_layout(m, n)
    if group is not None:
        base_action = DiagonalAction(group, VariableLayout(1, m))
        for f in invariant_gens:
            if not is_invariant(f, base_action):
                raise ValueError("generator is not invariant under the supplied group")
    kept: List[Tuple[Poly, tuple]] = []
    for f in invariant_gens:
        if f.layout != invariant_gens[0].layout:
            raise ValueError("generators live on different layouts")
        for deg, comp in sorted(polarize(f, n).items(), key=lambda kv: glex_key(kv[0])):
            if all(d == 0 for d in deg):
                continue
            if any(deg == kdeg and is_scalar_multiple(comp, kp) for kp, kdeg in kept):
                continue
            kept.append((comp, deg))
    return GeneratorSet(layout, tuple(kept))


def wallach_operator(r: int, f: Poly) -> Poly:
    """P_r(f) = sum_i y_i^r * df/dx_i on two blocks of m variables; r must be odd."""
    if r % 2 == 0:
        raise ValueError("the operator index r must be odd")
    if f.layout.blocks != 2:
        raise ValueError("expected a polynomial on two copies of V")
    m = f.layout.vars_per_block
    out = Poly.zero(f.layout)
    for i in range(m):
        out = out + Poly.variable(f.layout, m + i) ** r * f.derivative(i)
    return out


def _exponent_tuples(degrees: Sequence[tuple], target: tuple, cap: int):
    """All exponent tuples e with sum_i e_i * degrees[i] = target, in lex order.

    Generators of zero multidegree are held at exponent zero (a constant
    factor never enlarges the span).  Raises when more than `cap` tuples
    would be produced.
    """
    blocks = len(target)
    out: List[tuple] = []

    def rec(i: int, remaining: tuple, prefix: tuple):
        if i == len(degrees):
            if all(r == 0 for r in remaining):
                if len(out) >= cap:
                    raise CapExceededError("span too large", "span_products", cap)
                out.append(prefix)
            return
        deg = degrees[i]
        if all(d == 0 for d in deg):
            rec(i + 1, remaining, prefix + (0,))
            return
        emax = min(remaining[b] // deg[b] for b in range(blocks) if deg[b] > 0)
        for e in range(emax + 1):
            rest = tuple(r - e * d for r, d in zip(remaining, deg))
            if any(x < 0 for x in rest):
                break
            rec(i + 1, rest, prefix + (e,))

    rec(0, tuple(target), ())
    return out


def _products_for_target(gens: GeneratorSet, target: tuple, cap: int):
    """Expanded generator products of the target multidegree, with exponents."""
    degrees = [deg for _, deg in gens.generators]
    tuples = _exponent_tuples(degrees, tuple(target), cap)
    pow_cache: Dict[tuple, Poly] = {}

    def gen_power(i: int, e: int) -> Poly:
        key = (i, e)
        got = pow_cache.get(key)
        if got is None:
            got = gens.generators[i][0] ** e
            pow_cache[key] = got
        return got

    products = []
    for exps in tuples:
        prod = Poly.constant(gens.layout, 1)
        for i, e in enumerate(exps):
            if e:
                prod = prod * gen_power(i, e)
        products.append((exps, prod))
    return products


def _vectorize(polys: Sequence[Poly], monomial_cap: int):
    """Coefficient vectors over the union of supports, graded-lex descending.

    Raises when that union, the column count, exceeds `monomial_cap`.
    """
    support = set()
    for p in polys:
        support.update(p._terms)
    if len(support) > monomial_cap:
        raise CapExceededError("too many monomials", "monomials", monomial_cap)
    columns = sorted(support, key=glex_key, reverse=True)
    index = {e: i for i, e in enumerate(columns)}
    vectors = []
    for p in polys:
        vec = [Q(0)] * len(columns)
        for e, c in p._terms.items():
            vec[index[e]] = c
        vectors.append(vec)
    return columns, vectors


def graded_span_basis(gens: GeneratorSet, target: Sequence[int],
                      cap: int = DEFAULT_CAPS.span_products,
                      monomial_cap: int = DEFAULT_CAPS.monomials) -> GradedSpan:
    """Deterministic basis of the graded piece spanned by generator products."""
    target = tuple(target)
    products = _products_for_target(gens, target, cap)
    nonzero = [p for _, p in products if not p.is_zero()]
    if not nonzero:
        return GradedSpan(target, (), 0)
    columns, vectors = _vectorize(nonzero, monomial_cap)
    reduced, rk, _ = rref(Matrix.from_rows(vectors))
    basis = []
    for r in range(rk):
        row = reduced.row(r)
        basis.append(Poly(gens.layout, {columns[i]: c for i, c in enumerate(row) if c != 0}))
    return GradedSpan(target, tuple(basis), rk)


def membership(f: Poly, gens: GeneratorSet, cap: int = DEFAULT_CAPS.span_products,
               monomial_cap: int = DEFAULT_CAPS.monomials
               ) -> Optional[List[Tuple[tuple, Fraction]]]:
    """Exact membership of f in the graded piece of the polarization algebra.

    Returns a certificate [(exponent tuple, coefficient), ...] whose product
    combination reconstructs f exactly, or None when f is not in the span at
    its multidegree.
    """
    if f.layout != gens.layout:
        raise ValueError("layout mismatch")
    if f.is_zero():
        return []
    deg = f.multidegree()
    if deg is None:
        raise ValueError("membership needs a multihomogeneous polynomial")
    products = _products_for_target(gens, deg, cap)
    nonzero = [(e, p) for e, p in products if not p.is_zero()]
    columns, vectors = _vectorize([p for _, p in nonzero] + [f], monomial_cap)
    target_vec = vectors[-1]
    coeffs = solve_in_span(vectors[:-1], target_vec)
    if coeffs is None:
        return None
    return [(nonzero[i][0], c) for i, c in enumerate(coeffs) if c != 0]


def certificate_combination(gens: GeneratorSet, certificate) -> Poly:
    """Expand a membership certificate back into a polynomial."""
    total = Poly.zero(gens.layout)
    for exps, c in certificate:
        prod = Poly.constant(gens.layout, c)
        for i, e in enumerate(exps):
            if e:
                prod = prod * gens.generators[i][0] ** e
        total = total + prod
    return total


# ---------------------------------------------------------------------------
# Wired-in classical generator lists for the builtin reflection groups
# ---------------------------------------------------------------------------

def classical_generators(family: str, m: int) -> List[Poly]:
    """Generators of the invariant ring for the builtin families.

    S: power sums p_1..p_m.  B: sum x_i^{2s}, s = 1..m.
    D: sigma_s = sum x_i^{2s} for s < m together with sigma_m = x_1...x_m.
    """
    layout = VariableLayout(1, m)

    def power_sum(k: int) -> Poly:
        out = Poly.zero(layout)
        for i in range(m):
            out = out + Poly.variable(layout, i) ** k
        return out

    if family == "S":
        return [power_sum(s) for s in range(1, m + 1)]
    if family == "B":
        return [power_sum(2 * s) for s in range(1, m + 1)]
    if family == "D":
        if m < 2:
            raise ValueError("family D needs m >= 2")
        gens = [power_sum(2 * s) for s in range(1, m)]
        prod = Poly.constant(layout, 1)
        for i in range(m):
            prod = prod * Poly.variable(layout, i)
        return gens + [prod]
    raise ValueError(f"unsupported family {family!r}")


def compare_graded_dims(group: MatrixGroup, invariant_gens: Sequence[Poly], n: int,
                        max_total_degree: int,
                        span_cap: int = DEFAULT_CAPS.span_products,
                        monomial_cap: int = DEFAULT_CAPS.monomials):
    """Table of (multidegree, dim of invariants, dim of polarization span).

    Covers every multidegree of total degree <= max_total_degree in graded-lex
    order.  The caller asserts that `invariant_gens` generate the invariant
    ring up to that degree.
    """
    m = group.dimension
    layout = copies_layout(m, n)
    action = DiagonalAction(group, layout)
    gens = polarization_generators(invariant_gens, n, group=group)
    rows = []
    for deg in multidegrees(max_total_degree, n):
        dim_inv = invariant_dimension(action, deg, monomial_cap)
        dim_pol = graded_span_basis(gens, deg, span_cap, monomial_cap).dimension
        rows.append((deg, dim_inv, dim_pol))
    return rows


# ---------------------------------------------------------------------------
# Packaged certificate: the D_4 polarization gap on two copies
# ---------------------------------------------------------------------------

def certify_dm(seed: int = DEFAULT_SEED, caps=DEFAULT_CAPS) -> dict:
    """The polarization gap for the reflection group D_4 on two copies.

    P_1 is the classical polarization operator, so every iterated P_1 image of
    an invariant is itself a polarization; in particular P_1 P_1(sigma_4)/2
    equals the (2,2)-component of the polarizations of sigma_4 and the graded
    dimensions agree at (2,2).  The genuine gap appears at bidegree (3,3): the
    invariant w = P_3(sigma_4) is not in the polarization algebra, while its
    square (which is B_4-invariant) is, certifying integrality without
    equality.
    """
    from .reports import check, make_report

    group = builtin_family("D", 4)
    layout = copies_layout(4, 2)
    action = DiagonalAction(group, layout)
    invs = classical_generators("D", 4)
    gens = polarization_generators(invs, 2, group=group)

    dims = {}
    for deg in ((2, 2), (3, 3)):
        dims[deg] = (invariant_dimension(action, deg, caps.monomials),
                     graded_span_basis(gens, deg, caps.span_products,
                                       caps.monomials).dimension)

    sigma4 = embed_in_copies(invs[3], 2)
    h = wallach_operator(1, wallach_operator(1, sigma4)) * Q(1, 2)
    h_component = polarize(invs[3], 2)[(2, 2)]
    w = wallach_operator(3, sigma4)
    w_cert = membership(w, gens, caps.span_products, caps.monomials)
    square_cert = membership(w * w, gens, caps.span_products, caps.monomials)
    square_ok = (square_cert is not None
                 and certificate_combination(gens, square_cert) == w * w)

    checks = [
        check("p1p1_image_is_a_polarization_component", h == h_component),
        check("dims_equal_at_2_2", dims[(2, 2)][0] == dims[(2, 2)][1],
              dim_invariants=dims[(2, 2)][0], dim_pol_span=dims[(2, 2)][1]),
        check("gap_at_3_3", dims[(3, 3)][1] < dims[(3, 3)][0],
              dim_invariants=dims[(3, 3)][0], dim_pol_span=dims[(3, 3)][1]),
        check("witness_invariant", is_invariant(w, action)),
        check("witness_not_member", w_cert is None),
        check("witness_square_member_at_6_6", square_ok,
              certificate_terms=len(square_cert) if square_cert else 0),
    ]
    certificate_rows = [
        {"multidegree": [2, 2], "dim_invariants": dims[(2, 2)][0],
         "dim_pol_span": dims[(2, 2)][1]},
        {"multidegree": [3, 3], "dim_invariants": dims[(3, 3)][0],
         "dim_pol_span": dims[(3, 3)][1], "witness_polynomial": w,
         "membership_certificate": None},
        {"multidegree": [6, 6], "witness_polynomial": w * w,
         "membership_certificate": [
             {"exponents": list(e), "coefficient": c} for e, c in (square_cert or [])]},
    ]
    return make_report(
        "dm", seed, caps, checks,
        generator_count=len(gens.generators),
        certificate_rows=certificate_rows,
        witness="P_3(sigma_4)",
        conclusion="the polarization algebra of D_4 on two copies misses the "
                   "bidegree (3,3) invariant P_3(sigma_4), but contains its "
                   "square: integral extension, strictly smaller algebra",
    )


@dataclass(frozen=True)
class SeparationReport:
    seed: int
    trials: int
    pairs_tested: int
    separated: int
    controls_tested: int
    controls_agreeing: int
    failures: tuple

    @property
    def all_separated(self) -> bool:
        return self.separated == self.pairs_tested and not self.failures


def separation_test(group: MatrixGroup, gens: GeneratorSet, trials: int = 200,
                    seed: int = DEFAULT_SEED, controls: int = 20) -> SeparationReport:
    """Check that points in distinct orbits are told apart by some generator.

    Draws `trials` random integer point pairs verified (by enumeration) to lie
    in distinct orbits and records any pair on which every generator agrees.
    Also draws same-orbit control pairs, on which every generator must agree.
    """
    rng = random.Random(seed)
    layout = gens.layout
    action = DiagonalAction(group, layout)
    total = layout.total
    polys = [p for p, _ in gens.generators]

    def draw_point():
        return tuple(rng.randint(-9, 9) for _ in range(total))

    failures = []
    separated = 0
    tested = 0
    while tested < trials:
        v, w = draw_point(), draw_point()
        if same_orbit(v, w, action):
            continue
        tested += 1
        if any(p.evaluate(v) != p.evaluate(w) for p in polys):
            separated += 1
        else:
            failures.append((v, w))

    controls_agree = 0
    for _ in range(controls):
        v = draw_point()
        w = point_image(group.elements[rng.randrange(group.order)], v, layout)
        if all(p.evaluate(v) == p.evaluate(w) for p in polys):
            controls_agree += 1
    return SeparationReport(seed, trials, tested, separated, controls, controls_agree,
                            tuple(failures))
