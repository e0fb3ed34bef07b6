"""Classical n-polarization of invariants and the polarization algebra.

The polarizations of f on V are the multihomogeneous components of
f(x_1 v_1 + ... + x_n v_n) viewed as functions on n copies of V.  They are
computed here as f(sum_a x_{a,1}, ..., sum_a x_{a,m}), expanded from
multinomial coefficients and split by block multidegree; the component of
multidegree I is exactly the coefficient of the scalar monomial alpha^I in
the formal expansion, with no extra normalization.  The exponent tuples of
the generator products of one multidegree are listed by a depth-first walk
on an explicit stack, so no recursion depth grows with the number of
generators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import groups
from .limits import CapExceededError, Caps, DEFAULT_CAPS, DEFAULT_SEED, frozen
from .linalg import _echelon, _integer_terms
from .poly import (Poly, VariableLayout, _power_table, compositions, count_monomials,
                   glex_key, is_scalar_multiple, multidegrees)
from .reports import check, make_report

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


def _polarized_size(f: Poly, n: int) -> int:
    """The number of monomials in the polarization of f on n copies of V:
    sum over the terms x^e of f of prod_j C(e_j + n - 1, n - 1).  Distinct
    terms polarize onto disjoint monomials and every multinomial coefficient
    is positive, so nothing cancels and the count is exact."""
    if f.layout.blocks != 1:
        raise ValueError("polarize expects a polynomial on a single copy of V")
    if n < 1:
        raise ValueError("need at least one copy")
    block = (n,) * f.layout.vars_per_block
    return sum(count_monomials(block, e) for e in f._terms)


def polarize(f: Poly, n: int, caps: Caps = DEFAULT_CAPS) -> Dict[tuple, Poly]:
    """All nonzero polarization components of f on n copies of V.

    Keys are multidegrees I, in graded-lex order; the defining identity
    f(sum_a alpha_a v_a) = sum_I alpha^I f_I(v_1, ..., v_n) holds exactly.
    A term c*x^e expands to c * prod_j (sum_a x_{a,j})^{e_j}, and each power
    is written down from its multinomial coefficients (`compositions`).  An
    expansion of more than `caps.monomials` monomials (`_polarized_size`) is
    refused before it is built.
    """
    caps.bound("monomials", _polarized_size(f, n), "polarization too large")
    m = f.layout.vars_per_block
    lists = {k: compositions(k, n) for k in {k for e in f._terms for k in e}}
    buckets: Dict[tuple, Dict[tuple, Fraction]] = {}
    for e, c in f._terms.items():
        for choice in product(*(lists[k] for k in e)):
            copies = tuple(zip(*(parts for parts, _ in choice)))  # copy a: x_{a,1..m}
            exps = tuple(chain.from_iterable(copies))
            buckets.setdefault(tuple(map(sum, copies)), {})[exps] = c * prod(w for _, w in choice)
    target = copies_layout(m, n)
    return {deg: Poly._trusted(target, terms)
            for deg, terms in sorted(buckets.items(), key=lambda kv: glex_key(kv[0]))}


@frozen
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


@frozen
class GradedSpan:
    """One graded piece of the polarization algebra.  Its basis is the
    exponent tuples of the lex-first independent generator products (in the
    order of `_exponent_tuples`), so its dimension is their number."""

    multidegree: tuple
    basis: Tuple[tuple, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def polarization_generators(invariant_gens: Sequence[Poly], n: int,
                            group: Optional[groups.MatrixGroup] = None,
                            caps: Caps = DEFAULT_CAPS) -> GeneratorSet:
    """Polarize every generator and collect the components, de-duplicated
    up to exact scalar multiples.  Constant components are dropped; when a
    group is supplied, every input is checked to be invariant first.  The
    polarizations together are refused over `caps.monomials` monomials: the
    size of each (`_polarized_size`) is added to those before it, and the
    total is checked before that polarization is built.
    """
    if not invariant_gens:
        raise ValueError("no generators given")
    m = invariant_gens[0].layout.vars_per_block
    layout = copies_layout(m, n)
    if group is not None:
        base_action = groups.DiagonalAction(group, VariableLayout(1, m))
        for f in invariant_gens:
            if not groups.is_invariant(f, base_action):
                raise ValueError("generator is not invariant under the supplied group")
    kept: List[Tuple[Poly, tuple]] = []
    used = 0  # monomials of the polarizations so far
    for f in invariant_gens:
        if f.layout != invariant_gens[0].layout:
            raise ValueError("generators live on different layouts")
        used += _polarized_size(f, n)
        caps.bound("monomials", used, "polarization too large")
        components = polarize(f, n, caps)
        for deg, comp in components.items():
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


# The exponent walk keeps tables of about prod_b (2*t_b + 1) / 2 bits.  On one
# core, with two generators, they took 0.25-0.31 s and 155 MB to build at
# (9200, 9200) (21 MB tables) and 0.53-0.66 s and 277 MB at (13000, 13000)
# (42 MB): time and memory grow about linearly in the table size, memory at
# six to seven times it.  A table over 2**32 bytes would need some 25 GB, so
# such a target is refused before any table is built.
WALK_TABLE_BYTES = 1 << 32


def _exponent_tuples(degrees: Sequence[tuple], target: tuple, caps: Caps):
    """All exponent tuples e with sum_i e_i * degrees[i] = target, in lex order.

    Generators of zero multidegree are held at exponent zero (a constant
    factor never enlarges the span).  The walk enters a prefix only when the
    generators after it can fill its remainder exactly, so every prefix it
    enters completes.  A generator that cannot fit the remainder takes
    exponent zero within the call, and a zero remainder takes the zero tail
    at once, so each call past the start enters a prefix that ends at or
    before the last nonzero exponent of a tuple listed: there are at most
    1 + (such distinct prefixes) calls.  Raises when more than
    `caps.span_products` tuples would be produced, and as a degree too large
    when a table of the walk would exceed `WALK_TABLE_BYTES`.
    """
    n = len(degrees)
    # A remainder r <= target is bit sum_b r_b * strides[b]; radix 2*t_b + 1
    # lets a degree <= t_b be added to it with no carry into the next block.
    # `box` has the bits of every r <= target.
    strides = [1]
    for t in target:
        strides.append(strides[-1] * (2 * t + 1))
    if (strides[-1] + 1) // 2 > 8 * WALK_TABLE_BYTES:  # the bits of `box` below
        raise CapExceededError("degree too large", "walk_table_bytes", WALK_TABLE_BYTES)
    box = 1
    for t, s in zip(target, strides):  # box times sum_{k <= t} 2**(k*s), by doubling
        e = 1
        while e <= t:
            box |= box << e * s
            e *= 2
        box &= (1 << (t + 1) * s) - 1
    steps = [sum(d * s for d, s in zip(deg, strides)) for deg in degrees]

    def most(rem: tuple, deg: tuple) -> int:  # the largest e with e*deg <= rem
        return min((r // d for r, d in zip(rem, deg) if d), default=0)

    # fills[i]: the bits of the remainders that degrees[i:] fill exactly
    size = box.bit_length() // 8 + 1
    filled = 1
    fills = [b""] * n + [filled.to_bytes(size, "little")]
    for i in range(n - 1, 0, -1):
        e, top = 1, most(target, degrees[i])
        while e <= top:  # every multiple below 2e of degrees[i] is added
            filled |= (filled << e * steps[i]) & box
            e *= 2
        fills[i] = filled.to_bytes(size, "little")
    out: List[tuple] = []
    limit = caps.span_products  # read once: the check runs for every tuple

    def rec(i: int, remaining: tuple, pos: int, prefix: tuple) -> list:
        """One prefix of the walk: a finished tuple goes to `out`; otherwise
        the prefix's extensions are returned, in falling exponent order."""
        if not pos:  # every later exponent is zero
            prefix += (0,) * (n - i)
            i = n
        while i < n and not most(remaining, degrees[i]):  # it takes exponent zero
            prefix += (0,)
            i += 1
        if i == n:
            if pos:  # the start is the only prefix not checked
                return []
            if len(out) >= limit:
                caps.bound("span_products", len(out) + 1, "span too large")
            out.append(prefix)
            return []
        deg, reach = degrees[i], fills[i + 1]
        extensions = []
        for e in range(most(remaining, deg), -1, -1):
            rest = pos - e * steps[i]
            if reach[rest >> 3] >> (rest & 7) & 1:
                extensions.append((i + 1, tuple(r - e * d for r, d in zip(remaining, deg)),
                                   rest, prefix + (e,)))
        return extensions

    # depth first on an explicit stack, so no recursion depth grows with the
    # number of generators; the smallest exponent is popped first: lex order
    stack = [(0, tuple(target), sum(t * s for t, s in zip(target, strides)), ())]
    while stack:
        stack += rec(*stack.pop())
    return out


def _digit_width(target: Sequence[int]) -> int:
    """Bits per variable in a packed exponent key for monomials of multidegree target."""
    return max(max(target).bit_length(), 1)


def _pack(exps: Sequence[int], width: int) -> int:
    """One int for an exponent tuple, `width` bits per variable, variable 0 most significant.

    Every exponent must be below 2**width; then adding keys multiplies
    monomials, and for one total degree descending keys are graded-lex
    descending.
    """
    key = 0
    for e in exps:
        key = (key << width) | e
    return key


def _packed(p: Poly, width: int) -> Tuple[Dict[int, int], int]:
    """(terms, d): d*p on packed keys with int coefficients, d the lcm of its denominators."""
    return _integer_terms({_pack(e, width): c for e, c in p._terms.items()})


def _mul(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """Product of two integer polynomials on packed keys."""
    if len(a) < len(b):
        a, b = b, a
    out: Dict[int, int] = {}
    get = out.get
    a_items = a.items()
    for kb, cb in b.items():
        for ka, ca in a_items:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _products_for_target(gens: GeneratorSet, target: tuple, caps: Caps,
                         extra_keys: Iterable[int] = ()):
    """Generator products of the target multidegree, expanded over the integers.

    Returns [(exps, terms, scale), ...], one entry per exponent tuple of
    `_exponent_tuples`, in its lex order.  Each generator g_i is scaled once
    by the lcm d_i of its denominators; `terms` maps packed exponent keys
    (`_pack`, width `_digit_width(target)`) to ints and equals scale times
    prod_i g_i^{e_i}, with scale = prod_i d_i^{e_i}.  Before any product is
    expanded, the powers g_i^e that the tuples use are built once each, in
    ascending order, each from the one before (`_power_table`); a generator
    that no tuple uses is neither packed nor powered.  `caps.monomials`
    bounds the union of `extra_keys` (the packed support of a polynomial to
    be tested against the span) and the supports of the finished products,
    and is checked as each product finishes; partial products, which can
    still cancel, are not counted.  It also bounds each power on its own,
    checked at every step of its build, so one large power is refused before
    it is finished.  Every `terms` is a fresh dict that no power shares, so
    the callers hand them to `_echelon`, which reduces them in place.
    """
    degrees = [deg for _, deg in gens.generators]
    tuples = _exponent_tuples(degrees, tuple(target), caps)
    width = _digit_width(target)

    def step(power, base):  # one more factor of a power, refused as it passes the cap
        power = _mul(power, base)
        caps.bound("monomials", len(power), "too many monomials")
        return power

    tables = {}  # i -> ({e: (d_i g_i)^e} for the exponents of g_i the tuples use, d_i)
    for i, column in enumerate(zip(*tuples)):
        used = sorted(set(column) - {0})
        if used:
            base, d = _packed(gens.generators[i][0], width)
            tables[i] = (_power_table(base, used, step), d)

    support = set()

    def count(keys):
        support.update(keys)
        caps.bound("monomials", len(support), "too many monomials")

    count(extra_keys)
    products = []
    for exps in tuples:
        terms, scale = None, 1
        for i, e in enumerate(exps):
            if e:
                table, d = tables[i]
                terms = dict(table[e]) if terms is None else _mul(terms, table[e])
                scale *= d ** e
        if terms is None:
            terms = {0: 1}
        products.append((exps, terms, scale))
        count(terms)
    return products


def graded_span_basis(gens: GeneratorSet, target: Sequence[int],
                      caps: Caps = DEFAULT_CAPS) -> GradedSpan:
    """The graded piece spanned by generator products, as the exponent tuples
    of its lex-first independent products."""
    target = tuple(target)
    products = _products_for_target(gens, target, caps)
    kept, _ = _echelon((terms, scale) for _, terms, scale in products)
    return GradedSpan(target, tuple(products[j][0] for j in kept))


def membership(f: Poly, gens: GeneratorSet, caps: Caps = DEFAULT_CAPS
               ) -> Optional[List[Tuple[tuple, Fraction]]]:
    """Exact membership of f in the graded piece of the polarization algebra.

    Returns a certificate [(exponent tuple, coefficient), ...] whose product
    combination reconstructs f exactly, or None when f is not in the span at
    its multidegree.  Only the lex-first independent products get nonzero
    coefficients.
    """
    if f.layout != gens.layout:
        raise ValueError("layout mismatch")
    if f.is_zero():
        return []
    deg = f.multidegree()
    if deg is None:
        raise ValueError("membership needs a multihomogeneous polynomial")
    f_terms, f_scale = _packed(f, _digit_width(deg))
    products = _products_for_target(gens, deg, caps, f_terms)
    rows = [(terms, scale) for _, terms, scale in products] + [(f_terms, f_scale)]
    relation = _echelon(rows)[1](len(products))
    if relation is None:
        return None
    return [(products[j][0], c) for j, c in sorted(relation.items())]


def certificate_combination(gens: GeneratorSet, certificate) -> Poly:
    """Expand a membership certificate [(exponent tuple, c), ...] into the
    polynomial sum c * prod_i g_i^{e_i}.

    The certificate is a polynomial in one variable t_i per generator
    (repeated exponent tuples add up), and its expansion is the substitution
    t_i -> g_i (`Poly.substitute`).  So the check is independent of how the
    certificate was found: it uses neither the elimination (`_echelon`) nor
    the packed-key product (`_mul`).
    """
    sums: Dict[tuple, Fraction] = {}
    for exps, c in certificate:
        exps = tuple(exps)
        sums[exps] = sums.get(exps, 0) + Q(c)
    if not gens.generators:
        return Poly.constant(gens.layout, sum(sums.values()))
    cert = Poly(VariableLayout(1, len(gens.generators)), sums)
    return cert.substitute({i: g for i, (g, _) in enumerate(gens.generators)})


# ---------------------------------------------------------------------------
# Wired-in classical generator lists for the builtin reflection groups
# ---------------------------------------------------------------------------

def classical_generators(family: str, m: int, caps: Caps = DEFAULT_CAPS) -> List[Poly]:
    """Generators of the invariant ring for the builtin families.

    S: power sums p_1..p_m.  B: sum x_i^{2s}, s = 1..m.
    D: sigma_s = sum x_i^{2s} for s < m together with sigma_m = x_1...x_m.
    They have m*m terms (S, B) or m(m - 1) + 1 (D), and each term polarizes
    to at least one monomial, so more terms than `caps.monomials` are refused
    as a polarization too large, before any is built.
    """
    layout = VariableLayout(1, m)
    if family not in ("S", "B", "D"):
        raise ValueError(f"unsupported family {family!r}")
    if family == "D" and m < 2:
        raise ValueError("family D needs m >= 2")
    caps.bound("monomials", m * (m - 1) + 1 if family == "D" else m * m,
               "polarization too large")

    def power_sum(k: int) -> Poly:
        return Poly._trusted(layout, {(0,) * i + (k,) + (0,) * (m - 1 - i): Q(1)
                                      for i in range(m)})

    if family == "S":
        return [power_sum(s) for s in range(1, m + 1)]
    if family == "B":
        return [power_sum(2 * s) for s in range(1, m + 1)]
    return ([power_sum(2 * s) for s in range(1, m)]
            + [Poly._trusted(layout, {(1,) * m: Q(1)})])


def compare_graded_dims(group: groups.MatrixGroup, invariant_gens: Sequence[Poly], n: int,
                        max_total_degree: int, caps: Caps = DEFAULT_CAPS):
    """Table of (multidegree, dim of invariants, dim of polarization span).

    Covers every multidegree of total degree <= max_total_degree in graded-lex
    order.  The caller asserts that `invariant_gens` generate the invariant
    ring up to that degree.
    """
    m = group.dimension
    layout = copies_layout(m, n)
    action = groups.DiagonalAction(group, layout)
    gens = polarization_generators(invariant_gens, n, group, caps)
    rows = []
    for deg in multidegrees(max_total_degree, n):
        dim_inv = groups.invariant_dimension(action, deg, caps)
        dim_pol = graded_span_basis(gens, deg, caps).dimension
        rows.append((deg, dim_inv, dim_pol))
    return rows


# ---------------------------------------------------------------------------
# Packaged certificate: the D_4 polarization gap on two copies
# ---------------------------------------------------------------------------

def certify_dm(seed: int = DEFAULT_SEED, caps: Caps = DEFAULT_CAPS) -> dict:
    """The polarization gap for the reflection group D_4 on two copies.

    P_1 is the classical polarization operator, so every iterated P_1 image of
    an invariant is itself a polarization; in particular P_1 P_1(sigma_4)/2
    equals the (2,2)-component of the polarizations of sigma_4 and the graded
    dimensions agree at (2,2).  The genuine gap appears at bidegree (3,3): the
    invariant w = P_3(sigma_4) is not in the polarization algebra, while its
    square (which is B_4-invariant) is, certifying integrality without
    equality.
    """
    group = groups.builtin_family("D", 4, caps)
    layout = copies_layout(4, 2)
    action = groups.DiagonalAction(group, layout)
    invs = classical_generators("D", 4, caps)
    gens = polarization_generators(invs, 2, group, caps)

    dims = {}
    for deg in ((2, 2), (3, 3)):
        dims[deg] = (groups.invariant_dimension(action, deg, caps),
                     graded_span_basis(gens, deg, caps).dimension)

    sigma4 = embed_in_copies(invs[3], 2)
    h = wallach_operator(1, wallach_operator(1, sigma4)) * Q(1, 2)
    h_component = polarize(invs[3], 2, caps)[(2, 2)]
    w = wallach_operator(3, sigma4)
    w_cert = membership(w, gens, caps)
    square = w * w
    square_cert = membership(square, gens, caps)
    square_ok = (square_cert is not None
                 and certificate_combination(gens, square_cert) == square)

    checks = [
        check("p1p1_image_is_a_polarization_component", h == h_component),
        check("dims_equal_at_2_2", dims[(2, 2)][0] == dims[(2, 2)][1],
              dim_invariants=dims[(2, 2)][0], dim_pol_span=dims[(2, 2)][1]),
        check("gap_at_3_3", dims[(3, 3)][1] < dims[(3, 3)][0],
              dim_invariants=dims[(3, 3)][0], dim_pol_span=dims[(3, 3)][1]),
        check("witness_invariant", groups.is_invariant(w, action)),
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
        {"multidegree": [6, 6], "witness_polynomial": square,
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
