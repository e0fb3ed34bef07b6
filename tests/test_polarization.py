import itertools
import random
import sys
from fractions import Fraction as Q
from math import comb, gcd, lcm, prod

import pytest

from polinv import polarization
from polinv.groups import DiagonalAction, builtin_family, is_invariant
from polinv.limits import CapExceededError, Caps
from polinv.linalg import Matrix, rank, solve_in_span
from polinv.poly import Poly, VariableLayout, glex_key, monomials, parse_poly
from polinv.polarization import (GeneratorSet, certificate_combination,
                                 classical_generators, compare_graded_dims,
                                 copies_layout, embed_in_copies,
                                 graded_span_basis, membership, polarize,
                                 polarization_generators, separation_test,
                                 wallach_operator)
from polinv.polarization import _exponent_tuples, _pack, _products_for_target

from fraction_product import fraction_product
from unpruned_walk import unpruned_exponent_tuples

L1 = VariableLayout(1, 1)
X = Poly.variable(L1, 0)


def test_polarize_square_one_variable():
    comps = polarize(X ** 2, 2)
    L = copies_layout(1, 2)
    x, y = Poly.variable(L, 0), Poly.variable(L, 1)
    assert comps == {(2, 0): x ** 2, (1, 1): 2 * x * y, (0, 2): y ** 2}


def test_polarize_product_two_variables():
    L = VariableLayout(1, 2)
    f = Poly.variable(L, 0) * Poly.variable(L, 1)
    comps = polarize(f, 2)
    big = copies_layout(2, 2)
    assert comps[(1, 1)] == parse_poly("x1*y2 + x2*y1", big)


def test_polarize_b2_power_sum():
    sigma1 = classical_generators("B", 2)[0]
    comps = polarize(sigma1, 2)
    big = copies_layout(2, 2)
    assert comps[(2, 0)] == parse_poly("x1^2 + x2^2", big)
    assert comps[(1, 1)] == parse_poly("2*x1*y1 + 2*x2*y2", big)
    assert comps[(0, 2)] == parse_poly("y1^2 + y2^2", big)


def test_polarization_identity_on_random_data():
    # the defining expansion holds exactly at random points and scalars
    rng = random.Random(31)
    L = VariableLayout(1, 3)
    for _ in range(6):
        terms = {tuple(rng.randint(0, 2) for _ in range(3)): Q(rng.randint(-4, 4))
                 for _ in range(4)}
        f = Poly(L, terms)
        n = rng.randint(1, 3)
        comps = polarize(f, n)
        for _ in range(25):
            pts = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(n)]
            alphas = [rng.randint(-3, 3) for _ in range(n)]
            combined = [sum(a * p[j] for a, p in zip(alphas, pts)) for j in range(3)]
            flat = [x for p in pts for x in p]
            rhs = Q(0)
            for deg, comp in comps.items():
                c = Q(1)
                for a, d in zip(alphas, deg):
                    c *= Q(a) ** d
                rhs += c * comp.evaluate(flat)
            assert f.evaluate(combined) == rhs


def test_polarization_degree_bookkeeping():
    f = classical_generators("D", 4)[1]  # sum of 4th powers
    for deg, comp in polarize(f, 3).items():
        assert comp.multidegree() == deg
        assert sum(deg) == 4


def test_first_component_recovers_f():
    f = classical_generators("D", 4)[3]
    comps = polarize(f, 2)
    assert comps[(4, 0)] == embed_in_copies(f, 2)


def test_invariance_preservation():
    group = builtin_family("B", 2)
    action = DiagonalAction(group, copies_layout(2, 2))
    for f in classical_generators("B", 2):
        for comp in polarize(f, 2).values():
            assert is_invariant(comp, action)


def test_generator_counts():
    gens = polarization_generators([X ** 2], 2)
    assert [d for _, d in gens.generators] == [(0, 2), (1, 1), (2, 0)]
    b2 = polarization_generators(classical_generators("B", 2), 2)
    assert len(b2.generators) == 8
    d4_prod = polarization_generators([classical_generators("D", 4)[3]], 2)
    assert len(d4_prod.generators) == 5


def test_polarize_refuses_exactly_above_its_expansion_size():
    # sum over the terms x^e of prod_j C(e_j + n - 1, n - 1) is the number of
    # monomials the expansion makes: built at that cap, refused one below
    rng = random.Random(23)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        layout = VariableLayout(1, m)
        f = Poly(layout, {tuple(rng.randint(0, 4) for _ in range(m)): Q(rng.randint(1, 5))
                          for _ in range(rng.randint(1, 5))})
        size = sum(prod(comb(k + n - 1, n - 1) for k in e) for e in f._terms)
        comps = polarize(f, n, Caps(monomials=size))
        assert sum(len(c._terms) for c in comps.values()) == size
        with pytest.raises(CapExceededError):
            polarize(f, n, Caps(monomials=size - 1))
        with pytest.raises(CapExceededError):
            polarization_generators([f], n, caps=Caps(monomials=size - 1))


def _substituted_polarization(f, n):
    """The construction `polarize` replaced: substitute x_j -> sum_a x_{a,j}
    and split the result by block multidegree, in graded-lex order."""
    m = f.layout.vars_per_block
    target = copies_layout(m, n)
    images = {j: sum((Poly.variable(target, a * m + j) for a in range(n)), Poly.zero(target))
              for j in range(m)}
    buckets = {}
    for e, c in f.substitute(images).terms():
        buckets.setdefault(target.block_degrees(e), {})[e] = c
    return {deg: Poly(target, buckets[deg]) for deg in sorted(buckets, key=glex_key)}


def test_polarize_matches_the_substitution_reference():
    rng = random.Random(29)
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        layout = VariableLayout(1, m)
        f = Poly(layout, {tuple(rng.randint(0, 5) for _ in range(m)):
                          Q(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(rng.randint(0, 5))})
        got, want = polarize(f, n), _substituted_polarization(f, n)
        assert got == want, (f, n)
        assert list(got) == list(want)
    # high powers, whose multinomials are stepped along many compositions
    layout = VariableLayout(1, 1)
    for k in (40, 60):
        for n in (2, 3):
            f = Poly.variable(layout, 0) ** k
            got, want = polarize(f, n), _substituted_polarization(f, n)
            assert got == want, (k, n)
            assert list(got) == list(want)


def test_polarization_generators_cap_the_polarizations_together():
    # x1^2 and x1*x2 on two copies expand to 3 and 4 monomials: either alone
    # passes a cap of 6, both together pass 7 and no less
    layout = VariableLayout(1, 2)
    fs = [parse_poly("x1^2", layout), parse_poly("x1*x2", layout)]
    for f in fs:
        polarization_generators([f], 2, caps=Caps(monomials=6))
    assert len(polarization_generators(fs, 2, caps=Caps(monomials=7)).generators) == 6
    with pytest.raises(CapExceededError, match="polarization too large"):
        polarization_generators(fs, 2, caps=Caps(monomials=6))


@pytest.mark.parametrize("family,terms", [("S", 36), ("B", 36), ("D", 31)])
def test_classical_generators_refuse_more_terms_than_the_cap(family, terms):
    gens = classical_generators(family, 6, Caps(monomials=terms))
    assert sum(len(p._terms) for p in gens) == terms
    with pytest.raises(CapExceededError, match="polarization too large"):
        classical_generators(family, 6, Caps(monomials=terms - 1))


@pytest.mark.parametrize("family", ["S", "B", "D"])
def test_classical_generators_match_sums_of_powers(family):
    for m in range(2, 7):
        layout = VariableLayout(1, m)
        xs = [Poly.variable(layout, i) for i in range(m)]
        ks = {"S": range(1, m + 1), "B": range(2, 2 * m + 1, 2), "D": range(2, 2 * m, 2)}[family]
        reference = [sum((x ** k for x in xs), Poly.zero(layout)) for k in ks]
        if family == "D":
            reference.append(prod(xs))
        got = classical_generators(family, m)
        assert got == reference
        assert [list(p._terms.items()) for p in got] == [list(p._terms.items()) for p in reference]


def test_classical_generators_make_no_substitution(monkeypatch):
    calls = []
    substitute = Poly.substitute

    def counted(self, images):
        calls.append(images)
        return substitute(self, images)

    monkeypatch.setattr(Poly, "substitute", counted)
    gens = classical_generators("S", 30)
    assert calls == []
    assert [p.total_degree() for p in gens] == list(range(1, 31))
    assert all(len(p._terms) == 30 for p in gens)


def test_generator_invariance_checked_when_group_given():
    group = builtin_family("B", 2)
    bad = Poly.variable(VariableLayout(1, 2), 0)
    with pytest.raises(ValueError):
        polarization_generators([bad], 2, group=group)


def test_wallach_operator_examples():
    L = VariableLayout(1, 2)
    x1, x2 = Poly.variable(L, 0), Poly.variable(L, 1)
    big = copies_layout(2, 2)
    p1 = wallach_operator(1, embed_in_copies(x1 * x2, 2))
    assert p1 == parse_poly("y1*x2 + x1*y2", big)
    p3 = wallach_operator(3, embed_in_copies(x1 ** 4 + x2 ** 4, 2))
    assert p3 == parse_poly("4*y1^3*x1^3 + 4*y2^3*x2^3", big)


def test_wallach_double_application_on_product():
    # P_1 P_1 (x1 x2 x3 x4) = 2 * sum_{i<j} y_i y_j * product of the other x's
    sigma4 = classical_generators("D", 4)[3]
    big = copies_layout(4, 2)
    got = wallach_operator(1, wallach_operator(1, embed_in_copies(sigma4, 2)))
    expected = Poly.zero(big)
    for i in range(4):
        for j in range(i + 1, 4):
            term = Poly.constant(big, 2)
            for k in range(4):
                term = term * Poly.variable(big, 4 + k if k in (i, j) else k)
            expected = expected + term
    assert got == expected


def test_wallach_rejects_even_index():
    sigma4 = classical_generators("D", 4)[3]
    with pytest.raises(ValueError):
        wallach_operator(2, embed_in_copies(sigma4, 2))


def test_graded_span_single_generator():
    gens = GeneratorSet(L1, ((X ** 2, (2,)),))
    span = graded_span_basis(gens, (4,))
    assert span.dimension == 1
    assert span.basis == ((2,),)
    assert graded_span_basis(gens, (3,)).dimension == 0


def test_graded_span_two_linear_generators():
    L = VariableLayout(1, 2)
    x, y = Poly.variable(L, 0), Poly.variable(L, 1)
    gens = GeneratorSet(L, ((x, (1,)), (y, (1,))))
    assert graded_span_basis(gens, (2,)).dimension == 3


def test_graded_span_cap():
    L = VariableLayout(1, 2)
    x, y = Poly.variable(L, 0), Poly.variable(L, 1)
    gens = GeneratorSet(L, ((x, (1,)), (y, (1,))))
    with pytest.raises(CapExceededError):
        graded_span_basis(gens, (40,), Caps(span_products=10))
    # x^2, xy, y^2: three columns, so a monomial cap of 2 refuses both builders
    assert graded_span_basis(gens, (2,), Caps(monomials=3)).dimension == 3
    with pytest.raises(CapExceededError):
        graded_span_basis(gens, (2,), Caps(monomials=2))
    with pytest.raises(CapExceededError):
        membership(x * y, gens, Caps(monomials=2))
    # the tested polynomial's own monomials count too: x^2 and xy are two columns
    only_x = GeneratorSet(L, ((x, (1,)),))
    with pytest.raises(CapExceededError):
        membership(x * y, only_x, Caps(monomials=1))
    assert membership(x * y, only_x, Caps(monomials=2)) is None
    # the expansion itself refuses, once the finished products pass the cap
    with pytest.raises(CapExceededError):
        _products_for_target(gens, (2,), Caps(span_products=10, monomials=2))
    assert len(_products_for_target(gens, (2,), Caps(span_products=10, monomials=3))) == 3


def _brute_exponent_tuples(degrees, target):
    """Reference: filter every exponent tuple up to the target, in lex order."""
    ranges = [range(1) if not any(deg) else
              range(min(t // d for t, d in zip(target, deg) if d) + 1) for deg in degrees]
    return [e for e in itertools.product(*ranges)
            if all(sum(x * deg[b] for x, deg in zip(e, degrees)) == t
                   for b, t in enumerate(target))]


def test_exponent_tuples_match_a_brute_force_filter():
    rng = random.Random(1212)
    empty = 0
    for _ in range(300):
        blocks = rng.randint(1, 3)
        degrees = [tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(blocks))
                   for _ in range(rng.randint(0, 4))]
        target = tuple(rng.randint(0, 6) for _ in range(blocks))
        expected = _brute_exponent_tuples(degrees, target)
        assert (_exponent_tuples(degrees, target, Caps(span_products=10 ** 6))
                == expected), (degrees, target)
        empty += not expected
        # the span_products cap refuses exactly when there are more tuples
        if expected:
            assert _exponent_tuples(degrees, target, Caps(span_products=len(expected))) == expected
            with pytest.raises(CapExceededError):
                _exponent_tuples(degrees, target, Caps(span_products=len(expected) - 1))
    assert empty > 30
    # zero-degree generators, also after the last one of nonzero degree
    ten = Caps(span_products=10)
    assert _exponent_tuples([(0, 0), (1, 0), (0, 0), (0, 1), (0, 0)], (2, 3), ten) == [
        (0, 2, 0, 3, 0)]
    assert _exponent_tuples([(0,)], (0,), ten) == [(0,)]
    assert _exponent_tuples([(0,)], (1,), ten) == []
    assert _exponent_tuples([(2, 2)], (4, 3), ten) == []


def test_exponent_tuples_solve_the_last_exponent():
    # x + z = 200 and y + z = 201: one tuple per x, and the walk enters only
    # the 201 (x, y) prefixes that complete, not all 201 x 202 of them
    tuples = _exponent_tuples([(1, 0), (0, 1), (1, 1)], (200, 201), Caps(span_products=201))
    assert tuples == [(x, x + 1, 200 - x) for x in range(201)]


def test_exponent_walk_refuses_a_table_over_its_byte_limit(monkeypatch):
    # the walk's tables have (prod_b (2*t_b + 1) + 1) // 2 bits, t_1 + 1 here:
    # with a limit of 100 bytes, 800 bits pass and 801 are refused unbuilt
    monkeypatch.setattr(polarization, "WALK_TABLE_BYTES", 100)
    degrees = [(1, 0), (0, 1)]
    ten = Caps(span_products=10)
    assert _exponent_tuples(degrees, (799, 0), ten) == [(799, 0)]
    with pytest.raises(CapExceededError) as refused:
        _exponent_tuples(degrees, (800, 0), ten)
    assert (refused.value.cap_name, refused.value.cap_value) == ("walk_table_bytes", 100)
    monkeypatch.undo()
    # about 10^30 bits: refused before any shift of that size is tried
    with pytest.raises(CapExceededError):
        _exponent_tuples(degrees, (10 ** 30, 0), ten)


def test_membership_of_a_high_power_on_one_variable_per_block():
    # tables of 10 582 401 bits each (1.3 MB), far below the byte limit,
    # although the target has a single monomial
    L = copies_layout(1, 2)
    x1, x2 = Poly.variable(L, 0), Poly.variable(L, 1)
    gens = GeneratorSet(L, ((x1, (1, 0)), (x2, (0, 1))))
    cert = membership(x1 ** 2300 * x2 ** 2300, gens)
    assert cert == [((2300, 2300), Q(1))]


def _walk(degrees, target, caps=Caps(span_products=10 ** 6)):
    """(tuples, calls): `_exponent_tuples` and the number of calls its inner
    walk makes, counted with a profile hook."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "rec":
            calls += 1

    sys.setprofile(hook)
    try:
        tuples = _exponent_tuples(degrees, target, caps)
    finally:
        sys.setprofile(None)
    return tuples, calls


@pytest.mark.parametrize("m", [4, 5])
def test_pruned_walk_matches_the_unpruned_walk_on_polarization_degrees(m):
    gens = polarization_generators(classical_generators("D", m), 2)
    degrees = [deg for _, deg in gens.generators]
    for target in itertools.product(range(8), repeat=2):
        expected = unpruned_exponent_tuples(degrees, target, 10 ** 6)
        tuples, calls = _walk(degrees, target)
        assert tuples == expected, target
        # every prefix the walk enters completes
        assert calls <= 1 + len(tuples) * len(degrees), target
    # the span_products cap refuses at the same tuple count
    expected = unpruned_exponent_tuples(degrees, (6, 6), 10 ** 6)
    assert _exponent_tuples(degrees, (6, 6), Caps(span_products=len(expected))) == expected
    for walk, cap in ((_exponent_tuples, Caps(span_products=len(expected) - 1)),
                      (unpruned_exponent_tuples, len(expected) - 1)):
        with pytest.raises(CapExceededError):
            walk(degrees, (6, 6), cap)


def test_walk_calls_end_at_the_last_nonzero_exponent():
    # a generator that cannot fit takes exponent zero within the call, and a
    # zero remainder takes the zero tail at once: past the start, one call
    # per distinct prefix that ends at or before a tuple's last nonzero exponent
    for copies, target in ((2, (6, 6)), (3, (4, 3, 3))):
        gens = polarization_generators(classical_generators("D", 4), copies)
        degrees = [deg for _, deg in gens.generators]
        tuples, calls = _walk(degrees, target)
        assert tuples == unpruned_exponent_tuples(degrees, target, 10 ** 6)
        prefixes = {e[:i + 1] for e in tuples
                    for i in range(max(i for i, x in enumerate(e) if x) + 1)}
        assert calls <= 1 + len(prefixes), (target, calls, len(prefixes))


def test_pruned_walk_on_large_targets():
    degrees = [(1, 0), (0, 1), (1, 1)]
    assert (_exponent_tuples(degrees, (200, 201), Caps(span_products=10 ** 6))
            == unpruned_exponent_tuples(degrees, (200, 201), 10 ** 6))
    # no tuple reaches an odd first degree: the walk enters no prefix
    assert _walk([(2, 0), (0, 2)], (1001, 1000)) == ([], 1)
    assert _walk([(2, 0), (0, 2), (2, 2)], (1001, 1000)) == ([], 1)


def test_monotone_span_under_redundant_generators():
    gens = polarization_generators(classical_generators("B", 2), 2)
    doubled = GeneratorSet(gens.layout,
                           gens.generators + ((gens.generators[0][0] * 2,
                                               gens.generators[0][1]),))
    for deg in [(1, 1), (2, 2), (2, 0)]:
        assert (graded_span_basis(gens, deg).dimension
                == graded_span_basis(doubled, deg).dimension)


def test_membership_power():
    gens = GeneratorSet(L1, ((X ** 2, (2,)),))
    cert = membership(X ** 4, gens)
    assert cert == [((2,), Q(1))]
    assert certificate_combination(gens, cert) == X ** 4


def test_membership_absent():
    L = VariableLayout(1, 2)
    x, y = Poly.variable(L, 0), Poly.variable(L, 1)
    gens = GeneratorSet(L, ((x * y, (2,)),))
    assert membership(x ** 2, gens) is None


def test_membership_requires_multihomogeneous():
    L = copies_layout(1, 2)
    x, y = Poly.variable(L, 0), Poly.variable(L, 1)
    gens = GeneratorSet(L, ((x, (1, 0)),))
    with pytest.raises(ValueError):
        membership(x + x * y, gens)


def test_membership_certificates_reconstruct_randomly():
    rng = random.Random(33)
    gens = polarization_generators(classical_generators("B", 2), 2)
    polys = [p for p, _ in gens.generators]
    for _ in range(10):
        i, j = rng.randrange(len(polys)), rng.randrange(len(polys))
        f = polys[i] * polys[j] + polys[j] * polys[j]
        deg = f.multidegree()
        if deg is None:
            continue
        cert = membership(f, gens)
        assert cert is not None
        assert certificate_combination(gens, cert) == f


def test_compare_s2_equal_through_degree_4():
    rows = compare_graded_dims(builtin_family("S", 2),
                               classical_generators("S", 2), 2, 4)
    assert rows
    for deg, di, dp in rows:
        assert dp == di, deg


def test_compare_subset_inequality_d4():
    rows = compare_graded_dims(builtin_family("D", 4),
                               classical_generators("D", 4), 2, 3)
    for deg, di, dp in rows:
        assert dp <= di


def test_separation_simple():
    group = builtin_family("S", 2)
    gens = polarization_generators(classical_generators("S", 2), 1)
    polys = [p for p, _ in gens.generators]
    assert any(p.evaluate((1, 2)) != p.evaluate((1, 3)) for p in polys)
    report = separation_test(group, gens, trials=25, seed=7)
    assert report.all_separated
    assert report.controls_agreeing == report.controls_tested


# ---------------------------------------------------------------------------
# The integer product path against the Fraction route it replaced
# ---------------------------------------------------------------------------

def _reference_products(gens, target):
    """Every product prod_i g_i^{e_i} of multidegree `target` as a Poly, exponent
    tuples in lex order; generators of zero multidegree stay at exponent 0."""
    bounds = [0 if not any(deg) else min(t // d for t, d in zip(target, deg) if d)
              for _, deg in gens.generators]
    out = []
    for exps in itertools.product(*(range(b + 1) for b in bounds)):
        total = tuple(sum(e * deg[b] for e, (_, deg) in zip(exps, gens.generators))
                      for b in range(len(target)))
        if total != tuple(target):
            continue
        out.append((exps, _fraction_combination(gens, [(exps, 1)])))
    return out


def _fraction_combination(gens, certificate):
    """sum c * prod_i g_i^{e_i} over the certificate, by `fraction_product`
    and `Poly` addition."""
    total = Poly.zero(gens.layout)
    for exps, c in certificate:
        term = Poly.constant(gens.layout, c)
        for (g, _), e in zip(gens.generators, exps):
            for _ in range(e):
                term = fraction_product(term, g)
        total = total + term
    return total


def _dense_vectors(polys):
    columns = sorted(set().union(*(p._terms for p in polys)), key=glex_key, reverse=True)
    return [[p.coefficient(c) for c in columns] for p in polys]


def _reference_membership(f, gens):
    products = _reference_products(gens, f.multidegree())
    vectors = _dense_vectors([p for _, p in products] + [f])
    coeffs = solve_in_span(vectors[:-1], vectors[-1])
    if coeffs is None:
        return None
    return [(products[i][0], c) for i, c in enumerate(coeffs) if c != 0]


def _reference_span(gens, target):
    """(dimension, exponent tuples of the lex-first independent products) of
    the graded piece."""
    products = _reference_products(gens, target)
    polys = [p for _, p in products]
    if not polys:
        return 0, ()
    vectors = _dense_vectors(polys)
    kept = []
    for j in range(len(polys)):
        if rank(Matrix.from_rows([vectors[i] for i in kept + [j]])) > len(kept):
            kept.append(j)
    return rank(Matrix.from_rows(vectors)), tuple(products[j][0] for j in kept)


def _non_primitive_generators(rng, layout, bidegrees):
    """Generators whose coefficients are 7*a/den with a coprime to den in 2..6:
    every coefficient is a non-integer, and each generator scaled by the lcm
    of its denominators keeps the content 7."""
    gens = []
    for deg in bidegrees:
        mons = monomials([layout.vars_per_block] * layout.blocks, deg)
        terms = {}
        for mon in rng.sample(mons, min(len(mons), rng.randint(1, 3))):
            terms[mon] = Q(7 * rng.choice((1, -1, 11, -11, 13)), rng.randint(2, 6))
        gens.append((Poly(layout, terms), deg))
    return GeneratorSet(layout, tuple(gens))


def test_integer_products_match_the_fraction_reference():
    rng = random.Random(2024)
    layout = copies_layout(2, 2)
    members = non_members = 0
    for _ in range(6):
        gens = _non_primitive_generators(
            rng, layout, [(1, 0), (0, 1), (1, 1), (2, 0), (1, 1), (2, 1), (0, 2)])
        for g, _ in gens.generators:
            d = lcm(*(c.denominator for c in g._terms.values()))
            assert all(c.denominator > 1 for c in g._terms.values())
            assert gcd(*(c.numerator * (d // c.denominator) for c in g._terms.values())) % 7 == 0
        for target in [(2, 1), (2, 2), (3, 2), (3, 3)]:
            dim, basis = _reference_span(gens, target)
            span = graded_span_basis(gens, target)
            assert (span.dimension, span.basis) == (dim, basis), target
            products = [p for _, p in _reference_products(gens, target)]
            f = sum((Q(rng.randint(-9, 9), rng.randint(1, 6)) * p
                     for p in rng.sample(products, min(3, len(products)))),
                    Poly.zero(layout))
            mons = monomials([2, 2], target)
            for candidate in (f, f + Poly.monomial(layout, rng.choice(mons), Q(1, 3))):
                if candidate.is_zero():
                    continue
                want = _reference_membership(candidate, gens)
                assert membership(candidate, gens) == want, (target, candidate)
                if want is None:
                    non_members += 1
                else:
                    members += 1
                    assert certificate_combination(gens, want) == candidate
    assert members >= 10 and non_members >= 5


def test_certificate_combination_matches_the_fraction_reconstruction(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the certificate check must not use the elimination or _mul")

    # the check stays independent of the route that found the certificate
    for name in ("_echelon", "_mul", "_products_for_target"):
        monkeypatch.setattr(polarization, name, forbidden)
    rng = random.Random(17)
    layout = copies_layout(2, 2)
    generator_sets = [polarization_generators(classical_generators("B", 2), 2)]
    generator_sets += [_non_primitive_generators(rng, layout, [(1, 0), (0, 1), (1, 1), (2, 0),
                                                               (2, 1), (0, 2)])
                       for _ in range(4)]
    cancelled = 0
    for gens in generator_sets:
        empty = certificate_combination(gens, [])
        assert empty.is_zero() and empty.layout == gens.layout
        n = len(gens.generators)
        for _ in range(10):
            certificate = []
            for _ in range(rng.randint(1, 5)):
                exps = [0] * n
                for i in rng.sample(range(n), rng.randint(0, 3)):  # 0: the constant product
                    exps[i] = rng.randint(1, 2)
                c = rng.choice((Q(0), Q(rng.randint(-9, 9)),
                                Q(rng.randint(-99, 99), rng.randint(1, 60))))
                certificate.append((tuple(exps), c))
            if rng.random() < 0.3:
                # the first product once more with the opposite coefficient: its
                # terms cancel to zero
                certificate.append((certificate[0][0], -certificate[0][1]))
                cancelled += 1
            got = certificate_combination(gens, certificate)
            assert got == _fraction_combination(gens, certificate), certificate
            assert all(type(v) is Q and v for v in got._terms.values())
    assert cancelled >= 5


def test_products_build_each_generator_power_once(monkeypatch):
    # x1_1^600 against x1 + x2 and x1*x2 on two copies: in lex order the
    # tuples raise the power of x1_1 + x1_2 by two as that of x1_1*x1_2 falls
    # by one (300, 299, ...).  Building each power once, from the one below
    # it, takes 599 + 299 steps; each product starts from a copy of its first
    # power, so the 299 products with two factors take one step each.
    calls = []
    mul = polarization._mul

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(polarization, "_mul", counted)
    x1, x2 = (Poly.variable(VariableLayout(1, 2), i) for i in range(2))
    gens = polarization_generators([x1 + x2, x1 * x2], 2)
    products = _products_for_target(gens, (600, 0), Caps(span_products=10 ** 4))
    assert len(products) == 301
    assert len(calls) == 599 + 299 + 299
    assert products[0][0] == (0, 0, 0, 0, 300)
    assert products[0][1:] == ({_pack((300, 300, 0, 0), 10): 1}, 1)


# ---------------------------------------------------------------------------
# Packed exponent keys at the edges
# ---------------------------------------------------------------------------

def test_zero_target_is_the_constant_product():
    L = copies_layout(2, 2)
    gens = GeneratorSet(L, ((Poly.variable(L, 0), (1, 0)), (Poly.variable(L, 2), (0, 1))))
    assert _products_for_target(gens, (0, 0), Caps(span_products=10)) == [((0, 0), {0: 1}, 1)]
    span = graded_span_basis(gens, (0, 0))
    assert (span.dimension, span.basis) == (1, ((0, 0),))
    assert membership(Poly.constant(L, Q(3, 2)), gens) == [((0, 0), Q(3, 2))]


def test_zero_multidegree_generator_stays_at_exponent_zero():
    L = copies_layout(1, 2)
    x, y = Poly.variable(L, 0), Poly.variable(L, 1)
    gens = GeneratorSet(L, ((Poly.constant(L, Q(2, 3)), (0, 0)), (x, (1, 0)), (x * y, (1, 1))))
    for target, exps in (((2, 1), (0, 1, 1)), ((0, 0), (0, 0, 0))):
        products = _products_for_target(gens, target, Caps(span_products=10))
        assert [e for e, _, _ in products] == [exps]
    assert membership(Q(5, 4) * x * x * y, gens) == [((0, 1, 1), Q(5, 4))]
    assert graded_span_basis(gens, (0, 0)).dimension == 1
    assert graded_span_basis(gens, (2, 1)).basis == ((0, 1, 1),)


def test_exponents_past_one_byte_do_not_carry_into_the_next_variable():
    L = copies_layout(1, 2)
    x, y = Poly.variable(L, 0), Poly.variable(L, 1)
    gens = GeneratorSet(L, ((x, (1, 0)), (y, (0, 1))))
    # 300 needs 9 bits: a fixed 8-bit digit would carry x^300 into y's digit
    span = graded_span_basis(gens, (300, 301))
    assert span.dimension == 1
    assert span.basis == ((300, 301),)
    assert membership(Q(7, 2) * x ** 300 * y ** 301, gens) == [((300, 301), Q(7, 2))]
    L1x2 = VariableLayout(1, 2)
    u, v = Poly.variable(L1x2, 0), Poly.variable(L1x2, 1)
    gens = GeneratorSet(L1x2, ((u ** 150 + v ** 150, (150,)), (u * v, (2,))))
    # the products are (uv)^150, (u^150 + v^150)(uv)^75 and (u^150 + v^150)^2
    assert graded_span_basis(gens, (300,)).dimension == 3
    assert membership(u ** 300 + v ** 300, gens) == [((0, 150), Q(-2)), ((2, 0), Q(1))]
    assert membership(u ** 300, gens) is None
    L1x3 = VariableLayout(1, 3)
    x, y, z = (Poly.variable(L1x3, i) for i in range(3))
    gens = GeneratorSet(L1x3, ((y ** 257, (257,)), (x * z ** 256, (257,))))
    # with an 8-bit digit, y^257 and x*z^256 would both pack as x*y
    span = graded_span_basis(gens, (257,))
    assert (span.dimension, span.basis) == (2, ((0, 1), (1, 0)))
    assert membership(y ** 257 - x * z ** 256, gens) == [((0, 1), Q(-1)), ((1, 0), Q(1))]
