import random
import sys
from fractions import Fraction as Q

import pytest

from polinv import linalg, liealg
from polinv.groups import (DiagonalAction, builtin_family, enumerate_group,
                           invariant_dimension, reynolds)
from polinv.limits import CapExceededError, Caps
from polinv.linalg import Matrix
from polinv.poly import Poly, VariableLayout, count_monomials, monomials, parse_poly
from polinv.polarization import polarize
from polinv.liealg import (LieAlgebraBasis, LieSubspace, bracket, certify_sl2_r1,
                           certify_sl3, certify_so5, generic_orbit_dimension,
                           jacobian_rank, random_algebra_element, sl,
                           sl2_invariant_dimension, so5, so5_pol2_generators,
                           so5_trace_invariants, subalgebra_closure, unit_matrix,
                           SO5_POL2_BIDEGREES)

from fraction_rref import fraction_rref
from sl2_kernel import apply_derivation, kernel_sl2_invariant_dimension, sl2_derivation_rules


def test_bracket_examples():
    e12, e21 = unit_matrix(2, 0, 1), unit_matrix(2, 1, 0)
    assert bracket(e12, e21) == Matrix.from_rows([[1, 0], [0, -1]])
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert bracket(a, a).is_zero()
    A = unit_matrix(3, 0, 1) + unit_matrix(3, 1, 2)
    B = unit_matrix(3, 1, 0) - unit_matrix(3, 2, 1)
    assert bracket(A, B) == Matrix.from_rows([[1, 0, 0], [0, -2, 0], [0, 0, 1]])


def test_bracket_multiplies_in_integers_without_mat_mul(monkeypatch):
    # `Matrix @` multiplies scaled integer entries itself; `mat_mul` is left
    # to Poly entries
    def refuse(*args, **kwargs):
        raise AssertionError("a bracket went through mat_mul")

    monkeypatch.setattr(linalg, "mat_mul", refuse)
    rng = random.Random(43)
    for n in range(1, 6):
        a, b = (Matrix(n, n, tuple(Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n * n)))
                for _ in range(2))
        expected = [[sum((a.at(i, k) * b.at(k, j) - b.at(i, k) * a.at(k, j) for k in range(n)),
                         Q(0)) for j in range(n)] for i in range(n)]
        assert bracket(a, b).to_rows() == expected


def test_algebra_constructions():
    assert sl(2).dimension == 3
    assert sl(3).dimension == 8
    s5 = so5()
    assert s5.dimension == 10
    for b in s5.basis:
        assert b.transpose() == -b


def test_algebra_rejects_non_closed_basis():
    with pytest.raises(ValueError, match="not closed under the bracket"):
        LieAlgebraBasis("bad", 2, (unit_matrix(2, 0, 1), unit_matrix(2, 1, 0)))
    with pytest.raises(ValueError, match="linearly dependent"):
        LieAlgebraBasis("dep", 2, (unit_matrix(2, 0, 1),
                                   unit_matrix(2, 0, 1).scale(2)))


def test_algebra_rejects_basis_matrices_of_the_wrong_shape():
    with pytest.raises(ValueError, match="matrix_size x matrix_size"):
        LieAlgebraBasis("lone", 2, (Matrix.from_rows([[1, 0, 0], [0, 1, 0]]),))
    with pytest.raises(ValueError, match="matrix_size x matrix_size"):
        LieAlgebraBasis("size", 2, sl(3).basis)
    # a single square matrix spans an abelian algebra
    assert LieAlgebraBasis("line", 2, (Matrix.from_rows([[1, 2], [3, 4]]),)).dimension == 1


def test_closure_check_forms_one_bracket_per_pair(monkeypatch):
    calls = []

    def counting_bracket(a, b):
        calls.append((a, b))
        return bracket(a, b)

    monkeypatch.setattr(liealg, "bracket", counting_bracket)
    assert so5().dimension == 10
    assert len(calls) == 45
    calls.clear()
    assert sl(3).dimension == 8
    assert len(calls) == 28


def test_subspace_membership_validated():
    with pytest.raises(ValueError, match="lies outside the algebra"):
        LieSubspace(sl(2), (Matrix.identity(2),))
    with pytest.raises(ValueError, match="lies outside the algebra"):
        LieSubspace(so5(), (unit_matrix(5, 0, 1),))
    # combinations of basis matrices, repeated or not, lie inside
    e12, e21 = unit_matrix(3, 0, 1), unit_matrix(3, 1, 0)
    LieSubspace(sl(3), (e12 + e21, e12 + e21, e12.scale(3) - e21))


def test_closure_examples():
    alg = sl(3)
    e12, e23 = unit_matrix(3, 0, 1), unit_matrix(3, 1, 2)
    assert len(subalgebra_closure(LieSubspace(alg, (e12,)))) == 1
    heis = subalgebra_closure(LieSubspace(alg, (e12, e23)))
    assert len(heis) == 3
    plane = LieSubspace(alg, (e12 + e23, unit_matrix(3, 1, 0) - unit_matrix(3, 2, 1)))
    assert len(subalgebra_closure(plane)) == 8


def _rref_closure(sub):
    """The bracket closure by Fraction RREF rounds, an independent reference:
    each round reduces the current rows with their brackets, and the rounds
    stop when the rank stops growing."""
    n = sub.algebra.matrix_size

    def reduce(rows):
        red, rk, _ = fraction_rref(Matrix.from_rows(rows))
        return [list(red.row(i)) for i in range(rk)]

    rows = reduce([list(m.entries) for m in sub.spanning])
    while True:
        mats = [Matrix(n, n, tuple(r)) for r in rows]
        new_rows = reduce(rows + [list(bracket(x, y).entries)
                                  for i, x in enumerate(mats) for y in mats[i + 1:]])
        if len(new_rows) == len(rows):
            return new_rows
        rows = new_rows


def _span_rank(mats):
    return fraction_rref(Matrix.from_rows([m.entries for m in mats]))[1]


def test_closure_matches_the_rref_reference():
    rng = random.Random(47)
    dims = set()
    for alg in (sl(3), so5()):
        for _ in range(15):
            spanning = []
            for _ in range(rng.randint(1, 3)):
                # sparse, so that the closures take many dimensions, not only all
                coefficients = [rng.choice((0,) * 9 + (1, -1, 2)) for _ in alg.basis]
                spanning.append(sum((b.scale(c) for b, c in zip(alg.basis, coefficients)),
                                    alg.basis[0].scale(0)))
            if rng.random() < 0.3:
                spanning.append(spanning[0].scale(-2))  # a dependent spanning matrix
            closure = subalgebra_closure(LieSubspace(alg, tuple(spanning)))
            k = len(closure)
            assert k == len(_rref_closure(LieSubspace(alg, tuple(spanning))))
            assert _span_rank(closure) == k
            assert _span_rank(closure + [bracket(x, y) for i, x in enumerate(closure)
                                         for y in closure[i + 1:]]) == k
            assert _span_rank(closure + spanning) == k
            dims.add((alg.name, k))
    assert len(dims) >= 6, dims


def test_no_span_question_builds_an_rref(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a span question built an RREF")

    rref = linalg.rref
    for name, module in list(sys.modules.items()):
        if name.startswith("polinv") and getattr(module, "rref", None) is rref:
            monkeypatch.setattr(module, "rref", refuse)
    assert linalg.rref is refuse
    assert certify_sl3()["result"] == "PASS"
    assert certify_so5()["result"] == "PASS"
    rng = random.Random(31)
    for n in range(1, 6):
        checked = 0
        while checked < 4:
            m = Matrix(n, n, tuple(Q(rng.randint(-5, 5), rng.randint(1, 3))
                                   for _ in range(n * n)))
            if fraction_rref(m)[1] < n:
                continue
            assert m @ linalg.inverse(m) == linalg.inverse(m) @ m == Matrix.identity(n)
            checked += 1
    # an order-3 rotation, not a signed permutation: `act` inverts it
    group = enumerate_group([Matrix.from_rows([[0, -1], [1, -1]])])
    assert group.order == 3
    action = DiagonalAction(group, VariableLayout(1, 2))
    p = parse_poly("x1^2 - x1*x2 + x2^2", action.layout)
    assert reynolds(p, action) == p
    assert reynolds(Poly.variable(action.layout, 0), action).is_zero()


def test_sl2_dimension_examples():
    assert [sl2_invariant_dimension((1,), (k,)) for k in range(1, 5)] == [0, 0, 0, 0]
    assert sl2_invariant_dimension((1, 1), (1, 1)) == 1
    assert sl2_invariant_dimension((2,), (2,)) == 1


def test_sl2_no_linear_invariants():
    for d in range(1, 5):
        assert sl2_invariant_dimension((d,), (1,)) == 0


def test_sl2_pair_invariant_is_the_determinant():
    # the unique bidegree (1,1) invariant of two linear forms a0 x + a1 y,
    # b0 x + b1 y is a0 b1 - a1 b0; check annihilation directly
    layout = VariableLayout(1, 4)
    a0, a1, b0, b1 = (Poly.variable(layout, i) for i in range(4))
    det = a0 * b1 - a1 * b0
    for rules in sl2_derivation_rules((1, 1)):
        image = Poly.zero(layout)
        for exps, c in det.terms():
            image = image + apply_derivation(rules, layout, exps) * c
        assert image.is_zero()


def test_sl2_rules_annihilate_the_r2_discriminant():
    # convention check: each of e, f, h kills c1^2 - 4*c0*c2 on R_2, while
    # some of them moves c0, so a broken sign or index convention shows here
    layout = VariableLayout(1, 3)
    c0, c1, c2 = (Poly.variable(layout, i) for i in range(3))
    disc = c1 * c1 - 4 * c0 * c2

    def apply_poly(rules, p):
        out = Poly.zero(layout)
        for exps, c in p.terms():
            out = out + apply_derivation(rules, layout, exps) * c
        return out

    rule_sets = sl2_derivation_rules((2,))
    assert all(apply_poly(rules, disc).is_zero() for rules in rule_sets)
    assert any(not apply_poly(rules, c0).is_zero() for rules in rule_sets)


def test_sl2_derivations_satisfy_bracket_relations():
    # [e, f] = h, [h, e] = 2e, [h, f] = -2f on all monomials of degree <= 3
    module = (2,)
    layout = VariableLayout(1, 3)
    rules_e, rules_f, rules_h = sl2_derivation_rules(module)

    def apply_poly(rules, p):
        out = Poly.zero(layout)
        for exps, c in p.terms():
            out = out + apply_derivation(rules, layout, exps) * c
        return out

    def monomials(max_deg):
        for i in range(max_deg + 1):
            for j in range(max_deg + 1 - i):
                for k in range(max_deg + 1 - i - j):
                    yield (i, j, k)

    for exps in monomials(3):
        mu = Poly.monomial(layout, exps)
        ef = apply_poly(rules_e, apply_poly(rules_f, mu))
        fe = apply_poly(rules_f, apply_poly(rules_e, mu))
        assert ef - fe == apply_poly(rules_h, mu)
        he = apply_poly(rules_h, apply_poly(rules_e, mu))
        eh = apply_poly(rules_e, apply_poly(rules_h, mu))
        assert he - eh == 2 * apply_poly(rules_e, mu)
        hf = apply_poly(rules_h, apply_poly(rules_f, mu))
        fh = apply_poly(rules_f, apply_poly(rules_h, mu))
        assert hf - fh == -2 * apply_poly(rules_f, mu)


def _dense_sl2_invariant_dimension(module, deg):
    """The joint kernel of e, f, h from a dense N x 3N Fraction matrix of the
    derivation images, reduced by the Fraction reference: the construction
    that the sparse integer rows of `kernel_sl2_invariant_dimension` replaced."""
    sizes = tuple(d + 1 for d in module)
    layout = VariableLayout(1, sum(sizes))
    monos = monomials(sizes, deg)
    index = {e: i for i, e in enumerate(monos)}
    rows = []
    for e in monos:
        row = []
        for rules in sl2_derivation_rules(module):
            vec = [0] * len(monos)
            for exps, c in apply_derivation(rules, layout, e).terms():
                vec[index[exps]] = c
            row.extend(vec)
        rows.append(row)
    return len(monos) - fraction_rref(Matrix.from_rows(rows))[1]


CLASSICAL_SL2_COUNTS = [
    ((3,), (4,), 1),            # the discriminant of the binary cubic
    ((4,), (6,), 2),            # I^3, J^2 of the binary quartic
    ((4,), (8,), 2),            # I^4, I J^2
    ((6,), (6,), 3),            # the three sextic invariants of degree 6
    ((2, 2), (2, 2), 2),        # disc(f) disc(g) and the square of the joint invariant
    ((1, 1, 1, 1), (1, 1, 1, 1), 2),  # three pairings, one Pluecker relation
]


@pytest.mark.parametrize("module,deg,dim", CLASSICAL_SL2_COUNTS)
def test_sl2_classical_invariant_counts(module, deg, dim):
    assert sl2_invariant_dimension(module, deg) == dim


def test_sl2_weight_count_matches_the_kernel_reference():
    cases = [((d,), (k,)) for d in range(1, 7) for k in range(9)]
    cases += [(module, (a, b)) for module in ((1, 1), (2, 1), (2, 2), (3, 1))
              for a in range(5) for b in range(5)]
    cases += [(module, (a, b, c)) for module in ((1, 1, 1), (2, 2, 2))
              for a in range(4) for b in range(a, 4) for c in range(b, 4)]
    # the largest, R_6 in degree 8, has C(14, 6) = 3003 monomials
    assert max(count_monomials(tuple(d + 1 for d in module), deg)
               for module, deg in cases) == 3003
    for module, deg in cases:
        assert sl2_invariant_dimension(module, deg) == \
            kernel_sl2_invariant_dimension(module, deg), (module, deg)


def test_no_dimension_count_runs_an_elimination(monkeypatch):
    d4 = DiagonalAction(builtin_family("D", 4), VariableLayout(2, 4))

    def refuse(*args, **kwargs):
        raise AssertionError("a dimension count ran an elimination")

    echelon = linalg._echelon
    for name, module in list(sys.modules.items()):
        if name.startswith("polinv") and getattr(module, "_echelon", None) is echelon:
            monkeypatch.setattr(module, "_echelon", refuse)
    assert liealg._echelon is refuse
    assert [sl2_invariant_dimension((1,), (k,)) for k in range(1, 5)] == [0, 0, 0, 0]
    assert sl2_invariant_dimension((1, 1), (1, 1)) == 1
    assert sl2_invariant_dimension((2,), (2,)) == 1
    for module, deg, dim in CLASSICAL_SL2_COUNTS:
        assert sl2_invariant_dimension(module, deg) == dim
    assert invariant_dimension(d4, (3, 3)) == 10


def test_sl2_dimension_matches_the_dense_reference():
    cases = [((d,), (k,)) for d in range(1, 5) for k in range(1, 6)]
    cases += [((1, 1), (a, b)) for a in range(3) for b in range(3)]
    cases += [((2, 1), (2, 2)), ((2, 2), (1, 1)), ((3, 1), (1, 3)), ((1, 1, 1), (1, 1, 2))]
    for module, deg in cases:
        assert sl2_invariant_dimension(module, deg) == \
            _dense_sl2_invariant_dimension(module, deg), (module, deg)


def test_sl2_dimension_cap():
    with pytest.raises(CapExceededError):
        sl2_invariant_dimension((3,), (8,), Caps(monomials=10))


def test_so5_trace_invariants():
    tr2, tr4 = so5_trace_invariants()
    assert tr2.total_degree() == 2 and tr4.total_degree() == 4
    point = [0] * 10
    point[0] = 1  # the matrix E12 - E21
    assert tr2.evaluate(point) == -2
    assert tr4.evaluate(point) == 2


def _triple_loop(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_so5_trace_invariants_at_random_integer_points():
    tr2, tr4 = so5_trace_invariants()
    above = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    rng = random.Random(57)
    for _ in range(20):
        point = [rng.randint(-6, 6) for _ in range(10)]
        a = [[0] * 5 for _ in range(5)]
        for x, (i, j) in zip(point, above):
            a[i][j], a[j][i] = x, -x
        assert tr2.evaluate(point) == -2 * sum(x * x for x in point)
        a2 = _triple_loop(a, a)
        a4 = _triple_loop(a2, a2)
        assert tr4.evaluate(point) == sum(a4[i][i] for i in range(5))


def test_so5_pol2_generator_list():
    gens = so5_pol2_generators()
    assert len(gens) == 8
    assert tuple(p.multidegree() for p in gens) == SO5_POL2_BIDEGREES
    # setting C = B turns tr(BC) into tr(B^2)
    layout = gens[0].layout
    images = {10 + k: Poly.variable(layout, k) for k in range(10)}
    assert gens[1].substitute(images) == gens[0].substitute({0: Poly.variable(layout, 0)})


def test_so5_polarization_consistency():
    # the components of the polarized traces match the generators with the
    # multinomial coefficients of the formal expansion
    tr2, tr4 = so5_trace_invariants()
    gens = so5_pol2_generators()
    pol2 = polarize(tr2, 2)
    pol4 = polarize(tr4, 2)
    assert pol2[(2, 0)] == gens[0]
    assert pol2[(1, 1)] == 2 * gens[1]
    assert pol2[(0, 2)] == gens[2]
    assert pol4[(4, 0)] == gens[3]
    assert pol4[(3, 1)] == 4 * gens[4]
    assert pol4[(2, 2)] == 2 * gens[5]
    assert pol4[(1, 3)] == 4 * gens[6]
    assert pol4[(0, 4)] == gens[7]


def test_jacobian_rank_examples():
    L = VariableLayout(1, 2)
    x, y = Poly.variable(L, 0), Poly.variable(L, 1)
    assert jacobian_rank([x ** 2, y ** 2], (1, 1)) == 2
    assert jacobian_rank([x, 2 * x], (3, 5)) == 1
    assert jacobian_rank([p.derivative(0) for p in [y]], (1, 1)) == 0
    with pytest.raises(ValueError):
        jacobian_rank([x], (1, 2, 3))


def test_jacobian_rank_bounded():
    gens = so5_pol2_generators()
    rng = random.Random(55)
    for _ in range(3):
        point = [rng.randint(-9, 9) for _ in range(20)]
        assert jacobian_rank(gens, point) <= 8


def _jacobian_rank_reference(polys, point):
    """Rank of [d p / d x_j (point)] from `derivative().evaluate()` and the
    Fraction RREF."""
    rows = [[p.derivative(j).evaluate(point) for j in range(p.layout.total)] for p in polys]
    return fraction_rref(Matrix.from_rows(rows))[1]


def test_jacobian_rank_matches_the_derivative_reference():
    rng = random.Random(77)
    L = VariableLayout(2, 2)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            e = tuple(rng.randint(0, 3) for _ in range(L.total))
            terms[e] = Q(rng.randint(-6, 6), rng.randint(1, 5))
        return Poly(L, terms)

    def rand_point():
        return [rng.choice((0, rng.randint(-4, 4), Q(rng.randint(-9, 9), rng.randint(1, 7))))
                for _ in range(L.total)]

    ranks = set()
    for _ in range(60):
        point = rand_point()
        polys = [rand_poly() for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.4:  # a product: its gradient lies in the span of the others
            polys.append(polys[0] * polys[-1])
        if rng.random() < 0.4:
            # (x_j - a_j)(x_k - a_k) q vanishes to second order at the point a,
            # so its gradient there is zero
            j, k = rng.randrange(L.total), rng.randrange(L.total)
            shifted = [Poly.variable(L, v) - point[v] for v in (j, k)]
            polys.append(shifted[0] * shifted[1] * (rand_poly() + 1))
        want = _jacobian_rank_reference(polys, point)
        assert jacobian_rank(polys, point) == want, (polys, point)
        ranks.add(want)
    assert ranks == {0, 1, 2, 3, 4}
    gens = so5_pol2_generators()
    point = [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(20)]
    assert any(x.denominator > 1 for x in point)
    assert jacobian_rank(gens, point) == _jacobian_rank_reference(gens, point) == 8


def test_orbit_dimension_examples():
    alg2 = sl(2)
    h = Matrix.from_rows([[1, 0], [0, -1]])
    assert generic_orbit_dimension(alg2, (h,)) == 2
    zero = Matrix.from_rows([[0, 0], [0, 0]])
    assert generic_orbit_dimension(alg2, (zero,)) == 0
    rng = random.Random(56)
    alg5 = so5()
    a1 = random_algebra_element(alg5, rng)
    a2 = random_algebra_element(alg5, rng)
    assert generic_orbit_dimension(alg5, (a1, a2)) <= 10


def _fraction_product(a, b):
    n = a.rows
    return [[sum((a.at(i, k) * b.at(k, j) for k in range(n)), Q(0)) for j in range(n)]
            for i in range(n)]


def _fraction_bracket(a, b):
    # ab - ba by a Fraction triple loop, sharing no code with `Matrix @`
    return Matrix.from_rows([[x - y for x, y in zip(r, s)]
                             for r, s in zip(_fraction_product(a, b), _fraction_product(b, a))])


def _rational_matrix(rng, n):
    return Matrix(n, n, tuple(Q(rng.randint(-7, 7), rng.choice((1, 2, 3, 12, 35, 2 ** 40)))
                              for _ in range(n * n)))


def test_bracket_matches_the_fraction_commutator():
    rng = random.Random(2628)
    for case in range(80):
        n = 1 + case % 5
        a, b = _rational_matrix(rng, n), _rational_matrix(rng, n)
        if case % 7 == 0:
            b = Matrix(n, n, (Q(0),) * (n * n))
        got = bracket(a, b)
        assert got == _fraction_bracket(a, b)
        assert all(type(x) is Q for x in got.entries)
    assert bracket(Matrix(0, 0, ()), Matrix(0, 0, ())) == Matrix(0, 0, ())
    with pytest.raises(ValueError, match="square matrices of equal size"):
        bracket(Matrix.identity(2), Matrix.identity(3))


def test_orbit_dimension_matches_the_rank_of_its_fraction_rows():
    rng = random.Random(2629)
    checked = set()
    for alg in (sl(2), sl(3), so5()):
        n = alg.matrix_size
        for case in range(6):
            point = [_rational_matrix(rng, n) for _ in range(1 + case % 3)]
            if case == 0:
                point = [random_algebra_element(alg, rng), Matrix(n, n, (Q(0),) * (n * n))]
            rows = [[x for a in point for x in _fraction_bracket(b, a).entries]
                    for b in alg.basis]
            want = fraction_rref(Matrix.from_rows(rows))[1]
            assert generic_orbit_dimension(alg, point) == want
            checked.add(want)
    assert len(checked) >= 3
    with pytest.raises(ValueError, match="square matrices of equal size"):
        generic_orbit_dimension(sl(2), (Matrix.identity(3),))


def test_random_algebra_element_matches_the_fraction_sum():
    half, third = Q(1, 2), Q(2, 3)
    e12, e21 = unit_matrix(2, 0, 1).scale(half), unit_matrix(2, 1, 0).scale(third)
    scaled_sl2 = LieAlgebraBasis("sl_2 scaled", 2, (e12, e21, bracket(e12, e21)))
    for alg in (sl(3), so5(), scaled_sl2):
        n = alg.matrix_size
        for seed in range(5):
            rng, ref = random.Random(seed), random.Random(seed)
            want = Matrix(n, n, (Q(0),) * (n * n))
            for b in alg.basis:
                want = want + b.scale(ref.randint(-9, 9))
            got = random_algebra_element(alg, rng)
            assert got == want
            assert all(type(x) is Q for x in got.entries)
            assert rng.random() == ref.random()


def test_combination_is_the_hand_typed_symbolic_matrix():
    # the sl3 plane a*A + b*B and the generic skew matrix of so5, typed out;
    # an entry no basis matrix touches is the int 0, not a zero Poly
    L = VariableLayout(1, 2)
    a, b = Poly.variable(L, 0), Poly.variable(L, 1)
    A = unit_matrix(3, 0, 1) + unit_matrix(3, 1, 2)
    B = unit_matrix(3, 1, 0) - unit_matrix(3, 2, 1)
    plane = liealg._combination([a, b], (A, B))
    assert plane == [[0, a, 0], [b, 0, a], [0, -b, 0]]
    assert [type(x) for x in plane[0]] == [int, Poly, int]
    L = VariableLayout(1, 10)
    xs = [Poly.variable(L, k) for k in range(10)]
    skew = liealg._combination(xs, liealg._so5_basis())
    positions = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert skew == [[0 if i == j else xs[positions.index((i, j))] if i < j
                     else -xs[positions.index((j, i))] for j in range(5)] for i in range(5)]
    # rational coefficients give the Fraction sum
    assert liealg._combination([Q(1, 2), 3], (A, B)) == [[0, Q(1, 2), 0], [3, 0, Q(1, 2)],
                                                         [0, -3, 0]]


def test_certify_sl3():
    report = certify_sl3()
    assert report["result"] == "PASS"
    assert report["closure_dimension"] == 8


def test_certify_so5():
    report = certify_so5()
    assert report["result"] == "PASS"
    assert report["polarization_index"] == 1
    assert all(r <= 8 for r in report["jacobian_ranks"])
    assert max(report["orbit_dimensions"]) == 10


def test_certify_sl2_r1():
    report = certify_sl2_r1()
    assert report["result"] == "PASS"
    assert report["single_copy_dims"] == [0, 0, 0, 0]
    assert report["two_copy_dim_bidegree_1_1"] == 1
