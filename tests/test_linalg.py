import hashlib
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from polinv import linalg
from polinv.groups import DiagonalAction, builtin_family, invariant_dimension
from polinv.limits import Caps
from polinv.linalg import (Matrix, _echelon, inverse, mat_mul, power_traces, rank, rref,
                           solve_in_span, strict_positive_functional)
from polinv.nullcone import brute_box_functional
from polinv.polarization import (_digit_width, _packed, _products_for_target,
                                 classical_generators, copies_layout, embed_in_copies,
                                 polarization_generators, wallach_operator)
from polinv.poly import Poly, VariableLayout

from fraction_rref import fraction_rref


def test_rref_identity():
    red, rk, pivots = rref(Matrix.identity(3))
    assert rk == 3
    assert pivots == [0, 1, 2]
    assert red == Matrix.identity(3)


def test_rref_proportional_rows():
    _, rk, _ = rref(Matrix.from_rows([[1, 2], [2, 4]]))
    assert rk == 1


def test_rref_full_rank_2x2():
    _, rk, _ = rref(Matrix.from_rows([[1, 2], [3, 4]]))
    assert rk == 2


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(101)
    for _ in range(25):
        rows = [[Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
                for _ in range(3)]
        red, rk, pivots = rref(Matrix.from_rows(rows))
        red2, rk2, pivots2 = rref(red)
        assert red2 == red and rk2 == rk and pivots2 == pivots


def test_rank_equals_rank_of_transpose():
    rng = random.Random(202)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        mat = Matrix.from_rows(rows)
        assert rank(mat) == rank(mat.transpose())


def _random_matrix(rng, rows, cols):
    return Matrix.from_rows([[Q(rng.randint(-6, 6), rng.randint(1, 5))
                              if rng.random() < 0.7 else Q(0) for _ in range(cols)]
                             for _ in range(rows)])


RREF_EDGE_CASES = [
    Matrix(0, 0, ()),
    Matrix(0, 4, ()),
    Matrix(3, 0, ()),
    Matrix.from_rows([[0, 0, 0], [0, 0, 0]]),
    Matrix.from_rows([[0, "1/2", 3], [0, "1/2", 3], [1, 0, 0], [0, "1/2", 3]]),
    Matrix.from_rows([[2 ** 200 + 1, -(3 ** 126), Q(1, 2 ** 199)],
                      [Q(5 ** 86, 7), 2 ** 201, -1],
                      [3 ** 127, Q(-(2 ** 200), 3), 2 ** 200 - 1]]),
    Matrix.from_rows([[2 ** 200, 2 ** 201], [-(2 ** 200), -(2 ** 201)]]),
    Matrix.from_rows([[0, 2, 0, -1, 3, 0, 1], [1, 0, 0, 5, 0, "1/3", 0]]),
    Matrix.from_rows([[1, 2], [3, 4], [0, 0], [5, 6], [-1, "1/2"], [7, 7], [2, 4]]),
    Matrix.from_rows([[0, 1, 0, 0, 2], [0, 3, 0, 0, -1], [0, -2, 0, 0, 4]]),
    Matrix.from_rows([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0], [1, 3, 4, 4]]),
    # [m | I] as `inverse` builds it, for an invertible and a singular m
    Matrix.from_rows([[2, 1, 0, 1, 0, 0], [1, 3, "1/2", 0, 1, 0], [0, 1, 1, 0, 0, 1]]),
    Matrix.from_rows([[1, 0, 1, 1, 0, 0], [1, 1, 2, 0, 1, 0], [0, 1, 1, 0, 0, 1]]),
]


@pytest.mark.parametrize("m", RREF_EDGE_CASES,
                         ids=["0x0", "0x4", "3x0", "zero", "duplicate-rows",
                              "2^200-entries", "2^200-rank-1", "wide", "tall",
                              "zero-columns", "rank-deficient", "augmented-m-I",
                              "augmented-singular-m-I"])
def test_rref_matches_the_fraction_reference_on_edge_cases(m):
    assert rref(m) == fraction_rref(m)


def test_rref_matches_the_fraction_reference_on_random_matrices():
    rng = random.Random(707)
    for _ in range(300):
        m = _random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7))
        if m.rows > 1 and rng.random() < 0.4:
            # a row that depends on the others
            rows = m.to_rows()
            c = Q(rng.randint(-3, 3), rng.randint(1, 3))
            rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
            m = Matrix.from_rows(rows)
        assert rref(m) == fraction_rref(m), m


def _echelon_reference(vectors, dim):
    """Kept indices and relations read off `fraction_rref` of the matrix whose
    columns are the vectors: the pivot columns, and for each other column j
    its nonzero RREF entries keyed by pivot column."""
    red, _, pivots = fraction_rref(Matrix(dim, len(vectors), tuple(
        v[i] for i in range(dim) for v in vectors)))
    relations = {j: {p: red.at(r, j) for r, p in enumerate(pivots) if red.at(r, j)}
                 for j in range(len(vectors)) if j not in pivots}
    return pivots, relations


def _draw_system(draw):
    """Integer rows (lists of one length) and positive scales: some rows
    depend on two earlier ones, some columns repeat an earlier one times 1,
    -1 or 2.  `_echelon` drops the first two kinds of repeat and keeps the
    factor-2 copy, so both paths are exercised."""
    n_rows, dim = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.sampled_from([1, -1]),
                      st.integers(-7, 7), st.integers(-2 ** 70, 2 ** 70))
    rows = []
    for j in range(n_rows):
        if j >= 2 and draw(st.booleans()):
            # a row that depends on two earlier ones
            a, b = draw(st.integers(0, j - 1)), draw(st.integers(0, j - 1))
            ca, cb = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([ca * x + cb * y for x, y in zip(rows[a], rows[b])])
        else:
            rows.append([draw(entry) for _ in range(dim)])
    for c in range(1, dim):
        if draw(st.integers(0, 3)) == 0:
            # a column that repeats an earlier one, up to a factor
            src, f = draw(st.integers(0, c - 1)), draw(st.sampled_from([1, -1, 2]))
            for row in rows:
                row[c] = f * row[src]
    scales = [draw(st.integers(1, 6)) for _ in rows]
    return rows, scales, dim


def _relations(rows, scales, order=None):
    """(kept, relations) of `_echelon` on sparse copies of integer rows, its
    columns renamed by `order`: `relation(j)` is asked for every j, and it
    must be None exactly for the kept j."""
    order = order or range(len(rows[0]) if rows else 0)
    kept, relation = _echelon([({order[c]: x for c, x in enumerate(row) if x}, s)
                               for row, s in zip(rows, scales)])
    answers = [relation(j) for j in range(len(rows))]
    assert [j for j, answer in enumerate(answers) if answer is None] == kept
    return kept, {j: answer for j, answer in enumerate(answers) if answer is not None}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_echelon_pivot_choice_changes_no_kept_row_or_relation(data):
    rows, scales, dim = _draw_system(data.draw)
    vectors = [[Q(x, s) for x in row] for row, s in zip(rows, scales)]
    expected = _echelon_reference(vectors, dim)
    assert _relations(rows, scales) == expected
    assert _relations(rows, scales, data.draw(st.permutations(range(dim)))) == expected


def test_relation_of_a_kept_row_is_none():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2}, {1: 3}, {}]
    kept, relation = _echelon(zip(rows, [1, 3, 1, 1]))
    assert kept == [0, 2]
    assert relation(0) is None and relation(2) is None
    # v_1 = (1/3, 2/3) = v_0 / 6, and the zero row is the empty combination
    assert relation(1) == {0: Q(1, 6)} and relation(3) == {}


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_relations_do_no_row_arithmetic(data):
    # every row step is one `_sub_scaled` call and is logged; reading the
    # relations back from the logs calls it no more
    rows, scales, _ = _draw_system(data.draw)
    calls = []
    sub_scaled = linalg._sub_scaled
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_sub_scaled", lambda *args: calls.append(1) or sub_scaled(*args))
        kept, relation = _echelon([({c: x for c, x in enumerate(row) if x}, s)
                                   for row, s in zip(rows, scales)])
        # four ints (t, a, b, h) a step, and one content step per kept row
        steps = sum(len(log) for log in relation.args[2]) // 4 - len(kept)
        assert len(calls) == steps
        for j in range(len(rows)):
            relation(j)
        assert len(calls) == steps


def _sign_classes(rows):
    """{(row indices, entries up to sign): first column} of sparse rows, the
    columns met row by row: one entry per column class up to sign."""
    columns = {}
    for j, row in enumerate(rows):
        for c, x in row.items():
            columns.setdefault(c, []).append((j, x))
    classes = {}
    for c, column in columns.items():
        sign = 1 if column[0][1] > 0 else -1
        classes.setdefault(tuple((j, sign * x) for j, x in column), c)
    return classes


def test_echelon_drops_only_columns_equal_up_to_one_sign():
    # column 1 is -column 0 and is dropped; column 2 matches column 0 only
    # entry by entry up to sign, and column 3 is 2*column 0: both stay
    rows = [{0: 1, 1: -1, 2: 1, 3: 2}, {0: 2, 1: -2, 2: -2, 3: 4}, {0: 3, 1: -3, 2: 3, 3: 6}]
    kept, relation = _echelon(zip(rows, [1, 1, 1]))
    assert (kept, relation(2)) == ([0, 1], {0: Q(3)})
    assert rows[0] == {0: 1, 2: 1, 3: 2} and rows[2] == {}
    assert 1 not in rows[1]


def test_polarization_product_columns_repeat_along_orbits():
    # the generator products are D_4-invariant, so their columns repeat up
    # to sign along each monomial orbit: one class per orbit sum, and as
    # many classes as invariants of the degree
    group = builtin_family("D", 4)
    gens = polarization_generators(classical_generators("D", 4), 2, group=group)
    action = DiagonalAction(group, copies_layout(4, 2))
    caps = Caps(span_products=10 ** 6, monomials=10 ** 6)
    for target, n_columns, n_classes in (((3, 3), 100, 10), ((4, 4), 313, 26),
                                         ((5, 3), 280, 22), ((6, 6), 1776, 111)):
        rows = [terms for _, terms, _ in _products_for_target(gens, target, caps)]
        assert len(set().union(*rows)) == n_columns
        assert len(_sign_classes(rows)) == n_classes == invariant_dimension(action, target)


def test_echelon_pins_the_dm_square_certificate_system():
    # w^2 at bidegree (6,6) against the 154 products of the D_4 polarizations
    invs = classical_generators("D", 4)
    gens = polarization_generators(invs, 2, group=builtin_family("D", 4))
    square = wallach_operator(3, embed_in_copies(invs[3], 2)) ** 2
    products = _products_for_target(gens, (6, 6), Caps(span_products=10 ** 6, monomials=10 ** 6))
    f_terms, f_scale = _packed(square, _digit_width((6, 6)))
    rows = [terms for _, terms, _ in products] + [f_terms]
    scales = [scale for _, _, scale in products] + [f_scale]
    first = set(_sign_classes(rows).values())
    kept, relation = _echelon(zip(rows, scales))
    # the repeated columns were dropped from the input dicts themselves, so
    # the reduced rows hold only the first column of each sign class
    assert len(first) == 111
    assert set().union(*rows) <= first
    certificate = relation(len(products))
    assert (len(products), len(kept), len(certificate)) == (154, 111, 42)
    # the 42 certificate coefficients, as "index:coefficient" joined by ";"
    text = ";".join(f"{j}:{c}" for j, c in sorted(certificate.items()))
    assert text.startswith("5:1/120;6:-16/675;7:5/54;")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d6c1d8f0460f5cd0e953aca371b240da8d8fde0c9de727535dc9cab17b3cb5e3")


def test_inverse_roundtrip():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m @ inverse(m) == Matrix.identity(2)
    with pytest.raises(ValueError):
        inverse(Matrix.from_rows([[1, 2], [2, 4]]))
    # the two [m | I] edge cases above
    m = Matrix.from_rows([[2, 1, 0], [1, 3, "1/2"], [0, 1, 1]])
    assert m @ inverse(m) == Matrix.identity(3)
    with pytest.raises(ValueError):
        inverse(Matrix.from_rows([[1, 0, 1], [1, 1, 2], [0, 1, 1]]))


def test_inverse_of_random_invertible_matrices():
    rng = random.Random(808)
    for n in range(1, 7):
        checked = 0
        while checked < 6:
            m = _random_matrix(rng, n, n)
            if fraction_rref(m)[1] < n:
                continue
            inv = inverse(m)
            assert m @ inv == inv @ m == Matrix.identity(n)
            checked += 1


def test_inverse_of_rank_deficient_matrices_raises():
    rng = random.Random(909)
    for n in range(1, 7):
        rows = _random_matrix(rng, n, n).to_rows()
        if n == 1:
            rows = [[0]]
        else:
            c = Q(rng.randint(-3, 3), rng.randint(1, 3))
            rows[rng.randrange(1, n)] = [c * x for x in rows[0]]
        m = Matrix.from_rows(rows)
        assert fraction_rref(m)[1] < n
        with pytest.raises(ValueError):
            inverse(m)
    with pytest.raises(ValueError):
        inverse(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def _triple_loop(a, b, cols, zero):
    """(AB)_ij = sum over every k of a_ik b_kj: the reference for `mat_mul`."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(cols)]
            for i in range(len(a))]


def test_mat_mul_matches_a_triple_loop_on_rationals():
    rng = random.Random(41)
    for _ in range(200):
        r, k, c = (rng.randint(0, 4) for _ in range(3))
        density = rng.choice((0.0, 0.3, 0.7, 1.0))

        def entry():
            return Q(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else Q(0)

        a = [[entry() for _ in range(k)] for _ in range(r)]
        b = [[entry() for _ in range(c)] for _ in range(k)]
        if r:
            a[rng.randrange(r)] = [Q(0)] * k  # a zero row
        if c:
            j = rng.randrange(c)
            for row in b:
                row[j] = Q(0)  # a zero column
        expected = _triple_loop(a, b, c, Q(0))
        columns = [[b[t][j] for t in range(k)] for j in range(c)]
        assert mat_mul(a, columns) == expected
        a_matrix = Matrix(r, k, tuple(x for row in a for x in row))
        product = a_matrix @ Matrix(k, c, tuple(x for row in b for x in row))
        assert (product.rows, product.cols) == (r, c)
        assert product.to_rows() == expected
        assert all(type(x) is Q for x in product.entries)
        v = [entry() for _ in range(k)]
        image = a_matrix.matvec(v)
        assert list(image) == [row[0] for row in _triple_loop(a, [[x] for x in v], 1, Q(0))]
        assert all(type(x) is Q for x in image)


def test_mat_mul_keeps_the_shape_for_an_empty_inner_dimension():
    assert Matrix(2, 0, ()) @ Matrix(0, 3, ()) == Matrix(2, 3, (Q(0),) * 6)
    assert mat_mul([[], []], [(), (), ()]) == [[0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError):
        Matrix(2, 1, (Q(1), Q(2))) @ Matrix(2, 1, (Q(1), Q(2)))


def test_scaled_clears_every_denominator_by_their_lcm():
    ints = [3, -1, 0]
    assert linalg._scaled(ints) == (ints, 1)
    assert linalg._scaled(ints)[0] is ints  # ints pass as they are
    assert linalg._scaled((Q(1, 2), 3, "-2/3", Q(5, 4))) == ([6, 36, -8, 15], 12)
    assert linalg._scaled([Q(4), Q(-7)]) == ([4, -7], 1)
    assert linalg._scaled([]) == ([], 1)


def test_mat_mul_matches_a_triple_loop_on_polys():
    layout = VariableLayout(1, 3)
    zero = Poly.zero(layout)
    rng = random.Random(42)

    def entry():
        if rng.random() < 0.4:
            return zero
        return Poly(layout, {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-3, 3)
                             for _ in range(rng.randint(1, 3))})

    for _ in range(40):
        r, k, c = (rng.randint(0, 3) for _ in range(3))
        a = [[entry() for _ in range(k)] for _ in range(r)]
        b = [[entry() for _ in range(c)] for _ in range(k)]
        columns = [[b[t][j] for t in range(k)] for j in range(c)]
        assert mat_mul(a, columns) == _triple_loop(a, b, c, zero)


def test_power_traces_match_matrix_powers():
    rng = random.Random(31)
    for n in range(0, 6):
        m = Matrix.from_rows([[Q(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else 0
                               for _ in range(n)] for _ in range(n)])
        power, expected = m, []
        for _ in range(n):
            expected.append(sum((power.at(i, i) for i in range(n)), Q(0)))
            power = power @ m
        assert list(power_traces(m.to_rows())) == expected


def test_power_traces_on_polys_are_lazy():
    layout = VariableLayout(1, 2)
    a, b = Poly.variable(layout, 0), Poly.variable(layout, 1)
    z = Poly.zero(layout)
    traces = power_traces([[a, b], [b, z]])
    assert next(traces) == a
    assert next(traces) == a * a + b * b * 2
    assert next(traces, None) is None
    # rows that mix Polys and ints: the entries with no product are the int 0
    assert list(power_traces([[a, 1], [0, 0]])) == [a, a * a]


def test_solve_in_span_examples():
    assert solve_in_span([(1, 0)], (2, 0)) == [Q(2)]
    assert solve_in_span([(1, 0)], (0, 1)) is None
    assert solve_in_span([(1, 1), (1, -1)], (3, 1)) == [Q(2), Q(1)]
    # string entries are coerced before any zero entry is dropped
    assert solve_in_span([["0"]], ["1"]) is None
    assert solve_in_span([["0"]], ["0"]) == [Q(0)]
    assert solve_in_span([["0", "2"]], ["0", "1"]) == [Q(1, 2)]


def test_solve_in_span_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_in_span([(1, 0, 0)], (1, 0))


def test_solve_in_span_certificates_reconstruct():
    rng = random.Random(303)
    for _ in range(40):
        dim = rng.randint(1, 5)
        k = rng.randint(1, 4)
        basis = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(k)]
        coeffs = [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
        target = tuple(sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(dim))
        got = solve_in_span(basis, target)
        assert got is not None
        rebuilt = tuple(sum((c * v[i] for c, v in zip(got, basis)), Q(0))
                        for i in range(dim))
        assert rebuilt == target


def test_solve_in_span_uses_the_lex_first_independent_vectors():
    # (2, 0) depends on (1, 0), so its coefficient is the free coordinate
    assert solve_in_span([(1, 0), (2, 0), (0, 1)], (3, 1)) == [3, 0, 1]


def _rref_solve(basis, target):
    """Reference: the coefficients read off the RREF of [basis | target]."""
    k = len(basis)
    rows = [[basis[j][i] for j in range(k)] + [target[i]] for i in range(len(target))]
    red, _, pivots = fraction_rref(Matrix.from_rows(rows))
    if k in pivots:
        return None
    coeffs = [Q(0)] * k
    for r, c in enumerate(pivots):
        coeffs[c] = red.at(r, k)
    return coeffs


def _random_vectors(rng, dim, count):
    """Rational vectors with denominators, mixed with zero, repeated,
    proportional and combined vectors."""
    out = []
    for _ in range(count):
        kind = rng.randrange(5) if out else 0
        if kind == 0:
            v = [Q(rng.randint(-6, 6), rng.randint(1, 7)) if rng.random() < 0.7 else Q(0)
                 for _ in range(dim)]
        elif kind == 1:
            v = [Q(0)] * dim
        elif kind == 2:
            v = list(rng.choice(out))
        elif kind == 3:
            c = Q(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
            v = [c * x for x in rng.choice(out)]
        else:
            a, b = rng.choice(out), rng.choice(out)
            c = Q(rng.randint(-4, 4), rng.randint(1, 3))
            v = [x + c * y for x, y in zip(a, b)]
        out.append(v)
    return out


def test_solve_in_span_and_rank_match_the_rref_reference():
    rng = random.Random(606)
    found = missing = 0
    for _ in range(400):
        dim = rng.randint(1, 6)
        basis = _random_vectors(rng, dim, rng.randint(0, 7))
        if basis and rng.random() < 0.6:
            target = _random_vectors(rng, dim, 1)[0]
            coeffs = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis]
            target = [sum((c * v[i] for c, v in zip(coeffs, basis)), Q(0))
                      for i in range(dim)]
        elif rng.random() < 0.2:
            target = [Q(0)] * dim
        else:
            target = _random_vectors(rng, dim, 1)[0]
        got = solve_in_span(basis, target)
        assert got == _rref_solve(basis, target), (basis, target)
        found += got is not None
        missing += got is None
        if basis:
            mat = Matrix.from_rows(basis)
            assert rank(mat) == fraction_rref(mat)[1]
            assert rank(mat.transpose()) == fraction_rref(mat)[1]
    assert found > 100 and missing > 50


def test_strict_positive_functional_positive_orthant():
    gamma = strict_positive_functional([(1, 0), (0, 1)])
    assert gamma is not None
    for p in [(1, 0), (0, 1)]:
        assert sum(g * x for g, x in zip(gamma, p)) > 0


def test_strict_positive_functional_opposite_points():
    assert strict_positive_functional([(1, -1), (-1, 1)]) is None


def test_strict_positive_functional_direct_check():
    points = [(2, -1), (-1, 2)]
    gamma = strict_positive_functional(points)
    assert gamma is not None
    assert all(sum(g * x for g, x in zip(gamma, p)) > 0 for p in points)
    # (1, 1) itself is a valid functional with values 1, 1
    assert all(sum(g * x for g, x in zip((1, 1), p)) == 1 for p in points)


def test_strict_positive_functional_empty_convention():
    assert strict_positive_functional([], dim=3) == (1, 1, 1)


def test_strict_positive_functional_zero_weight_infeasible():
    assert strict_positive_functional([(0, 0)]) is None


# gamma, not only its existence, is part of the contract: `nullcone torus`
# prints it.  These values were computed by the Fraction Fourier-Motzkin
# elimination that the integer one replaced; the midpoint, lo + 1 and hi - 1
# choices depend only on the cone at each level, so they must not move.
PINNED_COCHARACTERS = [
    ([(2,), (3,), (5,)], (1,)),
    ([(1,), (-1,)], None),
    ([(1, 0), (0, 1)], (1, 1)),
    ([(1, 2), (2, 4), (1, 2), (-1, 1), (3, -1), (-3, 3)], (1, 2)),
    ([("1/2", "1/3"), (-1, 2), (Q(3, 4), "-1/5")], (8, 17)),
    ([(1, 0), (0, 0), (0, 1)], None),
    ([(1, -2, 3), (-2, 1, 1), (1, 1, -1), (0, 3, -2)], (0, 6, 5)),
    ([(3, -1, 0), (-1, 3, 0), (1, 1, -1), (1, 1, 4), (-2, 1, 1)], (4, 7, 6)),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], None),
    ([(1, 2, -1, 0), (-1, 0, 2, 1), (0, -1, 1, 2), (2, 1, 0, -1), (1, -1, 1, 1)],
     (0, 2, 2, 1)),
    ([("1/2", -1, "2/3", -1), (-1, "3/7", 1, "1/5"), (1, 1, -2, "1/3"),
      (0, "-1/2", 1, 1), ("2/5", 1, 0, "-1/4")], (409920, 422320, 342246, -60141)),
    ([(1, -1, 2, 0), (-2, 1, 0, 1), (1, 0, -2, -1), (0, 0, 0, 1), (0, 0, 0, -1)], None),
]


@pytest.mark.parametrize("points, gamma", PINNED_COCHARACTERS)
def test_strict_positive_functional_pinned_cocharacters(points, gamma):
    assert strict_positive_functional(points) == gamma


def test_strict_positive_functional_matches_brute_force():
    # desk-scale completeness: agreement with exhaustive integer search
    # (the +-20 box is large enough at this entry range and dimension)
    rng = random.Random(404)
    for _ in range(150):
        dim = rng.randint(1, 3)
        npts = rng.randint(1, 6)
        points = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(npts)]
        gamma = strict_positive_functional(points, dim=dim)
        brute = brute_box_functional(points, dim, bound=20)
        assert (gamma is None) == (brute is None), points
        if gamma is not None:
            assert all(sum(g * x for g, x in zip(gamma, p)) > 0 for p in points)


def test_strict_positive_functional_higher_dimensions_one_sided():
    # in dimensions 4 and 5 the minimal integer witness can leave any fixed
    # box, so check soundness both ways instead of box agreement: a returned
    # functional must validate, and on infeasible instances the box search
    # must come up empty
    rng = random.Random(505)
    for _ in range(120):
        dim = rng.randint(4, 5)
        npts = rng.randint(2, 8)
        points = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(npts)]
        gamma = strict_positive_functional(points, dim=dim)
        brute = brute_box_functional(points, dim, bound=6)
        if gamma is None:
            assert brute is None, points
        else:
            assert all(sum(g * x for g, x in zip(gamma, p)) > 0 for p in points)
