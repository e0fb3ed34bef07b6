import itertools
import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from polinv import nullcone
from polinv.linalg import Matrix, strict_positive_functional
from polinv.poly import Poly, VariableLayout
from polinv.nullcone import (BinaryForm, SubspaceSpec, WeightSystem,
                             binary_form_nullcone_member, binary_nullcone_witness,
                             brute_box_functional, certify_torus, matrix_nilpotent,
                             span_probe_nullcone, subspace_in_common_vgamma,
                             torus_nullcone_member, v_gamma)

from bivariate_gcd import reference_binary_witness
from box_reference import prefix_scan_box_functional

WS1 = WeightSystem(1, ((1,), (1,), (-1,)))


def test_torus_member_examples():
    gamma = torus_nullcone_member(WS1, (1, 1, 0))
    assert gamma is not None and gamma[0] > 0
    assert torus_nullcone_member(WS1, (1, 0, 1)) is None
    assert torus_nullcone_member(WS1, (0, 0, 0)) == (1,)
    with pytest.raises(ValueError):
        torus_nullcone_member(WS1, (1, 0))


def test_v_gamma_examples():
    assert v_gamma(WS1, (1,)) == (0, 1)
    assert v_gamma(WS1, (-1,)) == (2,)
    assert v_gamma(WS1, (0,)) == ()


def test_returned_gamma_puts_vector_in_positive_part():
    rng = random.Random(41)
    for _ in range(50):
        tr = rng.randint(1, 3)
        ws = WeightSystem(tr, tuple(tuple(rng.randint(-3, 3) for _ in range(tr))
                                    for _ in range(rng.randint(1, 6))))
        v = tuple(rng.choice([0, 0, 1, -2, 3]) for _ in range(ws.coordinates))
        gamma = torus_nullcone_member(ws, v)
        if gamma is not None:
            pos = set(v_gamma(ws, gamma))
            support = {i for i, x in enumerate(v) if x != 0}
            assert support <= pos


def test_subspace_examples():
    ws = WeightSystem(2, ((1, 0), (0, 1)))
    gamma = subspace_in_common_vgamma(ws, SubspaceSpec(2, ((1, 0), (0, 1))))
    assert gamma is not None
    ws2 = WeightSystem(1, ((1,), (1,), (-1,)))
    assert subspace_in_common_vgamma(ws2, SubspaceSpec(3, ((1, 0, 0), (0, 0, 1)))) is None


def test_subspace_matches_brute_force():
    rng = random.Random(42)
    for _ in range(40):
        tr = rng.randint(1, 3)
        ws = WeightSystem(tr, tuple(tuple(rng.randint(-3, 3) for _ in range(tr))
                                    for _ in range(rng.randint(2, 6))))
        v1 = tuple(rng.choice([0, 1, -1, 2]) for _ in range(ws.coordinates))
        v2 = tuple(rng.choice([0, 1, -1, 2]) for _ in range(ws.coordinates))
        L = SubspaceSpec(ws.coordinates, (v1, v2))
        gamma = subspace_in_common_vgamma(ws, L)
        union_support = [w for v in (v1, v2)
                         for x, w in zip(v, ws.weights) if x != 0]
        brute = brute_box_functional(sorted(set(union_support)), tr, bound=20)
        assert (gamma is None) == (brute is None)


def test_brute_box_deterministic_and_exact():
    assert brute_box_functional([(1, 0), (0, 1)], 2) == (1, 1)
    assert brute_box_functional([(1, -1), (-1, 1)], 2) is None
    assert brute_box_functional([], 3) == (1, 1, 1)
    # entries of any size are exact Python integers, with no fixed-width wrap
    assert brute_box_functional([(2 ** 60, 1), (-2 ** 60, 1)], 2) == (0, 1)
    assert brute_box_functional([(2 ** 59, -1)], 2) == (0, -20)
    assert brute_box_functional([(2 ** 70, 1)], 2) == (0, 1)
    with pytest.raises(ValueError, match="dimension must be positive"):
        brute_box_functional([()], 0)
    with pytest.raises(ValueError, match="box bound must be non-negative"):
        brute_box_functional([(1, 0)], 2, bound=-1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        brute_box_functional([(1, 0), (1,)], 2)


def test_brute_box_reads_rational_points_exactly():
    # int(1/2) would read the point as 0 and find no functional
    assert brute_box_functional([(Q(1, 2),)], 1) == (1,)
    assert strict_positive_functional([(Q(1, 2),)]) == (1,)
    points = [(Q(1, 2), Q(-1, 3)), (Q(-1, 3), Q(1, 2))]
    assert strict_positive_functional(points) == (12, 13)
    assert brute_box_functional(points, 2) == (1, 1)
    rng = random.Random(1919)
    for case in range(200):
        dim = rng.randint(1, 3)
        points = [tuple(Q(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(dim))
                  for _ in range(rng.randint(1, 4))]
        # each point times the product of its denominators: a positive multiple
        scaled = []
        for p in points:
            m = 1
            for x in p:
                m *= x.denominator
            scaled.append(tuple(int(x * m) for x in p))
        assert (brute_box_functional(points, dim, 3)
                == brute_box_functional(scaled, dim, 3)), points


def _reference_box_functional(points, dim, bound):
    # every point of the box, first coordinate slowest, with no interval logic
    for gamma in itertools.product(range(-bound, bound + 1), repeat=dim):
        if all(sum(g * x for g, x in zip(gamma, p)) > 0 for p in points):
            return gamma
    return None


def test_brute_box_matches_the_full_enumeration():
    rng = random.Random(1515)
    entries = range(-4, 5)
    for case in range(400):
        dim = rng.randint(1, 4)
        bound = rng.randint(0, 3)
        points = [tuple(rng.choice(entries) for _ in range(dim))
                  for _ in range(1 if case % 4 == 0 else rng.randint(2, 5))]
        if case % 5 == 1:
            points.append(tuple(rng.choice(entries) for _ in range(dim - 1)) + (0,))
        if case % 7 == 2:
            points.append((0,) * dim)
        if case % 3 == 0:
            points.append(rng.choice(points))
        rng.shuffle(points)
        assert (brute_box_functional(points, dim, bound)
                == _reference_box_functional(points, dim, bound)), (points, dim, bound)


def test_pruned_box_matches_the_prefix_scan_at_bound_20():
    rng = random.Random(2626)
    entries = range(-4, 5)
    found = 0
    for case in range(600):
        dim = rng.randint(1, 3)
        points = [tuple(rng.choice(entries) for _ in range(dim))
                  for _ in range(rng.randint(1, 6))]
        if case % 5 == 0:
            points.append((0,) * dim)
        if case % 3 == 0:
            points.append(rng.choice(points))
        if case % 4 == 1:
            points = [tuple(Q(x, rng.randint(1, 6)) for x in p) for p in points]
        rng.shuffle(points)
        gamma = brute_box_functional(points, dim, 20)
        assert gamma == prefix_scan_box_functional(points, dim, 20), (points, dim)
        found += gamma is not None
    assert 100 < found < 500
    for points in ([(2 ** 60, 1), (-2 ** 60, 1)], [(2 ** 59, -1)], [(2 ** 70, 1)],
                   [(2 ** 70, -1, 3), (-2 ** 60, 2, 1)], [(2 ** 60,), (-1,)]):
        dim = len(points[0])
        assert (brute_box_functional(points, dim)
                == prefix_scan_box_functional(points, dim)), points


def test_pruned_box_matches_the_prefix_scan_on_every_certify_torus_query(monkeypatch):
    queries = []
    oracle = nullcone.brute_box_functional

    def recorded(points, dim, bound=20):
        queries.append((points, dim, bound))
        return oracle(points, dim, bound)

    monkeypatch.setattr(nullcone, "brute_box_functional", recorded)
    assert certify_torus()["result"] == "PASS"
    assert len(queries) == 392
    for points, dim, bound in queries:
        assert (oracle(points, dim, bound)
                == prefix_scan_box_functional(points, dim, bound)), points


# -- binary forms -------------------------------------------------------------

def form(d, *coeffs):
    return BinaryForm(d, tuple(coeffs))


def test_binary_member_examples():
    assert binary_form_nullcone_member(form(4, 0, 1, 0, 0, 0))       # x^3 y
    assert not binary_form_nullcone_member(form(4, 0, 0, 1, 0, 0))   # x^2 y^2
    assert not binary_form_nullcone_member(form(2, 1, 0, 1))         # x^2 + y^2
    assert binary_form_nullcone_member(form(4, 0, 0, 0, 0, 0))       # zero form
    assert binary_form_nullcone_member(form(1, 2, 3))                # any line, d=1


def test_binary_witness_examples():
    w = binary_nullcone_witness(form(4, 0, 1, 0, 0, 0))
    assert w.coeffs == (1, 0)
    w = binary_nullcone_witness(form(3, 1, 3, 3, 1))  # (x+y)^3
    assert w.coeffs == (1, 1)
    assert binary_nullcone_witness(form(4, 0, 0, 1, 0, 0)) is None
    with pytest.raises(ValueError):
        binary_nullcone_witness(form(2, 0, 0, 0))


def test_binary_witness_at_infinity():
    # y^3 * x has the triple root at [1:0], witness l = y
    f = form(4, 0, 0, 0, 1, 0)
    w = binary_nullcone_witness(f)
    assert w.coeffs == (0, 1)


def _binary_sweep():
    """Every nonzero form of degree <= 4 with coefficients in -2..2, then
    seeded l^m * h up to degree 9 with rational coefficients, about half of
    them with l = c*y, the root at infinity."""
    for d in range(5):
        for coeffs in itertools.product(range(-2, 3), repeat=d + 1):
            if any(coeffs):
                yield BinaryForm(d, coeffs)
    rng = random.Random(34)

    def rational():
        return Q(rng.randint(-6, 6), rng.randint(1, 4))

    for _ in range(4000):
        d = rng.randint(1, 9)
        m = rng.randint(1, d)
        l = BinaryForm(1, (rng.choice([0, rational()]), rational()))
        h = BinaryForm(d - m, tuple(rational() for _ in range(d - m + 1)))
        if l.is_zero() or h.is_zero():
            continue
        for _ in range(m):
            h = h.multiply(l)
        yield h


def test_binary_witness_matches_the_bivariate_gcd_reference():
    at_infinity = members = 0
    for f in _binary_sweep():
        w = binary_nullcone_witness(f)
        assert (w and w.coeffs) == reference_binary_witness(f), (f.degree, f.coeffs)
        members += w is not None
        at_infinity += w is not None and w.coeffs == (0, 1)
    assert members > 2000 and at_infinity > 1000


def test_binary_witness_builds_no_poly(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the binary form path built a Poly")

    for name in ("__init__", "_trusted", "derivative"):
        monkeypatch.setattr(Poly, name, refuse)
    test_binary_member_examples()
    test_binary_witness_examples()
    test_binary_witness_at_infinity()
    assert binary_nullcone_witness(form(6, 1, 2, 3, 4, 5, 6, 7)) is None


def test_divide_linear():
    f = form(2, 1, 2, 1)  # (x+y)^2
    assert f.divide_linear(1, 1).coeffs == (1, 1)
    assert f.divide_linear(1, 0) is None
    assert f.divide_linear(0, 1) is None
    assert form(3, 0, 1, 0, 0).divide_linear(1, 0).coeffs == (0, 1, 0)


def test_divide_linear_exactness():
    rng = random.Random(43)
    for _ in range(30):
        d = rng.randint(1, 6)
        h = form(d, *[rng.randint(-5, 5) for _ in range(d + 1)])
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        if a == 0 and b == 0:
            a = 1
        product = BinaryForm(1, (a, b)).multiply(h)
        q = product.divide_linear(a, b)
        assert q is not None and q.coeffs == h.coeffs


def test_constructed_members_and_squarefree_nonmembers():
    rng = random.Random(44)
    for d in range(2, 7):
        m = d // 2 + 1
        for _ in range(5):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            if a == 0 and b == 0:
                a = 1
            l = BinaryForm(1, (a, b))
            h = BinaryForm(d - m, tuple(rng.randint(-9, 9) for _ in range(d - m + 1)))
            if h.is_zero():
                h = BinaryForm(d - m, (1,) + (0,) * (d - m))
            f = l
            for _ in range(m - 1):
                f = f.multiply(l)
            f = f.multiply(h)
            assert binary_form_nullcone_member(f)
            w = binary_nullcone_witness(f)
            quotient = f
            for _ in range(m):
                quotient = quotient.divide_linear(w.coeffs[0], w.coeffs[1])
                assert quotient is not None


def test_escape_of_mixed_multiplicity_spans():
    # spans built from x^m h1 and y^m h2 always leave the nullcone
    rng = random.Random(45)
    for d in range(2, 7):
        m = d // 2 + 1
        h1 = [rng.randint(-9, 9) for _ in range(d - m + 1)]
        h2 = [rng.randint(-9, 9) for _ in range(d - m + 1)]
        h1[0] = h1[0] or 1   # keep the x-multiplicity exactly m
        h2[-1] = h2[-1] or 1
        f1 = [Q(0)] * (d + 1)
        for i, c in enumerate(h1):
            f1[i] += c
        f2 = [Q(0)] * (d + 1)
        for i, c in enumerate(h2):
            f2[m + i] += c
        L = SubspaceSpec(d + 1, (tuple(f1), tuple(f2)))
        verdict = span_probe_nullcone(
            lambda vec: binary_form_nullcone_member(BinaryForm(d, vec)), L, seed=9)
        assert verdict.escaped, d


# -- matrix nilpotency ---------------------------------------------------------

def test_matrix_nilpotent_examples():
    L = VariableLayout(1, 2)
    a, b, z = Poly.variable(L, 0), Poly.variable(L, 1), Poly.zero(L)
    assert matrix_nilpotent([[z, a, z], [b, z, a], [z, -b, z]])
    assert not matrix_nilpotent([[1, 0], [0, -1]])
    assert matrix_nilpotent([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    # a test of tr A alone or det A alone calls diag(1, -1, 0) nilpotent, and
    # one that stops before tr A^3 misses the 3-cycle (tr A = tr A^2 = 0)
    assert not matrix_nilpotent([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert not matrix_nilpotent([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    assert not matrix_nilpotent([[a, b], [b, -a]])
    assert matrix_nilpotent(Matrix.from_rows([[0, 0, 0], [4, 0, 0], [1, -2, 0]]))
    # rows that mix ints, Fractions and Polys, with no zero Poly
    assert matrix_nilpotent([[0, a, 0], [b, 0, a], [0, -b, 0]])
    assert matrix_nilpotent([[0, a], [Q(0), 0]])
    assert not matrix_nilpotent([[1, a], [0, 0]])


def test_matrix_nilpotent_agrees_with_powers():
    rng = random.Random(46)
    for _ in range(30):
        n = rng.randint(2, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(rows)
        power = m
        for _ in range(n - 1):
            power = power @ m
        assert matrix_nilpotent(rows) == power.is_zero()
    # conjugated strictly-triangular matrices stay nilpotent
    g = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    ginv_rows = [[1, -2, 2], [1, 1, -1], [-1, 2, 1]]
    from polinv.linalg import inverse
    n = Matrix.from_rows([[0, 5, -3], [0, 0, 7], [0, 0, 0]])
    conj = g @ n @ inverse(g)
    assert matrix_nilpotent(conj.to_rows())


def _randint_span_probe(member, L, trials, seed):
    # the row-wise probe: one randint per coefficient, then each coordinate
    # of the combination summed over the spanning vectors
    rng = random.Random(seed)
    vs = [tuple(v) for v in L.spanning_vectors]
    for _ in range(trials):
        coeffs = tuple(rng.randint(-9, 9) for _ in vs)
        combo = tuple(sum(c * v[i] for c, v in zip(coeffs, vs))
                      for i in range(L.ambient_dim))
        if not member(combo):
            return nullcone.ProbeVerdict(True, coeffs, combo, trials, seed)
    return nullcone.ProbeVerdict(False, None, None, trials, seed)


def test_span_probe_matches_the_randint_reference():
    rng = random.Random(2627)
    escaped = 0
    for case in range(60):
        k, n = 1 + case % 3, rng.randint(1, 5)
        vs = tuple(tuple(Q(rng.randint(-3, 3), rng.randint(1, 4)) if case % 2
                         else rng.randint(-3, 3) for _ in range(n)) for _ in range(k))
        L = SubspaceSpec(n, vs)
        weights = [rng.randint(-2, 2) for _ in range(n)]
        threshold = rng.randint(-60, 60)

        def member(vec):
            return sum(w * x for w, x in zip(weights, vec)) < threshold

        for seed in (1, 7, 12345):
            verdict = span_probe_nullcone(member, L, trials=16, seed=seed)
            reference = _randint_span_probe(member, L, 16, seed)
            assert verdict == reference, (vs, seed)
            assert ([type(x) for x in verdict.witness_vector or ()]
                    == [type(x) for x in reference.witness_vector or ()])
            escaped += verdict.escaped
    assert 0 < escaped < 180


def test_span_probe_sl3_planes():
    def member(vec):
        return matrix_nilpotent([list(vec[0:3]), list(vec[3:6]), list(vec[6:9])])

    e12 = (0, 1, 0, 0, 0, 0, 0, 0, 0)
    e13 = (0, 0, 1, 0, 0, 0, 0, 0, 0)
    e21 = (0, 0, 0, 1, 0, 0, 0, 0, 0)
    assert not span_probe_nullcone(member, SubspaceSpec(9, (e12, e13))).escaped
    verdict = span_probe_nullcone(member, SubspaceSpec(9, (e12, e21)))
    assert verdict.escaped
    assert verdict.witness_vector is not None


def test_certify_torus_small_run():
    report = certify_torus(seed=5)
    assert report["result"] == "PASS"


def test_torus_member_depends_only_on_support_weights():
    # the premise of certify_torus's per-support memo
    rng = random.Random(43)
    for _ in range(60):
        ws = nullcone._random_weight_system(rng)
        seen = {}
        for _ in range(20):
            v = nullcone._random_vector(rng, ws.coordinates)
            other = tuple(x and rng.choice([-7, -1, 2, 5]) for x in v)
            for u in (v, other):
                support = tuple(nullcone._support_weights(ws, [u]))
                gamma = torus_nullcone_member(ws, u)
                assert seen.setdefault(support, gamma) == gamma


def test_certify_torus_decides_each_support_once(monkeypatch):
    calls = []  # holds every system, so no id() below is reused
    decide = nullcone.torus_nullcone_member

    def counting(ws, v):
        calls.append((ws, tuple(nullcone._support_weights(ws, [v]))))
        return decide(ws, v)

    monkeypatch.setattr(nullcone, "torus_nullcone_member", counting)
    assert certify_torus()["result"] == "PASS"
    per_pair = Counter((id(ws), support) for ws, support in calls)
    assert max(per_pair.values()) == 1
    assert len(calls) < 500
