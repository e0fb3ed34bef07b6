import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from polinv import poly
from polinv.poly import (Poly, VariableLayout, _power_table, compositions, glex_key,
                         is_scalar_multiple, multidegrees, parse_poly, poly_to_string)

from bivariate_gcd import homogeneous_bivariate_gcd
from fraction_product import fraction_product, fraction_substitution

L2 = VariableLayout(1, 2)
X = Poly.variable(L2, 0)
Y = Poly.variable(L2, 1)


def test_product_of_sum_and_difference():
    assert (X + Y) * (X - Y) == X ** 2 - Y ** 2


def test_additive_inverse():
    p = 3 * X * Y + X ** 2
    assert (p + (-1) * p).is_zero()


def test_square_of_sum():
    assert (X + Y) ** 2 == X ** 2 + 2 * X * Y + Y ** 2


def test_layout_mismatch_raises():
    other = Poly.variable(VariableLayout(1, 3), 0)
    with pytest.raises(ValueError):
        X + other
    with pytest.raises(ValueError):
        X * other


def test_ring_axioms_spot_check():
    rng = random.Random(11)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = Q(rng.randint(-4, 4))
        return Poly(L2, terms)

    for _ in range(20):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


L22 = VariableLayout(2, 2)
COEFFS = st.one_of(st.integers(-5, 5).map(Q),
                   st.builds(Q, st.integers(-9, 9), st.integers(1, 12)),
                   st.builds(Q, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 40)))
# exponents in a small box, so products of different term pairs collide
POLYS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * L22.total), COEFFS,
                        max_size=6).map(lambda terms: Poly(L22, terms))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(p=POLYS, q=POLYS, c=COEFFS)
def test_product_matches_the_fraction_reference(p, q, c):
    # p times p with alternating signs cancels cross terms, as (a+b)(a-b) does
    alternating = Poly(L22, {e: v if k % 2 else -v for k, (e, v) in enumerate(p.terms())})
    zero, constant = Poly.zero(L22), Poly.constant(L22, c)
    for a, b in ((p, q), (q, p), (p, alternating), (p, zero), (zero, q),
                 (constant, q), (p, constant), (constant, constant)):
        product = a * b
        assert product == fraction_product(a, b)
        assert all(type(v) is Q and v for v in product._terms.values())
    with pytest.raises(ValueError):
        p * Poly.zero(VariableLayout(1, 4))


def test_substitute_shift():
    p = X ** 2
    assert p.substitute({0: X + Y}) == X ** 2 + 2 * X * Y + Y ** 2


def test_substitute_to_zero():
    p = X * Y
    assert p.substitute({1: Poly.zero(L2)}).is_zero()


def test_substitute_fresh_variable():
    # x -> u*x with a fresh third variable; y is carried along unchanged
    L3 = VariableLayout(1, 3)
    x3, y3, u3 = (Poly.variable(L3, i) for i in range(3))
    p = X ** 2 + Y ** 2
    assert p.substitute({0: u3 * x3}) == u3 ** 2 * x3 ** 2 + y3 ** 2


def test_substitute_is_ring_homomorphism():
    rng = random.Random(12)
    L3 = VariableLayout(1, 3)
    images = {0: Poly.variable(L3, 0) + Poly.variable(L3, 2),
              1: Poly.variable(L3, 1) * Poly.variable(L3, 2)}

    def rand_poly():
        terms = {(rng.randint(0, 2), rng.randint(0, 2)): Q(rng.randint(-3, 3))
                 for _ in range(3)}
        return Poly(L2, terms)

    for _ in range(15):
        p, q = rand_poly(), rand_poly()
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)
        assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)


L5 = VariableLayout(1, 5)
TARGET_POLYS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * L5.total), COEFFS,
                               max_size=4).map(lambda terms: Poly(L5, terms))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(p=POLYS, images=st.dictionaries(st.integers(0, L22.total - 1), TARGET_POLYS),
       q=TARGET_POLYS, c=COEFFS, k=st.integers(0, 3))
def test_substitute_and_pow_match_the_fraction_reference(p, images, q, c, k):
    # variables 0 and 1 swapped in p: with equal images, p - swapped cancels to zero
    swapped = Poly(L22, {(e[1], e[0]) + e[2:]: v for e, v in p._terms.items()})
    same = {**images, 0: q, 1: q}
    cases = [(p, images), (p, {0: Poly.zero(L5)}), (p, {2: Poly.constant(L5, c)}),
             (p, {j: Poly.constant(L5, c) for j in range(L22.total)}),
             (p - swapped, same), (Poly.constant(L22, c), images)]
    for f, imgs in cases:
        if not imgs:
            continue
        got = f.substitute(imgs)
        assert got == fraction_substitution(f, imgs, L5)
        assert got.layout == L5
        assert all(type(v) is Q and v for v in got._terms.values())
    assert (p - swapped).substitute(same).is_zero()
    # p ** k is t^k with t -> p
    power = Poly.constant(L22, 1)
    for _ in range(k):
        power = fraction_product(power, p)
    assert p ** k == power
    assert all(type(v) is Q and v for v in (p ** k)._terms.values())


def test_substitute_keeps_its_contract():
    p = X ** 2 + Y
    assert p.substitute({}) is p
    assert X ** 0 == Poly.zero(L2) ** 0 == 1
    with pytest.raises(ValueError, match="different layouts"):
        p.substitute({0: Poly.variable(L2, 0), 1: Poly.variable(VariableLayout(1, 3), 0)})
    # y keeps its index 1, which a one-variable target does not have
    with pytest.raises(ValueError, match="no counterpart in target layout"):
        p.substitute({0: Poly.variable(VariableLayout(1, 1), 0)})
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
            X ** bad


def test_power_table_matches_repeated_products():
    # ascending exponents with gaps, with and without 1: each power is built
    # once, from the one before, so the top exponent e takes e - 1 products
    base = X + Q(1, 2) * Y - 3
    for exponents in ([], [1], [3], [1, 2, 5], [2, 3, 7], [4, 9, 10]):
        for b in (base, -7):
            calls = []

            def mul(a, c):
                calls.append(1)
                return a * c

            table = _power_table(b, exponents, mul)
            assert list(table) == exponents
            for e in exponents:
                want = b
                for _ in range(e - 1):
                    want = want * b
                assert table[e] == want
            assert len(calls) == max(exponents, default=1) - 1


def test_substitute_builds_each_power_once(monkeypatch):
    # sum_i t1^(200 - i) t2^i asks for the powers of t1 in falling order:
    # 199 + 199 steps build the powers of both images, and the 199 terms
    # with both variables take one more product each
    calls = []
    mul = poly._int_mul

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(poly, "_int_mul", counted)
    p = Poly(L2, {(200 - i, i): Q(1) for i in range(201)})
    got = p.substitute({0: 2 * X, 1: Q(1, 3) * Y})
    assert got == Poly(L2, {(200 - i, i): Q(2 ** (200 - i), 3 ** i) for i in range(201)})
    assert len(calls) <= 700


def test_equality_and_hash_with_non_polynomials():
    three, one, zero = Poly.constant(L2, 3), Poly.constant(L2, 1), Poly.zero(L2)
    assert (X == None) is False and (X != None) is True  # noqa: E711
    assert (X == "x") is False
    assert (three == "3") is False
    assert three == 3 and three == Q(3) and three != 4 and X != 1 and X + 1 != 1
    assert zero == 0 and zero != 1
    assert one == 1 and hash(one) == hash(1)
    assert hash(three) == hash(Q(3)) and hash(zero) == 0
    assert {Poly.constant(L2, 1): "a"}[1] == "a"
    assert {X + 1: "b"}[1 + X] == "b"


def test_derivative_examples():
    assert (X ** 3).derivative(0) == 3 * X ** 2
    assert (X * Y).derivative(1) == X
    assert (Y ** 2).derivative(0).is_zero()


def test_evaluate():
    assert (X ** 2 + Y).evaluate((2, 3)) == 7
    assert (X * Y + 5).evaluate((0, 0)) == 5
    assert (X * Y).evaluate((Q(1, 2), Q(2, 3))) == Q(1, 3)
    with pytest.raises(ValueError):
        X.evaluate((1,))


def _fraction_evaluate(p, point):
    """sum c * prod x_i^k_i over the terms of p, in `Fraction`s: the reference
    for the integer `evaluate`."""
    total = Q(0)
    for e, c in p.terms():
        for x, k in zip(point, e):
            c *= Q(x) ** k
        total += c
    return total


def test_evaluate_matches_the_fraction_reference():
    rng = random.Random(51)
    for _ in range(300):
        layout = VariableLayout(rng.randint(1, 2), rng.randint(1, 3))
        terms = {tuple(rng.randint(0, 6) for _ in range(layout.total)):
                 Q(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(rng.randint(0, 8))}
        p = Poly(layout, terms)
        point = [rng.choice((0, rng.randint(-5, 5), Q(rng.randint(-7, 7), rng.randint(1, 6))))
                 for _ in range(layout.total)]
        value = p.evaluate(point)
        assert value == _fraction_evaluate(p, point)
        assert type(value) is Q


def test_multidegree():
    L = VariableLayout(2, 2)
    p = parse_poly("x1*y2 + x2*y1", L)
    assert p.multidegree() == (1, 1)
    q = parse_poly("x1 + y1", L)
    assert q.multidegree() is None


# -- text grammar -----------------------------------------------------------

def test_parse_canonical_names():
    L = VariableLayout(2, 2)
    p = parse_poly("3/2*x1_2^2*x2_1 - x1_1", L)
    assert p.coefficient((0, 2, 1, 0)) == Q(3, 2)
    assert p.coefficient((1, 0, 0, 0)) == -1
    assert poly_to_string(p) == "3/2*x1_2^2*x2_1 - x1_1"


def test_parse_aliases_two_blocks():
    L = VariableLayout(2, 3)
    assert parse_poly("x1*y2", L) == parse_poly("x1_1*x2_2", L)


def test_parse_constant_and_signs():
    p = parse_poly(" - x1 + 2 ", L2)
    assert p == 2 - X


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_poly("x1 $ x2", L2)
    with pytest.raises(ValueError):
        parse_poly("y1", L2)  # alias y needs a second block
    with pytest.raises(ValueError):
        parse_poly("x5", L2)
    with pytest.raises(ValueError):
        parse_poly("", L2)


def test_roundtrip_random():
    rng = random.Random(14)
    L = VariableLayout(2, 2)
    for _ in range(20):
        terms = {tuple(rng.randint(0, 3) for _ in range(4)):
                 Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)}
        p = Poly(L, terms)
        assert parse_poly(poly_to_string(p), L) == p


def test_parse_merges_terms_as_repeated_addition_does():
    # repeated and cancelling terms, a zero coefficient and a constant: the
    # parsed terms and their order are those of adding the monomials one by one
    rng = random.Random(15)
    L = VariableLayout(2, 2)
    pool = [tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(5)] + [(0, 0, 0, 0)]
    for _ in range(50):
        text, reference = "", Poly.zero(L)
        for _ in range(rng.randint(1, 12)):
            e, c = rng.choice(pool), Q(rng.randint(-3, 3), rng.randint(1, 2))
            factors = [str(abs(c))] + [f"{L.var_name(j)}^{k}" for j, k in enumerate(e) if k]
            text += ("-" if c < 0 else "+") + "*".join(factors)
            reference = reference + Poly.monomial(L, e, c)
        p = parse_poly(text, L)
        assert p == reference
        assert list(p._terms.items()) == list(reference._terms.items())


def test_zero_serializes_as_zero():
    assert poly_to_string(Poly.zero(L2)) == "0"
    assert parse_poly("0", L2).is_zero()


# -- homogeneous bivariate gcd (the reference in tests/bivariate_gcd.py) -----

def test_gcd_monomials():
    g = homogeneous_bivariate_gcd([X ** 2 * Y, X * Y ** 2])
    assert g == X * Y


def test_gcd_linear_factor():
    g = homogeneous_bivariate_gcd([X ** 2 - Y ** 2, X ** 2 - 2 * X * Y + Y ** 2])
    assert g == X - Y


def test_gcd_coprime():
    g = homogeneous_bivariate_gcd([X ** 3, Y ** 3])
    assert g == Poly.constant(L2, 1)


def test_gcd_handles_y_powers_and_zero_inputs():
    g = homogeneous_bivariate_gcd([Poly.zero(L2), X * Y ** 3, Y ** 2 * (X + Y)])
    assert g == Y ** 2
    with pytest.raises(ValueError):
        homogeneous_bivariate_gcd([Poly.zero(L2)])


def test_gcd_against_factored_cases():
    rng = random.Random(15)
    for _ in range(20):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a == 0 and b == 0:
            a = 1
        g = (a * X + b * Y) ** rng.randint(1, 2)
        # cofactors with distinct roots, so the gcd is exactly g (made monic)
        f1 = g * X ** 2
        f2 = g * (X + 7 * Y) ** 2
        got = homogeneous_bivariate_gcd([f1, f2])
        assert is_scalar_multiple(got, g)
        # the output divides each input: gcd with either input returns it back
        assert homogeneous_bivariate_gcd([f1, got]) == got
        assert homogeneous_bivariate_gcd([f2, got]) == got


def test_multidegrees_are_graded_lex_ascending():
    for parts in (1, 2, 3):
        for max_total in range(8):
            expected = sorted((deg for total in range(max_total + 1)
                               for deg, _ in compositions(total, parts)), key=glex_key)
            assert list(multidegrees(max_total, parts)) == expected


def test_compositions_carry_their_multinomials():
    for parts in range(1, 5):
        for total in range(7):
            listed = compositions(total, parts)
            expected = sorted((c for c in itertools.product(range(total + 1), repeat=parts)
                               if sum(c) == total), reverse=True)
            assert [c for c, _ in listed] == expected  # lex descending
            for c, weight in listed:
                # total! / (c_1! ... c_parts!) as a product of binomial steps
                left = itertools.accumulate(c, lambda rest, x: rest - x, initial=total)
                assert weight == math.prod(map(math.comb, left, c))
            assert sum(w for _, w in listed) == parts ** total


def test_multidegrees_list_one_total_degree_at_a_time():
    degrees = multidegrees(10 ** 6, 3)
    assert [next(degrees) for _ in range(5)] == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0),
                                                 (0, 0, 2)]
