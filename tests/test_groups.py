import json
import random
from fractions import Fraction as Q
from functools import partial
from math import factorial

import pytest

from polinv import groups, linalg
from polinv.cli import main
from polinv.limits import CapExceededError, Caps
from polinv.linalg import Matrix, inverse
from polinv.poly import Poly, VariableLayout, multidegrees, parse_poly
from polinv.groups import (DiagonalAction, MatrixGroup, act, builtin_family, enumerate_group,
                           invariant_dimension, is_invariant, reynolds)
from polinv.specs import group_from_spec

from fraction_rref import fraction_rref
from separation_reference import point_image, same_orbit
from signed_remap import layout_map, signed_remap
from sl2_kernel import monomials

SWAP2 = Matrix.from_rows([[0, 1], [1, 0]])


def as_matrix(g):
    """The matrix of a stored element: g[perm[j], j] = signs[j] for a (perm, signs) pair."""
    if isinstance(g, Matrix):
        return g
    perm, signs = g
    m = len(perm)
    return Matrix(m, m, tuple(Q(signs[j]) if i == perm[j] else Q(0)
                              for i in range(m) for j in range(m)))


def as_matrix_group(group):
    """The same group with every generator and element stored as a Matrix."""
    return MatrixGroup(group.dimension, tuple(map(as_matrix, group.generators)),
                       tuple(map(as_matrix, group.elements)))


def monomials_of_multidegree(layout, deg):
    """Exponent tuples with total degree deg[j] in block j of the layout."""
    return monomials((layout.vars_per_block,) * layout.blocks, deg)


def action_for(family, m, blocks=1):
    group = builtin_family(family, m)
    return DiagonalAction(group, VariableLayout(blocks, m))


def test_builtin_orders():
    assert builtin_family("S", 2).order == 2
    assert builtin_family("S", 3).order == 6
    assert builtin_family("B", 2).order == 8
    assert builtin_family("D", 3).order == 24
    assert builtin_family("D", 4).order == 192
    assert builtin_family("S", 1).order == 1
    assert builtin_family("B", 1).order == 2
    assert builtin_family("D", 5).order == 1920
    assert builtin_family("B", 5).order == 3840


def test_builtin_s2_elements():
    g = builtin_family("S", 2)
    assert set(g.elements) == {((0, 1), (1, 1)), ((1, 0), (1, 1))}


def test_unsupported_family():
    with pytest.raises(ValueError):
        builtin_family("E", 4)
    with pytest.raises(ValueError):
        builtin_family("D", 1)


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        builtin_family("D", 4, Caps(group_order=10))


def test_enumeration_refuses_an_element_of_infinite_order_by_its_trace():
    # S and ST generate SL_2(Z); a product of them has trace 3, which no
    # 2 x 2 rational matrix of finite order has.  A unipotent generator keeps
    # trace 2 at every power and still meets the group-order cap.
    s, st = Matrix.from_rows([[0, -1], [1, 0]]), Matrix.from_rows([[0, -1], [1, 1]])
    with pytest.raises(ValueError, match="not generate a finite group: an element has trace 3"):
        enumerate_group([s, st])
    with pytest.raises(CapExceededError):
        enumerate_group([Matrix.from_rows([[1, 1], [0, 1]])], Caps(group_order=50))
    rotation, swap = Matrix.from_rows([[0, -1], [1, -1]]), Matrix.from_rows([[0, 1], [1, 0]])
    assert len(enumerate_group([rotation, swap]).elements) == 6  # S_3, traces -1, 0 and 2


def test_enumeration_rejects_singular_generator():
    with pytest.raises(ValueError):
        enumerate_group([Matrix.from_rows([[1, 1], [1, 1]])])


@pytest.mark.parametrize("family,m", [(family, m) for family, low in (("S", 1), ("B", 1), ("D", 2))
                                       for m in range(low, 5)])
def test_element_set_independent_of_generator_order(family, m):
    # the closed-form list against the BFS closure of its generators, in both orders
    g = builtin_family(family, m)
    assert g.order == factorial(m) * {"S": 1, "B": 2 ** m, "D": 2 ** (m - 1)}[family]
    elements = set(g.elements)
    assert len(elements) == g.order
    gens = [as_matrix(h) for h in g.generators]
    for order in (gens, gens[::-1]):
        bfs = enumerate_group(order)
        assert bfs.order == g.order
        assert set(bfs.generators) == set(g.generators)
        assert set(bfs.elements) == elements


def test_act_examples():
    a = action_for("S", 2)
    L = a.layout
    x1, x2 = Poly.variable(L, 0), Poly.variable(L, 1)
    assert act(SWAP2, x1, a) == x2
    assert act(SWAP2, x1 ** 2 + x2 ** 2, a) == x1 ** 2 + x2 ** 2
    b = action_for("B", 2)
    minus_i = Matrix.from_rows([[-1, 0], [0, -1]])
    assert act(minus_i, x1 * x2, b) == x1 * x2


def test_act_is_a_left_action_on_random_groups():
    # the 2-dimensional representation of S_3: 4 of its 6 elements are not
    # signed permutations, so act() runs on both stored forms
    g1 = Matrix.from_rows([[0, -1], [1, -1]])    # order 3
    g2 = Matrix.from_rows([[0, 1], [1, 0]])
    group = enumerate_group([g1, g2])
    assert group.order == 6
    assert sum(isinstance(g, Matrix) for g in group.elements) == 4
    action = DiagonalAction(group, VariableLayout(1, 2))
    L = action.layout
    p = parse_poly("x1^2*x2 - 3*x2^3", L)
    for a in group.elements:
        for b in group.elements:
            ab = as_matrix(a) @ as_matrix(b)
            assert act(a, act(b, p, action), action) == act(ab, p, action)


def test_matrix_elements_act_and_average_without_state_on_the_action():
    g1 = Matrix.from_rows([[0, -1], [1, -1]])    # order 3, not a signed permutation
    group = enumerate_group([g1, SWAP2])
    assert sum(isinstance(g, Matrix) for g in group.generators) == 1
    action = DiagonalAction(group, VariableLayout(2, 2))
    p = parse_poly("x1_1^2 - x1_1*x1_2 + x1_2^2 + x2_1^2 - x2_1*x2_2 + x2_2^2", action.layout)
    assert is_invariant(p, action)
    assert not is_invariant(Poly.variable(action.layout, 0), action)
    assert reynolds(p, action) == p
    # the action is its two fields: nothing is kept on it between calls
    assert set(vars(action)) == {"group", "layout"}
    other = DiagonalAction(group, VariableLayout(1, 2))
    assert is_invariant(parse_poly("x1^2 - x1*x2 + x2^2", other.layout), other)


def test_act_convention_matches_point_action():
    # (g.p)(v) = p(g^{-1} v), blockwise, checked by evaluation; and
    # point_image(g) undoes g^{-1}
    rng = random.Random(22)
    group = builtin_family("D", 3)
    action = DiagonalAction(group, VariableLayout(2, 3))
    L = action.layout
    p = parse_poly("x1_1^2*x2_3 - 2*x1_2*x2_1 + x1_3", L)
    for _ in range(10):
        g = group.elements[rng.randrange(group.order)]
        ginv = inverse(as_matrix(g))
        v = [rng.randint(-4, 4) for _ in range(6)]
        moved = [x for block in (v[0:3], v[3:6])
                 for x in (ginv @ Matrix.from_rows([[c] for c in block])).entries]
        assert act(g, p, action).evaluate(v) == p.evaluate(moved)
        assert point_image(g, moved, L) == tuple(v)


@pytest.mark.parametrize("family,m", [("S", 3), ("B", 3), ("D", 4)])
def test_act_matches_the_signed_exponent_remap(family, m):
    # every element is a (perm, signs) pair, acting on two copies
    action = action_for(family, m, blocks=2)
    rng = random.Random(f"remap{family}{m}")
    for g in action.group.elements:
        p = Poly(action.layout, {tuple(rng.randint(0, 2) for _ in range(2 * m)):
                                 Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)})
        assert act(g, p, action) == signed_remap(g, p)


def test_reynolds_examples():
    a = action_for("S", 2)
    L = a.layout
    x1, x2 = Poly.variable(L, 0), Poly.variable(L, 1)
    assert reynolds(x1, a) == (x1 + x2) * Q(1, 2)
    assert reynolds(x1, action_for("B", 2)).is_zero()
    d2 = action_for("D", 2)
    assert reynolds(x1 * x2, d2) == x1 * x2


def test_reynolds_idempotent_and_invariant():
    rng = random.Random(21)
    a = action_for("D", 3)
    L = a.layout
    for _ in range(8):
        terms = {tuple(rng.randint(0, 2) for _ in range(3)): Q(rng.randint(-3, 3))
                 for _ in range(4)}
        p = Poly(L, terms)
        r = reynolds(p, a)
        assert reynolds(r, a) == r
        assert is_invariant(r, a)


def _act_sum_reynolds(p, action):
    """Reference: (1/|G|) sum over the elements of act(g, p)."""
    total = Poly.zero(p.layout)
    for g in action.group.elements:
        total = total + act(g, p, action)
    return total * Q(1, action.group.order)


def _element_actions(action):
    """p -> g.p for every element; a Matrix element's substitution is built once."""
    out = []
    for g in action.group.elements:
        if isinstance(g, Matrix):
            out.append(partial(Poly.substitute, images=groups._substitution_images(g, action.layout)))
        else:
            out.append(partial(act, g, action=action))
    return out


def _act_sum_invariant_dimension(action, deg):
    """Reference: the rank, by fraction_rref, of sum_g g.x^e over the monomials
    x^e; images that are scalar multiples of each other share one row."""
    actions = _element_actions(action)
    monos = monomials_of_multidegree(action.layout, deg)
    rows = {}
    for e in monos:
        x = Poly(action.layout, {e: 1})
        image = dict(sum((f(x) for f in actions), Poly.zero(action.layout)).terms())
        coeffs = [image.get(ee, Q(0)) for ee in monos]
        lead = next((c for c in coeffs if c), None)
        if lead is not None:
            rows[tuple(c / lead for c in coeffs)] = None
    return fraction_rref(Matrix.from_rows(list(rows)))[1] if rows else 0


def _orbit_count(action, deg):
    """Reference for signed-permutation groups.  Each element sends x^e to
    +-x^e', so the Reynolds image of x^e is 0 when some element of its
    stabilizer acts by -1 and a nonzero multiple of its signed orbit sum
    otherwise, and distinct orbits have disjoint supports: the dimension is
    the number of monomial orbits whose stabilizer acts by +1 only."""
    signed = [layout_map(g, action.layout) for g in action.group.elements]
    seen = set()
    live = 0
    for e in monomials_of_multidegree(action.layout, deg):
        if e in seen:
            continue
        dead = False
        for src, odd in signed:
            ne = tuple(map(e.__getitem__, src))
            seen.add(ne)
            if ne == e and sum(map(e.__getitem__, odd)) & 1:
                dead = True
        live += not dead
    return live


ORDER3 = {"generators": [["0", "-1", "1", "-1"]]}


@pytest.mark.parametrize("family,m,degs", [
    ("S", 3, [(1, 0), (1, 1), (2, 1), (2, 2)]),
    ("B", 3, [(1, 1), (2, 0), (2, 2), (3, 1)]),
    ("D", 4, [(1, 1), (2, 1), (2, 2)]),
    ("custom", 2, [(1, 0), (1, 1), (2, 1), (3, 0), (2, 2)]),
])
def test_reynolds_and_invariant_dimension_match_act_sums(family, m, degs):
    group = group_from_spec(ORDER3) if family == "custom" else builtin_family(family, m)
    if family == "custom":
        # order 3, not a signed permutation: act() substitutes the inverse's rows
        assert group.order == 3
        assert group.elements[0] == ((0, 1), (1, 1))
        assert all(isinstance(g, Matrix) for g in group.elements[1:])
    else:
        assert not any(isinstance(g, Matrix) for g in group.elements)
    action = DiagonalAction(group, VariableLayout(2, m))
    rng = random.Random(f"{family}{m}")
    for deg in degs:
        monos = monomials_of_multidegree(action.layout, deg)
        for _ in range(3):
            p = Poly(action.layout, {rng.choice(monos): Q(rng.randint(-5, 5), rng.randint(1, 3))
                                     for _ in range(3)})
            assert reynolds(p, action) == _act_sum_reynolds(p, action)
        assert invariant_dimension(action, deg) == _act_sum_invariant_dimension(action, deg)


def _symmetric_power_traces(g, max_k):
    """[h_0(g), ..., h_max_k(g)]: traces of a (perm, signs) pair on Sym^k, read
    off 1/det(1 - s g) = prod over cycles of 1/(1 - eps s^L), L the cycle
    length and eps the product of the cycle's signs."""
    perm, signs = g
    h = [1] + [0] * max_k
    unseen = set(range(len(perm)))
    while unseen:
        j = start = unseen.pop()
        length, eps = 1, signs[j]
        while perm[j] != start:
            j = perm[j]
            unseen.remove(j)
            length, eps = length + 1, eps * signs[j]
        for k in range(length, max_k + 1):  # multiply by 1/(1 - eps s^L)
            h[k] += eps * h[k - length]
    return h


def _molien_dimensions(group, max_total):
    """{(a, b): dim R_(a,b)} on two copies, as sum_g h_a(g) h_b(g) / |G|."""
    traces = [_symmetric_power_traces(g, max_total) for g in group.elements]
    dims = {}
    for a, b in multidegrees(max_total, 2):
        total = sum(h[a] * h[b] for h in traces)
        assert total % group.order == 0, (a, b)
        dims[(a, b)] = total // group.order
    return dims


@pytest.mark.parametrize("family,m", [("S", 4), ("B", 3), ("D", 4), ("D", 5)])
def test_invariant_dimension_matches_molien(family, m):
    group = builtin_family(family, m)
    action = DiagonalAction(group, VariableLayout(2, m))
    molien = _molien_dimensions(group, 6)
    assert {deg: invariant_dimension(action, deg) for deg in molien} == molien
    assert {deg: _orbit_count(action, deg) for deg in molien} == molien
    assert molien[(3, 3)] == {"S": 27, "B": 6, "D": 10 if m == 4 else 6}[family]


def test_invariant_dimension_keeps_the_molien_numbers_of_each_class():
    # each class's h_0, h_1, ... are built once and kept with it, as far as
    # the largest degree asked: a table of rows does not rebuild them per
    # row, and the answers do not depend on the order of the rows
    for order in (list, reversed):
        group = builtin_family("D", 4)
        action = DiagonalAction(group, VariableLayout(2, 4))
        want = _molien_dimensions(group, 6)
        assert {deg: invariant_dimension(action, deg) for deg in order(list(want))} == want
        assert [len(h) for _, _, h in group.molien_classes] == [7] * len(group.molien_classes)


@pytest.mark.parametrize("family,m", [("B", 3), ("D", 4)])
def test_orbit_count_matches_reynolds_rank_on_matrix_groups(family, m):
    # the same group with every element stored as a Matrix: the count from
    # its power traces against the Reynolds rank of the monomials
    pairs = builtin_family(family, m)
    on_pairs = DiagonalAction(pairs, VariableLayout(2, m))
    on_matrices = DiagonalAction(as_matrix_group(pairs), VariableLayout(2, m))
    for deg in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        rank = _act_sum_invariant_dimension(on_matrices, deg)
        assert _orbit_count(on_pairs, deg) == rank, deg
        assert invariant_dimension(on_matrices, deg) == rank, deg


@pytest.mark.parametrize("family,m", [("S", 3), ("B", 2), ("D", 3)])
def test_rational_conjugates_match_the_reynolds_rank(family, m):
    # P g P^-1 for a random rational P: Matrix elements with fractional
    # entries, so the class table runs Newton's identities over Q
    rng = random.Random(f"conjugate{family}{m}")
    while True:
        p = Matrix.from_rows([[Q(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m)]
                              for _ in range(m)])
        if fraction_rref(p)[1] == m:
            break
    p_inv = inverse(p)
    group = enumerate_group([p @ as_matrix(g) @ p_inv for g in builtin_family(family, m).generators])
    assert any(x.denominator > 1 for g in group.elements if isinstance(g, Matrix) for x in g.entries)
    action = DiagonalAction(group, VariableLayout(2, m))
    for deg in multidegrees(3, 2):
        assert invariant_dimension(action, deg) == _act_sum_invariant_dimension(action, deg), deg


@pytest.mark.parametrize("family,m", [("B", 3), ("D", 4)])
def test_pair_and_matrix_elements_give_the_same_dimensions(family, m):
    pairs = builtin_family(family, m)
    on_pairs = DiagonalAction(pairs, VariableLayout(2, m))
    on_matrices = DiagonalAction(as_matrix_group(pairs), VariableLayout(2, m))
    for deg in multidegrees(6, 2):
        assert invariant_dimension(on_pairs, deg) == invariant_dimension(on_matrices, deg), deg


def test_invariant_dimension_forms_no_poly_and_no_rank(monkeypatch):
    d4 = builtin_family("D", 4)
    order3 = DiagonalAction(group_from_spec(ORDER3), VariableLayout(2, 2))
    degs = list(multidegrees(4, 2))
    reference = [_act_sum_invariant_dimension(order3, deg) for deg in degs]
    calls = []

    def recorded(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    for owner, name in ((groups, "act"), (groups, "reynolds"), (groups, "rank"),
                        (linalg, "rank"), (Poly, "substitute")):
        monkeypatch.setattr(owner, name, recorded(name, getattr(owner, name)))
    # each group's class table is first built inside invariant_dimension
    for group in (d4, as_matrix_group(d4)):
        assert invariant_dimension(DiagonalAction(group, VariableLayout(2, 4)), (3, 3)) == 10
    assert [invariant_dimension(order3, deg) for deg in degs] == reference
    assert calls == []


def test_invariant_dims_cli_on_d5_matches_molien(tmp_path, capsys):
    d5 = tmp_path / "d5.json"
    d5.write_text(json.dumps({"builtin": {"family": "D", "m": 5}}))
    code = main(["--format", "structured", "invariant-dims", str(d5),
                 "--copies", "2", "--max-degree", "4"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {tuple(row["multidegree"]): row["dim_invariants"] for row in report["table"]} == (
        _molien_dimensions(builtin_family("D", 5), 4))
    assert report["checks"] == [{"name": "dims_bounded_by_monomial_count", "pass": True}]


def test_invariant_dims_cli_on_d4_to_degree_12_matches_molien(tmp_path, capsys):
    d4 = tmp_path / "d4.json"
    d4.write_text(json.dumps({"builtin": {"family": "D", "m": 4}}))
    code = main(["--format", "structured", "invariant-dims", str(d4),
                 "--copies", "2", "--max-degree", "12"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {tuple(row["multidegree"]): row["dim_invariants"] for row in report["table"]} == (
        _molien_dimensions(builtin_family("D", 4), 12))


def test_invariant_dims_cli_on_a_generator_file_keeps_the_monomial_cap(tmp_path, capsys):
    # the largest multidegree to total degree 6 on two copies of ORDER3 is (3,3), 16 monomials
    order3 = tmp_path / "order3.json"
    order3.write_text(json.dumps(ORDER3))
    argv = ["invariant-dims", str(order3), "--copies", "2", "--max-degree", "6"]
    assert main(["--cap-monomials", "16"] + argv) == 0
    capsys.readouterr()
    assert main(["--cap-monomials", "15"] + argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: degree too large (cap monomials=15)\n"


def test_invariant_dimension_refuses_a_molien_sum_not_divisible_by_the_order():
    # three elements that are not a group: the degree-1 sum is 1 + 1 - 1 = 1
    fake = MatrixGroup(1, (), (((0,), (1,)), ((0,), (1,)), ((0,), (-1,))))
    with pytest.raises(ArithmeticError):
        invariant_dimension(DiagonalAction(fake, VariableLayout(1, 1)), (1,))


def test_invariant_dimension_examples():
    assert invariant_dimension(action_for("S", 2), (2,)) == 2
    assert invariant_dimension(action_for("B", 2), (1,)) == 0


def _partitions(d, max_part):
    if d == 0:
        return 1
    if max_part == 0:
        return 0
    return sum(_partitions(d - k, min(d - k, k)) for k in range(1, min(d, max_part) + 1))


def test_invariant_dimension_counts_partitions_for_symmetric_groups():
    for m in (2, 3, 4, 5):
        a = action_for("S", m)
        for d in range(0, 6):
            assert invariant_dimension(a, (d,)) == _partitions(d, m), (m, d)


def test_invariant_dimension_bounded_by_monomials():
    a = action_for("D", 3, blocks=2)
    for deg in [(1, 1), (2, 1), (2, 2)]:
        dim = invariant_dimension(a, deg)
        assert dim <= len(monomials_of_multidegree(a.layout, deg))


def test_invariant_dimension_cap():
    a = action_for("B", 3, blocks=2)
    with pytest.raises(CapExceededError):
        invariant_dimension(a, (4, 4), Caps(monomials=10))


def test_same_orbit_examples():
    s2 = action_for("S", 2)
    assert same_orbit((1, 2), (2, 1), s2)
    assert not same_orbit((1, 2), (1, 3), s2)
    assert same_orbit((1, 0), (-1, 0), action_for("B", 2))
    assert not same_orbit((1, 0), (-1, 0), action_for("S", 2))
    # the Matrix path: the orbit of (1, 0) under ORDER3 is (1, 0), (0, 1), (-1, -1)
    order3 = DiagonalAction(group_from_spec(ORDER3), VariableLayout(1, 2))
    assert same_orbit((1, 0), (0, 1), order3)
    assert same_orbit((1, 0), (-1, -1), order3)
    assert not same_orbit((1, 0), (0, -1), order3)
    with pytest.raises(ValueError):
        same_orbit((1,), (1, 2), s2)

