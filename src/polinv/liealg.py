"""Matrix Lie algebras and the nilpotency / polarization-index certificates.

Covers sl_n and so5 (realized as skew-symmetric 5x5 matrices), bracket
closures of subspaces, invariant dimensions of SL2 on binary-form modules by
counting the weights of monomials, the so5 trace invariants with their
order-2 polarizations, and the packaged certificates built from them.
Every combination sum_k c_k B_k of basis matrices, with rational or `Poly`
coefficients (the generic skew matrix of so5, the symbolic sl3 plane, a
random algebra element), is formed by `_combination`.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import nullcone, polarization
from .limits import Caps, DEFAULT_CAPS, DEFAULT_SEED, frozen
from .linalg import Matrix, _echelon, _int_product, _integer_row, _integer_terms, _scaled, mat_mul
from .poly import Poly, VariableLayout, _power_table, compositions, count_monomials
from .reports import check, make_report

Q = Fraction


def unit_matrix(n: int, i: int, j: int) -> Matrix:
    """E_ij, the matrix with a single 1 in row i, column j."""
    return Matrix(n, n, tuple(Q(1) if (r, c) == (i, j) else Q(0)
                              for r in range(n) for c in range(n)))


def _check_square(n: int, mats: Sequence[Matrix]) -> None:
    if any((m.rows, m.cols) != (n, n) for m in mats):
        raise ValueError("bracket needs square matrices of equal size")


def _commutator(x: list, y: list, n: int) -> list:
    """xy - yx in Python ints, for n x n int matrices given as row-major lists."""
    return [s - t for s, t in zip(_int_product(x, y, n, n, n), _int_product(y, x, n, n, n))]


def bracket(a: Matrix, b: Matrix) -> Matrix:
    """Commutator ab - ba, exactly.  a and b are scaled to int entries once
    (`_scaled`, by d_a and d_b); then ab and ba both carry the scale d_a*d_b,
    their difference is taken in Python ints, and each entry is one Fraction
    over that scale."""
    _check_square(a.rows, (a, b))
    x, dx = _scaled(a.entries)
    y, dy = _scaled(b.entries)
    return Matrix(a.rows, a.cols, tuple(Q(v, dx * dy) for v in _commutator(x, y, a.rows)))


def _bracket_step(mats: Sequence[Matrix]):
    """The matrices followed by their brackets [m_i, m_j], i < j, and the
    indices of the lex-first independent ones among these candidates, read
    off one `_echelon`.  ([m_j, m_i] = -[m_i, m_j] and [m_i, m_i] = 0 add
    nothing to the span.)"""
    candidates = list(mats)
    candidates += [bracket(x, y) for i, x in enumerate(mats) for y in mats[i + 1:]]
    return candidates, _echelon(_integer_row(m.entries) for m in candidates)[0]


@frozen
class LieAlgebraBasis:
    """A matrix Lie algebra given by a basis, checked to be bracket-closed:
    one `_bracket_step` must keep the basis and nothing more."""

    name: str
    matrix_size: int
    basis: Tuple[Matrix, ...]

    def __post_init__(self):
        n = self.matrix_size
        if any((b.rows, b.cols) != (n, n) for b in self.basis):
            raise ValueError("basis matrices must be matrix_size x matrix_size")
        kept = _bracket_step(self.basis)[1]
        if kept[:len(self.basis)] != list(range(len(self.basis))):
            raise ValueError("basis matrices are linearly dependent")
        if len(kept) > len(self.basis):
            raise ValueError("basis is not closed under the bracket")

    @property
    def dimension(self) -> int:
        return len(self.basis)


def sl(n: int) -> LieAlgebraBasis:
    """Traceless n x n matrices: E_ij (i != j) and E_ii - E_{i+1,i+1}."""
    basis = [unit_matrix(n, i, j) for i in range(n) for j in range(n) if i != j]
    basis += [unit_matrix(n, i, i) - unit_matrix(n, i + 1, i + 1) for i in range(n - 1)]
    return LieAlgebraBasis(f"sl_{n}", n, tuple(basis))


def _so5_basis() -> tuple:
    """E_ij - E_ji for i < j, lex in (i, j): the basis of so5 unchecked."""
    return tuple(unit_matrix(5, i, j) - unit_matrix(5, j, i)
                 for i in range(5) for j in range(i + 1, 5))


def so5() -> LieAlgebraBasis:
    """Skew-symmetric 5 x 5 matrices, basis E_ij - E_ji for i < j."""
    return LieAlgebraBasis("so5", 5, _so5_basis())


def _combination(coefficients: Sequence, mats: Sequence[Matrix]) -> list:
    """The rows of sum_k c_k M_k for square matrices M_k and coefficients
    that are rationals, Polys of one layout, or both: `mat_mul` of the
    entries, one row per position, by the coefficient column.  So each entry
    starts from its first product, and an entry no matrix touches is the
    int 0."""
    n = mats[0].cols
    flat = [x for x, in mat_mul(list(zip(*(m.entries for m in mats))), [coefficients])]
    return [flat[i:i + n] for i in range(0, n * n, n)]


@frozen
class LieSubspace:
    """A subspace of a matrix Lie algebra spanned by rational matrices."""

    algebra: LieAlgebraBasis
    spanning: Tuple[Matrix, ...]

    def __post_init__(self):
        vectors = (*self.algebra.basis, *self.spanning)
        if len(_echelon(_integer_row(m.entries) for m in vectors)[0]) != self.algebra.dimension:
            raise ValueError("spanning matrix lies outside the algebra")


def subalgebra_closure(sub: LieSubspace) -> List[Matrix]:
    """Smallest bracket-closed subspace containing the span, as a deterministic
    basis of matrices: the spanning matrices and brackets that the last round
    of `_bracket_step` kept.

    Each round keeps the lex-first independent candidates and stops when they
    are exactly its basis.  Only the first round can drop a dependent spanning
    matrix; every later round but the last adds a dimension, and every
    candidate lies in the algebra, so the loop ends within
    `sub.algebra.dimension + 1` rounds.  The algebra check of
    `LieAlgebraBasis` is one such round."""
    basis = list(sub.spanning)
    while True:
        candidates, kept = _bracket_step(basis)
        if kept == list(range(len(basis))):
            return basis
        basis = [candidates[i] for i in kept]


# ---------------------------------------------------------------------------
# SL2 invariants on binary-form modules, by counting weights
# ---------------------------------------------------------------------------

def sl2_invariant_dimension(module: Sequence[int], deg: Sequence[int],
                            caps: Caps = DEFAULT_CAPS) -> int:
    """Dimension of the SL2-invariants of multidegree `deg` in the coefficients
    of R_{d_1} + ... + R_{d_k}, refused over `caps.monomials` monomials.  The
    piece is an sl2-module; with weight d - 2i on the coefficient of
    x^(d-i) y^i in R_d (or its opposite: the weights are symmetric), its
    invariants number N_0 - N_2, N_w the monomials of weight w (the
    Cayley-Sylvester count; Sturmfels, Algorithms in Invariant Theory)."""
    module = tuple(int(d) for d in module)
    deg = tuple(int(x) for x in deg)
    if len(deg) != len(module):
        raise ValueError("multidegree length does not match the module")
    if any(d < 1 for d in module):
        raise ValueError("summand degrees must be at least 1")
    caps.bound("monomials", count_monomials(tuple(d + 1 for d in module), deg),
               "degree too large")
    counts = Counter({0: 1})  # weight -> monomials over the blocks so far
    for d, a in zip(module, deg):
        block = Counter(d * a - 2 * sum(i * k for i, k in enumerate(c))
                        for c, _ in compositions(a, d + 1))
        joint = Counter()
        for w, x in counts.items():
            for v, y in block.items():
                joint[w + v] += x * y
        counts = joint
    return counts[0] - counts[2]


# ---------------------------------------------------------------------------
# so5 trace invariants and their order-2 polarizations
# ---------------------------------------------------------------------------

def _poly_trace_product(a, b) -> Poly:
    """tr(a b) without forming the full product."""
    n = len(a)
    acc = None
    for i in range(n):
        for k in range(n):
            term = a[i][k] * b[k][i]
            acc = term if acc is None else acc + term
    return acc


def so5_trace_invariants() -> Tuple[Poly, Poly]:
    """tr(A^2) and tr(A^4) for the generic skew 5x5 matrix A, as polynomials
    in the ten entries above the diagonal (variable k the coefficient of so5
    basis matrix k).  These generate the invariant ring."""
    layout = VariableLayout(1, 10)
    A = _combination([Poly.variable(layout, k) for k in range(10)], _so5_basis())
    A2 = mat_mul(A, list(zip(*A)))
    return _poly_trace_product(A, A), _poly_trace_product(A2, A2)


SO5_POL2_BIDEGREES = ((2, 0), (1, 1), (0, 2), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4))


def so5_pol2_generators() -> List[Poly]:
    """The eight generators of the order-2 polarization algebra of so5:
    tr(B^2), tr(BC), tr(C^2), tr(B^4), tr(B^3 C), 2 tr(B^2 C^2) + tr((BC)^2),
    tr(B C^3), tr(C^4), in this order."""
    layout, basis = VariableLayout(2, 10), _so5_basis()
    B, C = (_combination([Poly.variable(layout, layout.index(a, k)) for k in range(10)], basis)
            for a in (0, 1))
    B2 = mat_mul(B, list(zip(*B)))
    C2 = mat_mul(C, list(zip(*C)))
    BC = mat_mul(B, list(zip(*C)))
    gens = [
        _poly_trace_product(B, B),
        _poly_trace_product(B, C),
        _poly_trace_product(C, C),
        _poly_trace_product(B2, B2),
        _poly_trace_product(B2, BC),
        2 * _poly_trace_product(B2, C2) + _poly_trace_product(BC, BC),
        _poly_trace_product(BC, C2),
        _poly_trace_product(C2, C2),
    ]
    return gens


def jacobian_rank(polys: Sequence[Poly], point: Sequence) -> int:
    """Rank of the matrix of partial derivatives evaluated at the point.

    Row r is read straight off the terms of polys[r]: the term c*x^e adds
    c*e_j*x^(e - 1_j) to column j.  With the point written as n/D over a
    common denominator D, the row is computed in integers times the lcm of
    the coefficient denominators and D^deg (deg the total degree of the
    polynomial); scaling a row by a nonzero number keeps the rank.
    """
    if not polys:
        return 0
    layout = polys[0].layout
    if len(point) != layout.total:
        raise ValueError("point length does not match the variable count")
    if any(p.layout != layout for p in polys):
        raise ValueError("layout mismatch")
    nums, D = _scaled(point)
    powers = []  # powers[v][k] = n_v^k for the k = e_v and e_v - 1 that a term x^e uses
    for n, column in zip(nums, zip(*[e for p in polys for e in p._terms])):
        used = {k - s for k in column if k for s in (0, 1)} - {0}
        powers.append({0: 1, **_power_table(n, sorted(used), int.__mul__)})
    rows = []
    for p in polys:
        terms, _ = _integer_terms(p._terms)
        deg = p.total_degree()
        row: dict = {}
        for e, c in terms.items():
            support = [v for v, k in enumerate(e) if k]
            c *= D ** (deg + 1 - sum(e))
            for j in support:
                x = c * e[j]
                for v in support:
                    x *= powers[v][e[v] - (v == j)]
                row[j] = row.get(j, 0) + x
        rows.append(({j: x for j, x in row.items() if x}, 1))
    return len(_echelon(rows)[0])


def generic_orbit_dimension(alg: LieAlgebraBasis, point: Sequence[Matrix]) -> int:
    """Rank of x -> ([x, a_1], ..., [x, a_n]) at the point (a_1, ..., a_n).

    This is the orbit dimension of the diagonal adjoint action at the point;
    at any rational point it lower-bounds the generic orbit dimension.
    """
    n = alg.matrix_size
    _check_square(n, point)
    # each basis matrix and each a_k scaled to int entries: a nonzero scale
    # on a row (a basis matrix) or on a block of columns (a_k) keeps the rank
    scaled = [_scaled(a.entries)[0] for a in point]
    basis = [_scaled(b.entries)[0] for b in alg.basis]
    rows = (_integer_row([v for y in scaled for v in _commutator(x, y, n)]) for x in basis)
    return len(_echelon(rows)[0])


def random_algebra_element(alg: LieAlgebraBasis, rng: random.Random) -> Matrix:
    """Integer combination of the basis with coefficients in -9..9, drawn in
    basis order (`_combination`)."""
    coefficients = [rng.randint(-9, 9) for _ in alg.basis]
    return Matrix.from_rows(_combination(coefficients, alg.basis))


# ---------------------------------------------------------------------------
# Packaged certificates
# ---------------------------------------------------------------------------

def certify_sl3(seed: int = DEFAULT_SEED, caps: Caps = DEFAULT_CAPS) -> dict:
    """The nilpotent nontriangularizable plane in sl3.

    The plane spanned by E12 + E23 and E21 - E32 consists of nilpotent
    matrices (checked symbolically), yet the subalgebra it generates is all
    of sl3 and contains the non-nilpotent diag(1, -2, 1).
    """
    algebra = sl(3)
    A = unit_matrix(3, 0, 1) + unit_matrix(3, 1, 2)
    B = unit_matrix(3, 1, 0) - unit_matrix(3, 2, 1)

    layout = VariableLayout(1, 2)
    symbolic_plane = _combination([Poly.variable(layout, 0), Poly.variable(layout, 1)], (A, B))
    nilpotent = nullcone.matrix_nilpotent(symbolic_plane)

    witness = bracket(A, B)
    expected_witness = Matrix.from_rows([[1, 0, 0], [0, -2, 0], [0, 0, 1]])
    closure = subalgebra_closure(LieSubspace(algebra, (A, B)))

    def member(vec):
        rows = [list(vec[0:3]), list(vec[3:6]), list(vec[6:9])]
        return nullcone.matrix_nilpotent(rows)

    plane = nullcone.SubspaceSpec(9, (A.entries, B.entries))
    probe = nullcone.span_probe_nullcone(member, plane, trials=64, seed=seed)

    checks = [
        check("plane_nilpotent_symbolic", nilpotent),
        check("bracket_is_diag_1_m2_1", witness == expected_witness),
        check("closure_is_all_of_sl3", len(closure) == 8, closure_dimension=len(closure)),
        check("witness_not_nilpotent", not nullcone.matrix_nilpotent(witness)),
        check("probes_stay_nilpotent", not probe.escaped, trials=probe.trials),
    ]
    return make_report(
        "sl3", seed, caps, checks,
        closure_dimension=len(closure),
        witness_matrix=[str(x) for x in witness.entries],
        conclusion="the plane is nilpotent but not triangularizable",
    )


def certify_so5(seed: int = DEFAULT_SEED, caps: Caps = DEFAULT_CAPS) -> dict:
    """The polarization-index obstruction for so5.

    The order-2 polarization algebra has eight generators, so transcendence
    degree at most 8, while the invariant field of two copies has
    transcendence degree 10; hence no integrality, and the index is 1.
    """
    algebra = so5()
    tr2, tr4 = so5_trace_invariants()
    gens = so5_pol2_generators()
    bidegrees = tuple(p.multidegree() for p in gens)

    # the polarization components of tr(A^2), tr(A^4) match the generator
    # list up to the multinomial coefficients of the formal expansion
    pol2 = polarization.polarize(tr2, 2, caps)
    pol4 = polarization.polarize(tr4, 2, caps)
    expansion_ok = (
        pol2.get((2, 0)) == gens[0]
        and pol2.get((1, 1)) == 2 * gens[1]
        and pol2.get((0, 2)) == gens[2]
        and pol4.get((4, 0)) == gens[3]
        and pol4.get((3, 1)) == 4 * gens[4]
        and pol4.get((2, 2)) == 2 * gens[5]
        and pol4.get((1, 3)) == 4 * gens[6]
        and pol4.get((0, 4)) == gens[7]
    )

    seeds = (seed, seed + 1, seed + 2)
    jac_ranks = []
    orbit_dims = []
    for s in seeds:
        rng = random.Random(s)
        point = [rng.randint(-9, 9) for _ in range(20)]
        jac_ranks.append(jacobian_rank(gens, point))
        rng2 = random.Random(s + 1000)
        a1 = random_algebra_element(algebra, rng2)
        a2 = random_algebra_element(algebra, rng2)
        orbit_dims.append(generic_orbit_dimension(algebra, (a1, a2)))

    generator_bound = len(gens)
    orbit_dim = max(orbit_dims)
    trdeg_invariants = 2 * algebra.dimension - orbit_dim

    checks = [
        check("generator_count_is_8", len(gens) == 8),
        check("bidegrees_match", bidegrees == SO5_POL2_BIDEGREES,
              bidegrees=list(bidegrees)),
        check("trace_expansion_matches_generators", expansion_ok),
        check("jacobian_rank_at_most_8", all(r <= 8 for r in jac_ranks),
              ranks=list(jac_ranks)),
        check("orbit_dimension_reaches_10", orbit_dim == 10, dims=list(orbit_dims)),
        check("no_integrality", generator_bound < trdeg_invariants,
              transcendence_bound_pol=generator_bound,
              transcendence_invariants=trdeg_invariants),
    ]
    return make_report(
        "so5", seed, caps, checks,
        seeds=list(seeds),
        jacobian_ranks=list(jac_ranks),
        orbit_dimensions=list(orbit_dims),
        polarization_index=1,
        conclusion="the invariants of two copies are not integral over the "
                   "order-2 polarization algebra, so the polarization index is 1",
    )


def certify_sl2_r1(seed: int = DEFAULT_SEED, caps: Caps = DEFAULT_CAPS) -> dict:
    """Polarization index 1 for the defining SL2-module R_1: no invariants on
    one copy in low degree, but an invariant (the determinant) on two copies."""
    single = [sl2_invariant_dimension((1,), (k,), caps) for k in range(1, 5)]
    pair = sl2_invariant_dimension((1, 1), (1, 1), caps)
    checks = [
        check("r1_no_invariants_deg_1_to_4", single == [0, 0, 0, 0], dims=single),
        check("r1_pair_determinant", pair == 1, dim=pair),
    ]
    return make_report(
        "sl2-r1", seed, caps, checks,
        single_copy_dims=single,
        two_copy_dim_bidegree_1_1=pair,
        polarization_index=1,
        conclusion="one copy of R_1 has only constant invariants while two "
                   "copies do not, so the polarization index of R_1 is 1",
    )
