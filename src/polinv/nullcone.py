"""Hilbert-Mumford nullcone membership tests.

Torus modules are handled through strict separating functionals on the
weights that support a vector; binary forms through the classical root
multiplicity criterion, decided exactly by one integer gcd of the partials
of order floor(d/2), read off the coefficient list;
matrices through the power traces: over Q, Newton's identities make
tr(A^k) = 0 for k = 1..n equivalent to every characteristic coefficient
vanishing, also for polynomial entries.

Each certificate kind has one checker, which every caller uses:
`check_cocharacter` for a torus cocharacter and `check_binary_witness` for
a binary-form witness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, gcd
from operator import mul
from typing import Callable, Optional, Sequence, Tuple

from .limits import Caps, DEFAULT_CAPS, DEFAULT_SEED, frozen
from .linalg import (Matrix, _scaled, frac, power_traces,
                     strict_positive_functional)
from .poly import Poly
from .reports import check, make_report

Q = Fraction


# ---------------------------------------------------------------------------
# Torus modules
# ---------------------------------------------------------------------------

@frozen
class WeightSystem:
    """A diagonalized torus module: one integer weight vector per coordinate."""

    torus_rank: int
    weights: Tuple[tuple, ...]

    def __post_init__(self):
        for w in self.weights:
            if len(w) != self.torus_rank:
                raise ValueError("weight length does not match the torus rank")
            if any(not isinstance(x, int) for x in w):
                raise ValueError("weights must be integer vectors")

    @property
    def coordinates(self) -> int:
        return len(self.weights)


def torus_nullcone_member(ws: WeightSystem, v: Sequence) -> Optional[tuple]:
    """A cocharacter gamma positive on the support of v, or None.

    v lies in the nullcone exactly when such a gamma exists; the zero vector
    returns (1, ..., 1) by the empty-support convention.
    """
    if len(v) != ws.coordinates:
        raise ValueError("vector length does not match the module")
    return strict_positive_functional(_support_weights(ws, [v]), dim=ws.torus_rank)


def _support_weights(ws: WeightSystem, vectors) -> list:
    """The distinct weights of the coordinates where some vector is nonzero, first seen first."""
    return list(dict.fromkeys([w for v in vectors for x, w in zip(v, ws.weights) if x != 0]))


def v_gamma(ws: WeightSystem, gamma: Sequence[int]) -> tuple:
    """Indices of the coordinates with positive gamma-weight, sorted."""
    if len(gamma) != ws.torus_rank:
        raise ValueError("cocharacter length does not match the torus rank")
    return tuple(i for i, w in enumerate(ws.weights)
                 if sum(g * x for g, x in zip(gamma, w)) > 0)


def check_cocharacter(ws: WeightSystem, v: Sequence, gamma: Sequence[int]) -> bool:
    """True when gamma certifies that v lies in the nullcone: gamma . w > 0
    for the weight w of every coordinate where v is nonzero, that is, v lies
    in the positive part `v_gamma`."""
    positive = set(v_gamma(ws, gamma))
    return all(i in positive for i, x in enumerate(v) if x != 0)


@frozen
class SubspaceSpec:
    """A linear subspace given by spanning vectors in a fixed ambient space."""

    ambient_dim: int
    spanning_vectors: Tuple[tuple, ...]

    def __post_init__(self):
        for v in self.spanning_vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("spanning vector length does not match the ambient dimension")


def subspace_in_common_vgamma(ws: WeightSystem, L: SubspaceSpec) -> Optional[tuple]:
    """A single gamma positive on every support weight of the spanning vectors.

    When it exists the whole subspace lies in the corresponding positive part,
    hence in the nullcone.
    """
    if L.ambient_dim != ws.coordinates:
        raise ValueError("ambient dimension does not match the module")
    return strict_positive_functional(_support_weights(ws, L.spanning_vectors),
                                      dim=ws.torus_rank)


# --- independent brute-force oracle (used by agreement certificates) --------

def brute_box_functional(points: Sequence[Sequence], dim: int,
                         bound: int = 20) -> Optional[tuple]:
    """First integer gamma in the box [-bound, bound]^dim with all <gamma, p> > 0.

    Each rational point is scaled to integers by the lcm of its denominators
    (the same constraint).  Exhaustive search in Python integers, lex-ordered
    with the first coordinate slowest, independent of the Fourier-Motzkin
    path.  gamma is fixed one coordinate at a time, in that order.
    With s = <gamma, p> over the coordinates fixed so far, the coordinates
    after g_i can add at most t = bound * (|p_(i+1)| + ... + |p_(dim-1)|)
    (indices from 0), so g_i runs only over the integer interval where
    s + g_i*p_i + t > 0 for every point.  A prefix this skips has no
    feasible completion, so the first complete gamma is the lex-first
    feasible one.  At the last coordinate t = 0 and the interval is exact:
    its least member is the first feasible point with that prefix.  Empty
    input follows the (1, ..., 1) convention.
    """
    if bound < 0:
        raise ValueError(f"box bound must be non-negative, got {bound}")
    if not points:
        return tuple([1] * dim)
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    rows = [_scaled(p)[0] for p in points]
    if any(len(r) != dim for r in rows):
        raise ValueError("dimension mismatch")
    columns = list(zip(*rows))  # columns[i][k]: coordinate i of point k

    def descend(i: int, room: list) -> Optional[tuple]:
        # room[k] = s + t for point k: its partial sum plus what the
        # coordinates after g_i can add, so g_i needs room[k] + g_i*c > 0
        column = columns[i]
        lo, hi = -bound, bound
        for r, c in zip(room, column):
            if c > 0:
                x = -r // c + 1
                if x > lo:
                    lo = x
            elif c < 0:
                x = (r - 1) // -c
                if x < hi:
                    hi = x
            elif r <= 0:
                return None
        if lo > hi:
            return None
        if i == dim - 1:
            return (lo,)
        # fixing g_(i+1) next takes its bound * |c| out of the room
        base = [r - bound * abs(c) for r, c in zip(room, columns[i + 1])]
        for g in range(lo, hi + 1):
            rest = descend(i + 1, [b + g * c for b, c in zip(base, column)])
            if rest is not None:
                return (g,) + rest
        return None

    return descend(0, [bound * sum(map(abs, r[1:])) for r in rows])


# ---------------------------------------------------------------------------
# Binary forms
# ---------------------------------------------------------------------------

@frozen
class BinaryForm:
    """Homogeneous form of degree d in x, y; coeffs[i] multiplies x^(d-i) y^i."""

    degree: int
    coeffs: tuple

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("negative degree")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("need degree + 1 coefficients")
        object.__setattr__(self, "coeffs", tuple(frac(c) for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def multiply(self, other: "BinaryForm") -> "BinaryForm":
        d = self.degree + other.degree
        out = [Q(0)] * (d + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return BinaryForm(d, tuple(out))

    def divide_linear(self, a, b) -> Optional["BinaryForm"]:
        """Exact quotient by the linear form a*x + b*y, or None if not divisible."""
        a, b = frac(a), frac(b)
        if a == 0 and b == 0:
            raise ValueError("division by the zero form")
        d = self.degree
        if d == 0:
            return None
        c = self.coeffs
        if a == 0:
            if c[0] != 0:
                return None
            return BinaryForm(d - 1, tuple(x / b for x in c[1:]))
        q = [Q(0)] * d
        q[0] = c[0] / a
        for i in range(1, d):
            q[i] = (c[i] - b * q[i - 1]) / a
        if c[d] - b * q[d - 1] != 0:
            return None
        return BinaryForm(d - 1, tuple(q))


def binary_form_nullcone_member(f: BinaryForm) -> bool:
    """True when f has a linear factor of multiplicity at least floor(d/2)+1,
    that is, when it has a `binary_nullcone_witness`.  The zero form is in
    the nullcone by convention."""
    return f.is_zero() or binary_nullcone_witness(f) is not None


def binary_nullcone_witness(f: BinaryForm) -> Optional[BinaryForm]:
    """The rational linear form l with l^(k+1) dividing f, k = floor(d/2), if any.

    The coefficients are scaled once to integers.  If the first k+1 vanish,
    y^(k+1) divides f and l = y.  Otherwise l, if it exists, has a finite
    root, and that root is a common root of the k+1 partials of order k.
    They are read off the coefficient list at y = 1: c_l x^(d-l) y^l adds
    c_l C(d-l, i) C(l, k-i) x^(d-l-i) to d^k f / dx^i dy^(k-i) divided by
    i! (k-i)!.  Their gcd (`_gcd`, in integers; gcds over Q stay correct
    over the algebraic closure) has positive degree exactly when l exists.
    A root of multiplicity above d/2 is unique, hence Galois-stable, hence
    rational, so the gcd is a multiple of (x + t)^e and l = x + t y, returned
    with integer coefficients and verified by exact division.
    """
    if f.is_zero():
        raise ValueError("witness of the zero form")
    d = f.degree
    if d < 1:
        return None
    c = _scaled(f.coeffs)[0]
    k = d // 2
    if any(c[:k + 1]):
        g = []  # the zero polynomial
        # from d^k f / dx^k down: in seeded trials of degree 60 to 160 this
        # order took a third to a half of the time of the other on forms in
        # the nullcone, and up to 1.5 times as long on forms outside it
        for i in range(k, -1, -1):
            # coefficient j of partial i: c_l C(d - l, i) C(l, k - i), l = d - i - j
            g = _gcd(g, [c[d - i - j] * comb(i + j, i) * comb(d - i - j, k - i)
                         for j in range(d - k + 1)])
            if len(g) == 1:
                return None
        e = len(g) - 1
        t = Q(g[e - 1], e * g[e])
        a, b = t.denominator, t.numerator
    else:
        a, b = 0, 1
    witness = BinaryForm(1, (a, b))
    if _witness_quotient(f, witness)[1] is None:
        raise AssertionError("internal error: witness fails to divide the form")
    return witness


def _witness_quotient(f: BinaryForm, l: BinaryForm) -> Tuple[int, Optional[BinaryForm]]:
    """(m, f / l^m) for m = floor(d/2) + 1, the multiplicity a nullcone
    witness l must have, by m exact divisions; the quotient is None when
    l^m does not divide f."""
    m, quotient = f.degree // 2 + 1, f
    for _ in range(m):
        quotient = quotient.divide_linear(*l.coeffs)
        if quotient is None:
            break
    return m, quotient


def check_binary_witness(f: BinaryForm, l: BinaryForm) -> Tuple[bool, int]:
    """(holds, m): whether l^m divides f, m = floor(d/2) + 1, checked by a
    route apart from the witness search: the quotient q = f / l^m is
    multiplied back by l, m times, and the product must be f exactly."""
    m, product = _witness_quotient(f, l)
    if product is None:
        return False, m
    for _ in range(m):
        product = product.multiply(l)
    return product == f, m


def _gcd(a: list, b: list) -> list:
    """A gcd of the integer polynomials a, primitive or zero, and b
    (coefficient lists, ascending in degree), up to sign: a primitive
    remainder sequence.  Each pseudo-remainder is divided by its content,
    and the chain stops at the first constant, returned as [1] or [-1]."""
    while any(b):
        while not b[-1]:
            b = b[:-1]
        h = gcd(*b)
        b = [x // h for x in b]
        if len(b) == 1:
            return b
        # a becomes a multiple of its remainder by b: each step cancels its top
        # term with a multiple of b (a zero top term is only dropped)
        lead = b[-1]
        while len(a) >= len(b):
            h = gcd(a[-1], lead)
            s, q, shift = lead // h, a[-1] // h, len(a) - len(b)
            a = [s * x for x in a[:-1]]
            for i, x in enumerate(b[:-1], shift):
                a[i] -= q * x
        a, b = b, a
    return a


# ---------------------------------------------------------------------------
# Matrix nilpotency
# ---------------------------------------------------------------------------

def _square_rows(mat) -> list:
    """The rows of a square `Matrix` or list of rows.  All-rational rows are
    scaled to ints (by their common denominator, a nonzero scalar, which
    keeps nilpotency); rows that hold a Poly pass as they are, since Poly
    arithmetic takes rational entries on either side."""
    rows = mat.to_rows() if isinstance(mat, Matrix) else [list(r) for r in mat]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if any(isinstance(x, Poly) for r in rows for x in r):
        return rows
    entries = _scaled([x for r in rows for x in r])[0]
    return [entries[i * n:(i + 1) * n] for i in range(n)]


def matrix_nilpotent(mat) -> bool:
    """True when every characteristic coefficient vanishes identically.

    Entries may be rationals or polynomials (a `Matrix`, or rows of
    rationals, Polys or both).  For size n this checks tr(A^k) = 0
    identically for k = 1..n.  Over Q that is equivalent by Newton's
    identities, k*e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} tr(A^i), where e_k is
    the sum of the principal k x k minors.
    """
    return all(t == 0 for t in power_traces(_square_rows(mat)))


# ---------------------------------------------------------------------------
# One-sided span probing
# ---------------------------------------------------------------------------

@frozen
class ProbeVerdict:
    """Outcome of random probing of a span against a membership test.

    escaped=True is a proof that the span is not contained in the nullcone;
    escaped=False only reports that all probes stayed inside (never a proof).
    """

    escaped: bool
    witness_coefficients: Optional[tuple]
    witness_vector: Optional[tuple]
    trials: int
    seed: int


def span_probe_nullcone(member: Callable[[tuple], bool], L: SubspaceSpec,
                        trials: int = 64, seed: int = DEFAULT_SEED) -> ProbeVerdict:
    """Probe random rational combinations of the spanning vectors.

    Coefficients are drawn from the integers -9..9, one per spanning vector
    in order; the verdict records the seed for reproducibility.  Coordinate
    i of a combination is the coefficients dotted with column i, the i-th
    coordinates of the spanning vectors (the columns are formed once).
    """
    rng = random.Random(seed)
    k = len(L.spanning_vectors)
    vs = [tuple(v) for v in L.spanning_vectors]
    if not all(type(x) is int for v in vs for x in v):
        vs = [tuple(frac(x) for x in v) for v in vs]
    columns = list(zip(*vs)) if vs else [()] * L.ambient_dim
    randint = rng.randint
    for _ in range(trials):
        coeffs = tuple([randint(-9, 9) for _ in range(k)])
        combo = tuple([sum(map(mul, coeffs, column)) for column in columns])
        if not member(combo):
            return ProbeVerdict(True, coeffs, combo, trials, seed)
    return ProbeVerdict(False, None, None, trials, seed)


# ---------------------------------------------------------------------------
# Packaged certificate: torus nullcone membership against brute force
# ---------------------------------------------------------------------------

def _random_weight_system(rng: random.Random) -> WeightSystem:
    tr = rng.randint(1, 3)
    ncoords = rng.randint(1, 6)
    weights = tuple(tuple(rng.randint(-3, 3) for _ in range(tr)) for _ in range(ncoords))
    return WeightSystem(tr, weights)


def _random_vector(rng: random.Random, ncoords: int) -> tuple:
    # half the entries are zero so the supports actually vary
    out = []
    for _ in range(ncoords):
        zero = rng.randint(0, 1)
        sign = 1 if rng.randint(0, 1) else -1
        value = rng.randint(1, 9)
        out.append(0 if zero else sign * value)
    return tuple(out)


def certify_torus(seed: int = DEFAULT_SEED, caps: Caps = DEFAULT_CAPS) -> dict:
    """Torus nullcone certificates on seeded random weight systems.

    For every system the decision procedure is compared with the exhaustive
    integer box search; every returned cocharacter is re-validated on the
    support; and random planes whose probes all stay in the nullcone must
    admit one common positive cocharacter (and conversely).
    """
    systems, vectors_per_system, subspaces_per_system = 50, 20, 3
    box_bound = 20
    rng = random.Random(seed)
    vector_queries = 0
    agreements = 0
    witness_valid = 0
    witnesses_returned = 0
    planes = 0
    planes_contained = 0
    lemma_ok = True
    soundness_ok = True
    for _ in range(systems):
        ws = _random_weight_system(rng)
        cache: dict = {}
        decided: dict = {}

        def brute_feasible(support) -> bool:
            key = tuple(sorted(support))
            got = cache.get(key)
            if got is None:
                got = brute_box_functional(key, ws.torus_rank, box_bound) is not None
                cache[key] = got
            return got

        def decide(support: tuple, v) -> Optional[tuple]:
            # torus_nullcone_member's answer depends only on the support weights
            if support not in decided:
                decided[support] = torus_nullcone_member(ws, v)
            return decided[support]

        def member(v) -> bool:
            return decide(tuple(_support_weights(ws, [v])), v) is not None

        for _ in range(vectors_per_system):
            v = _random_vector(rng, ws.coordinates)
            support = tuple(_support_weights(ws, [v]))
            gamma = decide(support, v)
            vector_queries += 1
            if (gamma is not None) == brute_feasible(support):
                agreements += 1
            if gamma is not None:
                witnesses_returned += 1
                if check_cocharacter(ws, v, gamma):
                    witness_valid += 1
        for _ in range(subspaces_per_system):
            v1 = _random_vector(rng, ws.coordinates)
            v2 = _random_vector(rng, ws.coordinates)
            L = SubspaceSpec(ws.coordinates, (v1, v2))
            gamma = subspace_in_common_vgamma(ws, L)
            probe = span_probe_nullcone(member, L, trials=64, seed=seed)
            planes += 1
            if not probe.escaped:
                planes_contained += 1
                if gamma is None:
                    lemma_ok = False
            if gamma is not None and probe.escaped:
                soundness_ok = False

    checks = [
        check("box_oracle_agreement", agreements == vector_queries,
              agreements=agreements, queries=vector_queries),
        check("witnesses_strictly_positive", witness_valid == witnesses_returned,
              witnesses=witnesses_returned),
        check("contained_planes_admit_common_cocharacter", lemma_ok,
              planes=planes, contained=planes_contained),
        check("common_cocharacter_implies_containment", soundness_ok),
    ]
    return make_report(
        "torus", seed, caps, checks,
        systems=systems,
        vectors_per_system=vectors_per_system,
        subspaces_per_system=subspaces_per_system,
        box_bound=box_bound,
        conclusion="torus nullcone membership matches exhaustive search and "
                   "planes inside the nullcone lie in one positive part",
    )
