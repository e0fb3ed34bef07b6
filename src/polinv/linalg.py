"""Exact linear algebra over the rationals.

Matrix entries are `fractions.Fraction` values, which Python keeps reduced
to lowest terms with a positive denominator.  The one elimination kernel is
`_echelon`, fraction-free integer elimination (in the style of Bareiss) on
`(row, scale)` pairs: a sparse {column: int} row that is `scale` times the
vector it stands for.  `rank`, `rref` and `solve_in_span` build these pairs
with `_integer_row` (each vector scaled by the lcm of its denominators);
`polarization` passes generator products it already expanded over the
integers.  Rows are combined as b*r - a*k and the gcd content is divided
out after every step, so entries stay small integers and no Fraction is
built until the final coefficients.  `mat_mul` is the one matrix product,
for rational or `Poly` entries; `power_traces` yields tr(A^k) through it
for the Molien count in `groups` and the nilpotency test in `nullcone`.
There is no floating point anywhere in this module; every answer is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence

Q = Fraction


def frac(x) -> Fraction:
    """Coerce ints / strings / Fractions to Fraction.

    Malformed input raises ValueError, including a zero denominator such as
    "1/0" (for which Fraction itself raises ZeroDivisionError).
    """
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


@dataclass(frozen=True)
class Matrix:
    """Immutable dense rational matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, tuple(frac(x) for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(Q(1) if i == j else Q(0) for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("matrix size mismatch")
        columns = [other.entries[j::other.cols] for j in range(other.cols)]
        product = mat_mul(self.to_rows(), columns, Q(0))
        return Matrix(self.rows, other.cols, tuple(x for row in product for x in row))

    def matvec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(row[0] for row in mat_mul(self.to_rows(), [[frac(x) for x in v]], Q(0)))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix size mismatch")
        return Matrix(self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix size mismatch")
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)


def _integer_terms(terms: Mapping) -> tuple:
    """(row, d): d*terms as a {key: int} map, d the lcm of the denominators.

    `terms` maps keys to nonzero Fractions.
    """
    d = lcm(*[q.denominator for q in terms.values()])
    return {k: q.numerator * (d // q.denominator) for k, q in terms.items()}, d


def _integer_row(v: Sequence) -> tuple:
    """(row, d): d*v as a sparse {column: int} row, d the lcm of the denominators."""
    return _integer_terms({i: frac(x) for i, x in enumerate(v) if x})


def _echelon(rows: Iterable[tuple], track: bool = False):
    """Fraction-free sparse elimination of scaled integer rows, taken in order.

    Each entry of `rows` is a pair (row, scale): a sparse {column: int} row
    equal to `scale` times the vector v_j it stands for (see `_integer_row`).
    The row dicts are reduced in place.  Each row is reduced against the
    rows kept so far: for a kept row k with pivot column p and a = r[p],
    b = k[p] (divided by their gcd), r becomes b*r - a*k, and the gcd
    content of r is divided out.  Kept rows are zero at every earlier
    pivot, so one pass in order clears all pivots of r.  A row is kept when
    a nonzero row remains, so the kept indices are the lex-first independent
    vectors: the pivot columns of the RREF of the matrix whose columns are
    the v_j.

    Returns (kept, relation).  With `track`, every row also carries its
    integer combination of the input rows (without `track` the combinations
    stay empty); when the last row is not kept, `relation` maps kept
    indices j to Fractions c_j with v_last = sum_j c_j * v_j, in terms of
    the unscaled vectors.  Otherwise `relation` is None.
    """
    pivots = []  # (pivot column, row, combination)
    kept = []
    scales = []
    row, combo = {}, {}
    for j, (row, d) in enumerate(rows):
        scales.append(d)
        combo = {j: 1} if track else {}
        for p, prow, pcombo in pivots:
            a = row.get(p)
            if a is None:
                continue
            b = prow[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            for vec, other in ((row, prow), (combo, pcombo)):
                if b != 1:
                    for c in vec:
                        vec[c] *= b
                for c, y in other.items():
                    x = vec.get(c, 0) - a * y
                    if x:
                        vec[c] = x
                    else:
                        del vec[c]
            if not row:
                break
            g = gcd(*row.values(), *combo.values())
            if g != 1:
                for vec in (row, combo):
                    for c in vec:
                        vec[c] //= g
        if row:
            pivots.append((min(row), row, combo))
            kept.append(j)
    if not track or row or not scales:
        return kept, None
    last = len(scales) - 1
    den = -combo.pop(last) * scales[last]
    return kept, {j: Fraction(c * scales[j], den) for j, c in combo.items()}


def mat_mul(rows: Sequence[Sequence], columns: Sequence[Sequence], zero=0) -> list:
    """AB as a list of rows, from the rows of A and the columns of B (so the
    shape is right also when the inner dimension is 0).  Entries are
    rationals (`zero` = 0) or Polys of one layout (`zero` their zero Poly).
    Products with a zero factor are skipped, and each sum starts from its
    first product, so no Poly is copied once more by adding it to `zero`."""
    out = []
    for r in rows:
        out_row = []
        for c in columns:
            terms = [x * y for x, y in zip(r, c) if x != zero and y != zero]
            out_row.append(sum(terms[1:], terms[0]) if terms else zero)
        out.append(out_row)
    return out


def power_traces(rows: Sequence[Sequence], zero=0) -> Iterator:
    """tr(A), tr(A^2), ..., tr(A^n) of the n x n matrix `rows`, one at a time.

    Entries are rationals (`zero` = 0) or Polys of one layout (`zero` their
    zero Poly).  Each power is formed by `mat_mul` only when its trace is
    asked for.
    """
    n = len(rows)
    columns = list(zip(*rows))
    power = rows  # A^k
    for k in range(1, n + 1):
        yield sum((power[i][i] for i in range(n)), zero)
        if k < n:
            power = mat_mul(power, columns, zero)


def rank(m: Matrix) -> int:
    return len(_echelon(_integer_row(m.row(i)) for i in range(m.rows))[0])


def rref(m: Matrix):
    """Reduced row echelon form, as (reduced, rank, pivot_columns).

    Two passes of `_echelon`.  The forward pass leaves each kept row zero
    before its pivot and at the pivots of the rows kept before it.  The
    second pass takes the kept rows in descending pivot order, which clears
    every pivot column in the other rows without moving a pivot; each row
    is then divided by its pivot entry.
    """
    rows = [_integer_row(m.row(i)) for i in range(m.rows)]
    kept, _ = _echelon(rows)
    echelon = sorted((rows[j][0] for j in kept), key=min, reverse=True)
    _echelon((row, 1) for row in echelon)
    echelon.reverse()
    pivots = [min(row) for row in echelon]
    entries = [Q(0)] * (m.rows * m.cols)
    for i, (row, p) in enumerate(zip(echelon, pivots)):
        for c, x in row.items():
            entries[i * m.cols + c] = Fraction(x, row[p])
    return Matrix(m.rows, m.cols, tuple(entries)), len(pivots), pivots


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = Matrix.from_rows([list(m.row(i)) + [Q(1) if j == i else Q(0) for j in range(n)]
                            for i in range(n)])
    red, rk, _ = rref(aug)
    if rk < n or any(red.at(i, i) != 1 for i in range(n)):
        raise ValueError("matrix is singular")
    return Matrix(n, n, tuple(red.at(i, n + j) for i in range(n) for j in range(n)))


def solve_in_span(basis: Sequence[Sequence], target: Sequence) -> Optional[list]:
    """Express `target` as an exact linear combination of `basis` vectors.

    Only the lex-first independent basis vectors get nonzero coefficients
    (free coordinates are zero), so the answer is the one read off the RREF
    of [basis | target].  Returns the coefficient list, or None when the
    target is not in the span.  All vectors must have the same length.
    """
    vectors = [*basis, target]
    n = len(target)
    if any(len(v) != n for v in vectors):
        raise ValueError("dimension mismatch")
    _, relation = _echelon(map(_integer_row, vectors), track=True)
    if relation is None:
        return None
    return [relation.get(j, Q(0)) for j in range(len(basis))]


# ---------------------------------------------------------------------------
# Strict feasibility of homogeneous linear inequality systems
# ---------------------------------------------------------------------------

def _fm_solve(rows, nvars: int) -> Optional[tuple]:
    """Fourier-Motzkin elimination for the strict homogeneous system row.x > 0.

    `rows` are integer tuples of length nvars.  Each level divides every row
    by its gcd and drops repeats (first seen kept); eliminating x_v combines
    a low row l (l[v] > 0) and a high row u (u[v] < 0) as l[v]*u - u[v]*l.
    Both only rescale constraints by positive factors, so every level holds
    the same cone as rational elimination would.  Returns one rational
    solution as (numerators, common denominator), or None.
    """
    prim = []
    for r in rows:
        g = gcd(*r)
        if g == 0:
            return None  # 0 > 0
        prim.append(tuple(x // g for x in r) if g != 1 else r)
    rows = list(dict.fromkeys(prim))
    if nvars == 0:
        return [], 1
    v = nvars - 1
    lows = [r for r in rows if r[v] > 0]
    highs = [r for r in rows if r[v] < 0]
    new = [r[:v] for r in rows if r[v] == 0]
    new += [tuple(l[v] * y - u[v] * x for x, y in zip(l[:v], u[:v]))
            for l in lows for u in highs]
    sub = _fm_solve(new, v)
    if sub is None:
        return None
    nums, den = sub
    # x_v > -(l.x)/l[v] for each low row, x_v < (u.x)/(-u[v]) for each high row
    lo = max((Q(-sum(a * b for a, b in zip(l, nums)), den * l[v]) for l in lows),
             default=None)
    hi = min((Q(sum(a * b for a, b in zip(u, nums)), -den * u[v]) for u in highs),
             default=None)
    if lo is not None and hi is not None:
        val = (lo + hi) / 2
    elif lo is not None:
        val = lo + 1
    elif hi is not None:
        val = hi - 1
    else:
        val = Q(0)
    d = lcm(den, val.denominator)
    return [n * (d // den) for n in nums] + [val.numerator * (d // val.denominator)], d


def strict_positive_functional(points: Iterable[Sequence], dim: Optional[int] = None):
    """Find an integer vector gamma with <gamma, p> > 0 for every point p.

    Returns a primitive integer tuple, or None when no such functional exists
    (equivalently, 0 lies in the convex hull of the points).  An empty point
    list is vacuously feasible and returns (1, ..., 1); pass `dim` to fix its
    length.
    """
    rows = []
    for p in points:
        p = tuple(p)
        if not all(type(x) is int for x in p):
            # scaled by the lcm of its denominators: the same constraint
            q = [frac(x) for x in p]
            m = lcm(*[x.denominator for x in q])
            p = tuple(x.numerator * (m // x.denominator) for x in q)
        rows.append(p)
    if not rows:
        return tuple([1] * (dim if dim is not None else 0))
    d = len(rows[0])
    if dim is not None and dim != d:
        raise ValueError("dimension mismatch")
    if any(len(r) != d for r in rows):
        raise ValueError("dimension mismatch")
    sol = _fm_solve(rows, d)
    if sol is None:
        return None
    g = gcd(*sol[0]) or 1
    gamma = tuple(n // g for n in sol[0])
    # exactness guard: the witness must satisfy every inequality strictly
    for r in rows:
        if sum(gi * x for gi, x in zip(gamma, r)) <= 0:
            raise AssertionError("internal error: invalid feasibility witness")
    return gamma
