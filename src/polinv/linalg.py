"""Exact linear algebra over the rationals.

Matrix entries are `fractions.Fraction` values, which Python keeps reduced
to lowest terms with a positive denominator.  Every exact kernel of the
package runs in Python ints, and `_scaled` is the one way there: it scales
a list of rationals by the lcm of their denominators, to ints (a list of
ints passes as it is).  The one elimination kernel is `_echelon`,
fraction-free integer elimination (in the style of Bareiss) on
`(row, scale)` pairs: a sparse {column: int} row of nonzero entries that is
`scale` times the vector it stands for, its columns any int keys.  `rank`,
`rref`, `inverse` and `solve_in_span` build these pairs with `_integer_row`
(the nonzero entries of a vector through `_scaled`, columns their
positions), and so do the span questions of `liealg`; `polarization` passes
generator products it already expanded over the integers, with their packed
exponent keys as the columns.  A column that repeats an earlier one up to
sign is dropped first: no combination of the rows tells them apart.  Each
row is then combined with the kept rows in the order kept, as b*r - a*k, on
sparse +-1 pivots where they exist, and the gcd content is divided out
after every step that scaled a row, so entries stay small integers.  Each
row logs the scalars of its steps, and the relation of a row that was not
kept is read back from the logs by one reverse sweep: no row carries a
combination, and no Fraction is built until the final coefficients.
`_int_product`, rows by columns in ints, is the one integer matrix product:
`Matrix @` runs it on its operands through `_scaled`, and so do the bracket
and the orbit ranks of `liealg`; `Matrix.matvec` is `Matrix @` on one
column.  `mat_mul` multiplies matrices given as row and column lists, with
rational entries, `Poly` entries or both (an entry with no product is the
int 0): `power_traces` yields tr(A^k) through it for the Molien count in
`groups` and the nilpotency test in `nullcone`, and `liealg` forms the so5
trace invariants and every combination of basis matrices with it.  Strict
feasibility is fraction-free Fourier-Motzkin elimination (`_fm_solve`), a
loop over the variables that keeps each level for the back-substitution.
There is no floating point anywhere in this module; every answer is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .limits import frozen

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


@frozen
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
        """Exact product.  Each operand is scaled once to integer entries
        (`_scaled`), multiplied by `_int_product`, and each entry is divided
        once by the product of the scales."""
        if self.cols != other.rows:
            raise ValueError("matrix size mismatch")
        a, da = _scaled(self.entries)
        b, db = _scaled(other.entries)
        return Matrix(self.rows, other.cols, tuple(
            Q(x, da * db) for x in _int_product(a, b, self.rows, self.cols, other.cols)))

    def matvec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return (self @ Matrix(self.cols, 1, tuple(frac(x) for x in v))).entries

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


def _scaled(values: Sequence) -> tuple:
    """(ints, d): d times the rationals `values` as a list of ints, d the lcm
    of their denominators.  The one place a rational vector becomes an
    integer one.  Ints and Fractions are read as they are, anything else
    through `frac`; a sequence of ints is returned as it is, with d = 1."""
    try:
        d = lcm(*[x.denominator for x in values])
    except AttributeError:  # strings and floats
        return _scaled([frac(x) for x in values])
    if d == 1 and all(type(x) is int for x in values):
        return values, 1
    return [x.numerator * (d // x.denominator) for x in values], d


def _int_product(a: Sequence, b: Sequence, rows: int, inner: int, cols: int) -> list:
    """The product of the rows x inner matrix a and the inner x cols matrix b,
    both row-major sequences of ints, as a row-major list of ints."""
    a_rows = [a[i * inner:(i + 1) * inner] for i in range(rows)]
    b_columns = [b[j::cols] for j in range(cols)]
    return [sum(map(mul, r, c)) for r in a_rows for c in b_columns]


def _integer_terms(terms: Mapping) -> tuple:
    """(row, d): d*terms as a {key: int} map, d the lcm of the denominators."""
    values, d = _scaled(list(terms.values()))
    return dict(zip(terms, values)), d


def _integer_row(v: Sequence) -> tuple:
    """(row, d): d*v as a sparse {column: int} row, d the lcm of the denominators."""
    return _integer_terms({i: x for i, x in enumerate(v) if x})


def _echelon(rows: Iterable[tuple]):
    """Fraction-free sparse elimination of scaled integer rows, taken in order.

    Each entry of `rows` is a pair (row, scale): a sparse {column: int} row
    equal to `scale` times the vector v_j it stands for (see `_integer_row`);
    the columns may be any int keys, and every entry is nonzero, as every
    caller builds them.  The row dicts are reduced in place.

    A first pass collects each column as (row indices, entries) and deletes
    from the row dicts each column that equals an earlier column or its
    negative: a combination of the rows vanishes on it exactly when it
    vanishes on the earlier one, so no answer changes.  (Columns of products
    of invariants repeat up to sign along each monomial orbit of a signed
    permutation group.)  Other multiples stay, which spares a gcd per column.

    Each row r is then reduced against the kept rows in the order they were
    kept: for the kept row k at position t whose pivot column p r holds,
    a = r[p] and b = k[p] (divided by their gcd), r becomes (b*r - a*k)/h,
    h the gcd content of the result when b != 1 and else 1, and the row logs
    the step as the four ints t, a, b, h (one flat list of ints per row, so
    no step is an object for the garbage collector to track).  A kept row is
    zero at every earlier pivot, so this clears every pivot of r.  A row is
    kept when a nonzero row remains, so the kept indices are the lex-first
    independent vectors: the pivot columns of the RREF of the matrix whose
    columns are the v_j.

    Pivots follow Markowitz: a kept row takes a column where its entry is
    +-g, g its content, if it has one, the one fewest input rows touch (ties
    to the lowest column key), and is divided by its signed content s so its
    pivot is positive; it logs that as the step (t, 0, 1, s), t its own
    position.  The pivot columns change no answer: v_j is kept iff it is
    outside the span of the vectors before it, and a relation writes v_j in
    the kept vectors before it, which are independent, so it is unique.

    Returns (kept, relation): `relation(j)` is None for a kept j and else
    {i: c_i}, Fractions with v_j = sum_i c_i * v_i over the kept i < j
    (unscaled vectors), read back from the logs by `_relation` with no row
    arithmetic.
    """
    rows = list(rows)
    columns = {}  # column -> (indices of the rows holding it, their entries)
    for j, (row, _) in enumerate(rows):
        for c, x in row.items():
            held, entries = columns.setdefault(c, ([], []))
            held.append(j)
            entries.append(x)
    first = {}  # (row indices, entries up to sign) -> the first such column
    for c, (held, entries) in columns.items():
        if entries[0] < 0:
            entries = [-x for x in entries]
        if first.setdefault((tuple(held), tuple(entries)), c) != c:
            for j in held:
                del rows[j][0][c]
    pivots, kept, logs = [], [], [[] for _ in rows]  # pivots: (column, row) as kept
    for j, ((row, _), log) in enumerate(zip(rows, logs)):
        for t, (p, prow) in enumerate(pivots):
            a = row.get(p)
            if a is None:
                continue
            b = prow[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            _sub_scaled(row, b, prow, a)
            h = gcd(*row.values()) if b != 1 and row else 1
            _divide(row, h)
            log += t, a, b, h
            if not row:
                break
        if row:
            g = gcd(*row.values())
            units = [c for c, x in row.items() if x == g or x == -g]
            p = min((len(columns[c][0]), c) for c in units or row)[1]
            s = g if row[p] > 0 else -g
            _divide(row, s)
            log += len(pivots), 0, 1, s
            pivots.append((p, row))
            kept.append(j)
    return kept, partial(_relation, [d for _, d in rows], kept, logs)


def _relation(scales: list, kept: list, logs: list, j: int) -> Optional[dict]:
    """The relation of row j, read back from the step logs of `_echelon`, or
    None when row j was kept.

    Row j ends at zero.  A weight w on the output of a step (t, a, b, h),
    row' = (b*row - a*k)/h, passes w*b/h back to its input and -w*a/h to the
    kept row k at position t.  So one sweep back over the log of row j, then
    over the logs of the kept rows from the last position down (each step of
    a kept row refers to earlier positions only), gives weights c_i on the
    input rows with sum_i c_i * scale_i * v_i = 0, and v_j is the rest
    divided by -c_j * scale_j.
    """
    if j in kept:
        return None
    weights = [0] * len(kept) + [Fraction(1)]  # row j after the last kept row
    for position, i in reversed(list(enumerate(kept + [j]))):
        w = weights[position]
        if w:
            # the log four ints at a time, from the last step back
            for h, b, a, t in zip(*[reversed(logs[i])] * 4):
                if a:
                    weights[t] -= Fraction(w.numerator * a, w.denominator * h)
                w = Fraction(w.numerator * b, w.denominator * h)
            weights[position] = w
    den = -weights.pop() * scales[j]
    return {i: w * scales[i] / den for i, w in zip(kept, weights) if w}


def _sub_scaled(vec: dict, x: int, other: dict, y: int) -> None:
    """vec <- x*vec - y*other in place, dropping zero entries."""
    if x != 1:
        for c in vec:
            vec[c] *= x
    for c, v in other.items():
        s = vec.get(c, 0) - y * v
        if s:
            vec[c] = s
        else:
            del vec[c]


def _divide(row: dict, g: int) -> None:
    """row <- row / g in place; g divides every entry."""
    if g != 1:
        for c in row:
            row[c] //= g


def mat_mul(rows: Sequence[Sequence], columns: Sequence[Sequence]) -> list:
    """AB as a list of rows, from the rows of A and the columns of B (so the
    shape is right also when the inner dimension is 0).  Entries are
    rationals, Polys of one layout, or both.  Products with a zero factor are
    skipped, and each sum starts from its first product, so no Poly is copied
    once more by adding it to 0; an entry with no product is the int 0."""
    out = []
    for r in rows:
        out_row = []
        for c in columns:
            terms = [x * y for x, y in zip(r, c) if x != 0 and y != 0]
            out_row.append(sum(terms[1:], terms[0]) if terms else 0)
        out.append(out_row)
    return out


def power_traces(rows: Sequence[Sequence]) -> Iterator:
    """tr(A), tr(A^2), ..., tr(A^n) of the n x n matrix `rows`, one at a time.

    Entries are rationals, Polys of one layout, or both.  Each power is
    formed by `mat_mul` only when its trace is asked for.
    """
    n = len(rows)
    columns = list(zip(*rows))
    power = rows  # A^k
    for k in range(1, n + 1):
        yield sum(power[i][i] for i in range(n))
        if k < n:
            power = mat_mul(power, columns)


def rank(m: Matrix) -> int:
    return len(_echelon(_integer_row(m.row(i)) for i in range(m.rows))[0])


def rref(m: Matrix):
    """Reduced row echelon form, as (reduced, rank, pivot_columns).

    An entry point for library callers and the tests: no module of polinv
    calls it, as every span question reads `_echelon` itself.  One
    `_echelon` over the columns of m.  The kept columns are the pivot
    columns, and row i of the RREF holds, in every other column c, the
    coefficient of pivot column i in the relation of c to the pivot
    columns before it.
    """
    columns = (_integer_row(m.entries[c::m.cols]) for c in range(m.cols))
    pivots, relation = _echelon(columns)
    entries = [Q(0)] * (m.rows * m.cols)
    for i, p in enumerate(pivots):
        entries[i * m.cols + p] = Q(1)
    position = {p: i for i, p in enumerate(pivots)}
    for c in range(m.cols):
        for p, x in (relation(c) or {}).items():
            entries[position[p] * m.cols + c] = x
    return Matrix(m.rows, m.cols, tuple(entries)), len(pivots), pivots


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError if singular.

    One `_echelon` over the columns of m and then the n identity columns: m
    is invertible exactly when its own columns are the ones kept, and then
    the relation of identity column j writes it in the columns of m, so its
    coefficient of column i is entry (i, j) of the inverse.
    """
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    columns = [m.entries[c::n] for c in range(n)]
    columns += [[int(i == j) for i in range(n)] for j in range(n)]
    kept, relation = _echelon(map(_integer_row, columns))
    if kept != list(range(n)):
        raise ValueError("matrix is singular")
    solved = [relation(n + j) for j in range(n)]  # column j of the inverse, by row
    return Matrix(n, n, tuple(c.get(i, Q(0)) for i in range(n) for c in solved))


def solve_in_span(basis: Sequence[Sequence], target: Sequence) -> Optional[list]:
    """Express `target` as an exact linear combination of `basis` vectors.

    Only the lex-first independent basis vectors get nonzero coefficients
    (free coordinates are zero), so the answer is the one read off the RREF
    of [basis | target].  Returns the coefficient list, or None when the
    target is not in the span.  All vectors must have the same length.
    """
    vectors = [[frac(x) for x in v] for v in [*basis, target]]
    n = len(target)
    if any(len(v) != n for v in vectors):
        raise ValueError("dimension mismatch")
    relation = _echelon(map(_integer_row, vectors))[1](len(basis))
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
    the same cone as rational elimination would.  The variables are
    eliminated in a loop from the last down, each level's low and high rows
    kept; then x_0, x_1, ... are set in turn between the bounds of their
    level.  Returns one rational solution as (numerators, common
    denominator), or None.
    """
    levels = []  # (lows, highs) of x_v, for v = nvars - 1 down to 0
    for left in range(nvars, -1, -1):  # the number of variables not eliminated
        prim = []
        for r in rows:
            g = gcd(*r)
            if g == 0:
                return None  # 0 > 0
            prim.append(tuple(x // g for x in r) if g != 1 else r)
        rows = list(dict.fromkeys(prim))
        if left:
            v = left - 1
            lows = [r for r in rows if r[v] > 0]
            highs = [r for r in rows if r[v] < 0]
            rows = [r[:v] for r in rows if r[v] == 0]
            rows += [tuple(l[v] * y - u[v] * x for x, y in zip(l[:v], u[:v]))
                     for l in lows for u in highs]
            levels.append((lows, highs))
    nums, den = [], 1
    for v, (lows, highs) in enumerate(reversed(levels)):
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
        nums, den = [n * (d // den) for n in nums] + [val.numerator * (d // val.denominator)], d
    return nums, den


def strict_positive_functional(points: Iterable[Sequence], dim: Optional[int] = None):
    """Find an integer vector gamma with <gamma, p> > 0 for every point p.

    Returns a primitive integer tuple, or None when no such functional exists
    (equivalently, 0 lies in the convex hull of the points).  An empty point
    list is vacuously feasible and returns (1, ..., 1); pass `dim` to fix its
    length.
    """
    rows = [tuple(_scaled(p)[0]) for p in points]
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
