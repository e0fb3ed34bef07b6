"""The Fraction RREF that `polinv.linalg.rref` replaced, kept as an
independent reference for the tests: a dense pivot loop over `Fraction`
entries that shares no code with `_echelon`."""

from fractions import Fraction

from polinv.linalg import Matrix


def _bits(q: Fraction) -> int:
    # size measure used for pivot selection, keeps intermediate entries small
    return abs(q.numerator).bit_length() + q.denominator.bit_length()


def fraction_rref(m: Matrix):
    """Reduced row echelon form.

    Returns (reduced, rank, pivot_columns).  The result is the unique RREF of
    the input; the pivot row in each column is chosen by the smallest bit
    length of its entry (ties broken by row index) purely to keep
    intermediate coefficients small.
    """
    a = m.to_rows()
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        best = None
        for i in range(r, m.rows):
            if a[i][c] != 0:
                key = (_bits(a[i][c]), i)
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        i = best[1]
        a[r], a[i] = a[i], a[r]
        piv = a[r][c]
        if piv != 1:
            a[r] = [x / piv for x in a[r]]
        for i2 in range(m.rows):
            if i2 != r and a[i2][c] != 0:
                f = a[i2][c]
                a[i2] = [x - f * y for x, y in zip(a[i2], a[r])]
        pivots.append(c)
        r += 1
    reduced = Matrix(m.rows, m.cols, tuple(x for row in a for x in row))
    return reduced, r, pivots


