"""The box oracle that `polinv.nullcone.brute_box_functional` replaced, kept
as an independent reference for the tests: it scans every prefix of the
first dim - 1 coordinates, with no bound carried down from the later
coordinates, and solves only the last coordinate as an interval."""

from itertools import product
from operator import mul

from polinv.linalg import _scaled


def prefix_scan_box_functional(points, dim, bound=20):
    """First integer gamma in [-bound, bound]^dim with all <gamma, p> > 0,
    lex-ordered with the first coordinate slowest, or None.  Empty input
    gives (1, ..., 1)."""
    if not points:
        return tuple([1] * dim)
    rows = [_scaled(p)[0] for p in points]
    split = [(r[:-1], r[-1]) for r in rows]
    for prefix in product(range(-bound, bound + 1), repeat=dim - 1):
        lo, hi = -bound, bound
        for head, c in split:
            # <gamma, p> = s + c * g > 0 for the last coordinate g
            s = sum(map(mul, prefix, head))
            if c > 0:
                lo = max(lo, -s // c + 1)
            elif c < 0:
                hi = min(hi, (s - 1) // -c)
            elif s <= 0:
                break
            if lo > hi:
                break
        else:
            return prefix + (lo,)
    return None
