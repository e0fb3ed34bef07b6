"""The exponent walk that `polinv.polarization._exponent_tuples` replaced,
kept as an independent reference for the tests: it tries every exponent of
every generator but the last of nonzero degree, whose exponent it solves
for, and so also visits prefixes from which no tuple completes."""

from polinv.limits import CapExceededError


def unpruned_exponent_tuples(degrees, target, cap):
    """All exponent tuples e with sum_i e_i * degrees[i] = target, in lex order.

    Generators of zero multidegree are held at exponent zero.  Raises when
    more than `cap` tuples would be produced.
    """
    blocks = len(target)
    last = max((i for i, deg in enumerate(degrees) if any(deg)), default=-1)
    out = []

    def rec(i, remaining, prefix):
        if i == len(degrees):
            if all(r == 0 for r in remaining):
                if len(out) >= cap:
                    raise CapExceededError("span too large", "span_products", cap)
                out.append(prefix)
            return
        deg = degrees[i]
        if all(d == 0 for d in deg):
            rec(i + 1, remaining, prefix + (0,))
            return
        emax = min(remaining[b] // deg[b] for b in range(blocks) if deg[b] > 0)
        if i == last:
            # the one exponent that could zero the remainder
            if all(r == emax * d for r, d in zip(remaining, deg)):
                rec(i + 1, (0,) * blocks, prefix + (emax,))
            return
        for e in range(emax + 1):
            rest = tuple(r - e * d for r, d in zip(remaining, deg))
            if any(x < 0 for x in rest):
                break
            rec(i + 1, rest, prefix + (e,))

    rec(0, tuple(target), ())
    return out
