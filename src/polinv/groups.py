"""Finite matrix groups acting diagonally on polynomial rings.

A group element is stored once, in one form: a (perm, signs) pair when it is
a signed permutation matrix, its `Matrix` otherwise.  The builtin S/B/D
families are listed in closed form as such pairs; a group given by rational
generator matrices is enumerated to a full element list by breadth-first
closure.  The polynomial action follows the left-action convention
(g.p)(v) = p(g^{-1} v), applied per block, and every element acts by one
substitution of the variables (`Poly.substitute`), whatever its form.

Invariant dimensions come from Molien's formula for every group: each
element contributes the coefficients h_k of 1/det(1 - s g), read off its
cycles for a (perm, signs) pair and off its power traces for a `Matrix`.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product
from typing import Sequence, Tuple, Union

from .limits import Caps, DEFAULT_CAPS, frozen
from .linalg import Matrix, inverse, power_traces, rank
from .poly import Poly, VariableLayout, count_monomials

# a stored group element: the (perm, signs) pair of `_signed_perm`, or a Matrix
Element = Union[Tuple[Tuple[int, ...], Tuple[int, ...]], Matrix]


def _signed_perm(g: Matrix):
    """(perm, signs) when g^{-1} maps each variable j to signs[j] * x_perm[j], else None.

    For a signed permutation matrix g^{-1} is the transpose of g, so the map
    is read off the columns of g.  The pair needs no inverse: it gives
    det(1 - s g) from its signed cycles, and the variable images of `act` as
    single signed variables.
    """
    perm, signs = [], []
    for j in range(g.cols):
        nz = [(i, g.at(i, j)) for i in range(g.rows) if g.at(i, j) != 0]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            return None
        perm.append(nz[0][0])
        signs.append(1 if nz[0][1] > 0 else -1)
    if len(set(perm)) != len(perm):
        return None
    return tuple(perm), tuple(signs)


@frozen
class MatrixGroup:
    """A finite group of invertible rational matrices, fully enumerated.

    Every generator and element is an `Element`: a (perm, signs) pair when it
    is a signed permutation, else its `Matrix`.
    """

    dimension: int
    generators: Tuple[Element, ...]
    elements: Tuple[Element, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def molien_classes(self) -> Tuple[Tuple[tuple, int, list], ...]:
        """(coefficients of det(1 - s g), number of elements g sharing them,
        h) for each distinct such polynomial, built once per group.  h starts
        as [1], the h_0 of 1/det(1 - s g), and `invariant_dimension` extends
        it in place as far as a degree asks, so each h_k is built once."""
        return tuple((c, count, [1])
                     for c, count in Counter(map(_det_one_minus, self.elements)).items())


def _det_one_minus(g: Element) -> tuple:
    """Coefficients c_k of det(1 - s g) in s, constant term first.

    A (perm, signs) pair gives the product over its cycles of 1 - eps s^L,
    L the cycle length and eps the product of the cycle's signs, in integers.
    A `Matrix` gives them from its power traces by Newton's identities,
    k c_k = -sum_{i=1..k} c_{k-i} tr(g^i), over Q.
    """
    if isinstance(g, Matrix):
        c, traces = [1], []
        for t in power_traces(g.to_rows()):
            traces.append(t)
            c.append(-sum(a * b for a, b in zip(reversed(c), traces)) / len(traces))
        return tuple(c)
    perm, signs = g
    c = [1] + [0] * len(perm)
    unseen = set(range(len(perm)))
    while unseen:
        j = start = unseen.pop()
        length, eps = 1, signs[j]
        while perm[j] != start:
            j = perm[j]
            unseen.remove(j)
            length, eps = length + 1, eps * signs[j]
        for k in range(len(perm), length - 1, -1):  # multiply by 1 - eps s^L
            c[k] -= eps * c[k - length]
    return tuple(c)


def enumerate_group(generators: Sequence[Matrix], caps: Caps = DEFAULT_CAPS) -> MatrixGroup:
    """Close the generators under multiplication, breadth-first from the identity.

    The element order is deterministic: BFS layer by layer, multiplying on the
    right by the generators in the order given.  Each generator and element
    is then stored as its (perm, signs) pair when it is a signed permutation.
    A closure of more than `caps.group_order` elements is refused.  So is an
    element whose trace is not an integer of absolute value at most n: a
    rational matrix of finite order has roots of unity as its eigenvalues,
    so its trace is a rational algebraic integer of size at most n, and the
    generators of a finite group never meet this refusal.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].rows
    for g in gens:
        if g.rows != g.cols or g.rows != n:
            raise ValueError("generators must be square matrices of equal size")
        if rank(g) != n:
            raise ValueError("generator is not invertible")
    ident = Matrix.identity(n)
    elements = [ident]
    seen = {ident.entries}
    queue = deque([ident])
    while queue:
        e = queue.popleft()
        for g in gens:
            f = e @ g
            if f.entries not in seen:
                caps.bound("group_order", len(elements) + 1, "group too large")
                trace = sum(f.entries[::n + 1])
                if trace.denominator != 1 or abs(trace.numerator) > n:
                    raise ValueError("generators do not generate a finite group: "
                                     f"an element has trace {trace}")
                seen.add(f.entries)
                elements.append(f)
                queue.append(f)
    return MatrixGroup(n, tuple(_signed_perm(g) or g for g in gens),
                       tuple(_signed_perm(g) or g for g in elements))


def builtin_family(name: str, m: int, caps: Caps = DEFAULT_CAPS) -> MatrixGroup:
    """Standard reflection representations, listed as (perm, signs) pairs.

    S = symmetric group permuting coordinates, B = all signed permutations,
    D = permutations with an even number of sign changes (needs m >= 2).  The
    order m!, 2^m m! or 2^(m-1) m! is checked against `caps.group_order`
    factor by factor, before any element is built, so a huge m is refused at
    once.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    flips = {"S": 0, "B": 1, "D": 2}.get(name)  # coordinates the sign generator negates
    if flips is None:
        raise ValueError(f"unsupported family {name!r} (expected S, B or D)")
    if m < flips:
        raise ValueError(f"family {name} needs m >= {flips}")
    order = 1  # m! times 2^m (B) or 2^(m-1) (D), one factor at a time
    for k in range(1, m + 1):
        order *= 2 * k if flips and k >= flips else k
        caps.bound("group_order", order, "group too large")
    ident, plus = tuple(range(m)), (1,) * m
    gens = [((1, 0) + ident[2:], plus)] if m >= 2 else []
    if m >= 3:
        gens.append((ident[1:] + (0,), plus))
    if flips or not gens:  # the sign flip, or the identity for S_1
        gens.append((ident, (-1,) * flips + plus[flips:]))
    signs = [s for s in product((1, -1) if flips else (1,), repeat=m)
             if flips < 2 or s.count(-1) % 2 == 0]
    return MatrixGroup(m, tuple(gens), tuple((p, s) for p in permutations(ident) for s in signs))


@frozen
class DiagonalAction:
    """A group acting identically on each block of a layout (the action on V^n)."""

    group: MatrixGroup
    layout: VariableLayout

    def __post_init__(self):
        if self.layout.vars_per_block != self.group.dimension:
            raise ValueError("layout block size must equal the group dimension")


def _substitution_images(g: Element, layout: VariableLayout):
    """Variable images realizing p |-> p(g^{-1} .) blockwise.

    A (perm, signs) pair sends x_(a,j) to signs[j] * x_(a,perm[j]); a `Matrix`
    sends x_(a,j) to sum_i (g^{-1})_(j,i) x_(a,i), read off its inverse.
    """
    m = layout.vars_per_block
    if isinstance(g, Matrix):
        inv = inverse(g)
        rows = [[(i, inv.at(j, i)) for i in range(m) if inv.at(j, i) != 0] for j in range(m)]
    else:
        rows = [[(i, Fraction(s))] for i, s in zip(*g)]
    images = {}
    for base in range(0, layout.total, m):
        for j, row in enumerate(rows):
            terms = {}
            for i, c in row:
                exps = [0] * layout.total
                exps[base + i] = 1
                terms[tuple(exps)] = c
            images[base + j] = Poly._trusted(layout, terms)
    return images


def act(g: Element, p: Poly, action: DiagonalAction) -> Poly:
    """(g.p)(v) = p(g^{-1} v) on every block, by substituting the images of the variables."""
    if p.layout != action.layout:
        raise ValueError("polynomial layout does not match the action")
    return p.substitute(_substitution_images(g, action.layout))


def reynolds(p: Poly, action: DiagonalAction) -> Poly:
    """Average over the group: (1/|G|) sum_g g.p.  Projects onto invariants."""
    sums: dict = {}  # zero sums are dropped by the Poly constructor
    for g in action.group.elements:
        for e, c in act(g, p, action)._terms.items():
            sums[e] = sums.get(e, 0) + c
    scale = Fraction(1, action.group.order)
    return Poly(p.layout, {e: c * scale for e, c in sums.items()})


def is_invariant(p: Poly, action: DiagonalAction) -> bool:
    return all(act(g, p, action) == p for g in action.group.generators)


def invariant_dimension(action: DiagonalAction, deg: Sequence[int],
                        caps: Caps = DEFAULT_CAPS) -> int:
    """Exact dimension of the invariant subspace in multidegree (a_1, ..., a_n).

    Molien's formula, dim = (1/|G|) sum_g prod_j h_{a_j}(g), where h_k(g) is
    the coefficient of s^k in 1/det(1 - s g) (the trace of g on degree-k
    forms).  The sum runs over `molien_classes`, one term per distinct
    det(1 - s g) = sum_i c_i s^i weighted by its element count, with
    h_k = -sum_{i>=1} c_i h_{k-i}, kept with the class so a table of
    multidegrees builds each h_k once.  No `Poly` and no rank is formed.  A
    multidegree whose monomial basis is above `caps.monomials` is refused
    with a cap error first.
    """
    deg = tuple(deg)
    caps.bound("monomials", count_monomials((action.layout.vars_per_block,) * len(deg), deg),
               "degree too large")
    if len(deg) != action.layout.blocks:
        raise ValueError("multidegree length does not match layout")
    top, total = max(deg, default=0), 0
    for c, count, h in action.group.molien_classes:
        while len(h) <= top:
            h.append(-sum(a * b for a, b in zip(c[1:], reversed(h))))
        term = count
        for a in deg:
            term *= h[a]
        total += term
    dim, rest = divmod(total, action.group.order)
    if rest:
        raise ArithmeticError(f"Molien sum {total} is not divisible by |G| = {action.group.order}")
    return dim
