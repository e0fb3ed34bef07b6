"""Finite matrix groups acting diagonally on polynomial rings.

A group element is stored once, in one form: a (perm, signs) pair when it is
a signed permutation matrix, its `Matrix` otherwise.  The builtin S/B/D
families are listed in closed form as such pairs; a group given by rational
generator matrices is enumerated to a full element list by breadth-first
closure.  The polynomial action follows the left-action convention
(g.p)(v) = p(g^{-1} v), applied per block.

Invariant dimensions of a group of signed permutations are monomial orbit
counts; only a group with a `Matrix` element takes the rank of Reynolds
images.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import List, Sequence, Tuple, Union

from .limits import CapExceededError, DEFAULT_CAPS
from .linalg import Matrix, frac, inverse, rank
from .poly import Poly, VariableLayout, count_monomials, monomials

Q = Fraction
# a stored group element: the (perm, signs) pair of `_signed_perm`, or a Matrix
Element = Union[Tuple[Tuple[int, ...], Tuple[int, ...]], Matrix]


def _signed_perm(g: Matrix):
    """(perm, signs) when g^{-1} maps each variable j to signs[j] * x_perm[j], else None.

    For a signed permutation matrix g^{-1} is the transpose of g, so the map
    is read off the columns of g.  The substitution is then a monomial map,
    which lets the action remap exponent tuples directly instead of
    expanding products.
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


@dataclass(frozen=True)
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


def enumerate_group(generators: Sequence[Matrix], cap: int = DEFAULT_CAPS.group_order) -> MatrixGroup:
    """Close the generators under multiplication, breadth-first from the identity.

    The element order is deterministic: BFS layer by layer, multiplying on the
    right by the generators in the order given.  Each generator and element
    is then stored as its (perm, signs) pair when it is a signed permutation.
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
                if len(elements) >= cap:
                    raise CapExceededError("group too large", "group_order", cap)
                seen.add(f.entries)
                elements.append(f)
                queue.append(f)
    return MatrixGroup(n, tuple(_signed_perm(g) or g for g in gens),
                       tuple(_signed_perm(g) or g for g in elements))


def builtin_family(name: str, m: int, cap: int = DEFAULT_CAPS.group_order) -> MatrixGroup:
    """Standard reflection representations, listed as (perm, signs) pairs.

    S = symmetric group permuting coordinates, B = all signed permutations,
    D = permutations with an even number of sign changes (needs m >= 2).  The
    order m!, 2^m m! or 2^(m-1) m! is checked against `cap` factor by factor,
    before any element is built, so a huge m is refused at once.
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
        if order > cap:
            raise CapExceededError("group too large", "group_order", cap)
    ident, plus = tuple(range(m)), (1,) * m
    gens = [((1, 0) + ident[2:], plus)] if m >= 2 else []
    if m >= 3:
        gens.append((ident[1:] + (0,), plus))
    if flips or not gens:  # the sign flip, or the identity for S_1
        gens.append((ident, (-1,) * flips + plus[flips:]))
    signs = [s for s in product((1, -1) if flips else (1,), repeat=m)
             if flips < 2 or s.count(-1) % 2 == 0]
    return MatrixGroup(m, tuple(gens), tuple((p, s) for p in permutations(ident) for s in signs))


@dataclass(frozen=True)
class DiagonalAction:
    """A group acting identically on each block of a layout (the action on V^n)."""

    group: MatrixGroup
    layout: VariableLayout

    def __post_init__(self):
        if self.layout.vars_per_block != self.group.dimension:
            raise ValueError("layout block size must equal the group dimension")


def _substitution_images(g: Matrix, layout: VariableLayout):
    """Variable images realizing p |-> p(g^{-1} .) blockwise."""
    inv = inverse(g)
    m = layout.vars_per_block
    images = {}
    for a in range(layout.blocks):
        for j in range(m):
            terms = {}
            for i in range(m):
                c = inv.at(j, i)
                if c != 0:
                    exps = [0] * layout.total
                    exps[a * m + i] = 1
                    terms[tuple(exps)] = c
            images[a * m + j] = Poly(layout, terms)
    return images


def act(g: Element, p: Poly, action: DiagonalAction) -> Poly:
    """(g.p)(v) = p(g^{-1} v) on every block: a pair remaps exponents, a Matrix substitutes."""
    if p.layout != action.layout:
        raise ValueError("polynomial layout does not match the action")
    if isinstance(g, Matrix):
        return p.substitute(_substitution_images(g, action.layout))
    src, odd = _layout_map(g, action.layout)
    terms = {}
    for e, c in p._terms.items():
        terms[tuple(map(e.__getitem__, src))] = -c if sum(map(e.__getitem__, odd)) & 1 else c
    return Poly._trusted(action.layout, terms)


def _layout_map(sp, layout: VariableLayout):
    """(src, odd) for a signed permutation acting on every block of the layout.

    The image of x^e is (-1)^(sum of e[i], i in odd) * x^e' with
    e'[t] = e[src[t]].
    """
    perm, signs = sp
    m = layout.vars_per_block
    src = [0] * layout.total
    odd = []
    for base in range(0, layout.total, m):
        for j in range(m):
            src[base + perm[j]] = base + j
            if signs[j] < 0:
                odd.append(base + j)
    return src, odd


def _element_maps(action: DiagonalAction) -> tuple:
    """(signed, images): the layout maps of the (perm, signs) elements and the
    substitution images of the `Matrix` elements, in element order."""
    signed, images = [], []
    for g in action.group.elements:
        if isinstance(g, Matrix):
            images.append(_substitution_images(g, action.layout))
        else:
            signed.append(_layout_map(g, action.layout))
    return signed, images


def _reynolds(p: Poly, action: DiagonalAction, maps: tuple) -> Poly:
    """reynolds(p, action), given `_element_maps(action)`."""
    signed, images = maps
    sums: dict = {}  # zero sums are dropped by the Poly constructor
    for g_images in images:
        for e, c in p.substitute(g_images)._terms.items():
            sums[e] = sums.get(e, 0) + c
    for e, c in p._terms.items():
        # signed images of one term as integer counts: one Fraction product
        # per distinct image instead of one Fraction sum per element
        counts: dict = {}
        for src, odd in signed:
            ne = tuple(map(e.__getitem__, src))
            counts[ne] = counts.get(ne, 0) + (-1 if sum(map(e.__getitem__, odd)) & 1 else 1)
        for ne, k in counts.items():
            sums[ne] = sums.get(ne, 0) + c * k
    scale = Fraction(1, action.group.order)
    return Poly(p.layout, {e: c * scale for e, c in sums.items()})


def reynolds(p: Poly, action: DiagonalAction) -> Poly:
    """Average over the group: (1/|G|) sum_g g.p.  Projects onto invariants."""
    if p.layout != action.layout:
        raise ValueError("polynomial layout does not match the action")
    return _reynolds(p, action, _element_maps(action))


def is_invariant(p: Poly, action: DiagonalAction) -> bool:
    return all(act(g, p, action) == p for g in action.group.generators)


def monomials_of_multidegree(layout: VariableLayout, deg: Sequence[int]) -> List[tuple]:
    """Exponent tuples with the given total degree in each block, deterministic order."""
    if len(deg) != layout.blocks:
        raise ValueError("multidegree length does not match layout")
    return monomials((layout.vars_per_block,) * layout.blocks, deg)


def invariant_dimension(action: DiagonalAction, deg: Sequence[int],
                        monomial_cap: int = DEFAULT_CAPS.monomials) -> int:
    """Exact dimension of the invariant subspace in one multidegree.

    When every element is a (perm, signs) pair, each sends x^e to +-x^e', so
    the Reynolds image of x^e is 0 when some element of its stabilizer acts
    by -1 and a nonzero multiple of its signed orbit sum otherwise; distinct
    orbits have disjoint supports.  The dimension is then the number of
    monomial orbits with a sign-trivial stabilizer, counted without any
    `Poly` or rank.  A group holding a `Matrix` element takes the rank of the
    Reynolds images of all monomials instead.  Either way a monomial basis
    above `monomial_cap` is refused with a cap error first.
    """
    deg = tuple(deg)
    n_mono = count_monomials((action.layout.vars_per_block,) * len(deg), deg)
    if n_mono > monomial_cap:
        raise CapExceededError("degree too large", "monomials", monomial_cap)
    monos = monomials_of_multidegree(action.layout, deg)
    maps = _element_maps(action)
    if not maps[1]:  # every element is a (perm, signs) pair
        return _count_live_orbits(monos, maps[0])
    index = {e: i for i, e in enumerate(monos)}
    rows = []
    seen = set()
    for e in monos:
        image = _reynolds(Poly.monomial(action.layout, e), action, maps)
        if image.is_zero():
            continue
        # normalize so scalar-multiple images collapse to one row
        entries = sorted((index[ee], c) for ee, c in image._terms.items())
        lead = entries[0][1]
        key = tuple((i, c / lead) for i, c in entries)
        if key not in seen:
            seen.add(key)
            vec = [Q(0)] * n_mono
            for i, c in key:
                vec[i] = c
            rows.append(vec)
    if not rows:
        return 0
    return rank(Matrix.from_rows(rows))


def _count_live_orbits(monos: Sequence[tuple], signed: Sequence[tuple]) -> int:
    """Orbits of the exponent tuples `monos` under the layout maps `signed`
    whose stabilizer has no element acting by -1."""
    seen = set()
    live = 0
    for e in monos:
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


def point_image(g: Element, v: Sequence, layout: VariableLayout) -> tuple:
    """g v on every block of the layout: a signed remap of the coordinates
    for a (perm, signs) pair, `Matrix.matvec` for a matrix."""
    m = layout.vars_per_block
    if isinstance(g, Matrix):
        return tuple(x for base in range(0, layout.total, m) for x in g.matvec(v[base:base + m]))
    perm, signs = g
    image = [0] * layout.total
    for base in range(0, layout.total, m):
        for j in range(m):
            image[base + perm[j]] = v[base + j] if signs[j] > 0 else -v[base + j]
    return tuple(image)


def same_orbit(v: Sequence, w: Sequence, action: DiagonalAction) -> bool:
    """True when some group element maps v to w, blockwise matrix action."""
    total = action.layout.total
    if len(v) != total or len(w) != total:
        raise ValueError("vector length does not match layout")
    v = [frac(x) for x in v]
    w = tuple(frac(x) for x in w)
    return any(point_image(g, v, action.layout) == w for g in action.group.elements)
