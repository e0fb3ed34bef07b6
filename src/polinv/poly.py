"""Exact multivariate polynomials over Q with a block multigrading.

Variables are organized into `blocks` blocks of `vars_per_block` variables
each; block a, slot j is the canonical index a*vars_per_block + j.  The
multidegree of a monomial is the tuple of its total degrees per block.
Term order everywhere is graded lexicographic on exponent vectors
(descending), which makes every serialization and basis deterministic.
Powers are built once each, in ascending order, by `_power_table`: the
powers of the images in `Poly.substitute`, and the powers of a point's
integer coordinates in `Poly.evaluate`, which clears the point's
denominators once with `_scaled`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm
from numbers import Rational
from operator import add, mul
from typing import Dict, Iterator, List, Optional, Sequence

from .limits import frozen
from .linalg import _integer_terms, _scaled, frac

Q = Fraction


@frozen
class VariableLayout:
    """n blocks of m variables; block a, slot j has canonical index a*m + j."""

    blocks: int
    vars_per_block: int

    def __post_init__(self):
        if self.blocks < 1 or self.vars_per_block < 1:
            raise ValueError("layout needs at least one block and one variable per block")

    @property
    def total(self) -> int:
        return self.blocks * self.vars_per_block

    def index(self, block: int, slot: int) -> int:
        if not (0 <= block < self.blocks and 0 <= slot < self.vars_per_block):
            raise ValueError("variable position out of range")
        return block * self.vars_per_block + slot

    def var_name(self, index: int) -> str:
        a, j = divmod(index, self.vars_per_block)
        return f"x{a + 1}_{j + 1}"

    def block_degrees(self, exponents: Sequence[int]) -> tuple:
        m = self.vars_per_block
        return tuple(sum(exponents[a * m : (a + 1) * m]) for a in range(self.blocks))


_UNIVARIATE = VariableLayout(1, 1)  # t, for p ** e = t^e with t -> p


def glex_key(exponents: Sequence[int]):
    """Sort key for graded lexicographic order (use reverse=True for descending)."""
    return (sum(exponents), tuple(exponents))


def compositions(total: int, parts: int) -> list:
    """[(c, total! / (c_1! ... c_parts!))] for every tuple c of `parts`
    non-negative integers summing to `total`, lex descending: the
    compositions with their multinomial coefficients.

    Built one part at a time, with no recursion: each prefix carries what is
    left of the total and its weight, and is extended by every next part p
    from what is left down to 0, the weight times C(left, p) (stepped down
    by one exact multiply and divide).  A prefix with nothing left has one
    completion, its zeros, so it is carried as it is and padded at the end;
    the last part is what is left.
    """
    level = [((), total, 1)]  # (prefix, left, weight), lex descending
    for _ in range(parts - 1):
        grown = []
        for prefix, left, w in level:
            if not left:
                grown.append((prefix, left, w))
                continue
            binomial = 1  # C(left, p)
            for p in range(left, -1, -1):
                grown.append(((*prefix, p), left - p, w * binomial))
                binomial = binomial * p // (left - p + 1)
        level = grown
    return [((*prefix, *[0] * (parts - 1 - len(prefix)), left), w) for prefix, left, w in level]


def multidegrees(max_total: int, parts: int) -> Iterator[tuple]:
    """Every multidegree with `parts` entries and total degree <= max_total, graded-lex
    ascending, one total degree at a time (so a caller that refuses one stops early)."""
    for total in range(max_total + 1):
        yield from reversed([c for c, _ in compositions(total, parts)])


def monomials(block_sizes: Sequence[int], deg: Sequence[int]) -> List[tuple]:
    """Exponent tuples over consecutive blocks of the given sizes, of total
    degree deg[a] in block a, lex descending."""
    out = [()]
    for size, d in zip(block_sizes, deg):
        options = [c for c, _ in compositions(d, size)]
        out = [prefix + opt for prefix in out for opt in options]
    return out


def count_monomials(block_sizes: Sequence[int], deg: Sequence[int]) -> int:
    """len(monomials(block_sizes, deg)), without enumerating them."""
    n = 1
    for size, d in zip(block_sizes, deg):
        n *= comb(d + size - 1, size - 1)
    return n


class Poly:
    """Sparse exact polynomial: a map from exponent tuples to nonzero Fractions."""

    __slots__ = ("layout", "_terms")

    def __init__(self, layout: VariableLayout, terms: Optional[Dict[tuple, Fraction]] = None):
        clean: Dict[tuple, Fraction] = {}
        if terms:
            n = layout.total
            for exps, c in terms.items():
                if len(exps) != n:
                    raise ValueError("exponent tuple length does not match layout")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                c = frac(c)
                if c != 0:
                    clean[tuple(exps)] = c
        self.layout = layout
        self._terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trusted(cls, layout: VariableLayout, terms: Dict[tuple, Fraction]) -> "Poly":
        """Wrap `terms` unchecked: exponent tuples of the layout's length, nonzero Fractions."""
        out = cls.__new__(cls)
        out.layout = layout
        out._terms = terms
        return out

    @classmethod
    def zero(cls, layout: VariableLayout) -> "Poly":
        return cls(layout)

    @classmethod
    def constant(cls, layout: VariableLayout, c) -> "Poly":
        return cls(layout, {tuple([0] * layout.total): frac(c)})

    @classmethod
    def variable(cls, layout: VariableLayout, index: int) -> "Poly":
        if not (0 <= index < layout.total):
            raise ValueError("variable index out of range")
        exps = [0] * layout.total
        exps[index] = 1
        return cls(layout, {tuple(exps): Q(1)})

    @classmethod
    def monomial(cls, layout: VariableLayout, exponents: Sequence[int], coeff=1) -> "Poly":
        return cls(layout, {tuple(exponents): frac(coeff)})

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list:
        """Terms as (exponents, coefficient) pairs in graded-lex descending order."""
        return sorted(self._terms.items(), key=lambda t: glex_key(t[0]), reverse=True)

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exponents), Q(0))

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

    def multidegree(self) -> Optional[tuple]:
        """The common block multidegree, or None if not multihomogeneous.

        The zero polynomial counts as multihomogeneous of every multidegree
        and returns None as well; callers that need a degree must check
        is_zero first.
        """
        degs = {self.layout.block_degrees(e) for e in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    # -- ring operations ----------------------------------------------------

    def _check_layout(self, other: "Poly"):
        if self.layout != other.layout:
            raise ValueError("layout mismatch")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.layout, other)
        self._check_layout(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            s = terms.get(e, Q(0)) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Poly._trusted(self.layout, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.layout, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.layout, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Exact product.  Each operand is scaled once to integer coefficients
        (by the lcm of its denominators), the scaled operands are multiplied
        in Python ints by `_int_mul`, and each surviving term is divided by
        the product of the two scales: one Fraction per output term."""
        if not isinstance(other, Poly):
            c = frac(other)
            if c == 0:
                return Poly.zero(self.layout)
            return Poly._trusted(self.layout, {e: c * v for e, v in self._terms.items()})
        self._check_layout(other)
        a, da = _integer_terms(self._terms)
        b, db = _integer_terms(other._terms)
        d = da * db
        return Poly._trusted(self.layout, {e: Q(c, d) for e, c in _int_mul(a, b).items()})

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        return Poly._trusted(_UNIVARIATE, {(e,): Q(1)}).substitute({0: self})

    def _as_constant(self) -> Optional[Fraction]:
        """The constant self equals (0 for the zero polynomial), or None."""
        if len(self._terms) > 1:
            return None
        return self._terms.get((0,) * self.layout.total) if self._terms else Q(0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.layout == other.layout and self._terms == other._terms
        if isinstance(other, Rational):
            return self._as_constant() == other
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its value, so equal objects hash alike
        c = self._as_constant()
        if c is not None:
            return hash(c)
        return hash((self.layout, frozenset(self._terms.items())))

    def __repr__(self):
        return f"Poly({poly_to_string(self)!r})"

    # -- calculus and structure ---------------------------------------------

    def derivative(self, var: int) -> "Poly":
        if not (0 <= var < self.layout.total):
            raise ValueError("variable index out of range")
        terms: Dict[tuple, Fraction] = {}
        for e, c in self._terms.items():
            k = e[var]
            if k:
                ne = list(e)
                ne[var] = k - 1
                terms[tuple(ne)] = c * k
        return Poly(self.layout, terms)

    def substitute(self, images: Dict[int, "Poly"]) -> "Poly":
        """Substitute polynomials for variables: the general expansion of
        sum c * prod_j q_j^{e_j} in this package (`polarize` writes its
        powers of sums of variables from multinomial coefficients instead).

        All image polynomials must share one layout (the target).  Variables
        without an image map to the variable with the same canonical index in
        the target layout, so the identity substitution is the default.  Each
        image q_j is scaled once to d_j * q_j with integer coefficients; the
        powers of it that the terms use are built once each, in ascending
        order, each from the one before (`_power_table` with `_int_mul`); the
        terms are summed in Python ints over one common denominator, and one
        Fraction is made per output term.
        """
        if not images:
            return self
        layouts = {p.layout for p in images.values()}
        if len(layouts) > 1:
            raise ValueError("substitution images live in different layouts")
        target, = layouts
        tables = {}  # j -> ({e: (d_j q_j)^e} for the exponents of x_j in self, d_j)
        for j, column in enumerate(zip(*self._terms)):
            used = sorted(set(column) - {0})
            if used:
                image = images.get(j)
                if image is None:
                    if j >= target.total:
                        raise ValueError("unmapped variable has no counterpart in target layout")
                    image = Poly.variable(target, j)
                base, d = _integer_terms(image._terms)
                tables[j] = (_power_table(base, used, _int_mul), d)

        parts = []  # (numerator, denominator, integer product) per term of self
        for exps, c in self._terms.items():
            terms, den = None, c.denominator
            for j, e in enumerate(exps):
                if e:
                    table, d = tables[j]
                    terms = table[e] if terms is None else _int_mul(terms, table[e])
                    den *= d ** e
            if terms is None:
                terms = {(0,) * target.total: 1}
            parts.append((c.numerator, den, terms))
        common = lcm(*[den for _, den, _ in parts])
        total: Dict[tuple, int] = {}
        for num, den, terms in parts:
            k = num * (common // den)
            for e, x in terms.items():
                total[e] = total.get(e, 0) + k * x
        return Poly._trusted(target, {e: Q(x, common) for e, x in total.items() if x})

    def evaluate(self, point: Sequence) -> Fraction:
        """The exact value at `point`, in integers.  The point is scaled once
        to n/D (`_scaled`), and each variable's powers of n_i that the terms
        use are built once (`_power_table`).  With K the top total degree, a
        term c x^k times D^K is c * prod_i n_i^k_i * D^(K - |k|), so a
        homogeneous polynomial needs no power of D; the sum is divided once,
        at the end."""
        if len(point) != self.layout.total:
            raise ValueError("point length does not match layout")
        nums, D = _scaled(point)
        coeffs, scale = _integer_terms(self._terms)
        top = self.total_degree()
        gaps = {e: top - sum(e) for e in coeffs}
        tables = []  # (i, {k: n_i^k}) for each variable that the terms use
        for i, column in enumerate(zip(*coeffs)):
            used = sorted(set(column) - {0})
            if used:
                tables.append((i, {0: 1, **_power_table(nums[i], used, mul)}))
        scales = {0: 1, **_power_table(D, sorted(set(gaps.values()) - {0}), mul)}
        total = 0
        for e, c in coeffs.items():
            for i, table in tables:
                c *= table[e[i]]
            total += c * scales[gaps[e]]
        return Q(total, scale * D ** top)


def _power_table(base, exponents: Sequence[int], mul) -> dict:
    """{e: base^e} for the ascending positive `exponents`, each power built
    from the one before by repeated `mul(power, base)`, so each is built once."""
    out, power, last = {}, base, 1
    for e in exponents:
        for _ in range(e - last):
            power = mul(power, base)
        out[e], last = power, e
    return out


def _int_mul(a: Dict[tuple, int], b: Dict[tuple, int]) -> Dict[tuple, int]:
    """Product of two integer polynomials on exponent tuples; zero sums are dropped."""
    if len(a) < len(b):
        a, b = b, a
    out: Dict[tuple, int] = {}
    get = out.get
    a_items = a.items()
    for eb, cb in b.items():
        for ea, ca in a_items:
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def is_scalar_multiple(p: Poly, q: Poly) -> bool:
    """True when p = c*q for a nonzero rational c (zero is a multiple of zero only)."""
    if p.layout != q.layout:
        return False
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    if set(p._terms) != set(q._terms):
        return False
    e0 = next(iter(p._terms))
    c = p._terms[e0] / q._terms[e0]
    return all(cp == c * q._terms[e] for e, cp in p._terms.items())


# ---------------------------------------------------------------------------
# Text grammar:  signed terms  c*x{a}_{j}^e*...   e.g.  3/2*x1_2^2*x2_1 - x1_1
# Aliases x1..xm (block 1) and y1..ym (block 2) are accepted when blocks <= 2.
# ---------------------------------------------------------------------------

_COEFF_RE = re.compile(r"^\d+(/\d+)?$")
_VAR_RE = re.compile(r"^(x|y)(\d+)(?:_(\d+))?(?:\^(\d+))?$")


def _resolve_var(layout: VariableLayout, letter: str, a: int, j: Optional[int]) -> int:
    if j is not None:
        # canonical x{block}_{slot}
        if letter != "x":
            raise ValueError(f"unknown variable '{letter}{a}_{j}'")
        return layout.index(a - 1, j - 1)
    # alias form, only for one or two blocks
    if layout.blocks > 2:
        raise ValueError("variable aliases x1..xm / y1..ym need at most two blocks")
    block = 0 if letter == "x" else 1
    if block >= layout.blocks:
        raise ValueError("alias 'y' needs a second block")
    return layout.index(block, a - 1)


def parse_poly(text: str, layout: VariableLayout) -> Poly:
    """Parse the polynomial text grammar exactly (no floating point)."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial text")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ValueError(f"cannot parse polynomial text: {text!r}")
    terms: Dict[tuple, Fraction] = {}  # merged as `Poly.__add__` does
    for chunk in chunks:
        sign = Q(1)
        body = chunk
        if body[0] in "+-":
            if body[0] == "-":
                sign = Q(-1)
            body = body[1:]
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        exps = [0] * layout.total
        saw_var = False
        factors = body.split("*")
        for pos, factor in enumerate(factors):
            if pos == 0 and _COEFF_RE.match(factor):
                coeff = coeff * frac(factor)
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            letter, a, j, e = m.group(1), int(m.group(2)), m.group(3), m.group(4)
            idx = _resolve_var(layout, letter, a, int(j) if j else None)
            exps[idx] += int(e) if e else 1
            saw_var = True
        if not saw_var and not _COEFF_RE.match(factors[0]):
            raise ValueError(f"bad term {chunk!r} in {text!r}")
        exps = tuple(exps)
        total = terms.get(exps, Q(0)) + coeff
        if total == 0:
            terms.pop(exps, None)
        else:
            terms[exps] = total
    return Poly._trusted(layout, terms)


def poly_to_string(p: Poly) -> str:
    """Serialize in graded-lex descending order using canonical names."""
    if p.is_zero():
        return "0"
    parts = []
    for exps, c in p.terms():
        factors = []
        for j, e in enumerate(exps):
            if e:
                name = p.layout.var_name(j)
                factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(c)
        if not factors:
            core = str(mag)
        elif mag == 1:
            core = "*".join(factors)
        else:
            core = str(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + core)
        else:
            parts.append(("- " if c < 0 else "+ ") + core)
    return " ".join(parts)

