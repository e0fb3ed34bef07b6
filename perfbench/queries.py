"""Seeded query stream for the query-mix workload.

The generator never calls polinv: every expected answer is known by
construction.

* Membership members are combinations of products of the closed-form
  polarization components of the classical generators.  The (a, b) part of
  the power sum p_k is C(k, a) * sum_i x_i^a y_i^b, and the (a, m - a) part of
  x_1...x_m is the sum over a-subsets S of prod_{i in S} x_i prod_{i not in S} y_i.
  Non-members add x_1^a y_1^b to a member; that monomial is not invariant
  for m >= 2, so the sum lies outside the invariant algebra.
* Binary forms in the nullcone are l^(d//2 + 1) * g; forms outside it are
  products of d pairwise non-proportional linear factors.
* Torus vectors in the nullcone are supported on weights that are positive on
  a chosen cocharacter; vectors outside it have a support holding w and -w.

The work per stream is fixed (the same kinds, bidegrees, degrees and ranks
for every seed); the seed picks the polynomials, forms, weights, vectors and
the order of the stream, so that runs on different seeds stay comparable.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, count
from math import comb, gcd
from pathlib import Path

# (family, m) of the generator files, and the bidegrees queried against each.
# S_4 stays at total degree <= 6: one S_4 system of total degree 8 takes
# seconds, which would swamp a stream of small queries.
MEMBERSHIP_CELLS = {
    ("S", 4): ((1, 0), (1, 1), (2, 1), (3, 1), (2, 2), (1, 4), (3, 2)),
    ("B", 3): ((2, 0), (1, 1), (2, 2), (3, 1), (3, 3), (4, 2), (4, 4), (5, 3)),
    ("D", 4): ((1, 1), (2, 2), (4, 0), (3, 1), (2, 4), (3, 3), (4, 4), (6, 2)),
}
MEMBERSHIP_ROUNDS = 3       # each cell gets this many members and non-members
TORUS_QUERIES = 60          # half in the nullcone, half outside
BINARY_QUERIES = 60         # half in the nullcone, half outside
POLARIZE_QUERIES = 8

NULLCONE_KINDS = ("torus", "binary")


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _fraction_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# --- polynomials on two copies: {exponent tuple of length 2m: Fraction} -----

def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e, c in p.items():
        for f, d in q.items():
            k = tuple(a + b for a, b in zip(e, f))
            out[k] = out.get(k, 0) + c * d
    return {k: c for k, c in out.items() if c}


def _add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {k: c for k, c in out.items() if c}


def _scale(p: dict, c: Fraction) -> dict:
    return {e: c * d for e, d in p.items()}


def _poly_text(p: dict, m: int) -> str:
    """Text grammar of polinv, with x1..xm / y1..ym for the two copies."""
    parts = []
    for e, c in p.items():
        factors = []
        for i, k in enumerate(e):
            if k:
                name = f"{'xy'[i // m]}{i % m + 1}"
                factors.append(name if k == 1 else f"{name}^{k}")
        term = "*".join([_fraction_text(abs(c))] + factors)
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign} {term}" if parts else f"{sign}{term}")
    return " ".join(parts)


def _components(family: str, m: int) -> list:
    """[(bidegree, poly)] of the polarized classical generators on two copies."""
    def monomial(xs: dict, ys: dict) -> tuple:
        return tuple(xs.get(i, 0) for i in range(m)) + tuple(ys.get(i, 0) for i in range(m))

    if family == "S":
        degrees = range(1, m + 1)
    elif family == "B":
        degrees = range(2, 2 * m + 1, 2)
    else:
        degrees = range(2, 2 * m - 1, 2)
    out = []
    for k in degrees:
        for a in range(k + 1):
            part = {monomial({i: a}, {i: k - a}): Fraction(comb(k, a)) for i in range(m)}
            out.append(((a, k - a), part))
    if family == "D":
        for a in range(m + 1):
            part = {}
            for subset in combinations(range(m), a):
                xs = {i: 1 for i in subset}
                part[monomial(xs, {i: 1 for i in range(m) if i not in xs})] = Fraction(1)
            out.append(((a, m - a), part))
    return out


def _random_product(rng: random.Random, components: list, target: tuple, m: int) -> dict:
    """A product of components whose bidegrees add up to the target.

    Every target used has a completion: S has components of bidegree (1, 0)
    and (0, 1), and B and D targets have even total degree, which the
    degree-2 components (2, 0), (1, 1), (0, 2) always complete.
    """
    product = {(0,) * (2 * m): Fraction(1)}
    left = target
    while left != (0, 0):
        fits = [(deg, p) for deg, p in components if deg[0] <= left[0] and deg[1] <= left[1]]
        deg, p = rng.choice(fits)
        product = _mul(product, p)
        left = (left[0] - deg[0], left[1] - deg[1])
    return product


def _membership(rng, family, m, target, member, poly_path, gens_path):
    components = _components(family, m)
    poly = {}
    while not poly:
        poly = _add(_scale(_random_product(rng, components, target, m), _coefficient(rng)),
                    _scale(_random_product(rng, components, target, m), _coefficient(rng)))
    if not member:
        outsider = (target[0],) + (0,) * (m - 1) + (target[1],) + (0,) * (m - 1)
        poly = _add(poly, {outsider: Fraction(1)})
    _write(poly_path, {"blocks": 2, "vars_per_block": m, "poly": _poly_text(poly, m)})
    return {"kind": "membership", "member": member,
            "argv": ["membership", str(poly_path), str(gens_path)]}


def _torus(rng, member, path):
    rank = rng.choice((2, 3))

    def vector():
        while True:
            w = tuple(rng.randint(-3, 3) for _ in range(rank))
            if any(w):
                return w

    weights = [vector() for _ in range(rng.randint(4, 7))]
    if member:
        gamma = vector()
        positive = [i for i, w in enumerate(weights)
                    if sum(g * x for g, x in zip(gamma, w)) > 0]
        if not positive:
            weights.append(gamma)
            positive = [len(weights) - 1]
        support = set(rng.sample(positive, rng.randint(1, len(positive))))
    else:
        w = vector()
        weights[rng.randrange(len(weights))] = w
        i = rng.randrange(len(weights) + 1)
        weights.insert(i, tuple(-x for x in w))
        support = {i, weights.index(w)}
        support.update(j for j in range(len(weights)) if rng.random() < 0.3)
    coords = [_fraction_text(_coefficient(rng)) if i in support else "0"
              for i in range(len(weights))]
    _write(path, {"torus_rank": rank, "weights": [list(w) for w in weights]})
    # the vector goes after "--": a leading "-" would be read as an option
    return {"kind": "torus", "member": member,
            "argv": ["nullcone", "torus", str(path), "--", ",".join(coords)]}


def _form_mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _binary(rng, member, degree, path):
    """coeffs[i] multiplies x^(d-i) y^i; the linear form a*x + b*y is [a, b]."""
    if member:
        k = degree // 2 + 1
        a, b = 0, 0
        while a == 0 and b == 0:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        form = [Fraction(1)]
        for _ in range(k):
            form = _form_mul(form, [Fraction(a), Fraction(b)])
        cofactor = [Fraction(0)]
        while not any(cofactor):
            cofactor = [Fraction(rng.randint(-4, 4)) for _ in range(degree - k + 1)]
        form = _form_mul(form, cofactor)
    else:
        roots = set()
        while len(roots) < degree:
            a, b = rng.randint(0, 3), rng.randint(-4, 4)
            if a == 0 and b == 0:
                continue
            g = gcd(a, b)
            a, b = a // g, b // g
            if a == 0:
                b = 1
            roots.add((a, b))
        form = [Fraction(1)]
        for a, b in sorted(roots):
            form = _form_mul(form, [Fraction(a), Fraction(b)])
    _write(path, {"degree": degree, "coeffs": [_fraction_text(c) for c in form]})
    return {"kind": "binary", "member": member, "argv": ["nullcone", "binary", str(path)]}


def _polarize(rng, path):
    m = rng.choice((3, 4))
    poly = {}
    while not poly:
        for _ in range(rng.randint(3, 5)):
            e = [0] * m
            for _ in range(rng.randint(2, 4)):
                e[rng.randrange(m)] += 1
            poly = _add(poly, {tuple(e): _coefficient(rng)})
    _write(path, {"vars": m, "poly": _poly_text(poly, m)})
    return {"kind": "polarize", "member": None,
            "argv": ["polarize", str(path), "--copies", str(rng.choice((2, 3)))]}


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


def generate(seed: int, directory: Path) -> list:
    """Write the spec files of one stream under `directory` and return its queries.

    Each query is {"kind", "member", "argv"}; `member` is the answer known by
    construction (None for polarize, which always succeeds).
    """
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("*.json"):
        old.unlink()
    counter = count()

    def fresh() -> Path:
        return directory / f"q{next(counter):04d}.json"

    queries = []
    for (family, m), cells in MEMBERSHIP_CELLS.items():
        gens = directory / f"gens-{family}{m}.json"
        _write(gens, {"family": family, "m": m, "copies": 2})
        for _ in range(MEMBERSHIP_ROUNDS):
            for target in cells:
                for member in (True, False):
                    queries.append(_membership(rng, family, m, target, member, fresh(), gens))
    for i in range(TORUS_QUERIES):
        queries.append(_torus(rng, i % 2 == 0, fresh()))
    for i in range(BINARY_QUERIES):
        queries.append(_binary(rng, i % 2 == 0, 2 + (i // 2) % 6, fresh()))
    for _ in range(POLARIZE_QUERIES):
        queries.append(_polarize(rng, fresh()))
    rng.shuffle(queries)
    return queries


def check(query: dict, code, report) -> bool:
    """True when a query's exit code and report match its constructed answer."""
    if report is None:
        return False
    if query["kind"] == "polarize":
        return code == 0 and report["result"] == "PASS" and report["component_count"] > 0
    if report["member"] is not query["member"]:
        return False
    if not query["member"]:
        return code == 1
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    if query["kind"] == "membership" and not checks.get("certificate_reconstructs"):
        return False
    return code == 0 and all(checks.values())
