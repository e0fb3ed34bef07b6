"""Spec files: the JSON inputs of the command line.

This module alone knows the file format:

    group file         {"builtin": {"family": "D", "m": 4}}
                    or {"generators": [["1", "0", "0", "1"], ...]}  (row-major rationals)
    polynomial file    {"vars": m, "poly": "..."}
                    or {"blocks": n, "vars_per_block": m, "poly": "..."}
    generator file     {"family": "D", "m": 4, "copies": n}
                    or {"vars": m, "copies": n, "invariants": ["...", ...]}
                    or {<polynomial file layout keys>, "generators": ["...", ...]}
    torus module file  {"torus_rank": r, "weights": [[...], ...]}  (integers)
    binary form file   {"degree": d, "coeffs": ["1", "0", "-2/3", ...]}

Every field goes through one reader per kind (integer, rational, string, list,
object).  Any fault raises ValueError naming the file kind and the key, e.g.
"group file: 'builtin.m' must be an integer".  An integer field takes what
int() takes, except a bool or a float with a fractional part, so nothing is
truncated; a rational field means frac(str(value)).  A layout with more
variables than `Caps.monomials` raises CapExceededError before anything of
that size is built.  The objects built here keep their own checks for
library callers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt
from typing import Optional, Tuple

from . import groups, nullcone, polarization
from .limits import Caps, DEFAULT_CAPS
from .linalg import Matrix, frac
from .poly import Poly, VariableLayout, parse_poly

GROUP = "group file"
POLY = "polynomial file"
GENS = "generator file"
TORUS = "torus module file"
BINARY = "binary form file"


def load_spec(path: str):
    """The parsed JSON of a spec file; a malformed file raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


# ---------------------------------------------------------------------------
# Field readers: reader(kind, key, value) returns the checked value
# ---------------------------------------------------------------------------

def _bad(kind: str, key: str, what: str) -> ValueError:
    return ValueError(f"{kind}: {key!r} must be {what}")


def _integer(kind: str, key: str, value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise _bad(kind, key, "an integer")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise _bad(kind, key, "an integer") from None


def _rational(kind: str, key: str, value) -> Fraction:
    try:
        return frac(str(value))
    except ValueError as exc:
        raise _bad(kind, key, f"a rational ({exc})") from None


def _string(kind: str, key: str, value) -> str:
    if not isinstance(value, str):
        raise _bad(kind, key, "a string")
    return value


def _list(item):
    """The reader of a list whose entries are read by `item`."""
    def read(kind: str, key: str, value) -> list:
        if not isinstance(value, list):
            raise _bad(kind, key, "a list")
        return [item(kind, f"{key}[{i}]", x) for i, x in enumerate(value)]
    return read


def _poly(layout: VariableLayout):
    """The reader of a polynomial text on `layout`."""
    def read(kind: str, key: str, value) -> Poly:
        text = _string(kind, key, value)
        try:
            return parse_poly(text, layout)
        except ValueError as exc:
            raise ValueError(f"{kind}: {key!r}: {exc}") from None
    return read


class _Object:
    """A JSON object of one spec file, read one key at a time."""

    def __init__(self, kind: str, key: str, value):
        if not isinstance(value, dict):
            raise ValueError(f"{kind}: the top level must be a JSON object" if not key
                             else f"{kind}: {key!r} must be a JSON object")
        self.kind, self.key, self.value = kind, key, value

    def __contains__(self, key: str) -> bool:
        return key in self.value

    def read(self, key: str, reader):
        path = f"{self.key}.{key}" if self.key else key
        if key not in self.value:
            raise ValueError(f"{self.kind}: missing key {path!r}")
        return reader(self.kind, path, self.value[key])


# ---------------------------------------------------------------------------
# File kinds
# ---------------------------------------------------------------------------

def builtin_from_spec(spec) -> Optional[Tuple[str, int]]:
    """(family, m) of a group file with a "builtin" key, else None."""
    fields = _Object(GROUP, "", spec)
    if "builtin" not in fields:
        return None
    builtin = fields.read("builtin", _Object)
    return builtin.read("family", _string), builtin.read("m", _integer)


def group_from_spec(spec, caps: Caps = DEFAULT_CAPS) -> groups.MatrixGroup:
    builtin = builtin_from_spec(spec)
    if builtin is not None:
        return groups.builtin_family(*builtin, caps)
    fields = _Object(GROUP, "", spec)
    if "generators" not in fields:
        raise ValueError(f"{GROUP}: needs a 'builtin' or 'generators' key")
    gens = []
    for i, flat in enumerate(fields.read("generators", _list(_list(_rational)))):
        n = isqrt(len(flat))
        if n * n != len(flat):
            raise ValueError(f"{GROUP}: 'generators[{i}]' entry count is not a perfect square")
        gens.append(Matrix(n, n, tuple(flat)))
    return groups.enumerate_group(gens, caps)


def capped_layout(blocks: int, vars_per_block: int, caps: Caps) -> VariableLayout:
    """The layout, refused when its variable count exceeds `caps.monomials`:
    the degree-1 monomial basis alone is already that large.  The command
    line checks its n copies of V here too."""
    layout = VariableLayout(blocks, vars_per_block)
    caps.bound("monomials", layout.total, "too many variables")
    return layout


def _layout_from_spec(fields: _Object, caps: Caps) -> VariableLayout:
    if "vars" in fields:
        return capped_layout(1, fields.read("vars", _integer), caps)
    return capped_layout(fields.read("blocks", _integer),
                         fields.read("vars_per_block", _integer), caps)


def poly_from_spec(spec, caps: Caps = DEFAULT_CAPS) -> Tuple[VariableLayout, Poly]:
    fields = _Object(POLY, "", spec)
    layout = _layout_from_spec(fields, caps)
    return layout, fields.read("poly", _poly(layout))


def generators_from_spec(spec, caps: Caps = DEFAULT_CAPS) -> polarization.GeneratorSet:
    fields = _Object(GENS, "", spec)
    if "family" in fields:
        family, m = fields.read("family", _string), fields.read("m", _integer)
        copies = fields.read("copies", _integer)
        capped_layout(copies, m, caps)
        invs = polarization.classical_generators(family, m, caps)
        return polarization.polarization_generators(invs, copies, caps=caps)
    if "invariants" in fields:
        m, copies = fields.read("vars", _integer), fields.read("copies", _integer)
        capped_layout(copies, m, caps)
        invs = fields.read("invariants", _list(_poly(VariableLayout(1, m))))
        return polarization.polarization_generators(invs, copies, caps=caps)
    if "generators" in fields:
        layout = _layout_from_spec(fields, caps)
        gens = []
        for i, p in enumerate(fields.read("generators", _list(_poly(layout)))):
            deg = p.multidegree()
            if deg is None:
                raise ValueError(f"{GENS}: 'generators[{i}]' is not multihomogeneous")
            gens.append((p, deg))
        return polarization.GeneratorSet(layout, tuple(gens))
    raise ValueError(f"{GENS}: needs a 'family', 'invariants' or 'generators' key")


def weight_system_from_spec(spec) -> nullcone.WeightSystem:
    fields = _Object(TORUS, "", spec)
    rank = fields.read("torus_rank", _integer)
    weights = fields.read("weights", _list(_list(_integer)))
    return nullcone.WeightSystem(rank, tuple(tuple(w) for w in weights))


def binary_form_from_spec(spec) -> nullcone.BinaryForm:
    fields = _Object(BINARY, "", spec)
    return nullcone.BinaryForm(fields.read("degree", _integer),
                               tuple(fields.read("coeffs", _list(_rational))))
