"""Spans around the public functions of each polinv layer, for the traced run.

`Tracer.install()` replaces each traced function by a wrapper on *every*
`polinv.*` module attribute that holds it: `polarization`, `groups` and
`liealg` import `rref`, `rank` or `solve_in_span` by name, so patching the
defining module alone would miss those calls.  Spans stay in memory as flat
arrays (name, parent, start, end and three per-layer counters) and are
written out once, at the end.  A span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from math import comb, prod

import numpy as np

import polinv.poly


def _rref(args, result):
    m = args[0]
    return m.rows * m.cols, result[1], min(m.rows, m.cols)


def _found(args, result):
    return 0, float(result is not None), 0


def _invariant_dimension(args, result):
    action, deg = args[0], args[1]
    m = action.layout.vars_per_block
    return prod(comb(d + m - 1, m - 1) for d in deg), result, 0


def _products(args, result):
    return len(result), 0, 0


def _span_dimension(args, result):
    return 0, result.dimension, 0


# (layer, module, attribute, counters from (args, result) -> (x, y, z)).
# rref: cells, rank, min(rows, cols); solve_in_span and membership: y = found;
# invariant_dimension: monomials, dimension; products: x = products expanded;
# graded_span_basis: y = dimension, z = products expanded under it (totals()).
# A module of None means a method of polinv.poly.Poly.
TRACED = (
    ("linalg.rref", "polinv.linalg", "rref", _rref),
    ("linalg.solve_in_span", "polinv.linalg", "solve_in_span", _found),
    ("groups.act", "polinv.groups", "act", None),
    ("groups.reynolds", "polinv.groups", "reynolds", None),
    ("groups.invariant_dimension", "polinv.groups", "invariant_dimension", _invariant_dimension),
    ("groups.enumerate_group", "polinv.groups", "enumerate_group", None),
    ("polarization.products", "polinv.polarization", "_products_for_target", _products),
    ("polarization.graded_span_basis", "polinv.polarization", "graded_span_basis", _span_dimension),
    ("polarization.membership", "polinv.polarization", "membership", _found),
    ("polarization.polarization_generators", "polinv.polarization", "polarization_generators", None),
    ("polarization.certificate_combination", "polinv.polarization", "certificate_combination", None),
    ("poly.substitute", None, "substitute", None),
    ("nullcone.torus_nullcone_member", "polinv.nullcone", "torus_nullcone_member", None),
    ("nullcone.brute_box_functional", "polinv.nullcone", "brute_box_functional", None),
    ("nullcone.binary_form_nullcone_member", "polinv.nullcone", "binary_form_nullcone_member", None),
    ("nullcone.matrix_nilpotent", "polinv.nullcone", "matrix_nilpotent", None),
    ("liealg.subalgebra_closure", "polinv.liealg", "subalgebra_closure", None),
    ("liealg.sl2_invariant_dimension", "polinv.liealg", "sl2_invariant_dimension", None),
    ("liealg.jacobian_rank", "polinv.liealg", "jacobian_rank", None),
    ("liealg.generic_orbit_dimension", "polinv.liealg", "generic_orbit_dimension", None),
    ("liealg.so5_pol2_generators", "polinv.liealg", "so5_pol2_generators", None),
    ("reports.render", "polinv.reports", "render_structured", None),
    ("reports.render", "polinv.reports", "render_text", None),
)
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TRACED))


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.x = array("d")
        self.y = array("d")
        self.z = array("d")
        self._open: list = []

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "polinv" or key.startswith("polinv.")]
        for layer, module, attribute, counters in TRACED:
            owner = polinv.poly.Poly if module is None else sys.modules[module]
            original = getattr(owner, attribute)
            wrapper = self._wrap(LAYERS.index(layer), original, counters)
            if module is None:
                setattr(owner, attribute, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, layer_id, fn, counters):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        xs, ys, zs, open_spans = self.x, self.y, self.z, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(layer_id)
            parent.append(open_spans[-1] if open_spans else -1)
            xs.append(0.0)
            ys.append(0.0)
            zs.append(0.0)
            end.append(0.0)
            open_spans.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_spans.pop()
            if counters is not None:
                xs[i], ys[i], zs[i] = counters(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.intc),
                "parent": np.frombuffer(self.parent, dtype=np.intc),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "x": np.frombuffer(self.x), "y": np.frombuffer(self.y),
                "z": np.frombuffer(self.z)}

    def totals(self) -> dict:
        """Per layer: [calls, self seconds, seconds, sum x, sum y, sum z].

        `seconds` sums the durations of spans; no traced function calls
        itself, so they do not overlap within a layer.  For
        graded_span_basis, z is the number of products expanded under its
        spans, the base of its rank yield.
        """
        a = self.arrays()
        n = len(LAYERS)
        duration = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=duration[nested],
                              minlength=len(duration))
        own = duration - covered
        columns = [np.bincount(a["name"], minlength=n).astype(float),
                   np.bincount(a["name"], weights=own, minlength=n),
                   np.bincount(a["name"], weights=duration, minlength=n)]
        columns += [np.bincount(a["name"], weights=a[k], minlength=n) for k in "xyz"]
        out = {layer: [float(col[i]) for col in columns] for i, layer in enumerate(LAYERS)}
        products = (a["name"] == LAYERS.index("polarization.products")) & nested
        under_span = a["name"][a["parent"][products]] == LAYERS.index(
            "polarization.graded_span_basis")
        out["polarization.graded_span_basis"][5] = float(a["x"][products][under_span].sum())
        return out

    def save(self, path) -> None:
        np.savez(path, layers=np.array(LAYERS), **self.arrays())
