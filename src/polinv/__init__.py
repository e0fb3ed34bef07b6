"""polinv: exact-arithmetic toolkit for polarizations of group invariants,
graded comparison against full invariant algebras, and Hilbert-Mumford
nullcone certificates.

Every submodule but `cli` and `_version` is registered in `sys.modules` as
a lazy module (`importlib.util.LazyLoader`) and executes on the first access
to one of its attributes, so each command compiles only the modules it runs.
The re-exported names resolve through `__getattr__`.
"""

import importlib.util
import sys

from ._version import __version__

# (submodule, the public names this package re-exports from it), for every
# lazily loaded submodule
_EXPORTS = (
    ("limits", ("Caps", "CapExceededError", "DEFAULT_CAPS", "DEFAULT_SEED")),
    ("linalg", ("Matrix", "rref", "solve_in_span", "strict_positive_functional")),
    ("poly", ("Poly", "VariableLayout", "parse_poly", "poly_to_string")),
    ("groups", ("DiagonalAction", "MatrixGroup", "act", "builtin_family",
                "enumerate_group", "invariant_dimension", "reynolds")),
    ("polarization", ("GeneratorSet", "GradedSpan", "certificate_combination",
                      "certify_dm", "classical_generators", "compare_graded_dims",
                      "copies_layout", "embed_in_copies", "graded_span_basis",
                      "membership", "polarization_generators", "polarize",
                      "wallach_operator")),
    ("nullcone", ("BinaryForm", "ProbeVerdict", "SubspaceSpec", "WeightSystem",
                  "binary_form_nullcone_member", "binary_nullcone_witness",
                  "brute_box_functional", "certify_torus", "matrix_nilpotent",
                  "span_probe_nullcone", "subspace_in_common_vgamma",
                  "torus_nullcone_member", "v_gamma")),
    ("liealg", ("LieAlgebraBasis", "LieSubspace", "bracket", "certify_sl2_r1",
                "certify_sl3", "certify_so5", "generic_orbit_dimension",
                "jacobian_rank", "sl", "sl2_invariant_dimension", "so5",
                "so5_pol2_generators", "so5_trace_invariants", "subalgebra_closure")),
    ("reports", ("render_structured", "render_text")),
    ("specs", ()),
)

__all__ = tuple(name for _, names in _EXPORTS for name in names)

for _module, _ in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_module] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])  # defers the real load
del _module, _spec


def __getattr__(name):
    for module, names in _EXPORTS:
        if name in names:
            return getattr(globals()[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
