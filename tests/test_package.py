"""The `polinv` package: its re-exported names, and the lazy loading of its
submodules, so that each command executes only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import polinv

EXPORTS = {
    "limits": ("Caps", "CapExceededError", "DEFAULT_CAPS", "DEFAULT_SEED"),
    "linalg": ("Matrix", "rref", "solve_in_span", "strict_positive_functional"),
    "poly": ("Poly", "VariableLayout", "parse_poly", "poly_to_string"),
    "groups": ("DiagonalAction", "MatrixGroup", "act", "builtin_family", "enumerate_group",
               "invariant_dimension", "reynolds", "same_orbit"),
    "polarization": ("GeneratorSet", "GradedSpan", "certificate_combination", "certify_dm",
                     "classical_generators", "compare_graded_dims", "copies_layout",
                     "embed_in_copies", "graded_span_basis", "membership",
                     "polarization_generators", "polarize", "separation_test",
                     "wallach_operator"),
    "nullcone": ("BinaryForm", "ProbeVerdict", "SubspaceSpec", "WeightSystem",
                 "binary_form_nullcone_member", "binary_nullcone_witness",
                 "brute_box_functional", "certify_torus", "matrix_nilpotent",
                 "span_probe_nullcone", "subspace_in_common_vgamma", "torus_nullcone_member",
                 "v_gamma"),
    "liealg": ("LieAlgebraBasis", "LieSubspace", "bracket", "certify_sl2_r1", "certify_sl3",
               "certify_so5", "generic_orbit_dimension", "jacobian_rank", "sl",
               "sl2_invariant_dimension", "so5", "so5_pol2_generators", "so5_trace_invariants",
               "subalgebra_closure"),
    "reports": ("render_structured", "render_text"),
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_every_export_is_the_object_its_module_defines():
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"polinv.{module}")
        for name in names:
            assert getattr(polinv, name) is getattr(owner, name), name
    assert sorted(polinv.__all__) == NAMES
    namespace = {}
    exec("from polinv import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    with pytest.raises(AttributeError):
        polinv.no_such_name


LAZY = ("linalg", "poly", "groups", "polarization", "nullcone", "liealg", "reports", "specs")
TORUS = {"torus_rank": 1, "weights": [[1], [1], [-1]]}
FORM = {"degree": 4, "coeffs": ["0", "1", "0", "0", "0"]}
B2 = {"builtin": {"family": "B", "m": 2}}
X4 = {"vars": 1, "poly": "x1^4"}
GENS = {"vars": 1, "copies": 1, "invariants": ["x1^2"]}


@pytest.mark.parametrize("argv, unexecuted", [
    (None, LAZY),
    (["--help"], LAZY),
    (["certify", "nope"], LAZY),
    (["certify", "torus"], ("groups", "polarization", "liealg", "specs")),
    (["certify", "dm"], ("nullcone", "liealg", "specs")),
    (["certify", "so5"], ("groups", "nullcone", "specs")),
    (["certify", "sl3"], ("groups", "polarization", "specs")),
    (["certify", "sl2-r1"], ("groups", "polarization", "nullcone", "specs")),
    (["nullcone", "torus", TORUS, "1,1,0"], ("groups", "polarization", "liealg")),
    (["nullcone", "binary", FORM], ("groups", "polarization", "liealg")),
    (["invariant-dims", B2, "--copies", "2", "--max-degree", "2"],
     ("polarization", "nullcone", "liealg")),
    (["compare", B2, "--copies", "2", "--max-degree", "2"], ("nullcone", "liealg")),
    (["membership", X4, GENS], ("groups", "nullcone", "liealg")),
    (["polarize", X4, "--copies", "2"], ("groups", "nullcone", "liealg")),
])
def test_a_command_executes_only_the_modules_it_runs(tmp_path, argv, unexecuted):
    # in a fresh interpreter: every submodule is registered at `import
    # polinv.cli`, and one still of the lazy module type has not executed;
    # each JSON payload in argv is written to a spec file first
    if argv is not None:
        argv = list(argv)
        for i, a in enumerate(argv):
            if isinstance(a, dict):
                argv[i] = str(tmp_path / f"spec{i}.json")
                Path(argv[i]).write_text(json.dumps(a))
    script = textwrap.dedent(f"""
        import contextlib, io, sys, types
        import polinv.cli
        if {argv!r} is not None:
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                code = polinv.cli.main({argv!r})
            print(code)
        for name in {LAZY!r}:
            module = sys.modules["polinv." + name]
            if type(module) is not types.ModuleType:
                print(name)
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    if argv is not None:
        # every command here ends in a passing report but the unknown scenario
        assert int(out.pop(0)) == (2 if argv == ["certify", "nope"] else 0)
    assert tuple(out) == unexecuted
