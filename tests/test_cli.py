import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polinv import polarization
from polinv.cli import main
from polinv.limits import DEFAULT_CAPS
from polinv.poly import Poly


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "sigma1": write(tmp_path, "sigma1.json", {"vars": 2, "poly": "x1^2 + x2^2"}),
        "x4": write(tmp_path, "x4.json", {"vars": 1, "poly": "x1^4"}),
        "x3": write(tmp_path, "x3.json", {"vars": 1, "poly": "x1^3"}),
        "gens1": write(tmp_path, "gens1.json",
                       {"vars": 1, "copies": 1, "invariants": ["x1^2"]}),
        "s2": write(tmp_path, "s2.json", {"builtin": {"family": "S", "m": 2}}),
        "b2": write(tmp_path, "b2.json", {"builtin": {"family": "B", "m": 2}}),
        "custom": write(tmp_path, "custom.json", {"generators": [["0", "1", "1", "0"]]}),
        "torus": write(tmp_path, "torus.json",
                       {"torus_rank": 1, "weights": [[1], [1], [-1]]}),
        "form_member": write(tmp_path, "form1.json",
                             {"degree": 4, "coeffs": ["0", "1", "0", "0", "0"]}),
        "form_nonmember": write(tmp_path, "form2.json",
                                {"degree": 4, "coeffs": ["0", "0", "1", "0", "0"]}),
        "broken": str((tmp_path / "broken.json").absolute()),
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@dataclass(frozen=True)
class Spec:
    """A JSON payload that materialize() writes to a file, even a bare string."""
    payload: object


def materialize(directory, argv):
    """argv with every non-string entry written to a JSON file in `directory`."""
    return [a if isinstance(a, str) else
            write(directory, f"spec{i}.json", a.payload if isinstance(a, Spec) else a)
            for i, a in enumerate(argv)]


def test_polarize_command(files, capsys):
    code, out = run(capsys, ["polarize", files["sigma1"], "--copies", "2"])
    assert code == 0
    assert "component_count: 3" in out
    assert "result: PASS" in out


def test_polarize_spot_check_evaluates_one_polynomial_per_side(files, capsys, monkeypatch):
    # each of the five trials evaluates f at the combined point and the
    # merged components at the scaled point, whatever the component count
    calls = []
    evaluate = Poly.evaluate

    def counting_evaluate(self, point):
        calls.append(len(point))
        return evaluate(self, point)

    monkeypatch.setattr(Poly, "evaluate", counting_evaluate)
    code, out = run(capsys, ["polarize", files["x4"], "--copies", "3"])
    assert code == 0
    assert "component_count: 15" in out
    assert "result: PASS" in out
    assert calls == [1, 3] * 5


def test_invariant_dims_command(files, capsys):
    code, out = run(capsys, ["invariant-dims", files["b2"],
                             "--copies", "2", "--max-degree", "2"])
    assert code == 0
    assert "result: PASS" in out


@pytest.mark.parametrize("argv,line", [
    (["polarize", {"vars": 1, "poly": "x1"}, "--copies", "1200"], "component_count: 1200"),
    (["invariant-dims", {"builtin": {"family": "S", "m": 1}}, "--copies", "1200",
      "--max-degree", "1"], "dims_bounded_by_monomial_count: PASS"),
    (["nullcone", "torus", {"torus_rank": 1500, "weights": [[1] * 1500]}, "1"], "cocharacter: ["),
    (["membership", {"blocks": 2, "vars_per_block": 1, "poly": "x1_1"},
      {"blocks": 2, "vars_per_block": 1, "generators": ["x1_1"] * 1200}], "member: True"),
], ids=["polarize", "invariant-dims", "torus-rank-1500", "membership-1200-generators"])
def test_a_thousand_copies_and_more_exit_0(tmp_path, capsys, argv, line):
    # no recursion depth grows with the input: the compositions of 1 into
    # 1200 parts, Fourier-Motzkin over 1500 variables and the exponent walk
    # over 1200 generators are each a loop
    code, out = run(capsys, materialize(tmp_path, argv))
    assert code == 0 and line in out


def test_compare_pass_and_structured(files, capsys):
    code, out = run(capsys, ["--format", "structured", "compare", files["s2"],
                             "--copies", "2", "--max-degree", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["result"] == "PASS"
    assert all(row["dim_invariants"] == row["dim_pol_span"] for row in report["table"])


def test_compare_requires_builtin(files, capsys):
    code, _ = run(capsys, ["compare", files["custom"],
                           "--copies", "2", "--max-degree", "2"])
    assert code == 2


def test_membership_member_and_nonmember(files, capsys):
    code, out = run(capsys, ["membership", files["x4"], files["gens1"]])
    assert code == 0
    assert "member: True" in out
    code, out = run(capsys, ["membership", files["x3"], files["gens1"]])
    assert code == 1
    assert "member: False" in out


def test_nullcone_torus_exit_codes(files, capsys):
    code, out = run(capsys, ["nullcone", "torus", files["torus"], "1,1,0"])
    assert code == 0 and "cocharacter" in out
    code, out = run(capsys, ["nullcone", "torus", files["torus"], "1,0,1"])
    assert code == 1


def test_nullcone_torus_structured_report_is_pinned(tmp_path, capsys):
    module = write(tmp_path, "t3.json", {
        "torus_rank": 3,
        "weights": [[1, -2, 3], [-2, 1, 1], [1, 1, -1], [0, 3, -2], [2, 0, -1], [-1, -1, 0]]})
    code, out = run(capsys, ["--format", "structured", "nullcone", "torus", module,
                             "1,1,1,1,0,0"])
    assert code == 0
    report = json.loads(out)
    assert report["cocharacter"] == [0, 6, 5]
    assert report["positive_part"] == [0, 1, 2, 3]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "927b246010e10fab9fa01ca1cc6cd354422a13bee7d5ce541e5bcf90181806be")


def test_nullcone_torus_check_refuses_a_forged_cocharacter(files, capsys, monkeypatch):
    from polinv import nullcone
    # weights 1, 1, -1: gamma = -1 is negative on the support of (1, 1, 0)
    monkeypatch.setattr(nullcone, "torus_nullcone_member", lambda ws, v: (-1,))
    code, out = run(capsys, ["--format", "structured", "nullcone", "torus", files["torus"],
                             "1,1,0"])
    assert code == 1
    assert {c["name"]: c["pass"] for c in json.loads(out)["checks"]} == {
        "in_nullcone": True, "cocharacter_strictly_positive_on_support": False}


def test_nullcone_binary_exit_codes(files, capsys):
    code, out = run(capsys, ["nullcone", "binary", files["form_member"]])
    assert code == 0 and "witness" in out
    code, _ = run(capsys, ["nullcone", "binary", files["form_nonmember"]])
    assert code == 1


def test_nullcone_binary_computes_the_partials_gcd_once(files, capsys, monkeypatch):
    # one witness, hence one gcd of the partials, per command
    from polinv import nullcone
    calls = []
    witness = nullcone.binary_nullcone_witness
    monkeypatch.setattr(nullcone, "binary_nullcone_witness",
                        lambda form: calls.append(1) or witness(form))
    for name, code in (("form_member", 0), ("form_nonmember", 1)):
        calls.clear()
        assert run(capsys, ["nullcone", "binary", files[name]])[0] == code
        assert len(calls) == 1


def _degree_120_form(member: bool) -> list:
    """(3x - 7y)^61 * h for a seeded h of degree 59 with coefficients in
    -9..9, or a seeded degree-120 form with such coefficients, outside the
    nullcone: coefficient i multiplies x^(120 - i) y^i."""
    if not member:
        rng = random.Random(120)
        return [rng.randint(-9, 9) for _ in range(121)]
    rng = random.Random(61)
    coeffs = [rng.randint(-9, 9) for _ in range(60)]
    for _ in range(61):  # times 3x - 7y
        coeffs = [3 * a - 7 * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


@pytest.mark.parametrize("member,code", [(False, 1), (True, 0)], ids=["nonmember", "member"])
def test_nullcone_binary_decides_a_degree_120_form(tmp_path, capsys, member, code):
    path = write(tmp_path, "form.json",
                 {"degree": 120, "coeffs": list(map(str, _degree_120_form(member)))})
    got, out = run(capsys, ["--format", "structured", "nullcone", "binary", path])
    report = json.loads(out)
    assert got == code and report["member"] is member
    assert report.get("witness") == (["3", "-7"] if member else None)


@pytest.mark.parametrize("name,code,digest", [
    ("form_member", 0, "6fa9baec49130c7cec157d5984c406426333a1215fd8c85ebedd1e1035b2a929"),
    ("form_nonmember", 1, "d0c9f1b0216ebfa2cdd36966dfc6688f0fa4a57fe6aa56d84a18357c368adc24"),
], ids=["member", "nonmember"])
def test_nullcone_binary_structured_report_is_pinned(files, capsys, name, code, digest):
    got, out = run(capsys, ["--format", "structured", "nullcone", "binary", files[name]])
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _binary_checks(out):
    return {c["name"]: c["pass"] for c in json.loads(out)["checks"]}


def test_nullcone_binary_check_refuses_a_wrong_witness(files, capsys, monkeypatch):
    from polinv import nullcone
    from polinv.nullcone import BinaryForm
    # x^3 y: its witness is x (coefficients (1, 0)); x + y does not divide it
    monkeypatch.setattr(nullcone, "binary_nullcone_witness", lambda form: BinaryForm(1, (1, 1)))
    code, out = run(capsys, ["--format", "structured", "nullcone", "binary",
                             files["form_member"]])
    assert code == 1
    assert _binary_checks(out) == {"in_nullcone": True, "witness_power_divides_form": False}


def test_nullcone_binary_check_multiplies_the_quotient_back(files, capsys, monkeypatch):
    from polinv import nullcone
    from polinv.nullcone import BinaryForm
    code, out = run(capsys, ["--format", "structured", "nullcone", "binary",
                             files["form_member"]])
    assert code == 0 and _binary_checks(out)["witness_power_divides_form"]
    # a division that claims success with a wrong quotient is caught by l^m * q != f
    witness = BinaryForm(1, (1, 0))
    monkeypatch.setattr(nullcone, "binary_nullcone_witness", lambda form: witness)
    monkeypatch.setattr(BinaryForm, "divide_linear",
                        lambda self, a, b: BinaryForm(self.degree - 1, (1,) * self.degree))
    code, out = run(capsys, ["--format", "structured", "nullcone", "binary",
                             files["form_member"]])
    assert code == 1 and not _binary_checks(out)["witness_power_divides_form"]


def test_certify_sl3_and_sl2r1(files, capsys):
    assert run(capsys, ["certify", "sl3"])[0] == 0
    assert run(capsys, ["certify", "sl2-r1"])[0] == 0


@pytest.mark.parametrize("flag,scenario,size,error", [
    # D_4 has order 192, and tr(A^4) of so5 polarizes to 560 monomials on two copies
    ("--cap-group-order", "dm", 192, "group too large (cap group_order=191)"),
    ("--cap-monomials", "so5", 560, "polarization too large (cap monomials=559)"),
], ids=["dm", "so5"])
def test_certify_honours_the_cap_flags(capsys, flag, scenario, size, error):
    assert main([flag, str(size - 1), "certify", scenario]) == 3
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert main([flag, str(size), "certify", scenario]) == 0


def test_generators_of_an_infinite_group_exit_2(tmp_path, capsys):
    # diag(1/2, 2) has infinite order: its entries double at every power, so
    # closing it runs to the group-order cap ever more slowly; its trace 5/2
    # is no sum of two roots of unity, which refuses it at the first element
    spec = write(tmp_path, "g.json", {"generators": [["1/2", "0", "0", "2"]]})
    argv = ["--cap-group-order", "3000", "invariant-dims", spec, "--copies", "1",
            "--max-degree", "2"]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: generators do not generate a finite group: an element has trace 5/2\n")


def test_malformed_input_exits_2(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["nullcone", "binary", str(bad)]) == 2
    assert main(["nullcone", "binary", str(tmp_path / "missing.json")]) == 2
    assert main(["polarize", files["x4"], "--copies", "0"]) == 2
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    assert main(["nullcone", "binary", str(deep)]) == 2


DIMS = ["--copies", "1", "--max-degree", "1"]
B2 = {"builtin": {"family": "B", "m": 2}}


@pytest.mark.parametrize("argv, needle", [
    pytest.param(["invariant-dims", {"generators": [5]}, *DIMS], "'generators[0]'",
                 id="group-generator-not-a-list"),
    pytest.param(["invariant-dims", {"builtin": 5}, *DIMS], "'builtin'",
                 id="group-builtin-not-an-object"),
    pytest.param(["compare", {"builtin": [1]}, *DIMS], "'builtin'",
                 id="compare-builtin-not-an-object"),
    pytest.param(["nullcone", "binary", {"degree": 2, "coeffs": 5}], "'coeffs'",
                 id="binary-coeffs-not-a-list"),
    pytest.param(["nullcone", "binary", [1, 2]], "top level", id="binary-top-level-list"),
    pytest.param(["polarize", {"vars": 2, "poly": 5}, "--copies", "2"], "'poly'",
                 id="poly-not-a-string"),
    pytest.param(["polarize", [1], "--copies", "2"], "top level", id="poly-top-level-list"),
    pytest.param(["membership", {"vars": 2, "poly": "x1"}, {"vars": 2, "generators": 5}],
                 "'generators'", id="gens-generators-not-a-list"),
    pytest.param(["nullcone", "torus", {"torus_rank": 1, "weights": [[1.5]]}, "1"],
                 "'weights[0][0]'", id="torus-weight-fractional"),
    pytest.param(["invariant-dims", {"builtin": {"family": "B", "m": 2.7}}, *DIMS],
                 "'builtin.m'", id="group-m-fractional"),
    pytest.param(["invariant-dims", {"builtin": {"family": "B", "m": True}}, *DIMS],
                 "'builtin.m'", id="group-m-bool"),
    pytest.param(["nullcone", "binary", {"degree": 2.9, "coeffs": ["1", "0", "1"]}],
                 "'degree'", id="binary-degree-fractional"),
    pytest.param(["invariant-dims", {"builtin": {"family": "B"}}, *DIMS], "'builtin.m'",
                 id="group-m-missing"),
    pytest.param(["invariant-dims", B2, "--copies", "2", "--max-degree", "-1"],
                 "--max-degree", id="invariant-dims-negative-max-degree"),
    pytest.param(["compare", B2, "--copies", "2", "--max-degree", "-1"], "--max-degree",
                 id="compare-negative-max-degree"),
    pytest.param(["nullcone", "torus", {"torus_rank": 1, "weights": 5}, "1"], "'weights'",
                 id="torus-weights-not-a-list"),
    pytest.param(["invariant-dims", {"generators": [["1", "0", "0"]]}, *DIMS],
                 "'generators[0]' entry count is not a perfect square",
                 id="group-generator-not-square"),
    pytest.param(["nullcone", "binary", {"degree": 1, "coeffs": ["1/0", "1"]}],
                 "'coeffs[0]'", id="binary-coeff-zero-denominator"),
    pytest.param(["invariant-dims", {"generators": [["1/0", "0", "0", "1"]]}, *DIMS],
                 "'generators[0][0]'", id="group-generator-zero-denominator"),
    pytest.param(["nullcone", "torus", {"torus_rank": 1, "weights": [[1], [1]]}, "1/0,1"],
                 "'1/0'", id="torus-vector-zero-denominator"),
])
def test_malformed_spec_exits_2(tmp_path, capsys, argv, needle):
    assert main(materialize(tmp_path, argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and needle in err


def test_zero_denominator_in_poly_exits_2(tmp_path, capsys):
    spec = write(tmp_path, "p.json", {"vars": 2, "poly": "1/0*x1"})
    assert main(["polarize", spec, "--copies", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("name", ["POLINV_SEED", "POLINV_CAP_MONOMIALS"])
def test_malformed_env_int_exits_2(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    assert main(["certify", "sl2-r1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_cap_exceeded_exits_3(files, tmp_path, capsys):
    code = main(["--cap-monomials", "3", "invariant-dims", files["b2"],
                 "--copies", "2", "--max-degree", "4"])
    assert code == 3
    code = main(["--cap-group-order", "4", "invariant-dims", files["b2"],
                 "--copies", "1", "--max-degree", "1"])
    assert code == 3
    # a builtin group's closed-form order is refused before any element is built
    b25 = write(tmp_path, "b25.json", {"builtin": {"family": "B", "m": 25}})
    huge = write(tmp_path, "huge.json", {"builtin": {"family": "S", "m": 10 ** 30}})
    for flags, group, cap in ((["--cap-group-order", "64"], b25, 64),
                              ([], huge, DEFAULT_CAPS.group_order)):
        for command in ("invariant-dims", "compare"):
            capsys.readouterr()
            code = main(flags + [command, group, "--copies", "2", "--max-degree", "2"])
            out, err = capsys.readouterr()
            assert (code, out) == (3, "")
            assert err == f"error: group too large (cap group_order={cap})\n"
    # the monomial cap also bounds the columns of a span: 126 quartics in 6 variables
    poly = write(tmp_path, "p.json", {"vars": 6, "poly": "x1^4 + x2*x3*x5*x6"})
    gens = write(tmp_path, "g.json", {"vars": 6, "generators": [f"x{i}" for i in range(1, 7)]})
    capsys.readouterr()
    code = main(["--cap-monomials", "50", "membership", poly, gens])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "error: too many monomials (cap monomials=50)\n"
    # one product, (x1_1 + ... + x1_6)^24 with 118755 terms: refused once it is
    # expanded, before the target joins the columns or any elimination starts
    poly = write(tmp_path, "p24.json", {"vars": 6, "poly": "x1_1^24"})
    gens = write(tmp_path, "g24.json",
                 {"vars": 6, "generators": ["+".join(f"x1_{i}" for i in range(1, 7))]})
    code = main(["--cap-monomials", "100", "membership", poly, gens])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "error: too many monomials (cap monomials=100)\n"


def test_numpy_never_loads(tmp_path):
    module = write(tmp_path, "torus.json", {"torus_rank": 2, "weights": [[1, 0], [-1, 1]]})
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from polinv.cli import main
        print("numpy" in sys.modules)
        for argv in (["certify", "dm"], ["certify", "so5"], ["certify", "sl3"],
                     ["certify", "sl2-r1"], ["certify", "torus"],
                     ["nullcone", "torus", {module!r}, "1,1"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            print(argv[-1], code, "numpy" in sys.modules)
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["False", "dm 0 False", "so5 0 False", "sl3 0 False",
                                "sl2-r1 0 False", "torus 0 False", "1,1 0 False"]


def test_dataclasses_and_inspect_never_load(tmp_path):
    module = write(tmp_path, "torus.json", {"torus_rank": 2, "weights": [[1, 0], [-1, 1]]})
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from polinv.cli import main
        for argv in (["certify", "dm"], ["certify", "so5"], ["certify", "sl3"],
                     ["certify", "sl2-r1"], ["certify", "torus"],
                     ["nullcone", "torus", {module!r}, "1,1"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            print(argv[-1], code, "dataclasses" in sys.modules, "inspect" in sys.modules)
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == [f"{name} 0 False False" for name in
                                ("dm", "so5", "sl3", "sl2-r1", "torus", "1,1")]


@pytest.mark.parametrize("argv", [
    pytest.param(["polarize", {"vars": 10 ** 30, "poly": "x1"}, "--copies", "2"],
                 id="poly-vars-overflow"),
    pytest.param(["polarize", {"vars": 10 ** 8, "poly": "x1"}, "--copies", "2"],
                 id="poly-vars-huge"),
    pytest.param(["membership", {"blocks": 2, "vars_per_block": 10 ** 8, "poly": "x1_1"},
                  {"blocks": 2, "vars_per_block": 2, "generators": ["x1_1"]}],
                 id="poly-blocks-huge"),
    pytest.param(["membership", {"vars": 2, "poly": "x1"},
                  {"family": "S", "m": 10 ** 30, "copies": 2}], id="gens-family-m-huge"),
    pytest.param(["membership", {"vars": 2, "poly": "x1"},
                  {"vars": 2, "copies": 10 ** 8, "invariants": ["x1"]}],
                 id="gens-copies-huge"),
    pytest.param(["polarize", {"vars": 2, "poly": "x1"}, "--copies", "100000000"],
                 id="polarize-copies-huge"),
    pytest.param(["compare", {"builtin": {"family": "S", "m": 2}}, "--copies", "100000000",
                  "--max-degree", "1"], id="compare-copies-huge"),
    pytest.param(["invariant-dims", {"builtin": {"family": "S", "m": 2}},
                  "--copies", "100000000", "--max-degree", "1"], id="invariant-dims-copies-huge"),
])
def test_huge_layout_exits_3(tmp_path, capsys, argv):
    # the variable count alone exceeds the monomial cap (the degree-1 basis is
    # that large), so the file is refused before any layout-sized allocation
    assert main(materialize(tmp_path, argv)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: too many variables (cap monomials={DEFAULT_CAPS.monomials})\n"


@pytest.mark.parametrize("argv", [
    # 861^3, about 6.4e8, monomials on three copies
    pytest.param(["polarize", {"vars": 3, "poly": "x1^40*x2^40*x3^40"}, "--copies", "3"],
                 id="polarize"),
    pytest.param(["membership", {"blocks": 3, "vars_per_block": 3, "poly": "x1_1"},
                  {"vars": 3, "copies": 3, "invariants": ["x1^40*x2^40*x3^40"]}],
                 id="gens-invariants"),
    # the first B_3 generator, x1^2 + x2^2 + x3^2, on 200 copies: 3 * C(201, 2) monomials
    pytest.param(["membership", {"blocks": 200, "vars_per_block": 3, "poly": "x1_1"},
                  {"family": "B", "m": 3, "copies": 200}], id="gens-family"),
    # the power sums of S_20000 have 4 * 10^8 terms, each polarizing to a monomial
    pytest.param(["membership", {"vars": 20000, "poly": "x1"},
                  {"family": "S", "m": 20000, "copies": 1}], id="gens-family-terms"),
])
def test_polarization_over_the_monomial_cap_exits_3_before_expanding(tmp_path, capsys,
                                                                     monkeypatch, argv):
    def expanded(*args, **kwargs):
        raise AssertionError("the polarization was expanded")

    # every power in an expansion is listed by `compositions` first
    monkeypatch.setattr(polarization, "compositions", expanded)
    assert main(materialize(tmp_path, argv)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: polarization too large (cap monomials={DEFAULT_CAPS.monomials})\n"


def test_generator_polarizations_over_the_monomial_cap_together_exit_3(tmp_path, capsys):
    # each power sum p_k of S_100 polarizes to 100 (k + 1) monomials on two
    # copies, under the cap alone; p_1, ..., p_19 together pass it
    argv = ["membership", {"blocks": 2, "vars_per_block": 100, "poly": "x1_1"},
            {"family": "S", "m": 100, "copies": 2}]
    assert main(materialize(tmp_path, argv)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: polarization too large (cap monomials={DEFAULT_CAPS.monomials})\n"


def test_membership_refuses_a_large_generator_power_as_it_is_built(tmp_path, capsys,
                                                                   monkeypatch):
    # (x1 + ... + x6)^k has C(k + 5, 5) terms, 126 > 100 at k = 4: the power
    # of x1^24 is refused at its third step, not after all 23 of them
    calls = []
    mul = polarization._mul

    def counted(a, b):
        calls.append(len(a) * len(b))
        return mul(a, b)

    monkeypatch.setattr(polarization, "_mul", counted)
    argv = ["--cap-monomials", "100", "membership",
            {"blocks": 1, "vars_per_block": 6, "poly": "x1_1^24"},
            {"vars": 6, "copies": 1, "invariants": ["x1 + x2 + x3 + x4 + x5 + x6"]}]
    assert main(materialize(tmp_path, argv)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: too many monomials (cap monomials=100)\n"
    assert len(calls) <= 4


def test_membership_of_a_huge_exponent_exits_3_before_the_walk_table(tmp_path, capsys):
    # the target (10^30, 0) needs exponent-walk tables of about 10^30 bits,
    # over the walk's limit of 2^32 bytes
    argv = ["membership", {"blocks": 2, "vars_per_block": 2, "poly": f"x1_1^{10 ** 30}"},
            {"vars": 2, "copies": 2, "invariants": ["x1+x2", "x1*x2"]}]
    assert main(materialize(tmp_path, argv)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: degree too large (cap walk_table_bytes={2 ** 32})\n"


def test_seed_env_and_flag_precedence(files, capsys, monkeypatch):
    monkeypatch.setenv("POLINV_SEED", "777")
    code, out = run(capsys, ["certify", "sl2-r1"])
    assert code == 0 and "seed: 777" in out
    code, out = run(capsys, ["--seed", "888", "certify", "sl2-r1"])
    assert code == 0 and "seed: 888" in out


def test_caps_env_and_flag_precedence(files, capsys, monkeypatch):
    monkeypatch.setenv("POLINV_CAP_MONOMIALS", "3")
    code = main(["invariant-dims", files["b2"], "--copies", "2", "--max-degree", "4"])
    assert code == 3
    code = main(["--cap-monomials", "100000", "invariant-dims", files["b2"],
                 "--copies", "2", "--max-degree", "2"])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("command,copies", [("invariant-dims", "3"), ("compare", "2")])
def test_huge_max_degree_exits_3_at_the_first_capped_degree(tmp_path, capsys, command, copies):
    # the multidegrees are listed one total degree at a time, so the cap stops
    # the run before the table of every degree up to 10^6 is built
    d4 = write(tmp_path, "d4.json", {"builtin": {"family": "D", "m": 4}})
    code = main(["--cap-monomials", "100", command, d4,
                 "--copies", copies, "--max-degree", "1000000"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "error: degree too large (cap monomials=100)\n"


def test_compare_refuses_a_capped_degree_before_any_row(tmp_path, capsys, monkeypatch):
    # total degree 16 is the first over the default cap; no row before it is
    # computed, so the refusal comes at once
    def no_rows(*args, **kwargs):
        raise AssertionError("compare computed rows before refusing")

    monkeypatch.setattr(polarization, "compare_graded_dims", no_rows)
    d4 = write(tmp_path, "d4.json", {"builtin": {"family": "D", "m": 4}})
    code = main(["compare", d4, "--copies", "2", "--max-degree", "1000000"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == f"error: degree too large (cap monomials={DEFAULT_CAPS.monomials})\n"


def test_compare_reports_the_d4_gap(tmp_path, capsys):
    d4 = write(tmp_path, "d4.json", {"builtin": {"family": "D", "m": 4}})
    code, out = run(capsys, ["--format", "structured", "compare", d4,
                             "--copies", "2", "--max-degree", "6"])
    assert code == 1
    report = json.loads(out)
    assert report["result"] == "FAIL"
    rows = {tuple(r["multidegree"]): r for r in report["table"]}
    assert rows[(3, 3)]["dim_invariants"] == 10
    assert rows[(3, 3)]["dim_pol_span"] == 9
    # the whole report, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "852dd46a2ab622bc7a6f3fc13f2bfb0473178fbe0966e387ee053753887c370d")
    # invariant-dims reads the same group file through group_from_spec
    code, out = run(capsys, ["--format", "structured", "invariant-dims", d4,
                             "--copies", "2", "--max-degree", "6"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0cba87553ccecf48273a76b5bf0736c92d1dc8997cfba0c13a50b21939905da6")


def _gaps(report):
    """[(multidegree, dim_invariants - dim_pol_span), ...] where the two differ."""
    return [(tuple(r["multidegree"]), r["dim_invariants"] - r["dim_pol_span"])
            for r in report["table"] if r["dim_invariants"] != r["dim_pol_span"]]


def test_compare_reports_the_d5_gaps_at_odd_total_degree(tmp_path, capsys):
    d5 = write(tmp_path, "d5.json", {"builtin": {"family": "D", "m": 5}})
    code, out = run(capsys, ["--format", "structured", "compare", d5,
                             "--copies", "2", "--max-degree", "9"])
    assert code == 1
    # codimension 1 at each (a, b) with a, b >= 3 and a + b odd
    assert _gaps(json.loads(out)) == [((3, 4), 1), ((4, 3), 1), ((3, 6), 1), ((4, 5), 1),
                                      ((5, 4), 1), ((6, 3), 1)]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "76578f19bf53f077f4e3a24a0a288cbd3e283b651c1bac45bc05d59017648d03")


def test_compare_reports_the_d4_gaps_on_three_copies(tmp_path, capsys):
    d4 = write(tmp_path, "d4.json", {"builtin": {"family": "D", "m": 4}})
    code, out = run(capsys, ["--format", "structured", "compare", d4,
                             "--copies", "3", "--max-degree", "6"])
    assert code == 1
    # codimension 1 at the 10 multidegrees of total degree 6 with entries <= 3
    assert _gaps(json.loads(out)) == [
        ((0, 3, 3), 1), ((1, 2, 3), 1), ((1, 3, 2), 1), ((2, 1, 3), 1), ((2, 2, 2), 1),
        ((2, 3, 1), 1), ((3, 0, 3), 1), ((3, 1, 2), 1), ((3, 2, 1), 1), ((3, 3, 0), 1)]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "50b307193cff92570b16ae70342f073b18d5baec20989aefbc1b7dd16cef1203")


def test_polarize_report_is_pinned(tmp_path, capsys):
    f = write(tmp_path, "f.json",
              {"vars": 3, "poly": "3/2*x1^2*x2 - x3^3 + 2/5*x1*x2*x3"})
    code, out = run(capsys, ["--format", "structured", "polarize", f, "--copies", "3"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "740a1c8a490879d61f2ff27f622cb7c3e790f645081225b4c90f0fddf84e3fa0")


def test_membership_of_a_constant_without_generators_is_pinned(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"vars": 2, "poly": "3"})
    gens = write(tmp_path, "gens.json", {"vars": 2, "generators": []})
    code, out = run(capsys, ["--format", "structured", "membership", f, gens])
    assert code == 0
    assert json.loads(out)["certificate"] == [{"coefficient": "3", "exponents": []}]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3a3586a90a1bac132b46536ef1dd79d309415bd313e37e37e0b2be918d4b0863")


def test_structured_reports_are_deterministic(files, capsys):
    _, first = run(capsys, ["--format", "structured", "certify", "sl3"])
    _, second = run(capsys, ["--format", "structured", "certify", "sl3"])
    assert first.encode() == second.encode()


# ---------------------------------------------------------------------------
# Property test: random spec files of every kind through main()
# ---------------------------------------------------------------------------

# Values of every JSON type.  Numbers and sizes stay small: the Fourier-Motzkin
# and span computations grow fast with them.  Only a builtin `m`, a
# polynomial file's `vars` and a `family` generator file's `m` and `copies`
# may be huge: the closed-form group order, the variable count and the term
# count of the generators meet their caps first.
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-3, 3),
                 st.sampled_from([float("inf"), float("nan"), "1/0", "", "x1"]),
                 st.lists(st.integers(-2, 2), max_size=2),
                 st.dictionaries(st.sampled_from(["family", "m"]), st.integers(0, 3),
                                 max_size=2))
RATIONAL = st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "2", 1, -1, 0.5])
FAMILY = st.sampled_from(["S", "B", "D", "X"])
BUILTIN_M = st.one_of(st.integers(1, 4), st.integers(5, 10 ** 40))
POLY = st.sampled_from(["x1^2 + x2^2", "x1*x2 - 3/2*x1^3", "x1^3", "2*x1 - x2", "x3",
                        "x1^"])
BLOCK_POLY = st.sampled_from(["x1_1^2 + x1_2^2", "x1_1*x2_1 + x1_2*x2_2", "x1_1^2",
                              "x1_1^2*x2_2^2 + x1_2^2*x2_1^2", "x1_1", "x1_1 + x2_1^2"])
INVARIANT = st.sampled_from(["x1^2 + x2^2", "x1*x2", "x1^2", "x1 + x2^2"])


def _value(dirty, strategy):
    """`strategy`; when dirty, sometimes a value of any JSON type instead."""
    if not dirty:
        return strategy
    return st.integers(0, 3).flatmap(lambda i: JUNK if i == 0 else strategy)


def _object(dirty, fields):
    """Every key present; when dirty, any key may be missing."""
    return st.fixed_dictionaries({}, optional=fields) if dirty else st.fixed_dictionaries(fields)


def _spec(*kinds):
    """Mostly a well-formed spec of one of `kinds`; otherwise one with missing
    keys and values of the wrong type, or a top level that is not a JSON object."""
    clean = st.one_of(*(kind(False) for kind in kinds))
    faulty = st.one_of(*(kind(True) for kind in kinds), JUNK)
    return st.integers(0, 2).flatmap(lambda i: faulty if i == 0 else clean).map(Spec)


def builtin_group(dirty):
    v = partial(_value, dirty)
    return _object(dirty, {"builtin": v(_object(dirty, {"family": v(FAMILY),
                                                        "m": v(BUILTIN_M)}))})


def generated_group(dirty):
    v = partial(_value, dirty)
    matrix = st.sampled_from([4, 4, 1, 3]).flatmap(
        lambda n: st.lists(v(RATIONAL), min_size=n, max_size=n))
    return _object(dirty, {"generators": v(st.lists(v(matrix), min_size=1, max_size=2))})


def one_block_poly(dirty):
    v = partial(_value, dirty)
    return _object(dirty, {"vars": v(st.one_of(st.integers(1, 3), st.integers(501, 10 ** 40))),
                           "poly": v(POLY)})


def two_block_poly(dirty):
    v = partial(_value, dirty)
    return _object(dirty, {"blocks": v(st.just(2)), "vars_per_block": v(st.just(2)),
                           "poly": v(BLOCK_POLY)})


def family_gens(dirty):
    v = partial(_value, dirty)
    return _object(dirty, {"family": v(FAMILY),
                           "m": v(st.one_of(st.sampled_from([2, 2, 3]), st.integers(4, 600),
                                            st.integers(501, 10 ** 40))),
                           "copies": v(st.one_of(st.sampled_from([2, 2, 1]),
                                                 st.integers(4, 600),
                                                 st.integers(501, 10 ** 40)))})


def invariant_gens(dirty):
    v = partial(_value, dirty)
    return _object(dirty, {"vars": v(st.sampled_from([2, 2, 1])),
                           "copies": v(st.sampled_from([2, 2, 1])),
                           "invariants": v(st.lists(v(INVARIANT), min_size=1, max_size=2))})


def explicit_gens(dirty):
    v = partial(_value, dirty)
    return _object(dirty, {"blocks": v(st.just(2)), "vars_per_block": v(st.just(2)),
                           "generators": v(st.lists(v(BLOCK_POLY), min_size=1, max_size=3))})


def torus_module(dirty):
    v = partial(_value, dirty)
    weight = st.lists(v(st.integers(-2, 2)), min_size=2, max_size=2)
    return _object(dirty, {"torus_rank": v(st.just(2)),
                           "weights": v(st.lists(v(weight), min_size=3, max_size=3))})


def binary_form(dirty):
    if not dirty:
        return st.lists(RATIONAL, min_size=1, max_size=5).map(
            lambda c: {"degree": len(c) - 1, "coeffs": c})
    v = partial(_value, dirty)
    return _object(dirty, {"degree": v(st.integers(0, 4)),
                           "coeffs": v(st.lists(v(RATIONAL), max_size=5))})


COPIES = st.integers(1, 2).map(str)
DEGREE = st.integers(0, 3).map(str)
VECTOR = st.lists(st.integers(-2, 2), min_size=3, max_size=3).map(
    lambda v: ",".join(map(str, v)))
ARGV = {
    "polarize": st.tuples(_spec(one_block_poly), st.integers(1, 3).map(str)).map(
        lambda t: ["polarize", t[0], "--copies", t[1]]),
    "invariant-dims": st.tuples(_spec(builtin_group, generated_group), COPIES, DEGREE).map(
        lambda t: ["invariant-dims", t[0], "--copies", t[1], "--max-degree", t[2]]),
    "compare": st.tuples(_spec(builtin_group), COPIES, DEGREE).map(
        lambda t: ["compare", t[0], "--copies", t[1], "--max-degree", t[2]]),
    "membership": st.tuples(_spec(two_block_poly),
                            _spec(family_gens, invariant_gens, explicit_gens)).map(
        lambda t: ["membership", t[0], t[1]]),
    "nullcone-torus": st.tuples(_spec(torus_module), VECTOR).map(
        lambda t: ["nullcone", "torus", t[0], "--", t[1]]),
    "nullcone-binary": _spec(binary_form).map(lambda s: ["nullcone", "binary", s]),
}
SMALL_CAPS = ["--format", "structured", "--cap-group-order", "64",
              "--cap-monomials", "500", "--cap-span-products", "500"]


@pytest.mark.parametrize("command", sorted(ARGV))
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_every_spec_file_keeps_the_exit_code_contract(command, data):
    argv = data.draw(ARGV[command])
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(SMALL_CAPS + materialize(Path(directory), argv))
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        assert json.loads(out.getvalue())["result"] == ("PASS" if code == 0 else "FAIL")
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
