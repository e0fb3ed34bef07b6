import hashlib
import json

import pytest

from polinv.cli import main


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


def test_polarize_command(files, capsys):
    code, out = run(capsys, ["polarize", files["sigma1"], "--copies", "2"])
    assert code == 0
    assert "component_count: 3" in out
    assert "result: PASS" in out


def test_invariant_dims_command(files, capsys):
    code, out = run(capsys, ["invariant-dims", files["b2"],
                             "--copies", "2", "--max-degree", "2"])
    assert code == 0
    assert "result: PASS" in out


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


def test_nullcone_binary_exit_codes(files, capsys):
    code, out = run(capsys, ["nullcone", "binary", files["form_member"]])
    assert code == 0 and "witness" in out
    code, _ = run(capsys, ["nullcone", "binary", files["form_nonmember"]])
    assert code == 1


def test_certify_sl3_and_sl2r1(files, capsys):
    assert run(capsys, ["certify", "sl3"])[0] == 0
    assert run(capsys, ["certify", "sl2-r1"])[0] == 0


def test_malformed_input_exits_2(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["nullcone", "binary", str(bad)]) == 2
    assert main(["nullcone", "binary", str(tmp_path / "missing.json")]) == 2
    assert main(["polarize", files["x4"], "--copies", "0"]) == 2


def test_non_square_generator_exits_2(tmp_path, capsys):
    spec = write(tmp_path, "g.json", {"generators": [["1", "0", "0"]]})
    assert main(["invariant-dims", spec, "--copies", "1", "--max-degree", "1"]) == 2
    assert "perfect square" in capsys.readouterr().err


def test_zero_denominator_in_poly_exits_2(tmp_path, capsys):
    spec = write(tmp_path, "p.json", {"vars": 2, "poly": "1/0*x1"})
    assert main(["polarize", spec, "--copies", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("spec, argv", [
    ({"degree": 1, "coeffs": ["1/0", "1"]}, ["nullcone", "binary", "SPEC"]),
    ({"generators": [["1/0", "0", "0", "1"]]},
     ["invariant-dims", "SPEC", "--copies", "1", "--max-degree", "1"]),
    ({"torus_rank": 1, "weights": [[1], [1]]}, ["nullcone", "torus", "SPEC", "1/0,1"]),
], ids=["binary-coeff", "group-generator", "torus-vector"])
def test_zero_denominator_entry_exits_2(tmp_path, capsys, spec, argv):
    path = write(tmp_path, "spec.json", spec)
    assert main([path if a == "SPEC" else a for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("name", ["POLINV_SEED", "POLINV_CAP_MONOMIALS"])
def test_malformed_env_int_exits_2(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    assert main(["certify", "sl2-r1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


def test_non_list_weights_exit_2(tmp_path, capsys):
    spec = write(tmp_path, "t.json", {"torus_rank": 1, "weights": 5})
    assert main(["nullcone", "torus", spec, "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_cap_exceeded_exits_3(files, capsys):
    code = main(["--cap-monomials", "3", "invariant-dims", files["b2"],
                 "--copies", "2", "--max-degree", "4"])
    assert code == 3
    code = main(["--cap-group-order", "4", "invariant-dims", files["b2"],
                 "--copies", "1", "--max-degree", "1"])
    assert code == 3


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


def test_structured_reports_are_deterministic(files, capsys):
    _, first = run(capsys, ["--format", "structured", "certify", "sl3"])
    _, second = run(capsys, ["--format", "structured", "certify", "sl3"])
    assert first.encode() == second.encode()
