"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All arithmetic is exact, so every comparison is zero-tolerance.
"""

import hashlib
import random
from fractions import Fraction as Q

from polinv.cli import main as cli_main
from polinv.groups import DiagonalAction, builtin_family, invariant_dimension, is_invariant
from polinv.limits import DEFAULT_SEED
from polinv.nullcone import (BinaryForm, SubspaceSpec, binary_form_nullcone_member,
                             binary_nullcone_witness, certify_torus,
                             span_probe_nullcone)
from polinv.poly import Poly, VariableLayout, parse_poly
from polinv.polarization import (certificate_combination, certify_dm,
                                 classical_generators, compare_graded_dims,
                                 copies_layout, embed_in_copies, graded_span_basis,
                                 membership, polarize, polarization_generators,
                                 separation_test, wallach_operator)
from polinv.liealg import certify_sl2_r1, certify_sl3, certify_so5, sl2_invariant_dimension

from bivariate_gcd import binary_poly, homogeneous_bivariate_gcd


def _line(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{name}: {status}" + (f"  ({detail})" if detail else ""))


# -- AC-1: the polarization expansion identity --------------------------------

def _corpus():
    L4 = VariableLayout(1, 4)
    b4 = classical_generators("B", 4)          # sums of powers 2, 4, 6, 8
    d4 = classical_generators("D", 4)          # adds the product x1 x2 x3 x4
    e2 = Poly.zero(L4)
    for i in range(4):
        for j in range(i + 1, 4):
            e2 = e2 + Poly.variable(L4, i) * Poly.variable(L4, j)
    extras = [
        parse_poly("x1 + x2 + x3 + x4", L4),
        parse_poly("x1^3 + x2^3 + x3^3 + x4^3", L4),
        parse_poly("x1^2*x2 + 3*x3 - x4", L4),
        parse_poly("x1^3 - 1/2*x2*x3*x4 + 5", L4),
        parse_poly("x1^2 + 2*x1*x2 + x2^2", L4),
    ]
    return b4 + [d4[3], e2] + extras


def test_ac01_polarization_identity():
    rng = random.Random(DEFAULT_SEED)
    corpus = _corpus()
    assert len(corpus) >= 10
    for idx, f in enumerate(corpus):
        n = 3 if idx % 5 == 0 else 2
        comps = polarize(f, n)
        for _ in range(25):
            pts = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(n)]
            alphas = [Q(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(n)]
            combined = [sum((a * p[j] for a, p in zip(alphas, pts)), Q(0))
                        for j in range(4)]
            flat = [x for p in pts for x in p]
            rhs = Q(0)
            for deg, comp in comps.items():
                c = Q(1)
                for a, d in zip(alphas, deg):
                    c *= a ** d
                rhs += c * comp.evaluate(flat)
            assert f.evaluate(combined) == rhs, (idx, pts, alphas)
    _line("AC-1 polarization identity", True,
          f"{len(corpus)} polynomials x 25 seeded point/scalar pairs, exact")


# -- AC-2: equality for S_2, S_3, B_2, B_3 on two copies ----------------------

def test_ac02_weyl_hunziker_equalities():
    all_equal = True
    for family, m in (("S", 2), ("S", 3), ("B", 2), ("B", 3)):
        rows = compare_graded_dims(builtin_family(family, m),
                                   classical_generators(family, m), 2, 6)
        for deg, di, dp in rows:
            assert dp == di, (family, m, deg, di, dp)
        all_equal = all_equal and all(di == dp for _, di, dp in rows)
    _line("AC-2 Weyl/Hunziker equalities", all_equal,
          "S2, S3, B2, B3 on two copies, every multidegree of total degree <= 6")


# -- AC-3: the Wallach gap for D_4 on two copies ------------------------------

def _d4_setup():
    group = builtin_family("D", 4)
    action = DiagonalAction(group, copies_layout(4, 2))
    invs = classical_generators("D", 4)
    gens = polarization_generators(invs, 2, group=group)
    return group, action, invs, gens


def test_ac03_wallach_gap_bidegree_2_2_as_written():
    # As written this criterion is unattainable: P_1 is the classical
    # polarization operator, so P_1 P_1(sigma_4)/2 equals the (2,2)
    # polarization component of sigma_4 and lies in the span by construction,
    # and the two graded dimensions at (2,2) agree (both are 4, Reynolds-rank
    # oracle).  The genuine gap sits at bidegree (3,3); see the next test.
    # Kept as written instead of being weakened.
    group, action, invs, gens = _d4_setup()
    dim_inv = invariant_dimension(action, (2, 2))
    dim_pol = graded_span_basis(gens, (2, 2)).dimension
    h = wallach_operator(1, wallach_operator(1, embed_in_copies(invs[3], 2))) * Q(1, 2)
    h_cert = membership(h, gens)
    square_cert = membership(h * h, gens)
    square_ok = (square_cert is not None
                 and certificate_combination(gens, square_cert) == h * h)
    ok = dim_pol < dim_inv and h_cert is None and square_ok
    _line("AC-3 Wallach gap at (2,2) as written", ok,
          f"dim_inv={dim_inv}, dim_pol={dim_pol}, "
          f"P1P1(sigma4)/2 member={h_cert is not None}, square member={square_ok}")
    assert dim_pol < dim_inv, (
        "no gap at (2,2): both dimensions equal "
        f"{dim_inv}; P1 P1(sigma_4)/2 is itself the (2,2) polarization "
        "component of sigma_4, so it cannot witness a gap")
    assert h_cert is None, "P1 P1(sigma_4)/2 is a member (it is a polarization)"
    assert square_ok


def test_ac03_wallach_gap_true_certificate():
    # The gap predicted for D_4 on two copies, located by exhaustive graded
    # comparison: at bidegree (3,3) the invariants have dimension 10 but the
    # polarization span only 9, and w = P_3(sigma_4) is the missing invariant.
    # Its square is B_4-invariant, hence inside the span at (6,6): the
    # extension is integral but not surjective.
    group, action, invs, gens = _d4_setup()
    dim_inv = invariant_dimension(action, (3, 3))
    dim_pol = graded_span_basis(gens, (3, 3)).dimension
    assert (dim_inv, dim_pol) == (10, 9)
    w = wallach_operator(3, embed_in_copies(invs[3], 2))
    assert w.multidegree() == (3, 3)
    assert is_invariant(w, action)
    assert membership(w, gens) is None
    square_cert = membership(w * w, gens)
    assert square_cert is not None
    assert certificate_combination(gens, square_cert) == w * w
    report = certify_dm()
    assert report["result"] == "PASS"
    _line("AC-3 Wallach gap, true location (3,3)", True,
          f"dim_inv=10 > dim_pol=9, witness P3(sigma4) non-member, "
          f"square member with {len(square_cert)}-term certificate")


# -- AC-4: separation of distinct orbits --------------------------------------

def test_ac04_separation():
    group = builtin_family("D", 4)
    gens = polarization_generators(classical_generators("D", 4), 2, group=group)
    report = separation_test(group, gens, trials=200, seed=DEFAULT_SEED, controls=20)
    ok = (report.pairs_tested == 200 and report.separated == 200
          and not report.failures and report.controls_agreeing == 20)
    _line("AC-4 separation for D4 on two copies", ok,
          f"{report.separated}/200 distinct-orbit pairs separated, "
          f"{report.controls_agreeing}/20 same-orbit controls agree")
    assert ok


# -- AC-5: torus certificates --------------------------------------------------

def test_ac05_torus_certificates():
    report = certify_torus(seed=DEFAULT_SEED)
    by_name = {c["name"]: c for c in report["checks"]}
    agreement = by_name["box_oracle_agreement"]
    assert agreement["pass"] and agreement["agreements"] == agreement["queries"] == 1000
    assert by_name["witnesses_strictly_positive"]["pass"]
    assert by_name["contained_planes_admit_common_cocharacter"]["pass"]
    assert by_name["common_cocharacter_implies_containment"]["pass"]
    assert report["result"] == "PASS"
    _line("AC-5 torus certificates", True,
          "50 weight systems, 20 vectors each vs brute box oracle, "
          "150 probed planes consistent")


# -- AC-6: binary form nullcone ------------------------------------------------

def _random_member(rng, d):
    m = d // 2 + 1
    a, b = rng.randint(-9, 9), rng.randint(-9, 9)
    if a == 0 and b == 0:
        a = 1
    l = BinaryForm(1, (a, b))
    while True:
        h = BinaryForm(d - m, tuple(rng.randint(-9, 9) for _ in range(d - m + 1)))
        if not h.is_zero():
            break
    f = h
    for _ in range(m):
        f = f.multiply(l)
    return f, l, m


def _is_squarefree(f: BinaryForm) -> bool:
    p = binary_poly(f)
    g = homogeneous_bivariate_gcd([p, p.derivative(0), p.derivative(1)])
    return g.total_degree() == 0


def test_ac06_binary_form_nullcone():
    rng = random.Random(DEFAULT_SEED)
    for d in range(2, 9):
        for _ in range(50):
            f, l, m = _random_member(rng, d)
            assert binary_form_nullcone_member(f), (d, f.coeffs)
            w = binary_nullcone_witness(f)
            assert w is not None
            quotient = f
            for _ in range(m):
                quotient = quotient.divide_linear(w.coeffs[0], w.coeffs[1])
                assert quotient is not None, (d, f.coeffs, w.coeffs)
        made = 0
        while made < 50:
            f = BinaryForm(d, tuple(rng.randint(-9, 9) for _ in range(d + 1)))
            if f.is_zero() or not _is_squarefree(f):
                continue
            made += 1
            assert not binary_form_nullcone_member(f), (d, f.coeffs)
    # escape property: spans of x^m h1 and y^m h2 always leave the nullcone
    for d in range(2, 7):
        m = d // 2 + 1
        for trial in range(3):
            h1 = [rng.randint(-9, 9) for _ in range(d - m + 1)]
            h2 = [rng.randint(-9, 9) for _ in range(d - m + 1)]
            h1[0] = h1[0] or 1
            h2[-1] = h2[-1] or 1
            f1 = [Q(0)] * (d + 1)
            f2 = [Q(0)] * (d + 1)
            for i, c in enumerate(h1):
                f1[i] += c
            for i, c in enumerate(h2):
                f2[m + i] += c
            verdict = span_probe_nullcone(
                lambda vec: binary_form_nullcone_member(BinaryForm(d, vec)),
                SubspaceSpec(d + 1, (tuple(f1), tuple(f2))),
                seed=DEFAULT_SEED + trial)
            assert verdict.escaped, (d, trial)
    _line("AC-6 binary form nullcone", True,
          "degrees 2..8: 50 members with dividing witnesses and 50 squarefree "
          "non-members each; mixed spans escape for degrees 2..6")


# -- AC-7: the sl3 certificate --------------------------------------------------

def test_ac07_sl3_certificate():
    report = certify_sl3(seed=DEFAULT_SEED)
    by_name = {c["name"]: c["pass"] for c in report["checks"]}
    assert by_name["plane_nilpotent_symbolic"]
    assert by_name["bracket_is_diag_1_m2_1"]
    assert report["closure_dimension"] == 8
    assert by_name["witness_not_nilpotent"]
    assert report["result"] == "PASS"
    _line("AC-7 sl3 certificate", True,
          "symbolic nilpotency, bracket diag(1,-2,1), closure dimension 8, "
          "nontriangularizable conclusion")


# -- AC-8: the so5 certificate ---------------------------------------------------

def test_ac08_so5_certificate():
    report = certify_so5(seed=DEFAULT_SEED)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["generator_count_is_8"]["pass"]
    assert by_name["bidegrees_match"]["pass"]
    assert report["jacobian_ranks"] == [8, 8, 8]
    assert all(r <= 8 for r in report["jacobian_ranks"])
    assert max(report["orbit_dimensions"]) == 10
    assert report["polarization_index"] == 1
    assert report["result"] == "PASS"
    _line("AC-8 so5 certificate", True,
          "8 generators with stated bidegrees, jacobian rank 8 <= 8 at all "
          "seeds, orbit dimension 10, polarization index 1")


# -- AC-9: SL2 invariant dimensions ----------------------------------------------

def test_ac09_sl2_invariant_dimensions():
    singles = [sl2_invariant_dimension((1,), (k,)) for k in range(1, 5)]
    pair = sl2_invariant_dimension((1, 1), (1, 1))
    disc = sl2_invariant_dimension((2,), (2,))
    assert singles == [0, 0, 0, 0]
    assert pair == 1
    assert disc == 1
    report = certify_sl2_r1(seed=DEFAULT_SEED)
    assert report["result"] == "PASS"
    _line("AC-9 SL2 invariant dimensions", True,
          "R1 degrees 1..4 all 0; R1+R1 at (1,1) is 1; R2 at degree 2 is 1; "
          "polarization index of R1 is 1")


# -- AC-10: byte-identical reports ------------------------------------------------

# SHA-256 of each `--format <format> --seed 12345 certify` report; a
# refactor that changes any byte of a report changes its digest
AC10_DIGESTS = {
    ("structured", "dm"): "7c10a7e7ee3d291c9faf8a225f8bbd4eb3dca6d83588d88f16159eda3e1c4e45",
    ("structured", "so5"): "ebfc6e46e0d8232d2a052b05058375d06ac0aebcf16ed4ff853139963f176f82",
    ("structured", "sl3"): "febd4d5efcc7a5bedd78ad14f4c0e5fe87827de3c94ae3adb5106b06136d14f0",
    ("structured", "torus"): "2c7580096105e7819c3986aa7cc7d048c798a0dba8db94096ecd343586c9015b",
    ("structured", "sl2-r1"): "e90c608cba5da9a8387f6f30c46356719074b46233eb988d9412e889f5312a53",
    ("text", "dm"): "2d85a4f0d3e53c3838904e736163add1ef28d4eeb264881ebadee8bc7b5a1814",
    ("text", "so5"): "fe3cacd0d648ce85d8cd802d35b4bf7af45ba9c4a282b5f5f144d5b1547eddbd",
    ("text", "sl3"): "651215bf85e0fb0998fec6681777bdc02d1bf7ba62121fe85aa7511312ab4a18",
    ("text", "torus"): "78e505fa2b2dcc3c2a64d34fda3fd9899555bd7a6ff7faad8c3b108c88448032",
    ("text", "sl2-r1"): "c919f3408b365302e06e6e8ab797ed502bc8d5084bcd6993b080f3a6621ff6dd",
}


def test_ac10_determinism(capsys):
    for (fmt, scenario), digest in AC10_DIGESTS.items():
        outputs = []
        for _ in range(2):
            code = cli_main(["--format", fmt, "--seed", "12345", "certify", scenario])
            captured = capsys.readouterr().out
            assert code == 0, (fmt, scenario)
            outputs.append(captured.encode())
        assert outputs[0] == outputs[1], (fmt, scenario)
        assert hashlib.sha256(outputs[0]).hexdigest() == digest, (fmt, scenario)
    _line("AC-10 determinism", True,
          "all five certify scenarios, structured and text, byte-identical "
          "across repeated runs and to their recorded digests")
