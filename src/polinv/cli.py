"""Command line front end.

Every subcommand prints one deterministic report (text or structured JSON)
and exits with: 0 when all checks pass, 1 when any check fails (for query
commands the query itself is the check, grep-style), 2 on malformed input,
3 when a size cap is exceeded.  Seed and caps can be set by environment
variables (POLINV_SEED, POLINV_CAP_GROUP_ORDER, POLINV_CAP_SPAN_PRODUCTS,
POLINV_CAP_MONOMIALS); command line flags win over the environment.
The polinv modules are reached through the lazy module objects the package
registers, so a call executes no module that it does not use: a module runs
on the first access to one of its attributes.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import groups, liealg, linalg, nullcone, polarization, poly, reports, specs
from .limits import CapExceededError, Caps, DEFAULT_CAPS, DEFAULT_SEED


# the packaged `certify` scenarios as (name, module, function), in the order
# `--help` lists them; a scenario's module executes when it runs
_SCENARIOS = (("dm", polarization, "certify_dm"), ("so5", liealg, "certify_so5"),
              ("sl3", liealg, "certify_sl3"), ("torus", nullcone, "certify_torus"),
              ("sl2-r1", liealg, "certify_sl2_r1"))


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polinv",
        description="exact polarization, invariant dimension and nullcone certificates")
    parser.add_argument("--seed", type=int,
                        default=_env_int("POLINV_SEED", DEFAULT_SEED))
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument("--cap-group-order", type=int,
                        default=_env_int("POLINV_CAP_GROUP_ORDER", DEFAULT_CAPS.group_order))
    parser.add_argument("--cap-span-products", type=int,
                        default=_env_int("POLINV_CAP_SPAN_PRODUCTS", DEFAULT_CAPS.span_products))
    parser.add_argument("--cap-monomials", type=int,
                        default=_env_int("POLINV_CAP_MONOMIALS", DEFAULT_CAPS.monomials))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polarize", help="polarize a polynomial onto n copies")
    p.add_argument("poly_file")
    p.add_argument("--copies", type=int, required=True)

    p = sub.add_parser("invariant-dims", help="invariant dimensions per multidegree")
    p.add_argument("group_file")
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("compare", help="invariant vs polarization span dimensions")
    p.add_argument("group_file")
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("membership", help="membership in the graded polarization span")
    p.add_argument("poly_file")
    p.add_argument("gens_file")

    p = sub.add_parser("nullcone", help="Hilbert-Mumford nullcone tests")
    nsub = p.add_subparsers(dest="nullcone_kind", required=True)
    pt = nsub.add_parser("torus")
    pt.add_argument("module_file")
    pt.add_argument("vector", help="comma-separated rational coordinates")
    pb = nsub.add_parser("binary")
    pb.add_argument("form_file")

    p = sub.add_parser("certify", help="run a packaged certificate scenario")
    p.add_argument("scenario", choices=tuple(name for name, *_ in _SCENARIOS))
    return parser


def _parse_vector(text: str):
    return tuple(linalg.frac(part) for part in text.split(","))


def _check_max_degree(max_degree: int) -> None:
    if max_degree < 0:
        raise ValueError(f"--max-degree must be non-negative, got {max_degree}")


def cmd_polarize(args, caps: Caps) -> dict:
    layout, f = specs.poly_from_spec(specs.load_spec(args.poly_file), caps)
    if layout.blocks != 1:
        raise ValueError("polarize expects a single-block polynomial file")
    target = specs.capped_layout(args.copies, layout.vars_per_block, caps)
    comps = polarization.polarize(f, args.copies, caps)
    # f_I is multihomogeneous of multidegree I, so alpha^I f_I(v_1, ..., v_n) =
    # f_I(alpha_1 v_1, ..., alpha_n v_n): the right side of the identity is
    # the sum of the components (their terms are disjoint) at the scaled point
    merged = poly.Poly(target, {e: c for comp in comps.values() for e, c in comp.terms()})
    rng = random.Random(args.seed)
    m = layout.vars_per_block
    trials_ok = True
    for _ in range(5):
        points = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(args.copies)]
        alphas = [rng.randint(-4, 4) for _ in range(args.copies)]
        combined = [sum(a * p[j] for a, p in zip(alphas, points)) for j in range(m)]
        lhs = f.evaluate(combined)
        rhs = merged.evaluate([a * x for a, p in zip(alphas, points) for x in p])
        trials_ok = trials_ok and lhs == rhs
    checks = [reports.check("expansion_identity_spot_check", trials_ok, trials=5)]
    components = [{"multidegree": list(deg), "polynomial": poly.poly_to_string(p)}
                  for deg, p in comps.items()]
    return reports.make_report("polarize", args.seed, caps, checks,
                               copies=args.copies, component_count=len(components),
                               components=components)


def cmd_invariant_dims(args, caps: Caps) -> dict:
    _check_max_degree(args.max_degree)
    group = specs.group_from_spec(specs.load_spec(args.group_file), caps)
    action = groups.DiagonalAction(group, specs.capped_layout(args.copies, group.dimension, caps))
    rows = []
    bounded = True
    for deg in poly.multidegrees(args.max_degree, args.copies):
        dim = groups.invariant_dimension(action, deg, caps)
        n_mono = poly.count_monomials((group.dimension,) * args.copies, deg)
        bounded = bounded and dim <= n_mono
        rows.append({"multidegree": list(deg), "dim_invariants": dim,
                     "monomials": n_mono})
    checks = [reports.check("dims_bounded_by_monomial_count", bounded)]
    return reports.make_report("invariant-dims", args.seed, caps, checks,
                               group_order=group.order, copies=args.copies,
                               max_degree=args.max_degree, table=rows)


def cmd_compare(args, caps: Caps) -> dict:
    _check_max_degree(args.max_degree)
    builtin = specs.builtin_from_spec(specs.load_spec(args.group_file))
    if builtin is None:
        raise ValueError("compare needs a builtin group file "
                         "(the classical invariant generators are wired in for S, B, D)")
    family, m = builtin
    group = groups.builtin_family(family, m, caps)
    specs.capped_layout(args.copies, m, caps)
    # the rows are computed in this order and `invariant_dimension` refuses
    # each degree over the cap: refuse before the first row instead
    for deg in poly.multidegrees(args.max_degree, args.copies):
        caps.bound("monomials", poly.count_monomials((m,) * args.copies, deg), "degree too large")
    invs = polarization.classical_generators(family, m, caps)
    rows = polarization.compare_graded_dims(group, invs, args.copies, args.max_degree, caps)
    checks = [reports.check("pol_dims_bounded_by_invariant_dims",
                            all(dp <= di for _, di, dp in rows))]
    for deg, di, dp in rows:
        name = "equal_at_" + "_".join(str(d) for d in deg)
        checks.append(reports.check(name, di == dp, dim_invariants=di, dim_pol_span=dp))
    table = [{"multidegree": list(deg), "dim_invariants": di, "dim_pol_span": dp}
             for deg, di, dp in rows]
    return reports.make_report("compare", args.seed, caps, checks,
                               family=family, m=m, copies=args.copies,
                               max_degree=args.max_degree, table=table)


def cmd_membership(args, caps: Caps) -> dict:
    layout, f = specs.poly_from_spec(specs.load_spec(args.poly_file), caps)
    gens = specs.generators_from_spec(specs.load_spec(args.gens_file), caps)
    if gens.layout != layout:
        raise ValueError("polynomial and generator layouts differ")
    cert = polarization.membership(f, gens, caps)
    checks = [reports.check("member", cert is not None)]
    payload = {"polynomial": poly.poly_to_string(f),
               "multidegree": list(f.multidegree() or ()),
               "member": cert is not None}
    if cert is not None:
        checks.append(reports.check("certificate_reconstructs",
                                    polarization.certificate_combination(gens, cert) == f,
                                    certificate_terms=len(cert)))
        payload["certificate"] = [{"exponents": list(e), "coefficient": str(c)}
                                  for e, c in cert]
    return reports.make_report("membership", args.seed, caps, checks, **payload)


def cmd_nullcone(args, caps: Caps) -> dict:
    if args.nullcone_kind == "torus":
        ws = specs.weight_system_from_spec(specs.load_spec(args.module_file))
        v = _parse_vector(args.vector)
        gamma = nullcone.torus_nullcone_member(ws, v, caps)
        checks = [reports.check("in_nullcone", gamma is not None)]
        payload = {"vector": [str(x) for x in v], "member": gamma is not None}
        if gamma is not None:
            checks.append(reports.check("cocharacter_strictly_positive_on_support",
                                        nullcone.check_cocharacter(ws, v, gamma)))
            payload["cocharacter"] = list(gamma)
            payload["positive_part"] = list(nullcone.v_gamma(ws, gamma))
        return reports.make_report("nullcone-torus", args.seed, caps, checks, **payload)
    form = specs.binary_form_from_spec(specs.load_spec(args.form_file))
    witness = None if form.is_zero() else nullcone.binary_nullcone_witness(form)
    member = form.is_zero() or witness is not None
    checks = [reports.check("in_nullcone", member)]
    payload = {"degree": form.degree, "coeffs": [str(c) for c in form.coeffs],
               "member": member}
    if witness is not None:
        divides, m = nullcone.check_binary_witness(form, witness)
        checks.append(reports.check("witness_power_divides_form", divides,
                                    required_multiplicity=m))
        payload["witness"] = [str(c) for c in witness.coeffs]
    return reports.make_report("nullcone-binary", args.seed, caps, checks, **payload)


def cmd_certify(args, caps: Caps) -> dict:
    module, function = {name: rest for name, *rest in _SCENARIOS}[args.scenario]
    return getattr(module, function)(args.seed, caps)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ValueError as exc:  # a malformed POLINV_* default
        print(f"error: {exc}", file=sys.stderr)
        return 2
    caps = Caps(args.cap_group_order, args.cap_span_products, args.cap_monomials)
    handlers = {
        "polarize": cmd_polarize,
        "invariant-dims": cmd_invariant_dims,
        "compare": cmd_compare,
        "membership": cmd_membership,
        "nullcone": cmd_nullcone,
        "certify": cmd_certify,
    }
    try:
        report = handlers[args.command](args, caps)
    except CapExceededError as exc:
        print(f"error: {exc} (cap {exc.cap_name}={exc.cap_value})", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    render = reports.render_structured if args.format == "structured" else reports.render_text
    sys.stdout.write(render(report))
    return 0 if report["result"] == "PASS" else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
