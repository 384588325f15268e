"""Command-line surface: machine-readable JSON on stdout, summary on stderr.

Exit codes: 0 for verified/computed, 1 for a falsified check, 2 for usage or
input errors.  Every payload carries {"schema": 1} and renders big integers as
decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .qseries import QSeries, j_oracle, qseries_to_json
from .frames import classify_degree24, euler_factor_check, parse_frame_shape
from .faber import faber_by_recursion, faber_by_elimination, faber_by_determinant
from .grunsky import (grunsky_by_recursion, grunsky_from_faber,
                      grunsky_bivariate_check, denominator_bound_violations)
from .replicable import (NORTON_BASIS, IRREDUCIBLE_GRADES, is_replicable,
                         replicate, replicate_by_grunsky, find_reducing_pair,
                         exhaustive_reducing_pair, reconstruct_from_basis,
                         reconstruct_by_grunsky)
from .hecke import (hecke_Tn, hecke_Tn_via_uv, up, vp, hecke_faber_verify,
                    derive_p2_recurrences, mahler_compute)
from .functions import (FunctionSpec, SpecError, TB2_SPEC, parse_function_spec,
                        realize, j_family, fiction_family, tb2_family)

SCHEMA = 1


class UsageError(ValueError):
    pass


def _rat(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _emit(status: str, payload: dict, summary: str) -> int:
    doc = {"schema": SCHEMA, "status": status}
    doc.update(payload)
    json.dump(doc, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)
    if status in ("verified", "computed"):
        return 0
    if status == "falsified":
        return 1
    return 2


def _family_for(spec: FunctionSpec, trunc: int):
    if spec.variant == "j":
        return j_family(trunc)
    if spec.variant == "fiction":
        return fiction_family(spec.c, trunc)
    if spec == TB2_SPEC:
        return tb2_family(trunc)
    raise UsageError(f"no replication family known for spec {spec}; "
                     "methods beyond 'oracle' need one")


def _coeffs_by_method(spec: FunctionSpec, method: str, terms: int) -> list:
    trunc = terms + 1
    if method == "oracle":
        f = realize(spec, trunc)
        return [f.coeff(k) for k in range(1, trunc)]
    if method == "recurrence":
        fam = _family_for(spec, max(2 * trunc + 4, 12))
        f, f2 = fam.base, fam.power(2)
        seeds = [f.coeff(i) for i in range(1, 6)]
        g = mahler_compute(seeds, lambda i: f2.coeff(i), max(trunc, 7))
        return [g.coeff(k) for k in range(1, trunc)]
    if method == "basis":
        fam_trunc = max(trunc, 25)
        f = realize(spec, fam_trunc)
        basis = {k: f.coeff(k) for k in NORTON_BASIS}
        g = reconstruct_from_basis(basis, max(trunc, 3))
        return [g.coeff(k) for k in range(1, trunc)]
    raise UsageError(f"unknown method {method!r}")


def cmd_coeffs(args) -> int:
    try:
        spec = parse_function_spec(args.spec)
    except SpecError as exc:
        return _emit("error", {"error": str(exc)}, f"bad function spec: {exc}")
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        return _emit("error", {"error": "no method given"}, "no method given")
    try:
        results = {m: _coeffs_by_method(spec, m, args.terms) for m in methods}
    except (UsageError, SpecError) as exc:
        return _emit("error", {"error": str(exc)}, str(exc))
    first = results[methods[0]]
    agree = all(results[m] == first for m in methods)
    payload = {
        "spec": str(spec),
        "terms": args.terms,
        "methods": methods,
        "coefficients": [_rat(c) for c in first],
    }
    if len(methods) == 1:
        return _emit("computed", payload, f"{args.terms} coefficients of {spec}")
    if agree:
        return _emit("verified", payload,
                     f"{len(methods)} methods agree on {args.terms} coefficients of {spec}")
    diff = next(k for k in range(args.terms)
                if any(results[m][k] != first[k] for m in methods))
    payload["first_disagreement"] = {
        "index": diff + 1,
        "values": {m: _rat(results[m][diff]) for m in methods},
    }
    return _emit("falsified", payload, f"methods disagree at a_{diff + 1}")


def cmd_classify24(args) -> int:
    if args.bound < 100:
        return _emit("error", {"error": "bound must be >= 100"}, "bound must be >= 100")
    shapes = classify_degree24(args.bound)
    payload = {
        "bound": args.bound,
        "count": len(shapes),
        "shapes": [str(s) for s in shapes],
    }
    return _emit("computed", payload,
                 f"{len(shapes)} multiplicative eta products of degree 24 "
                 f"(bound {args.bound})")


def cmd_numerology(args) -> int:
    sq = sum(k * k for k in range(1, 25))
    J = j_oracle(26)
    jsq = sum(J.coeff(k) ** 2 for k in range(1, 25))
    checks = {
        "sum_squares_1_to_24": {"value": str(sq), "equals_70_squared": sq == 4900},
        "j_coefficient_squares_mod_70": {
            "value_mod_70": str(jsq % 70),
            "equals_42": jsq % 70 == 42,
        },
        "census_sums": {
            "360+256": 360 + 256,
            "120+2*248": 120 + 2 * 248,
            "both_616": 360 + 256 == 616 and 120 + 2 * 248 == 616,
        },
    }
    ok = (checks["sum_squares_1_to_24"]["equals_70_squared"]
          and checks["j_coefficient_squares_mod_70"]["equals_42"]
          and checks["census_sums"]["both_616"])
    payload = {
        "checks": checks,
        "replicable_function_census": {"count": 616, "provenance": "quoted"},
    }
    status = "verified" if ok else "falsified"
    return _emit(status, payload, f"numerology {status}")


# -- verify suites -------------------------------------------------------

def _suite_faber(trunc: int, grade: int) -> dict:
    J = j_oracle(trunc)
    a = [J.coeff(k) for k in range(1, trunc)]
    routes_agree = True
    poles_killed = True
    for n in range(0, min(8, trunc - 2) + 1):
        r = faber_by_recursion(a, n)
        if faber_by_determinant(a, n) != r:
            routes_agree = False
        if n >= 1 and n + 1 < trunc and faber_by_elimination(J, n) != r:
            routes_agree = False
        if n >= 1 and n + 1 < trunc:
            series = r(J)
            if any(series.coeff(-j) != (1 if j == n else 0) for j in range(0, n + 1)):
                poles_killed = False
    return {"routes_agree": routes_agree, "poles_killed": poles_killed,
            "ok": routes_agree and poles_killed}


def _suite_grunsky(trunc: int, grade: int) -> dict:
    grade = min(grade, trunc - 1)
    J = j_oracle(trunc)
    a = [J.coeff(k) for k in range(1, trunc)]
    t_rec = grunsky_by_recursion(a, grade)
    t_fab = grunsky_from_faber(J, grade)
    agree = t_rec.entries == t_fab.entries
    bivariate = grunsky_bivariate_check(J, min(grade, 12), t_fab if grade <= 12 else None)
    denom = not denominator_bound_violations(t_rec)
    return {"routes_agree": agree, "bivariate_ok": bivariate,
            "denominator_bound_ok": denom, "ok": agree and bivariate and denom}


def _coefficients(series: QSeries, trunc: int):
    """Coefficients at q^-1 .. q^(trunc-1), or None unless known exactly to trunc."""
    if series.trunc != trunc:
        return None
    return series.integer_coeffs(-1, trunc - 1)


def _suite_replicable(trunc: int, grade: int) -> dict:
    J = j_oracle(max(trunc, 100))
    a = [J.coeff(k) for k in range(1, int(J.trunc))]
    rep = is_replicable(grunsky_by_recursion(a, min(grade, 16)))
    want = _coefficients(j_oracle(9), 9)
    rows = {k: _coefficients(replicate(J, k, 9), 9) for k in (2, 3)}
    k_ok = all(got == want for got in rows.values())
    routes = all(got is not None and got == _coefficients(replicate_by_grunsky(J, k, 9), 9)
                 for k, got in rows.items())
    fam = tb2_family(trunc)
    from .replicable import mod_p_congruence
    cong = mod_p_congruence(fam.base, fam.power(2), 2, min(trunc - 1, 20))
    return {"replicability_ok": rep.ok, "replicate_fixes_j": k_ok,
            "replicate_routes_agree": routes, "mod_2_congruence_ok": cong,
            "ok": rep.ok and k_ok and routes and cong}


def _suite_basis(trunc: int, grade: int) -> dict:
    pairs_ok = True
    for N in range(2, grade + 1):
        mine = find_reducing_pair(N)
        oracle = exhaustive_reducing_pair(N)
        if (mine is None) != (oracle is None):
            pairs_ok = False
            break
        if mine is not None:
            try:
                mine.validate()
            except AssertionError:
                pairs_ok = False
                break
    irr = tuple(N for N in range(2, 25) if find_reducing_pair(N) is None)
    irr_ok = irr == IRREDUCIBLE_GRADES
    J = j_oracle(max(trunc, 31))
    basis = {k: J.coeff(k) for k in NORTON_BASIS}
    rebuilt = _coefficients(reconstruct_from_basis(basis, 30), 30)
    rec_ok = rebuilt == _coefficients(j_oracle(30), 30)
    routes = rebuilt is not None and rebuilt == _coefficients(
        reconstruct_by_grunsky(basis, 30), 30)
    return {"reducing_pairs_ok": pairs_ok, "irreducible_grades_ok": irr_ok,
            "reconstruction_ok": rec_ok, "reconstruction_routes_agree": routes,
            "grade_bound": grade, "ok": pairs_ok and irr_ok and rec_ok and routes}


def _suite_hecke(trunc: int, grade: int) -> dict:
    J = j_oracle(max(trunc, 31))
    tp_ok = all(hecke_Tn(J, p) == (vp(J, p) * Fraction(1, p) + up(J, p))
                for p in (2, 3, 5))
    uv_ok = all(hecke_Tn(J, n) == hecke_Tn_via_uv(J, n) for n in (2, 4, 6))
    fams = {"j": j_family(max(trunc, 31)), "2b": tb2_family(max(trunc, 31))}
    hf = {name: all(r.ok for r in hecke_faber_verify(fam, 6, trunc))
          for name, fam in fams.items()}
    return {"tp_decomposition_ok": tp_ok, "uv_route_ok": uv_ok,
            "hecke_faber": hf, "ok": tp_ok and uv_ok and all(hf.values())}


def _suite_mahler(trunc: int, grade: int) -> dict:
    out = {}
    ok = True
    for name, fam in (("j", j_family(max(trunc, 31))),
                      ("2b", tb2_family(max(trunc, 31)))):
        rs = derive_p2_recurrences(fam, max(trunc - 2, 10))
        f, f2 = fam.base, fam.power(2)
        seeds = [f.coeff(i) for i in range(1, 6)]
        top = int(f.trunc) // 2
        g = mahler_compute(seeds, lambda i: f2.coeff(i), top)
        match = all(g.coeff(i) == f.coeff(i) for i in range(-1, top))
        out[name] = {"identities_ok": rs.e1_ok and rs.e2_ok,
                     "rules_ok": rs.first_rule_failure is None,
                     "compute_matches_oracle": match}
        ok = ok and rs.ok and match
    out["ok"] = ok
    return out


SUITES = {
    "faber": _suite_faber,
    "grunsky": _suite_grunsky,
    "replicable": _suite_replicable,
    "basis": _suite_basis,
    "hecke": _suite_hecke,
    "mahler": _suite_mahler,
}


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        return _emit("error", {"error": f"unknown suite {args.suite!r}"},
                     f"unknown suite {args.suite!r}")
    # below these sizes a suite compares next to nothing and would pass vacuously
    if args.trunc < 10:
        return _emit("error", {"error": "trunc must be >= 10"}, "trunc must be >= 10")
    if args.grade < 2:
        return _emit("error", {"error": "grade must be >= 2"}, "grade must be >= 2")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = {name: SUITES[name](args.trunc, args.grade) for name in names}
    ok = all(r["ok"] for r in results.values())
    payload = {"suites": results, "trunc": args.trunc, "grade": args.grade}
    status = "verified" if ok else "falsified"
    failed = [n for n, r in results.items() if not r["ok"]]
    summary = ("verified: " + ", ".join(names) if ok
               else "falsified: " + ", ".join(failed))
    return _emit(status, payload, summary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replicaq",
        description="Exact q-series computations for replicable functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="expand a function spec")
    p.add_argument("spec", help="j | fiction:c=C | eta:SHAPE+SHIFT | explicit:a1,a2,...")
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--method", default="oracle",
                   help="comma list of {oracle, recurrence, basis}")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("classify24", help="multiplicative eta products of degree 24")
    p.add_argument("--bound", type=int, default=200)
    p.set_defaults(func=cmd_classify24)

    p = sub.add_parser("numerology", help="the identities behind the numbers")
    p.set_defaults(func=cmd_numerology)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="faber|grunsky|replicable|basis|hecke|mahler|all")
    p.add_argument("--trunc", type=int, default=24)
    p.add_argument("--grade", type=int, default=60)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "coeffs" and args.terms < 1:
        return _emit("error", {"error": "--terms must be positive"},
                     "--terms must be positive")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
