"""Command-line surface: machine-readable JSON on stdout, summary on stderr.

Exit codes: 0 for verified/computed, 1 for a falsified check, 2 for usage or
input errors.  Every payload carries {"schema": 1} and renders big integers as
decimal strings.  Commands only compute; ``main`` writes every outcome once.
The check registry (``replicaq.checks``) is imported only by ``verify``, the
command that runs it.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import gcd, lcm

from .frames import classify_degree24
from .grunsky import grunsky_from_faber
from .replicable import NORTON_BASIS, is_replicable, reconstruct_from_basis
from .hecke import mahler_compute
from .qseries import CheckReport
from .functions import (HAUPTMODULN, FunctionSpec, SpecError, parse_function_spec,
                        realize, replication_family)

SCHEMA = 1
EXIT_CODES = {"verified": 0, "computed": 0, "falsified": 1, "error": 2}
METHODS = ("oracle", "recurrence", "basis")


class UsageError(ValueError):
    pass


class Falsified(Exception):
    """A method's input fails a check: (payload key, its value, summary)."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print its usage and exit 2."""

    def error(self, message):
        raise UsageError(message)


def _at_least(floor: int):
    """An argparse type: an int no smaller than ``floor``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _methods(text: str) -> list:
    """The --method list, checked before any work: known names, each once."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not methods:
        raise UsageError("no method given")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise UsageError(f"repeated method {m!r}")
    return methods


def _coeffs_by_method(spec: FunctionSpec, method: str, terms: int) -> list:
    trunc = terms + 1
    if method == "oracle":
        f = realize(spec, trunc)
        return f.coeff_range(1, terms)
    if method == "recurrence":
        realize(spec, 1)  # refuses a spec that is not normalized, as the other methods do
        top = max(trunc, 7)
        # the rules read the seeds a_1..a_5 and the duplicate f^(2) below q^(top // 2)
        fam = replication_family(spec, max(top // 2, 6))
        g = mahler_compute(fam.base.coeff_range(1, 5), fam.power(2).coeff, top)
        return g.coeff_range(1, terms)
    if method == "basis":
        # the descent reads the 12 basis values alone, so first ask whether
        # they are a replicable function's: h_{m,n} = h_{lcm,gcd} to grade 24
        f = realize(spec, NORTON_BASIS[-1] + 1)
        rep = is_replicable(grunsky_from_faber(f, NORTON_BASIS[-1] + 1))
        if not rep.ok:
            m, n, h, h_lg = rep.counterexample
            names = f"h_{m},{n}", f"h_{lcm(m, n)},{gcd(m, n)}"
            raise Falsified("not_replicable", {"pair": [m, n], "values": dict(
                zip(names, (str(h), str(h_lg))))}, f"not replicable: {names[0]} != {names[1]}")
        given = spec.coefficients  # an explicit spec's; the descent must give them back
        g = reconstruct_from_basis({k: f.coeff(k) for k in NORTON_BASIS},
                                   max(trunc, len(given) + 1, 3))
        k = next((k for k, c in enumerate(given, 1) if g.coeff(k) != c), None)
        if k is not None:
            raise Falsified("first_disagreement", {"index": k, "values": {
                "basis": str(g.coeff(k)), "explicit": str(given[k - 1])}},
                f"the basis descent disagrees with the given a_{k}")
        return g.coeff_range(1, terms)


def cmd_coeffs(args) -> tuple:
    spec = parse_function_spec(args.spec)
    methods = _methods(args.method)
    payload = {"spec": str(spec), "terms": args.terms, "methods": methods}
    try:
        results = {m: _coeffs_by_method(spec, m, args.terms) for m in methods}
    except Falsified as exc:
        key, value, summary = exc.args
        return "falsified", {**payload, key: value}, summary
    first = results[methods[0]]
    payload["coefficients"] = list(map(str, first))
    if len(methods) == 1:
        return "computed", payload, f"{args.terms} coefficients of {spec}"
    if all(results[m] == first for m in methods):
        return ("verified", payload,
                f"{len(methods)} methods agree on {args.terms} coefficients of {spec}")
    diff = next(k for k in range(args.terms)
                if any(results[m][k] != first[k] for m in methods))
    payload["first_disagreement"] = {
        "index": diff + 1,
        "values": {m: str(results[m][diff]) for m in methods},
    }
    return "falsified", payload, f"methods disagree at a_{diff + 1}"


def cmd_classify24(args) -> tuple:
    shapes = classify_degree24(args.bound)
    payload = {"bound": args.bound, "count": len(shapes), "shapes": [str(s) for s in shapes]}
    return ("computed", payload,
            f"{len(shapes)} multiplicative eta products of degree 24 (bound {args.bound})")


# -- verify suites -------------------------------------------------------

# suite -> (trunc, grade) -> the sizes, as keyword arguments, of the function
# of ``replicaq.checks`` named after the suite; the payload echoes them
SUITES = {
    "faber": lambda t, g: {"trunc": t, "n_max": min(8, t - 2), "randoms": 4},
    "grunsky": lambda t, g: {"grade": min(g, t - 1)},
    # is_replicable refuses a table below grade 7, where it would compare no pair
    "replicable": lambda t, g: {"grade": max(7, min(g, 16)), "perturbations": 0, "trunc": 9,
                                "ks": (2, 3), "route_ks": (2, 3)},
    "mod2_congruence": lambda t, g: {"bound": min(t - 1, 20)},
    "basis": lambda t, g: {"grade": g, "trunc": 30},
    "hecke": lambda t, g: {"trunc": max(t, 31), "randoms": 10, "families": tuple(HAUPTMODULN),
                           "faber_trunc": t},
    "mahler": lambda t, g: {"trunc": max(t, 31), "order": max(t - 1, 15)},
    "degree24": lambda t, g: {"bound": max(100, g)},
    "numerology": lambda t, g: {},
}


def _plain(x):
    """A mismatch tuple as JSON: numbers become decimal strings."""
    if isinstance(x, tuple):
        return [_plain(v) for v in x]
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return str(x)
    return x


def _reports_json(tree: dict):
    """(JSON form, every report ok) of a dict of CheckReports and plain values."""
    out, ok = {}, True
    for key, value in tree.items():
        if isinstance(value, CheckReport):
            ok = ok and value.ok
            value = {"ok": value.ok, "compared": value.compared,
                     "first_mismatch": _plain(value.first_mismatch)}
        elif isinstance(value, dict):
            value, sub_ok = _reports_json(value)
            ok = ok and sub_ok
        out[key] = value
    return out, ok


def cmd_verify(args) -> tuple:
    from . import checks

    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = {}
    for name in names:
        sizes = SUITES[name](args.trunc, args.grade)
        results[name], suite_ok = _reports_json({**getattr(checks, name)(**sizes), "sizes": sizes})
        results[name]["ok"] = suite_ok
    failed = [n for n, r in results.items() if not r["ok"]]
    payload = {"suites": results, "trunc": args.trunc, "grade": args.grade}
    if failed:
        return "falsified", payload, "falsified: " + ", ".join(failed)
    return "verified", payload, "verified: " + ", ".join(names)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="replicaq",
        description="Exact q-series computations for replicable functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="expand a function spec")
    p.add_argument("spec", help="j | fiction:c=C | eta:SHAPE+SHIFT | explicit:a1,a2,...")
    p.add_argument("--terms", type=_at_least(1), default=10)
    p.add_argument("--method", default="oracle",
                   help="comma list of {oracle, recurrence, basis}, each once")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("classify24", help="multiplicative eta products of degree 24")
    p.add_argument("--bound", type=_at_least(100), default=200)
    p.set_defaults(func=cmd_classify24)

    # below these sizes a suite compares next to nothing and would pass vacuously
    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=[*SUITES, "all"])
    p.add_argument("--trunc", type=_at_least(10), default=24)
    p.add_argument("--grade", type=_at_least(2), default=60)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status, payload, summary = args.func(args)
    except (UsageError, SpecError) as exc:
        status, payload, summary = "error", {"error": str(exc)}, str(exc)
    json.dump({"schema": SCHEMA, "status": status, **payload}, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)
    return EXIT_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
