"""The seeded job lists of the three workloads, and the check of every job.

Each workload is a closed loop with one client: one process runs its jobs back
to back.  The seed picks the functions, the shapes, the sizes within the
ranges stated below and the job order; the library only sees the generated
inputs.  Sizes are drawn from narrow ranges so that the work of a pass, and
with it ``wall_s``, stays nearly the same from one seed to the next.

Every job returns a plain output (strings, numbers, lists, dicts).  Its check
compares that output entry by entry with an independent route or a known
answer from ``reference`` and returns the number of entries compared; it
raises ``Mismatch`` otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from reference import (ETA_QUOTIENTS, FUNCTIONS, KNOWN_30, KNOWN_30_DIGEST, Mismatch,
                       compare_lists, euler_factor_holds, first_mult_failure, partitions,
                       rat, replicate_class, sha256_text, shape_text)

@dataclass
class Job:
    id: str
    kind: str
    params: dict
    run: Callable[[], object]
    check: Callable[[object, object], int]


def plain(obj):
    """Exact, JSON-ready form of an output: fractions become decimal strings."""
    if isinstance(obj, Fraction):
        return rat(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    return [plain(v) for v in obj]


def digest(output) -> str:
    return sha256_text(json.dumps(output, sort_keys=True))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# -- the command line, in process --------------------------------------------

def run_cli(argv: list) -> dict:
    from replicaq import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _cli_doc(output, status: str) -> dict:
    _expect(output["exit"] == 0, f"exit code {output['exit']}")
    doc = json.loads(output["stdout"])
    _expect(doc.get("schema") == 1 and doc.get("status") == status,
            f"status {doc.get('status')!r}, expected {status!r}")
    return doc


def check_classify24(bound: int):
    def check(output, refs) -> int:
        doc = _cli_doc(output, "computed")
        _expect(doc["bound"] == bound, f"bound {doc['bound']}, expected {bound}")
        _expect(doc["count"] == len(doc["shapes"]), "count disagrees with the shape list")
        n = compare_lists(doc["shapes"], KNOWN_30, "shapes")
        _expect(sha256_text("\n".join(doc["shapes"])) == KNOWN_30_DIGEST, "shape digest")
        return n
    return check


def classify24_job(job_id: str, bound: int) -> Job:
    argv = ["classify24", "--bound", str(bound)]
    return Job(job_id, "classify24", {"argv": argv}, lambda: run_cli(argv),
               check_classify24(bound))


def coeffs_job(job_id: str, name: str, terms: int, methods: str) -> Job:
    argv = ["coeffs", FUNCTIONS[name][0], "--terms", str(terms), "--method", methods]
    status = "verified" if "," in methods else "computed"

    def check(output, refs) -> int:
        doc = _cli_doc(output, status)
        _expect(doc["methods"] == methods.split(","), f"methods {doc['methods']}")
        # c(1)..c(terms); the first method's list, checked against the reference
        return compare_lists(doc["coefficients"], refs.series(name, terms + 2)[2:],
                             f"{name} coefficients")

    return Job(job_id, "coeffs", {"argv": argv}, lambda: run_cli(argv), check)


# -- classify ----------------------------------------------------------------

def eta_mult_job(job_id: str, shape: str, terms: int) -> Job:
    """Eta product of degree 24 to q^terms, weak multiplicativity, Euler factors."""
    parts = [int(tok.split("^")[0]) for tok in shape.split() for _ in range(int(tok.split("^")[1]))]
    weight = len(parts) // 2
    primes = (5, 7)

    def run():
        from replicaq import frames
        f = frames.eta_product(frames.parse_frame_shape(shape), terms + 1)
        report = frames.weak_multiplicativity(f, terms)
        return {"coefficients": f.integer_coeffs(1, terms),
                "multiplicative": report.verdict,
                "first_failure": report.first_failure,
                "euler": {p: frames.euler_factor_check(f, p, weight) for p in primes}}

    def check(output, refs) -> int:
        exponents: dict = {}
        for p in parts:
            exponents[p] = exponents.get(p, 0) + 1
        want = refs.eta_product(shape, exponents, terms)
        n = compare_lists(output["coefficients"], [rat(c) for c in want], f"eta {shape}")
        fail = first_mult_failure(want, terms)
        _expect(output["first_failure"] == plain(fail), f"first failure of {shape}")
        _expect(output["multiplicative"] == (fail is None), f"verdict of {shape}")
        if shape in KNOWN_30:
            _expect(output["multiplicative"], f"{shape} is one of the 30")
        for p in primes:
            _expect(output["euler"][str(p)] == euler_factor_holds(want, p, weight),
                    f"Euler factor at {p} for {shape}")
        return n + 1 + len(primes)

    return Job(job_id, "eta_mult", {"shape": shape, "terms": terms}, run, check)


def classify_jobs(rng: random.Random) -> list:
    """``classify24 --bound B`` with B in [700, 704], and four eta products of
    degree 24 to q^T, T in [1000, 1004]: two of the 30 multiplicative shapes and
    two of the other 1545 partitions."""
    others = [s for s in map(shape_text, partitions(24)) if s not in KNOWN_30]
    shapes = rng.sample(KNOWN_30, 2) + rng.sample(others, 2)
    jobs = [classify24_job("classify24", rng.randint(700, 704))]
    jobs += [eta_mult_job(f"eta:{s}", s, rng.randint(1000, 1004)) for s in shapes]
    rng.shuffle(jobs)
    return jobs


# -- expand ------------------------------------------------------------------

def _coefficient_list_check(name: str, terms: int):
    """Check for [c(-1), ..., c(terms-1)] of the function of class ``name``."""
    def check(output, refs) -> int:
        return compare_lists(output["coefficients"], refs.series(name, terms + 1),
                             f"{name} coefficients")
    return check


def mahler_job(name: str, terms: int) -> Job:
    """a_1..a_5 and the duplicate f^(2) in, terms coefficients out by the p = 2 rules."""
    duplicate = replicate_class(name, 2)

    def run():
        from replicaq import functions, hecke
        f = functions.realize(functions.parse_function_spec(FUNCTIONS[name][0]), 7)
        f2 = functions.realize(functions.parse_function_spec(FUNCTIONS[duplicate][0]),
                               terms // 2 + 3)
        g = hecke.mahler_compute([f.coeff(i) for i in range(1, 6)], f2.coeff, terms)
        return {"coefficients": g.integer_coeffs(-1, terms - 1)}

    return Job(f"mahler:{name}", "mahler", {"function": name, "duplicate": duplicate,
                                            "terms": terms},
               run, _coefficient_list_check(name, terms))


def hecke_faber_job(name: str, n_max: int, trunc: int) -> Job:
    """n T_n f = F_n(f) for n <= n_max on the family of J or 2B, over
    exponents -n .. trunc-1; the family is expanded far enough that the whole
    requested range is compared."""
    fam_trunc = n_max * (trunc + 1) + 2

    def run():
        from replicaq import functions, hecke
        fam = (functions.j_family if name == "J" else functions.tb2_family)(fam_trunc)
        return [[r.n, r.ok, r.compared_exponents, r.first_mismatch]
                for r in hecke.hecke_faber_verify(fam, n_max, trunc)]

    def check(output, refs) -> int:
        _expect([r[0] for r in output] == list(range(1, n_max + 1)), "report indices")
        for n, ok, compared, mismatch in output:
            _expect(ok and mismatch is None, f"n T_n f != F_n(f) for n = {n}: {mismatch}")
            _expect(compared == n + trunc, f"n = {n} compared {compared} exponents, "
                                           f"expected {n + trunc}")
        return sum(r[2] for r in output)

    return Job(f"hecke_faber:{name}", "hecke_faber",
               {"function": name, "n_max": n_max, "trunc": trunc}, run, check)


def expand_jobs(rng: random.Random) -> list:
    """``coeffs j`` and ``coeffs 2B`` by recurrence and oracle to N in [200, 202];
    ``coeffs j --method oracle`` to M in [800, 804]; two seeded eta quotients by
    oracle to M in [1000, 1004]; the Mahler p = 2 expansion of all seven functions
    to T in [100, 101]; and the Hecke-Faber identity for n <= 6 on the J and 2B
    families over 24 exponents."""
    jobs = [coeffs_job(f"coeffs:{name}:recurrence,oracle", name, rng.randint(200, 202),
                       "recurrence,oracle") for name in ("J", "2B")]
    jobs.append(coeffs_job("coeffs:J:oracle", "J", rng.randint(800, 804), "oracle"))
    for name in rng.sample(sorted(ETA_QUOTIENTS), 2):
        jobs.append(coeffs_job(f"coeffs:{name}:oracle", name, rng.randint(1000, 1004),
                               "oracle"))
    jobs += [mahler_job(name, rng.randint(100, 101)) for name in FUNCTIONS]
    jobs += [hecke_faber_job(name, 6, 24) for name in ("J", "2B")]
    rng.shuffle(jobs)
    return jobs


# -- replicate ---------------------------------------------------------------

REPLICATE_TERMS = {2: (47, 48), 3: (19, 19), 4: (12, 12), 6: (6, 6)}


def replicate_jobs(rng: random.Random) -> list:
    """Exact-Fraction replication work on input series built during set-up:
    ``replicate(f, k, T)`` for all 28 pairs of the seven functions and k in
    {2, 3, 4, 6}, with T in the ranges of REPLICATE_TERMS; ``reconstruct_from_basis``
    to N in [52, 53]; Grunsky tables by recursion and from Faber to grade G in
    [20, 21] with the denominator bound and the bivariate check; the three Faber
    routes for n <= 12; and ``is_replicable`` on a recursion table of grade
    [24, 25].  The seed picks the sizes, the order, and the function of each of
    the last four jobs."""
    from replicaq import functions, replicable

    names = sorted(FUNCTIONS)
    plan = [(name, k, rng.randint(lo, hi))
            for k, (lo, hi) in REPLICATE_TERMS.items() for name in names]
    basis_name, grunsky_name, faber_name, check_name = (rng.choice(names) for _ in range(4))
    basis_terms = rng.randint(52, 53)
    grade = rng.randint(20, 21)
    check_grade = rng.randint(24, 25)

    needed = {name: 32 for name in names}
    for name, k, terms in plan:
        needed[name] = max(needed[name], k * k * terms + 2)
    series = {name: functions.realize(functions.parse_function_spec(FUNCTIONS[name][0]),
                                      needed[name])
              for name in names}

    def coefficients(name, n):
        return [series[name].coeff(i) for i in range(1, n)]

    jobs = []
    for name, k, terms in plan:
        f = series[name]
        jobs.append(Job(
            f"replicate:{name}:k{k}", "replicate",
            {"function": name, "k": k, "terms": terms, "class": replicate_class(name, k)},
            lambda f=f, k=k, terms=terms: {
                "coefficients": replicable.replicate(f, k, terms).integer_coeffs(-1, terms - 1)},
            _coefficient_list_check(replicate_class(name, k), terms)))

    basis = {k: series[basis_name].coeff(k) for k in replicable.NORTON_BASIS}
    jobs.append(Job(
        f"reconstruct:{basis_name}", "reconstruct", {"function": basis_name, "terms": basis_terms},
        lambda: {"coefficients": replicable.reconstruct_from_basis(
            basis, basis_terms).integer_coeffs(-1, basis_terms - 1)},
        _coefficient_list_check(basis_name, basis_terms)))

    jobs.append(grunsky_job(grunsky_name, series[grunsky_name].truncate(grade + 1),
                            coefficients(grunsky_name, grade + 1), grade))
    jobs.append(faber_job(faber_name, series[faber_name].truncate(13),
                          coefficients(faber_name, 13)))
    jobs.append(is_replicable_job(check_name, coefficients(check_name, check_grade + 1),
                                  check_grade))
    rng.shuffle(jobs)
    return jobs


def _table(t) -> list:
    return [[m, n, h] for (m, n), h in sorted(t.entries.items())]


def grunsky_job(name: str, f, a: list, grade: int) -> Job:
    def run():
        from replicaq import grunsky
        by_recursion = grunsky.grunsky_by_recursion(a, grade)
        from_faber = grunsky.grunsky_from_faber(f, grade)
        return {"recursion": _table(by_recursion), "faber": _table(from_faber),
                "violations": grunsky.denominator_bound_violations(by_recursion),
                "bivariate": grunsky.grunsky_bivariate_check(f.truncate(13), 12, by_recursion)}

    def check(output, refs) -> int:
        n = compare_lists(output["faber"], output["recursion"], "Grunsky routes")
        first_row = [h for m, nn, h in output["recursion"] if m == 1]
        n += compare_lists(first_row, refs.series(name, grade + 1)[2:], "h_{1,n} = a_n")
        for m, nn, h in output["recursion"]:
            _expect((Fraction(h) * gcd(m, nn)).denominator == 1,
                    f"gcd({m},{nn}) h_{m},{nn} = {h} is not integral")
        _expect(output["violations"] == [], "library reports denominator violations")
        _expect(output["bivariate"] is True, "bivariate log check failed")
        return n

    return Job(f"grunsky:{name}", "grunsky", {"function": name, "grade": grade}, run, check)


def faber_job(name: str, f, a: list) -> Job:
    top = 12

    def run():
        from replicaq import faber
        routes = {"recursion": lambda n: faber.faber_by_recursion(a, n),
                  "elimination": lambda n: faber.faber_by_elimination(f, n),
                  "determinant": lambda n: faber.faber_by_determinant(a, n)}
        return {route: [list(make(n).coeffs) for n in range(top + 1)]
                for route, make in routes.items()}

    def check(output, refs) -> int:
        a1, a2 = (Fraction(x) for x in refs.series(name, 4)[2:4])
        closed = {2: [1, 0, -2 * a1], 3: [1, 0, -3 * a1, -3 * a2]}
        n = 0
        for deg, want in closed.items():
            n += compare_lists(output["recursion"][deg], [rat(c) for c in want], f"F_{deg}")
        for route in ("elimination", "determinant"):
            for deg in range(top + 1):
                n += compare_lists(output[route][deg], output["recursion"][deg],
                                   f"F_{deg} by {route}")
        return n

    return Job(f"faber:{name}", "faber", {"function": name, "n_max": top}, run, check)


def is_replicable_job(name: str, a: list, grade: int) -> Job:
    def run():
        from replicaq import grunsky, replicable
        report = replicable.is_replicable(grunsky.grunsky_by_recursion(a, grade))
        return {"ok": report.ok, "checked_pairs": report.checked_pairs,
                "counterexample": report.counterexample}

    def check(output, refs) -> int:
        pairs = sum(1 for m in range(1, grade) for n in range(m, grade - m + 1)
                    if lcm(m, n) + gcd(m, n) <= grade and (gcd(m, n), lcm(m, n)) != (m, n))
        _expect(output["ok"] is True and output["counterexample"] is None,
                f"{name} reported not replicable: {output['counterexample']}")
        _expect(output["checked_pairs"] == pairs,
                f"checked {output['checked_pairs']} pairs, expected {pairs}")
        return pairs

    return Job(f"is_replicable:{name}", "is_replicable", {"function": name, "grade": grade},
               run, check)


BUILDERS = {"classify": classify_jobs, "expand": expand_jobs, "replicate": replicate_jobs}


def build(workload: str, seed: int) -> list:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))


# -- negative control ----------------------------------------------------------

def negative_control(jobs: list, outputs: list, refs, seed: int) -> list:
    """Perturbed copies of real outputs, each fed to its job's check.

    One coefficient off by 1 and a coefficient list cut short, on the first
    job of the pass that outputs coefficients, and a 29-shape classification.
    Returns [(what, counted_as_failure)].
    """
    rng = random.Random(f"control:{seed}")
    job, output = next((j, o) for j, o in zip(jobs, outputs) if _coefficients_of(o) is not None)

    def off_by_one(coeffs):
        i = rng.randrange(len(coeffs))
        coeffs[i] = rat(Fraction(coeffs[i]) + 1)

    def cut_short(coeffs):
        coeffs.pop()

    shapes = list(KNOWN_30)
    del shapes[rng.randrange(len(shapes))]
    classify = classify24_job("control:classify24", 1000)
    fake = {"exit": 0, "stdout": json.dumps({"schema": 1, "status": "computed", "bound": 1000,
                                             "count": 29, "shapes": shapes})}
    cases = [(f"{job.id}: one coefficient off by 1", job, _perturbed(output, off_by_one)),
             (f"{job.id}: series cut short", job, _perturbed(output, cut_short)),
             ("classify24: 29-shape list", classify, fake)]
    result = []
    for what, j, bad in cases:
        try:
            j.check(bad, refs)
            failed = False
        except (Mismatch, KeyError, ValueError, TypeError):
            failed = True
        result.append((what, failed))
    return result


def _coefficients_of(output):
    if isinstance(output, dict) and "stdout" in output:
        output = json.loads(output["stdout"])
    return output.get("coefficients") if isinstance(output, dict) else None


def _perturbed(output, change):
    if "stdout" in output:
        doc = json.loads(output["stdout"])
        change(doc["coefficients"])
        return {"exit": output["exit"], "stdout": json.dumps(doc)}
    copy = dict(output)
    copy["coefficients"] = list(output["coefficients"])
    change(copy["coefficients"])
    return copy
