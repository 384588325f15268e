"""The cross-route checks, each written once.

The acceptance tests call these checks at their fixed bounds and ``replicaq
verify`` at sizes derived from its options, so the two callers cannot drift
apart.  Each check is one ``verify`` suite of the same name: it returns a
dict keyed as in that suite's payload, with one ``CheckReport`` per sub-check.
Series comparisons go through ``agree``, which refuses to compare past what
either side knows.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd
from typing import Iterable, Sequence

from .qseries import (CheckReport, QSeries, TruncationError, agree, j_oracle,
                      _exponents_below, _int_conv)
from .frames import (parse_frame_shape, is_balanced, eta_product,
                     weak_multiplicativity, classify_degree24, euler_factor_check,
                     partitions_of, _log_derivative_coeffs, _product_int_coeffs)
from .faber import faber_by_recursion, faber_by_elimination, faber_by_determinant
from .grunsky import (grunsky_by_recursion, grunsky_from_faber,
                      bivariate_comparisons, denominator_bound_violations)
from .replicable import (NORTON_BASIS, IRREDUCIBLE_GRADES, ReplicationFamily,
                         is_replicable, replicate, replicate_by_grunsky,
                         inverse_identity_sum, mod_p_residues, find_reducing_pair,
                         exhaustive_reducing_pair, reconstruct_from_basis,
                         reconstruct_by_grunsky)
from .hecke import (hecke_Tn, hecke_Tn_via_uv, hecke_faber_verify, p2_identities,
                    mahler_compute)
from .functions import HAUPTMODULN, realize, replication_family


def _scan(name: str, items: Iterable[tuple]) -> CheckReport:
    """Compare (label, got, want) items in order, stopping at the first got != want."""
    compared = 0
    for label, got, want in items:
        compared += 1
        if got != want:
            return CheckReport(name, compared, (label, got, want))
    return CheckReport(name, compared)


def _series(name: str, items: Iterable[tuple], exact: bool = False) -> CheckReport:
    """Compare (label, a, b, order) items by ``agree``, counting exponents; a
    side known only below order is a mismatch, and so, when ``exact``, is a
    side known to any order but q^order."""
    compared = 0
    for label, a, b, order in items:
        try:
            if exact and not a.trunc == b.trunc == order:
                raise TruncationError(f"known below q^{a.trunc} and q^{b.trunc}, not q^{order}")
            mismatch = agree(a, b, order)
        except TruncationError as exc:
            return CheckReport(name, compared, (label, str(exc)))
        exponents = _exponents_below(a, b, order)
        if mismatch is not None:  # count the exponents up to the mismatch
            return CheckReport(name, compared + bisect_right(exponents, mismatch[0]),
                               (label,) + mismatch)
        compared += len(exponents)
    return CheckReport(name, compared)


def mahler(trunc: int, order: int) -> dict:
    """For each function of ``HAUPTMODULN`` known to q^trunc: the identities
    E1 and E2 behind the p = 2 rules, and ``mahler_compute`` from a_1 .. a_5
    and f^(2) against f below q^order.  Also J's first four coefficients
    against their published values."""
    out = {}
    for name in HAUPTMODULN:
        fam = replication_family(name, trunc)
        f = fam.base
        g = mahler_compute(f.coeff_range(1, 5), fam.power(2).coeff, order)
        out[name] = {
            "identities_ok": _series("mahler_identities", p2_identities(fam)),
            "compute_matches_oracle": _series("mahler_vs_oracle", [("f", g, f, order)]),
        }
    J = j_oracle(5)
    out["j_published_values"] = _scan("j_published_values", (
        (k, J.coeff(k), want)
        for k, want in enumerate((196884, 21493760, 864299970, 20245856256), 1)))
    return out


def faber(trunc: int, n_max: int, randoms: int) -> dict:
    """Faber polynomials F_n, n <= n_max, of J known to q^trunc and of
    ``randoms`` seeded random normalized series known to q^(trunc-1): the
    recursion against the determinant, the closed forms F_2 = z^2 - 2 a_1 and
    F_3 = z^3 - 3 a_1 z - 3 a_2, and, where f is known to q^(n+1), against
    pole-killing elimination, with F_n(f) = q^-n + O(q).  Also the symmetric
    functions of {1} and of ``randoms`` seeded random sets of four rationals
    to degree n_max, as products against their power-sum exponentials."""
    J = j_oracle(trunc)
    inputs = [("J", J, J.coeff_range(1, trunc - 1))]
    rng = random.Random(2024)
    for i in range(randoms):
        a = [Fraction(rng.randint(-7, 7)) for _ in range(trunc - 2)]
        inputs.append((f"random {i}", QSeries(-1, 1, [1, 0] + a, trunc - 1), a))
    routes, poles = [], []
    for label, f, a in inputs:
        for n in range(n_max + 1):
            rec = faber_by_recursion(a, n)
            routes.append(((label, n, "determinant"), faber_by_determinant(a, n).coeffs,
                           rec.coeffs))
            if 1 <= n and n + 1 < f.trunc:
                routes.append(((label, n, "elimination"), faber_by_elimination(f, n).coeffs,
                               rec.coeffs))
                poles.append(((label, n), rec(f), QSeries(-n, 1, [1], 1), 1))
        routes.append(((label, 2, "closed form"), faber_by_recursion(a, 2).coeffs,
                       (1, 0, -2 * a[0])))
        routes.append(((label, 3, "closed form"), faber_by_recursion(a, 3).coeffs,
                       (1, 0, -3 * a[0], -3 * a[1])))
    sets = [[1]] + [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
                    for _ in range(randoms)]
    return {"routes_agree": _scan("faber_routes", routes),
            "poles_killed": _series("faber_poles", poles),
            "symmetric_functions_ok": _scan("symmetric_functions", (
                ((i,) + label, got, want) for i, xs in enumerate(sets)
                for label, got, want in symmetric_function_comparisons(xs, n_max)))}


def symmetric_function_comparisons(xs: Sequence, order: int):
    """((kind, k), product side, exponential side) for k <= order: the
    complete homogeneous and the elementary symmetric polynomials of xs, as
    the t^k coefficients of prod 1/(1 - x t) and prod (1 + x t), against
    exp(sum_m p_m t^m / m) and exp(sum_m (-1)^(m-1) p_m t^m / m), p_m the
    power sums."""
    xs = [Fraction(v) for v in xs]
    n = order + 1
    one = [Fraction(1)] + [Fraction(0)] * order
    complete = elementary = one
    for v in xs:
        complete = _int_conv(complete, [v ** i for i in range(n)], n)
        elementary = _int_conv(elementary, [Fraction(1), v], n)
    for kind, product, sign in (("complete", complete, 1), ("elementary", elementary, -1)):
        u = [Fraction(0)] + [sign ** (m - 1) * sum(v ** m for v in xs) / m for m in range(1, n)]
        exp = power = one
        for j in range(1, n):  # exp(u) = sum_j u^j / j!, u having no constant term
            power = _int_conv(power, u, n)
            exp = [e + c / factorial(j) for e, c in zip(exp, power)]
        yield from (((kind, k), product[k], exp[k]) for k in range(n))


def grunsky(grade: int) -> dict:
    """J's Grunsky table to ``grade`` by Norton's recursion and from the Faber
    rows of J; gcd(m, n) h_{m,n} integral on the Faber table, which reads
    h_{m,n} off row min(m, n) alone (the recursion raises on a violation as
    it builds); and the bivariate log expansion against the recursion's
    table to min(grade, 12), the Faber table being equal to it entry by
    entry.  Both tables read a_1 .. a_(grade-1) of J."""
    J = j_oracle(grade)
    rec = grunsky_by_recursion(J.coeff_range(1, grade - 1), grade)
    fab = grunsky_from_faber(J, grade)
    bad = denominator_bound_violations(fab)
    keys = sorted(rec.entries.keys() | fab.entries.keys())
    return {
        "routes_agree": _scan("grunsky_routes", (
            (k, rec.entries.get(k), fab.entries.get(k)) for k in keys)),
        "bivariate_ok": _scan("grunsky_bivariate", bivariate_comparisons(J, min(grade, 12), rec)),
        "denominator_bound_ok": CheckReport("grunsky_denominators", len(fab.entries),
                                            bad[0] if bad else None),
    }


def replicable(grade: int, perturbations: int, trunc: int, ks: tuple,
               route_ks: tuple) -> dict:
    """J's Grunsky table to ``grade`` is replicable, and adding 1 to any one
    of a_1 .. a_perturbations makes it not; replicate(J, k) = J below q^trunc
    for k in ks; replicate and replicate_by_grunsky each give, for each
    function of ``HAUPTMODULN`` (J among them) and k in route_ks, the
    table's f^(k) below q^trunc; and the inverse identity h_{m,n} =
    sum_{d | gcd(m,n)} (1/d) h^(d)_{mn/d^2} holds on J's table to grade 9 for
    gcd(m, n) <= 4, J being its own replicate."""
    # replicate(J, k, trunc) reads J below q^(k^2 trunc); the grade-9 sums to q^20
    fam = replication_family("j", max(max(ks + route_ks) ** 2 * trunc, grade, 20) + 1)
    J = fam.base
    a = J.coeff_range(1, grade)
    rep = is_replicable(grunsky_by_recursion(a, grade))
    bumped = (a[:i] + [a[i] + 1] + a[i + 1:] for i in range(perturbations))
    controls = _scan("replicability", (
        (f"a_{i + 1} + 1", is_replicable(grunsky_by_recursion(b, grade)).ok, False)
        for i, b in enumerate(bumped)))
    t = grunsky_by_recursion(J.coeff_range(1, 8), 9)
    rows = ((name, replication_family(name, max(route_ks) ** 2 * trunc + 1))
            for name in HAUPTMODULN)
    return {
        "replicability_ok": CheckReport("replicability", rep.checked_pairs + controls.compared,
                                        rep.counterexample or controls.first_mismatch),
        "replicate_fixes_j": _series("replicate_fixes_j", (
            (f"k={k}", replicate(J, k, trunc), J.truncate(trunc), trunc) for k in ks),
            exact=True),
        "replicates_are_power_map_classes": _series("power_map_classes", (
            ((name, f"k={k}", label), route(g.base, k, trunc), g.power(k).truncate(trunc), trunc)
            for name, g in rows for k in route_ks
            for label, route in (("replicate", replicate),
                                 ("replicate_by_grunsky", replicate_by_grunsky))), exact=True),
        "inverse_identity_ok": _scan("inverse_identity", (
            ((m, n), t.get(m, n), inverse_identity_sum(fam, m, n))
            for m, n in t.pairs() if gcd(m, n) <= 4)),
    }


def mod2_congruence(bound: int) -> dict:
    """a_i(2B) = a_i(J) mod 2 for 1 <= i <= bound, J being 2B's duplicate.  J
    comes from ``j_oracle``, not from 2B's family, so a wrong duplicate in the
    family cannot make the check compare 2B with itself."""
    f2b = replication_family("2b", bound + 1).base
    return {"mod_2_congruence_ok": _scan("mod2_congruence", (
        (i, r, 0) for i, r in mod_p_residues(f2b, j_oracle(bound + 1), 2, bound)))}


def basis(grade: int, trunc: int) -> dict:
    """For 2 <= N <= grade the case analysis finds a reducing pair exactly
    when the exhaustive search does, and each pair found is valid; the
    grades 2..24 without a pair against the published list and the Norton
    basis; J rebuilt from its 12 basis values, by Faber rows and by Norton's
    recursion, against J below q^trunc; and, as a negative control, five
    seeded random tuples of basis values, |v| <= 50, each rebuilt to q^25
    and not replicable on its Faber-route table at grade 24."""
    def pairs():
        for N in range(2, grade + 1):
            mine = find_reducing_pair(N)
            yield (N, "reducible"), mine is not None, exhaustive_reducing_pair(N) is not None
            if mine is not None:
                yield (N, mine.from_pair, mine.to_pair), (mine.grade, mine.valid), (N, True)

    irr = tuple(N for N in range(2, 25) if find_reducing_pair(N) is None)
    J = j_oracle(max(trunc, NORTON_BASIS[-1] + 1))
    values = {k: J.coeff(k) for k in NORTON_BASIS}
    rebuilt = reconstruct_from_basis(values, trunc)
    rng = random.Random(12)
    randoms = [{k: rng.randint(-50, 50) for k in NORTON_BASIS} for _ in range(5)]
    return {
        "reducing_pairs_ok": _scan("reducing_pairs", pairs()),
        "irreducible_grades_ok": _scan("irreducible_grades", [
            ("irreducible grades", irr, (2, 3, 4, 5, 6, 8, 9, 10, 12, 18, 20, 24)),
            ("IRREDUCIBLE_GRADES", IRREDUCIBLE_GRADES, irr),
            ("NORTON_BASIS", NORTON_BASIS, (1, 2, 3, 4, 5, 7, 8, 9, 11, 17, 19, 23))]),
        "reconstruction_ok": _series("reconstruction", [("J", rebuilt, J.truncate(trunc), trunc)],
                                     exact=True),
        "reconstruction_routes_agree": _series("reconstruction_routes", [
            ("J", rebuilt, reconstruct_by_grunsky(values, trunc), trunc)], exact=True),
        # (label, accepted, False): a random tuple that rebuilds replicable is a mismatch
        "random_bases_rejected": _scan("random_bases_rejected", (
            (f"random {i}", is_replicable(grunsky_from_faber(
                reconstruct_from_basis(v, 25), 24)).ok, False) for i, v in enumerate(randoms))),
    }


# The rows of ``HAUPTMODULN`` that n T_n f = F_n(f), n <= 6, can catch posing
# as every replicate of themselves: those with g^d another class for some d <= 6.
WRONG_FAMILY_ROWS = tuple(name for name, (powers, _) in HAUPTMODULN.items()
                          if any(d <= 6 for d in powers))


def _posing_as_own_replicates(name: str) -> list:
    """The Hecke-Faber reports, n <= 6 below q^20, of the function ``name``
    of ``HAUPTMODULN`` with f^(a) = f for every a."""
    f = realize(HAUPTMODULN[name][1], 120)
    return hecke_faber_verify(ReplicationFamily(f, {a: f for a in range(2, 13)}), 6, 20)


def hecke(trunc: int, randoms: int, families: Sequence[str], faber_trunc: int) -> dict:
    """On J and ``randoms`` seeded random normalized series known to q^trunc:
    the closed formula for T_n against the U/V composition for 2 <= n <= 7,
    which for a prime p is T_p f = V_p f / p + U_p f.  For each family named
    in ``families`` (keys of ``HAUPTMODULN`` or "c=C"), n T_n f = F_n(f)
    (twisted T_n) for n <= 6 below q^faber_trunc; and each of 2B, 3B, 4C
    and 5B posing as all its own replicates must break it at some n <= 6
    below q^20."""
    inputs = [("J", j_oracle(trunc))]
    rng = random.Random(616)
    for i in range(randoms):
        coeffs = [1, 0] + [rng.randint(-9, 9) for _ in range(trunc + 1)]
        inputs.append((f"random {i}", QSeries(-1, 1, coeffs, trunc)))
    return {
        "tn_routes_ok": _series("tn_routes", (
            ((label, n), hecke_Tn(f, n), hecke_Tn_via_uv(f, n), f.trunc / n)
            for label, f in inputs for n in range(2, 8))),
        "hecke_faber": {name: _hecke_faber(replication_family(name, 6 * faber_trunc), faber_trunc)
                        for name in families},
        # (row, accepted, False): a row that keeps the identity is a mismatch
        "wrong_family_rejected": _scan("wrong_family_rejected", (
            (name, all(r.ok for r in _posing_as_own_replicates(name)), False)
            for name in WRONG_FAMILY_ROWS)),
    }


def _hecke_faber(fam: ReplicationFamily, trunc: int) -> CheckReport:
    """n T_n f = F_n(f) for n <= 6 below q^trunc; U_6 f is known only below
    q^(f.trunc / 6), so a family known to less than q^(6 trunc) is a mismatch."""
    try:
        reports = hecke_faber_verify(fam, 6, trunc)
    except TruncationError as exc:
        return CheckReport("hecke_faber", 0, (str(exc),))
    bad = next((r for r in reports if not r.ok), None)
    return CheckReport("hecke_faber", sum(r.compared_exponents for r in reports),
                       bad and (bad.n,) + bad.first_mismatch)


# Mason's 21 cycle shapes of M24, each a multiplicative eta product of
# degree 24 (G. Mason, "M24 and certain automorphic forms", Contemp. Math. 45,
# 1985): a known answer for the classification.
_M24_CYCLE_SHAPES = (
    "1^24", "1^8 2^8", "2^12", "1^6 3^6", "3^8",
    "1^4 2^2 4^4", "2^4 4^4", "4^6", "1^4 5^4", "1^2 2^2 3^2 6^2",
    "6^4", "1^3 7^3", "1^2 2^1 4^1 8^2", "2^2 10^2", "1^2 11^2",
    "2^1 4^1 6^1 12^1", "12^2", "1^1 2^1 7^1 14^1", "1^1 3^1 5^1 15^1", "3^1 21^1",
    "1^1 23^1")


def degree24(bound: int) -> dict:
    """The 1575 partitions of 24 give exactly 30 weakly multiplicative eta
    products at ``bound``, among them Mason's 21 cycle shapes of M24; each of
    the 30 expanded to q^bound by the factor route and by the log-derivative
    recurrence, entry by entry, and weakly multiplicative to ``bound`` on the
    recurrence's series; 1 2 7 14 balanced at 14; and the Euler factors of
    Delta = eta(q)^24 at p = 2, 3, 5, 7."""
    shapes = classify_degree24(bound)  # its recheck runs on the factor route
    oracles = [_log_derivative_coeffs(s.exponents(), bound) for s in shapes]
    labels = [str(s) for s in shapes]
    tau = eta_product(parse_frame_shape("1^24"), 60)
    return {
        "count_ok": _scan("degree24_count", [
            ("partitions of 24", sum(1 for _ in partitions_of(24)), 1575),
            ("multiplicative", len(shapes), 30)]),
        "m24_shapes_ok": _scan("degree24_m24_shapes", (
            (shape, shape in labels, True) for shape in _M24_CYCLE_SHAPES)),
        "routes_agree": _scan("degree24_routes", (
            ((label, k), got, want) for label, s, oracle in zip(labels, shapes, oracles)
            for k, (got, want) in enumerate(zip_longest(
                _product_int_coeffs(s.exponents(), bound), oracle)))),
        "multiplicativity_ok": _scan("degree24_multiplicativity", (
            (label, weak_multiplicativity(
                QSeries(s.lead_exponent(), 1, oracle, bound + 2), bound).first_failure, None)
            for label, s, oracle in zip(labels, shapes, oracles))),
        "balance_ok": _scan("degree24_balance", [
            ("1 2 7 14", is_balanced((1, 2, 7, 14)), 14)]),
        "euler_factors_ok": _scan("delta_euler_factors", (
            (p, euler_factor_check(tau, p, 12), True) for p in (2, 3, 5, 7))),
    }


def numerology() -> dict:
    """One report per identity: 1^2 + ... + 24^2 = 70^2; the squares of J's
    a_1 .. a_24 sum to 42 mod 70; 360 + 256 = 120 + 2 * 248 = 616.  Beside
    them, the numbers compared, as decimal strings, and the census count,
    which is quoted, not computed."""
    J = j_oracle(26)
    values = {"sum_squares_1_to_24": sum(k * k for k in range(1, 25)),
              "j_coefficient_squares_mod_70": sum(J.coeff(k) ** 2 for k in range(1, 25)) % 70,
              "360+256": 360 + 256,
              "120+2*248": 120 + 2 * 248}
    return {
        "sum_squares_1_to_24": _scan("sum_squares_1_to_24", [
            ("sum", values["sum_squares_1_to_24"], 70 ** 2)]),
        "j_coefficient_squares_mod_70": _scan("j_coefficient_squares_mod_70", [
            ("mod 70", values["j_coefficient_squares_mod_70"], 42)]),
        "census_sums": _scan("census_sums", [
            (key, values[key], 616) for key in ("360+256", "120+2*248")]),
        "values": {key: str(v) for key, v in values.items()},
        "replicable_function_census": {"count": 616, "provenance": "quoted"},
    }
