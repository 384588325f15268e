"""Acceptance gate: the nine headline checks, one pass/fail line each.

Run with -s to see the lines as they happen; each check is exact (integer or
rational equality, zero tolerance).
"""

import random
from fractions import Fraction
from math import gcd, lcm

from replicaq.qseries import QSeries, j_oracle, j_int_coeffs
from replicaq.frames import (Partition, parse_frame_shape, is_balanced,
                             eta_product, weak_multiplicativity,
                             classify_degree24, euler_factor_check,
                             partitions_of)
from replicaq.faber import (faber_by_recursion, faber_by_elimination,
                            faber_by_determinant)
from replicaq.grunsky import (grunsky_by_recursion, grunsky_from_faber,
                              grunsky_bivariate_check,
                              denominator_bound_violations)
from replicaq.replicable import (NORTON_BASIS, is_replicable, replicate,
                                 inverse_identity_check, mod_p_congruence,
                                 find_reducing_pair, exhaustive_reducing_pair,
                                 reconstruct_from_basis, ReplicationFamily)
from replicaq.hecke import (hecke_Tn, up, vp, hecke_faber_verify,
                            mahler_compute)
from replicaq.functions import j_family, fiction_family, tb2_family


def coefficients(series, trunc):
    """Coefficients at q^-1 .. q^(trunc-1), or None unless known exactly to trunc."""
    if series.trunc != trunc:
        return None
    return series.integer_coeffs(-1, trunc - 1)


def report(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_acceptance_1_j_dual_path():
    J = j_oracle(205)
    seeds = [int(J.coeff(i)) for i in range(1, 6)]
    g = mahler_compute(seeds, lambda i: int(J.coeff(i)), 201)
    ok = all(g.coeff(k) == J.coeff(k) for k in range(-1, 201))
    ok = ok and [J.coeff(k) for k in range(1, 5)] == [
        196884, 21493760, 864299970, 20245856256]
    report(1, "J dual-path 200 coefficients", ok)


def test_acceptance_2_faber_three_way():
    J = j_oracle(16)
    aj = [J.coeff(k) for k in range(1, 16)]
    ok = True
    for n in range(13):
        rec = faber_by_recursion(aj, n)
        ok = ok and faber_by_determinant(aj, n) == rec
        if 1 <= n:
            ok = ok and faber_by_elimination(J, n) == rec
    rng = random.Random(2024)
    for _ in range(20):
        a = [Fraction(rng.randint(-7, 7)) for _ in range(14)]
        f = QSeries(-1, 1, [1, 0] + a, 15)
        for n in range(13):
            rec = faber_by_recursion(a, n)
            ok = ok and faber_by_determinant(a, n) == rec
            if 1 <= n:
                ok = ok and faber_by_elimination(f, n) == rec
    a1, a2 = Fraction(3), Fraction(-5)
    ok = ok and faber_by_recursion([a1, a2], 2).coeffs == (1, 0, -2 * a1)
    ok = ok and faber_by_recursion([a1, a2, 0], 3).coeffs == (1, 0, -3 * a1, -3 * a2)
    report(2, "Faber three-way agreement", ok)


def test_acceptance_3_grunsky():
    J = j_oracle(41)
    a = [J.coeff(k) for k in range(1, 41)]
    t_rec = grunsky_by_recursion(a, 12)
    t_fab = grunsky_from_faber(J, 12)
    ok = t_rec.entries == t_fab.entries
    ok = ok and grunsky_bivariate_check(J, 12, t_rec)
    t40 = grunsky_by_recursion(a, 40)
    ok = ok and denominator_bound_violations(t40) == []
    report(3, "Grunsky triple agreement and denominator bound", ok)


def test_acceptance_4_replicability():
    c = j_int_coeffs(1200)
    J = QSeries(-1, 1, c, 1198)
    base = [J.coeff(k) for k in range(1, 60)]
    ok = is_replicable(grunsky_by_recursion(base, 24)).ok
    for i in range(6):
        a = base[:]
        a[i] += 1
        ok = ok and not is_replicable(grunsky_by_recursion(a, 24)).ok
    want = coefficients(J.truncate(30), 30)
    for k in (2, 3, 4, 6):
        ok = ok and coefficients(replicate(J, k, 30), 30) == want
    fam = ReplicationFamily(J, {d: J for d in (2, 3, 4)})
    t = grunsky_by_recursion(base, 9)
    ok = ok and inverse_identity_check(fam, t, 4)
    report(4, "replicability of J", ok)


def test_acceptance_5_norton_basis():
    irr = tuple(N for N in range(2, 25) if find_reducing_pair(N) is None)
    ok = irr == (2, 3, 4, 5, 6, 8, 9, 10, 12, 18, 20, 24)
    ok = ok and NORTON_BASIS == (1, 2, 3, 4, 5, 7, 8, 9, 11, 17, 19, 23)
    for N in range(2, 501):
        mine = find_reducing_pair(N)
        oracle = exhaustive_reducing_pair(N)
        ok = ok and (mine is None) == (oracle is None)
        if mine is not None:
            r, s = mine.from_pair
            rp, sp = mine.to_pair
            ok = ok and r + s == N and rp + sp < N
            ok = ok and gcd(r, s) == gcd(rp, sp) and lcm(r, s) == lcm(rp, sp)
    J = j_oracle(55)
    basis = {k: J.coeff(k) for k in NORTON_BASIS}
    rebuilt = reconstruct_from_basis(basis, 50)
    ok = ok and coefficients(rebuilt, 50) == coefficients(J.truncate(50), 50)
    report(5, "Norton basis", ok)


def test_acceptance_6_hecke():
    rng = random.Random(616)
    ok = True
    for _ in range(50):
        coeffs = [Fraction(1), Fraction(0)] + [Fraction(rng.randint(-9, 9))
                                               for _ in range(44)]
        f = QSeries(-1, 1, coeffs, 43)
        for p in (2, 3, 5, 7):
            ok = ok and hecke_Tn(f, p) == vp(f, p) * Fraction(1, p) + up(f, p)
    families = [j_family(40), fiction_family(-1, 40), fiction_family(0, 40),
                fiction_family(1, 40), tb2_family(62)]
    for fam in families:
        ok = ok and all(r.ok for r in hecke_faber_verify(fam, 6, 30))
    f2b = tb2_family(62).base
    bad = ReplicationFamily(f2b, {a: f2b for a in range(2, 8)})
    reports = hecke_faber_verify(bad, 2, 20)
    ok = ok and not reports[1].ok
    report(6, "Hecke operators and Hecke-Faber identity", ok)


def test_acceptance_7_degree24_classification():
    assert sum(1 for _ in partitions_of(24)) == 1575
    shapes = classify_degree24(3000)
    ok = len(shapes) == 30
    for s in shapes:
        ok = ok and weak_multiplicativity(eta_product(s, 3002), 3000).verdict
    ok = ok and is_balanced(Partition([1, 2, 7, 14])) == 14
    tau_f = eta_product(parse_frame_shape("1^24"), 60)
    for p in (2, 3, 5, 7):
        ok = ok and euler_factor_check(tau_f, p, 12)
    report(7, "degree-24 classification", ok)


def test_acceptance_8_numerology():
    sq = sum(k * k for k in range(1, 25))
    J = j_oracle(26)
    jsq = sum(J.coeff(k) ** 2 for k in range(1, 25))
    ok = sq == 4900 == 70 ** 2
    ok = ok and jsq % 70 == 42
    ok = ok and 360 + 256 == 616 and 120 + 2 * 248 == 616
    report(8, "numerology", ok)


def test_acceptance_9_mod2_congruence():
    fam = tb2_family(55)
    ok = mod_p_congruence(fam.base, fam.power(2), 2, 50)
    report(9, "2B mod-2 congruence", ok)
