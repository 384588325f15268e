"""Acceptance gate: the nine headline checks, one pass/fail line each.

Run with -s to see the lines as they happen; each check is exact (integer or
rational equality, zero tolerance).
"""

from replicaq import checks
from replicaq.frames import (Partition, parse_frame_shape, is_balanced,
                             eta_product, weak_multiplicativity,
                             classify_degree24, euler_factor_check,
                             partitions_of, _log_derivative_coeffs,
                             _product_int_coeffs)
from replicaq.qseries import QSeries
from replicaq.functions import j_family, fiction_family, tb2_family


def failures(result):
    """The failed CheckReports in a check's result: a report or a dict of them."""
    if isinstance(result, dict):
        return [r for value in result.values() for r in failures(value)]
    return [] if result.ok else [result]


def report(num, name, result):
    """Print the gate line; acceptance 7 passes a bool, the others a check's result."""
    failed = not result if isinstance(result, bool) else failures(result)
    print(f"ACCEPTANCE {num} ({name}): {'FAIL' if failed else 'PASS'}")
    assert not failed, f"acceptance criterion {num} ({name}) failed: {failed}"


def test_acceptance_1_j_dual_path():
    report(1, "J dual-path 200 coefficients", checks.mahler(205, 200, 201))


def test_acceptance_2_faber_three_way():
    report(2, "Faber three-way agreement", checks.faber(16, 12, 20))


def test_acceptance_3_grunsky():
    report(3, "Grunsky triple agreement and denominator bound", checks.grunsky(41, 12, 40))


def test_acceptance_4_replicability():
    report(4, "replicability of J", checks.replicable(24, 6, 30, (2, 3, 4, 6), (2, 3, 4)))


def test_acceptance_5_norton_basis():
    report(5, "Norton basis", checks.basis(500, 50))


def test_acceptance_6_hecke():
    # n T_n f = F_n(f) for n <= 6 below q^30 reads each family past q^(6 * 30)
    top = 6 * 31 + 2
    families = {"j": j_family(top), "c=-1": fiction_family(-1, top),
                "c=0": fiction_family(0, top), "c=1": fiction_family(1, top),
                "2b": tb2_family(top)}
    report(6, "Hecke operators and Hecke-Faber identity", checks.hecke(43, 50, families, 30))


def test_acceptance_7_degree24_classification():
    assert sum(1 for _ in partitions_of(24)) == 1575
    shapes = classify_degree24(3000)  # its recheck runs on the factor route
    ok = len(shapes) == 30
    for s in shapes:
        # recheck on the log-derivative recurrence, and compare the two routes
        oracle = _log_derivative_coeffs(s.exponents(), 3000)
        ok = ok and _product_int_coeffs(s.exponents(), 3000) == oracle
        series = QSeries(s.lead_exponent(), 1, oracle, 3002)
        ok = ok and weak_multiplicativity(series, 3000).verdict
    ok = ok and is_balanced(Partition([1, 2, 7, 14])) == 14
    tau_f = eta_product(parse_frame_shape("1^24"), 60)
    for p in (2, 3, 5, 7):
        ok = ok and euler_factor_check(tau_f, p, 12)
    report(7, "degree-24 classification", ok)


def test_acceptance_8_numerology():
    report(8, "numerology", checks.numerology()[1])


def test_acceptance_9_mod2_congruence():
    report(9, "2B mod-2 congruence", checks.mod2_congruence(55, 50))
