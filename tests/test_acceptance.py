"""Acceptance gate: the nine headline checks, one pass/fail line each.

Run with -s to see the lines as they happen; each check is exact (integer or
rational equality, zero tolerance).
"""

from replicaq import checks
from replicaq.functions import HAUPTMODULN


def failures(result):
    """The failed CheckReports in a check's result: a report or a dict of them."""
    if isinstance(result, dict):
        return [r for value in result.values() for r in failures(value)]
    assert isinstance(result, checks.CheckReport), result
    return [] if result.ok else [result]


def report(num, name, result):
    """Print the gate line for a check's result."""
    failed = failures(result)
    print(f"ACCEPTANCE {num} ({name}): {'FAIL' if failed else 'PASS'}")
    assert not failed, f"acceptance criterion {num} ({name}) failed: {failed}"


def test_acceptance_1_j_dual_path():
    report(1, "J dual-path 200 coefficients", checks.mahler(205, 201))


def test_acceptance_2_faber_three_way():
    report(2, "Faber three-way agreement", checks.faber(16, 12, 20))


def test_acceptance_3_grunsky():
    report(3, "Grunsky triple agreement and denominator bound", checks.grunsky(60))


def test_acceptance_4_replicability():
    report(4, "replicability of J", checks.replicable(24, 6, 30, (2, 3, 4, 6), (2, 3, 4)))


def test_acceptance_5_norton_basis():
    report(5, "Norton basis", checks.basis(500, 50))


def test_acceptance_6_hecke():
    families = ("c=-1", "c=0", "c=1", *HAUPTMODULN)
    report(6, "Hecke operators and Hecke-Faber identity", checks.hecke(43, 50, families, 30))


def test_acceptance_7_degree24_classification():
    report(7, "degree-24 classification", checks.degree24(3000))


def test_acceptance_8_numerology():
    out = checks.numerology()  # its reports beside the values and the quoted census
    report(8, "numerology", {key: out[key] for key in (
        "sum_squares_1_to_24", "j_coefficient_squares_mod_70", "census_sums")})


def test_acceptance_9_mod2_congruence():
    report(9, "2B mod-2 congruence", checks.mod2_congruence(50))
