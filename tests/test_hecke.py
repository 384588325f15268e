"""Hecke operators, the Hecke-Faber identity and the p = 2 recurrences."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import replicaq.hecke as hecke
from replicaq import checks
from replicaq.faber import faber_by_recursion
from replicaq.qseries import QSeries, TruncationError, agree, j_oracle
from replicaq.replicable import ReplicationFamily
from replicaq.hecke import (up, vp, hecke_Tn, hecke_Tn_via_uv, twisted_Tn,
                            hecke_faber_verify, p2_identities, mahler_compute,
                            _half_twist, _rule_for)
from replicaq.functions import j_family, fiction_family, tb2_family

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def random_normalized(rng, trunc=40):
    coeffs = [Fraction(1), Fraction(0)] + [Fraction(rng.randint(-9, 9))
                                           for _ in range(trunc + 1)]
    return QSeries(-1, 1, coeffs, trunc)


def substitution_oracle(f, n):
    """T_n by direct sublattice substitution, cyclotomic sums collapsed to
    divisor conditions: a completely separate code path for small n."""
    total = {}
    for a in range(1, n + 1):
        if n % a == 0:
            d = n // a
            # sum over b mod d of f((az+b)/d): the root-of-unity average keeps
            # exponents m with d | m, each weighted d, at exponent m*a/d
            for e in f.exponents():
                m = int(e)
                if m % d == 0:
                    key = Fraction(m * a, d)
                    total[key] = total.get(key, Fraction(0)) + d * f.coeff(m)
    bound = f.trunc / n
    out = QSeries(0, 1, [], bound)
    for key, v in sorted(total.items()):
        if key < bound:
            out = out + QSeries(key, 1, [v], bound)
    return out * Fraction(1, n)


class TestUpVp:
    def test_up_drops_pole(self):
        f = QSeries(-1, 1, [1, 0, 0, 5], 10)  # q^-1 + 5 q^2
        g = up(f, 2)
        assert g.coeff(1) == 5
        for e in range(-2, 1):
            assert g.coeff(e) == 0

    def test_vp(self):
        f = QSeries(-1, 1, [1, 0, 1], 5)
        g = vp(f, 3)
        assert g.coeff(-3) == 1 and g.coeff(3) == 1

    def test_tp_decomposition_random(self):
        rng = random.Random(41)
        for _ in range(50):
            f = random_normalized(rng, 42)
            for p in (2, 3, 5, 7):
                assert agree(hecke_Tn(f, p), vp(f, p) * Fraction(1, p) + up(f, p),
                             f.trunc / p) is None


class TestTn:
    def test_t1_identity(self):
        J = j_oracle(20)
        assert agree(hecke_Tn(J, 1), J, 20) is None

    def test_closed_vs_uv_routes(self):
        rng = random.Random(43)
        for _ in range(10):
            f = random_normalized(rng, 36)
            for n in (2, 3, 4, 6, 12):
                assert agree(hecke_Tn(f, n), hecke_Tn_via_uv(f, n), f.trunc / n) is None

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("lead", range(-4, 3))
    def test_closed_vs_uv_routes_at_any_lead(self, lead, n):
        # a pole of order L puts the a = n term's first coefficient at q^(-nL)
        rng = random.Random(100 * n + lead)
        f = QSeries(lead, 1, [1] + [rng.randint(-9, 9) for _ in range(40)], lead + 41)
        assert agree(hecke_Tn(f, n), hecke_Tn_via_uv(f, n), f.trunc / n) is None

    def test_series_known_only_below_q0(self):
        # [q^j] T_n f, j < trunc / n, reads c(j / n); with trunc <= 0 that is past trunc
        f = QSeries(-2, 1, [1, 3], -1)
        assert hecke_Tn(f, 1) == f
        for n in (2, 3, 5):
            with pytest.raises(TruncationError):
                hecke_Tn(f, n)
        # known below its lead: no exponent of T_n f is known, and none is read
        empty = QSeries(0, 1, [], -5)
        assert hecke_Tn(empty, 2) == QSeries(-2, 1, [], Fraction(-5, 2))

    def test_index_zero_rejected(self):
        for n in (0, -2):
            with pytest.raises(ValueError):
                hecke_Tn(j_oracle(20), n)
            with pytest.raises(ValueError):
                hecke_Tn_via_uv(j_oracle(20), n)
            with pytest.raises(ValueError):
                twisted_Tn(j_family(20), n)

    def test_substitution_oracle_small_n(self):
        J = j_oracle(25)
        for n in (1, 2, 3, 4):
            assert agree(hecke_Tn(J, n), substitution_oracle(J, n), J.trunc / n) is None

    def test_t2_j_is_half_f2(self):
        J = j_oracle(30)
        a1 = J.coeff(1)
        lhs = hecke_Tn(J, 2) * 2
        rhs = J * J - 2 * a1
        assert agree(lhs, rhs, 15) is None

    def test_pole_normalization(self):
        J = j_oracle(30)
        for n in (2, 3, 5):
            t = twisted_Tn(j_family(30), n) * n
            assert t.coeff(-n) == 1
            assert t.lead_exp >= -n


def assert_hecke_faber(fam, n_max, trunc):
    reports = hecke_faber_verify(fam, n_max, trunc)
    assert [r.n for r in reports] == list(range(1, n_max + 1))
    for r in reports:
        assert r.ok and r.first_mismatch is None, r
        assert r.compared_exponents == r.n + trunc  # exponents -n .. trunc - 1


class TestHeckeFaber:
    # families known to q^(n_max (trunc + 1) + 2), as acceptance 6 and the benchmark size them
    def test_j_family(self):
        assert_hecke_faber(j_family(6 * 31 + 2), 6, 30)

    def test_fictions(self):
        for c in (-1, 0, 1):
            assert_hecke_faber(fiction_family(c, 4 * 31 + 2), 4, 30)

    def test_2b_family(self):
        assert_hecke_faber(tb2_family(6 * 31 + 2), 6, 30)

    def test_short_family_raises(self):
        # U_6 f is known below q^(f.trunc / 6): q^30 needs f to q^180
        assert_hecke_faber(j_family(180), 6, 30)
        with pytest.raises(TruncationError):
            hecke_faber_verify(j_family(179), 6, 30)

    @pytest.mark.parametrize("n_max, trunc, arg", [(0, 30, "n_max"), (-1, 30, "n_max"),
                                                   (6, 0, "trunc"), (6, -5, "trunc")])
    def test_arguments_that_compare_nothing_raise(self, n_max, trunc, arg):
        with pytest.raises(ValueError, match=f"^{arg} must be at least 1, got {min(n_max, trunc)}$"):
            hecke_faber_verify(j_family(180), n_max, trunc)

    def test_smallest_arguments_compare_something(self):
        assert hecke_faber_verify(j_family(10), 1, 1) == [hecke.HeckeFaberReport(1, True, 2)]

    @pytest.mark.parametrize("make, n_max, trunc", [(j_family, 6, 24), (tb2_family, 6, 24),
                                                    (j_family, 4, 30)])
    def test_family_to_n_max_trunc_is_enough(self, make, n_max, trunc):
        # each side is cut to the order compared, so a family known to exactly
        # q^(n_max trunc) reports what the benchmark's longer one reports
        exact = hecke_faber_verify(make(n_max * trunc), n_max, trunc)
        assert exact == hecke_faber_verify(make(n_max * (trunc + 1) + 2), n_max, trunc)
        assert all(r.ok for r in exact)
        with pytest.raises(TruncationError):
            hecke_faber_verify(make(n_max * trunc - 1), n_max, trunc)

    @pytest.mark.parametrize("k", [1, 7, 23])
    def test_bent_coefficient_reported_as_by_uncut_sides(self, k):
        n_max, trunc = 6, 24
        for size in (n_max * trunc, n_max * (trunc + 1) + 2):
            fam = j_family(size)
            bent = ReplicationFamily(fam.base + QSeries(k, 1, [5], size), fam.powers)
            reports = hecke_faber_verify(bent, n_max, trunc)
            f = bent.base
            a = [f.coeff(i) for i in range(1, n_max + 1)]
            for r in reports:
                # the sides built in full, compared by agree
                want = agree(twisted_Tn(bent, r.n) * r.n, faber_by_recursion(a, r.n)(f), trunc)
                assert r.ok == (want is None)
                if want is not None:
                    assert r.first_mismatch == (int(want[0]),) + want[1:]
                    assert r.compared_exponents == r.n + int(want[0]) + 1
            assert not all(r.ok for r in reports)

    def test_wrong_2b_family_falsified_at_2(self):
        f = tb2_family(62).base
        bad = ReplicationFamily(f, {a: f for a in range(2, 9)})
        reports = hecke_faber_verify(bad, 2, 20)
        assert reports[0].ok and not reports[1].ok
        assert reports[1].first_mismatch is not None

    @pytest.mark.parametrize("name, failing", [("2b", [2, 4, 6]), ("3b", [3, 6]),
                                               ("4c", [2, 4, 6]), ("5b", [5])])
    def test_each_wrong_family_row_rejected(self, name, failing):
        assert name in checks.WRONG_FAMILY_ROWS
        reports = checks._posing_as_own_replicates(name)
        assert [r.n for r in reports if not r.ok] == failing

    @pytest.mark.parametrize("name", ["j", "7b", "13b"])
    def test_rows_left_out_of_the_control_keep_the_identity(self, name):
        assert name not in checks.WRONG_FAMILY_ROWS
        assert all(r.ok for r in checks._posing_as_own_replicates(name))

    def test_wrong_family_control_compares_every_row(self, monkeypatch):
        report = checks.hecke(31, 0, (), 24)["wrong_family_rejected"]
        assert report.ok and report.compared == 4
        # mutation: 4C's posing family answers as 7B's, which keeps the identity
        real = checks._posing_as_own_replicates
        monkeypatch.setattr(checks, "_posing_as_own_replicates",
                            lambda name: real("7b" if name == "4c" else name))
        report = checks.hecke(31, 0, (), 24)["wrong_family_rejected"]
        assert report.compared == 3 and report.first_mismatch == ("4c", True, False)


# integral and non-integral values, some of them hundreds of bits long
NUMBERS = st.one_of(st.integers(-9, 9), st.integers(-10**40, 10**40),
                    st.fractions(min_value=-9, max_value=9, max_denominator=6))


def transcribed_rules(seeds, h2, trunc):
    """a_1 .. a_(trunc-1) from the seeds and h2[k] = h2_k by the two rules as
    the README writes them, term by term, in Fractions."""
    a = {i: Fraction(s) for i, s in enumerate(seeds, 1)}
    for n in range(6, trunc):
        m = n // 2
        if n % 2 == 0:
            # a_{2m} = a_{m+1} + sum_{1<=j<m/2} a_j a_{m-j} (+ (a_{m/2}^2 - h2_{m/2})/2, m even)
            value = a[m + 1]
            for j in range(1, m):
                if 2 * j < m:
                    value += a[j] * a[m - j]
            if m % 2 == 0:
                value += (a[m // 2] ** 2 - h2[m // 2]) / 2
        else:
            # a_{2m+1} = a_{m+3} - a_2 a_m + sum_{1<=k<=(m-1)/2} a_{2m-4k} h2_k
            #   + (h2_m - [m even] h2_{m/2+1} + sum_{i=1}^{m+1} a_i a_{m+2-i}
            #      + sum_{i=1}^{2m-1} (-1)^i a_i a_{2m-i}) / 2
            value = a[m + 3] - a[2] * a[m]
            for k in range(1, m + 1):
                if 2 * k <= m - 1:
                    value += a[2 * m - 4 * k] * h2[k]
            doubled = Fraction(h2[m])
            if m % 2 == 0:
                doubled -= h2[m // 2 + 1]
            for i in range(1, m + 2):
                doubled += a[i] * a[m + 2 - i]
            for i in range(1, 2 * m):
                doubled += (-1) ** i * a[i] * a[2 * m - i]
            value += doubled / 2
        a[n] = value
    return [a[i] for i in range(1, trunc)]


def rule_expansion(fam, trunc):
    """The p = 2 rules' expansion from fam's a_1..a_5 and f^(2), to q^trunc."""
    f = fam.base
    return mahler_compute([f.coeff(i) for i in range(1, 6)], fam.power(2).coeff, trunc)


def bent_j_family():
    """J with a_7 raised by 1, over J's true duplicate."""
    fam = j_family(60)
    return ReplicationFamily(fam.base + QSeries(7, 1, [1], 60), {2: fam.power(2)})


def assert_identities_and_rules(fam, top):
    for name, lhs, rhs, order in p2_identities(fam):
        assert agree(lhs, rhs, order) is None, name
    assert agree(rule_expansion(fam, top + 1), fam.base, top + 1) is None


class TestMahler:
    def test_half_twist(self):
        f = QSeries(Fraction(-1, 2), Fraction(1, 2), [1, 2, 3], 4)
        g = _half_twist(f)
        assert g.coeff(Fraction(-1, 2)) == -1
        assert g.coeff(0) == 2
        assert g.coeff(Fraction(1, 2)) == -3

    def test_half_twist_by_exponent(self):
        # every lead and step on the 1/6 grid, up to 2, with zero to five terms
        sixths = [Fraction(k, 6) for k in range(-9, 13)]
        for lead, step, size in product(sixths, [s for s in sixths if s > 0], range(6)):
            f = QSeries(lead, step, range(1, size + 1), lead + size * step)
            doubled = [2 * e for e in f.exponents()]
            if any(m.denominator != 1 for m in doubled):
                with pytest.raises(ValueError):
                    _half_twist(f)
                continue
            g = _half_twist(f)
            assert g.trunc == f.trunc and g.exponents() == f.exponents()
            assert g.coeffs == [-c if m.numerator % 2 else c for m, c in zip(doubled, f.coeffs)]

    def test_identities_and_rules_j(self):
        assert_identities_and_rules(j_family(60), 50)

    def test_identities_and_rules_2b(self):
        assert_identities_and_rules(tb2_family(60), 50)

    def test_rule_failure_reported(self):
        bent = bent_j_family()
        n, predicted, actual = agree(rule_expansion(bent, 51), bent.base, 51)
        assert (n, actual) == (7, predicted + 1)

    def test_check_reports_the_first_rule_failure(self, monkeypatch):
        bent = bent_j_family()
        real = checks.replication_family
        monkeypatch.setattr(checks, "replication_family",
                            lambda name, trunc: bent if name == "j" else real(name, trunc))
        # a_7 by its rule, from a_j with j < 7 and f^(2): J's own a_7
        rule, m = _rule_for(7)
        predicted = rule([0, *bent.base.coeff_range(1, 6)], [0, *bent.power(2).coeff_range(1, 3)],
                         m)
        assert predicted == j_oracle(8).coeff(7)
        report = checks.mahler(60, 51)["j"]["compute_matches_oracle"]
        assert (report.compared, report.first_mismatch) == (9, ("f", 7, predicted, predicted + 1))

    def test_compute_j_200_terms(self):
        J = j_oracle(205)
        seeds = [int(J.coeff(i)) for i in range(1, 6)]
        g = mahler_compute(seeds, lambda i: int(J.coeff(i)), 201)
        for k in range(-1, 201):
            assert g.coeff(k) == J.coeff(k)

    def test_compute_2b(self):
        fam = tb2_family(80)
        f, J = fam.base, fam.power(2)
        seeds = [f.coeff(i) for i in range(1, 6)]
        g = mahler_compute(seeds, lambda i: J.coeff(i), 78)
        for k in range(-1, 78):
            assert g.coeff(k) == f.coeff(k)

    def test_integral_fractions_run_in_ints(self, monkeypatch):
        fam = tb2_family(80)
        f, f2 = fam.base, fam.power(2)
        # the series store holds ints: hand the rules integral Fractions explicitly
        seeds = [Fraction(f.coeff(i)) for i in range(1, 6)]
        halved = []
        real = hecke._halved
        monkeypatch.setattr(hecke, "_halved",
                            lambda w, d: halved.append((type(w), type(d))) or real(w, d))
        as_fractions = mahler_compute(seeds, lambda i: Fraction(f2.coeff(i)), 78)
        assert halved and set(halved) == {(int, int)}
        as_ints = mahler_compute([int(s) for s in seeds], lambda i: int(f2.coeff(i)), 78)
        assert as_fractions == as_ints
        # an integral series is stored in ints, whichever type its input came in
        assert all(type(c) is int for s in (as_fractions, as_ints) for c in s.coeffs)

    def test_non_integral_input_runs_in_fractions(self):
        seeds = [Fraction(1, 2), 3, Fraction(-2, 3), 0, 1]

        def h2(i):
            return Fraction(i % 3, 2)

        a = [0] + [Fraction(s) for s in seeds]
        for n in range(6, 40):
            rule, m = _rule_for(n)
            a.append(Fraction(rule(a, [h2(k) for k in range(20)], m)))
        g = mahler_compute(seeds, h2, 40)
        assert [g.coeff(i) for i in range(1, 40)] == [a[i] for i in range(1, 40)]
        assert any(a[i].denominator > 1 for i in range(6, 40))

    def test_seed_count_enforced(self):
        with pytest.raises(ValueError):
            mahler_compute([1, 2, 3], lambda i: 0, 10)

    @pytest.mark.parametrize("trunc", [1, 2, 6, 7, 8, 9, 13, 40, 41])
    def test_h2_is_read_once_at_each_index_the_rules_reach(self, trunc):
        calls = []
        mahler_compute([1, 2, 3, 4, 5], lambda k: calls.append(k) or k, trunc)
        assert sorted(calls) == list(range(1, trunc // 2))

    @PROPERTY
    @given(st.lists(NUMBERS, min_size=5, max_size=5), st.lists(NUMBERS, min_size=30, max_size=30),
           st.integers(1, 61))
    def test_rules_are_the_two_formulas(self, seeds, h2_values, trunc):
        h2 = [0, *h2_values]
        g = mahler_compute(seeds, h2.__getitem__, trunc)
        assert g.trunc == trunc and g.coeff(-1) == 1
        assert g.coeff_range(0, trunc - 1) == [0] + transcribed_rules(seeds, h2, trunc)
