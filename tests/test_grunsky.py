"""Grunsky tables: three routes, symmetry, denominator bound."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from replicaq import checks
from replicaq.qseries import QSeries, TruncationError, j_oracle
from replicaq.faber import faber_by_recursion
from replicaq.grunsky import (GrunskyTable, GrunskyCalculator,
                              grunsky_by_recursion, grunsky_from_faber,
                              bivariate_log_coefficients,
                              grunsky_bivariate_check,
                              denominator_bound_violations)


class Raw:
    """Norton recursion in Fractions, with ordered arguments and no
    symmetrization: (r + s) h(r, s) is the oracle of the calculator's memo."""

    def __init__(self, a):
        self.a = [Fraction(v) for v in a]
        self.memo = {}

    def h(self, r, s):
        if (r, s) in self.memo:
            return self.memo[(r, s)]
        total = self.a[r + s - 2]
        if r > 1 and s > 1:
            g = r + s
            acc = Fraction(0)
            for m in range(1, r):
                for n in range(1, s):
                    acc += self.a[m + n - 2] * (g - m - n) * self.h(r - m, s - n)
            total += acc / g
        self.memo[(r, s)] = total
        return total


class TestRoutes:
    def test_triple_agreement_on_j(self):
        J = j_oracle(13)
        a = [J.coeff(k) for k in range(1, 13)]
        t_rec = grunsky_by_recursion(a, 12)
        t_fab = grunsky_from_faber(J, 12)
        assert t_rec.entries == t_fab.entries
        assert grunsky_bivariate_check(J, 12, t_rec)

    def test_small_values(self):
        J = j_oracle(8)
        a = [J.coeff(k) for k in range(1, 8)]
        calc = GrunskyCalculator(a)
        assert calc.h(1, 1) == 196884
        assert calc.h(1, 2) == 21493760
        a1 = a[0]
        assert calc.h(2, 2) == a[2] + Fraction(a1 * a1, 2)
        # h_6 identity: h_{3,3} corresponds to grade 6 data
        assert calc.h(1, 5) == a[4]

    def test_symmetry_is_structural_but_holds_valuewise(self):
        # compute h(r,s) and h(s,r) through fresh calculators with no shared memo
        J = j_oracle(10)
        a = [J.coeff(k) for k in range(1, 10)]
        raw = Raw(a)
        for r in range(1, 5):
            for s in range(1, 5):
                assert raw.h(r, s) == raw.h(s, r)

    def test_random_series_agreement(self):
        rng = random.Random(31)
        for _ in range(5):
            a = [Fraction(rng.randint(-5, 5)) for _ in range(10)]
            f = QSeries(-1, 1, [1, 0] + a, 11)
            t_rec = grunsky_by_recursion(a, 8)
            t_fab = grunsky_from_faber(f, 8)
            assert t_rec.entries == t_fab.entries
            assert grunsky_bivariate_check(f, 8, t_rec)


class TestScaledMemo:
    """The calculator memoizes K_{r,s} = (r + s) h_{r,s}, in ints for
    integral input, and must agree with the Fraction oracle on every kind of
    input."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_recursion_matches_the_fraction_oracle(self, data):
        grade = data.draw(st.integers(2, 14))
        integral = st.one_of(st.integers(-9, 9), st.integers(-9, 9).map(Fraction))
        rational = st.fractions(-9, 9, max_denominator=6)
        coeff = data.draw(st.sampled_from([integral, rational, st.one_of(integral, rational)]))
        a = data.draw(st.lists(coeff, min_size=grade - 1, max_size=grade - 1))
        raw = Raw(a)
        table = grunsky_by_recursion(a, grade)
        assert table.entries == {(m, n): raw.h(m, n)
                                 for m in range(1, grade) for n in range(m, grade - m + 1)}
        assert all(type(v) is Fraction for v in table.entries.values())
        calc = GrunskyCalculator(a)
        for r in range(1, grade):
            for s in range(1, grade - r + 1):
                assert calc.correction(r, s) == raw.h(r, s) - raw.a[r + s - 2], (r, s)
        assert all(K == (r + s) * raw.h(r, s) for (r, s), K in calc._memo.items())
        if all(v.denominator == 1 for v in raw.a):
            assert all(type(K) is int for K in calc._memo.values())

    def test_memo_is_independent_of_read_order(self):
        J = j_oracle(30)
        a = [J.coeff(k) for k in range(1, 30)]
        raw = Raw(a)
        calc = GrunskyCalculator(a)
        walk = [(1, 20), (2, 9), (4, 11)]
        for r, s in walk:
            assert calc.h(r, s) == GrunskyCalculator(a).h(r, s) == raw.h(r, s)
        # min 5 is first read by a correction, then by h
        assert (calc.correction(5, 9) == GrunskyCalculator(a).correction(5, 9)
                == raw.h(5, 9) - a[12])
        walk += [(6, 7), (5, 9)]
        for r, s in walk[3:]:
            assert calc.h(r, s) == GrunskyCalculator(a).h(r, s) == raw.h(r, s)
        # every entry, whichever read reached it first, is (r + s) h_{r,s}
        assert all(calc.h(r, s) == raw.h(r, s) for r, s in walk)
        assert all(type(K) is int and K == (r + s) * raw.h(r, s)
                   for (r, s), K in calc._memo.items())

    def test_a_remainder_raises(self):
        J = j_oracle(8)
        a = [J.coeff(k) for k in range(1, 8)]
        calc = GrunskyCalculator(a)
        calc.h(1, 2)
        calc._memo[(1, 2)] += 1
        with pytest.raises(ArithmeticError, match="remainder"):
            calc.h(2, 3)
        assert GrunskyCalculator(a).h(2, 3) == Raw(a).h(2, 3)


def faber_polynomial_table(f, grade):
    """The Faber route as it once was: F_n by the recursion, evaluated on f
    by Horner, and h_{m,n} = [q^m] F_n(f) / n."""
    a = [f.coeff(k) for k in range(1, grade)]
    t = GrunskyTable(grade)
    for n in range(1, grade):
        series = faber_by_recursion(a, n)(f)
        for m in range(1, grade - n + 1):
            t.set(m, n, Fraction(series.coeff(m), n))
    return t


class TestFaberRoute:
    """``grunsky_from_faber`` reads the Faber rows; the polynomials it no
    longer evaluates are its oracle."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_rows_are_the_evaluated_polynomials(self, data):
        grade = data.draw(st.integers(2, 16))
        coeff = data.draw(st.sampled_from([st.integers(-9, 9).map(Fraction),
                                           st.fractions(-9, 9, max_denominator=6)]))
        a = data.draw(st.lists(coeff, min_size=grade, max_size=grade))
        f = QSeries(-1, 1, [1, 0] + a, grade + 1)
        assert grunsky_from_faber(f, grade).entries == faber_polynomial_table(f, grade).entries

    def test_series_known_to_the_grade_is_enough(self):
        J = j_oracle(12)
        assert J.trunc == 12
        want = grunsky_by_recursion([J.coeff(k) for k in range(1, 12)], 12)
        assert grunsky_from_faber(J, 12).entries == want.entries

    def test_one_order_less_is_refused_by_the_guard(self):
        with pytest.raises(TruncationError, match="need trunc >= 12, have 11"):
            grunsky_from_faber(j_oracle(11), 12)


def bivariate_fraction_oracle(a, grade):
    """-ln((f(p) - f(q)) / (1/p - 1/q)) for f = 1/q + sum a_k q^k, with every
    sum started at Fraction(0): the oracle of the route's int sums."""
    u = {}
    for k in range(1, grade):
        ak = Fraction(a[k - 1])
        if ak:
            for s in range(k):
                t = k - 1 - s
                if s + t + 2 <= grade:
                    u[(s + 1, t + 1)] = u.get((s + 1, t + 1), Fraction(0)) - ak
    result, power, j = {}, dict(u), 1
    while power:
        sign = Fraction((-1) ** j, j)
        for key, v in power.items():
            result[key] = result.get(key, Fraction(0)) + sign * v
        j += 1
        product = {}
        for (i1, j1), x in power.items():
            for (i2, j2), y in u.items():
                if i1 + i2 + j1 + j2 <= grade:
                    key = (i1 + i2, j1 + j2)
                    product[key] = product.get(key, Fraction(0)) + x * y
        power = {k: v for k, v in product.items() if v}
    return {k: v for k, v in result.items() if v}


class TestBivariate:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_the_fraction_oracle(self, data):
        grade = data.draw(st.integers(2, 10))
        entries = (st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80),
                   st.fractions(-9, 9, max_denominator=6))
        coeff = data.draw(st.sampled_from([*entries, st.one_of(*entries)]))
        a = data.draw(st.lists(coeff, min_size=grade - 1, max_size=grade - 1))
        got = bivariate_log_coefficients(QSeries(-1, 1, [1, 0] + a, grade), grade)
        assert got == bivariate_fraction_oracle(a, grade)
        assert all(type(v) is Fraction for v in got.values())

    def test_detects_tampering(self):
        J = j_oracle(10)
        t = grunsky_from_faber(J, 8)
        t.set(2, 3, t.get(2, 3) + 1)
        assert not grunsky_bivariate_check(J, 8, t)

    def test_log_coefficients_symmetric(self):
        J = j_oracle(10)
        coeffs = bivariate_log_coefficients(J, 8)
        for (n, m), v in coeffs.items():
            assert coeffs.get((m, n)) == v


class TestDenominatorBound:
    def test_grade_40_clean_on_j(self):
        J = j_oracle(41)
        a = [J.coeff(k) for k in range(1, 41)]
        t = grunsky_by_recursion(a, 40)
        assert denominator_bound_violations(t) == []
        # the bound is tight somewhere: some gcd > 1 entry is non-integral
        assert any(h.denominator > 1 for (m, n), h in t.entries.items()
                   if gcd(m, n) > 1)

    def test_the_check_runs_the_bound_on_the_faber_table(self, monkeypatch):
        # the recursion raises before it could store such an entry, so only
        # the Faber table's rows can carry one to the check
        def tampered(f, grade):
            t = grunsky_from_faber(f, grade)
            t.set(2, 3, t.get(2, 3) + Fraction(1, 2))
            return t

        monkeypatch.setattr(checks, "grunsky_from_faber", tampered)
        report = checks.grunsky(8)["denominator_bound_ok"]
        assert not report.ok and report.first_mismatch[:2] == (2, 3)
        assert report.compared == len(grunsky_from_faber(j_oracle(8), 8).entries)

    def test_denominator_divides_gcd(self):
        J = j_oracle(30)
        a = [J.coeff(k) for k in range(1, 30)]
        t = grunsky_by_recursion(a, 24)
        for (m, n), h in t.entries.items():
            assert gcd(m, n) % h.denominator == 0


class TestTable:
    def test_unordered_keying(self):
        t = GrunskyTable(6)
        t.set(3, 1, 7)
        assert t.get(1, 3) == 7 and t.get(3, 1) == 7 and t.pairs() == [(1, 3)]

    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (-1, 4)])
    def test_indices_start_at_1(self, m, n):
        t = GrunskyTable(6)
        with pytest.raises(ValueError, match="indices start at 1"):
            t.set(m, n, 7)
        with pytest.raises(ValueError, match="indices start at 1"):
            t.get(m, n)
        assert t.entries == {}
