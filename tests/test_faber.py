"""Faber polynomials: three routes, closed forms, pole-killing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from replicaq.qseries import QSeries, j_oracle
from replicaq.faber import (FaberPolynomial, faber_by_recursion,
                            faber_by_elimination, faber_by_determinant, _pdiv_exact,
                            _FaberRows)
from replicaq.checks import symmetric_function_comparisons


def random_coeff_list(rng, n=14):
    return [Fraction(rng.randint(-6, 6)) for _ in range(n)]


class TestClosedForms:
    def test_f0_f1(self):
        assert faber_by_recursion([5, 7], 0).coeffs == (1,)
        assert faber_by_recursion([5, 7], 1).coeffs == (1, 0)

    def test_f2(self):
        a = [Fraction(3), Fraction(9)]
        assert faber_by_recursion(a, 2).coeffs == (1, 0, -6)  # z^2 - 2 a_1

    def test_f3(self):
        a = [Fraction(3), Fraction(9), Fraction(0)]
        # z^3 - 3 a_1 z - 3 a_2
        assert faber_by_recursion(a, 3).coeffs == (1, 0, -9, -27)

    def test_fiction_f2(self):
        assert faber_by_recursion([-1], 2).coeffs == (1, 0, 2)   # c = -1: z^2 + 2
        assert faber_by_recursion([0], 2).coeffs == (1, 0, 0)    # c = 0: z^2


class TestThreeWayAgreement:
    def test_on_j(self):
        J = j_oracle(16)
        a = [J.coeff(k) for k in range(1, 16)]
        for n in range(13):
            rec = faber_by_recursion(a, n)
            # the recursion runs in ints on J and still hands back Fractions
            assert all(type(c) is Fraction for c in rec.coeffs)
            assert faber_by_determinant(a, n) == rec
            if 1 <= n <= 12:
                assert faber_by_elimination(J, n) == rec

    def test_on_random_series(self):
        rng = random.Random(23)
        for _ in range(20):
            a = random_coeff_list(rng)
            f = QSeries(-1, 1, [1, 0] + a, 15)
            for n in (2, 5, 9, 12):
                rec = faber_by_recursion(a, n)
                assert faber_by_determinant(a, n) == rec
                assert faber_by_elimination(f, n) == rec


class TestExactDivision:
    def test_inexact_quotient_coefficient_raises(self):
        with pytest.raises(ArithmeticError):
            _pdiv_exact([1, 1], [2])

    def test_nonzero_remainder_raises(self):
        # z^2 + 1 = (z - 1)(z + 1) + 2
        with pytest.raises(ArithmeticError):
            _pdiv_exact([1, 0, 1], [1, 1])


class TestPoleKilling:
    def test_fn_of_j(self):
        J = j_oracle(12)
        a = [J.coeff(k) for k in range(1, 12)]
        for n in range(1, 9):
            series = faber_by_recursion(a, n)(J)
            assert series.coeff(-n) == 1
            for j in range(n):
                assert series.coeff(-j) == 0

    def test_fn_positive_part_is_grunsky_row(self):
        J = j_oracle(8)
        a = [J.coeff(k) for k in range(1, 8)]
        f5 = faber_by_recursion(a, 5)(J)
        # n * h_{1,n} = n * a_n for gcd 1
        assert f5.coeff(1) == 5 * J.coeff(5)


class TestFaberRows:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_rows_are_ints_exactly_for_integral_input(self, data):
        a = data.draw(st.lists(st.one_of(st.integers(-9, 9), st.integers(-9, 9).map(Fraction),
                                         st.fractions(-9, 9, max_denominator=6)),
                               min_size=2, max_size=14))
        n = data.draw(st.integers(1, len(a) - 1))
        top = len(a) - n  # row n reads a_1..a_(top + n - 1)
        rows = _FaberRows.from_coeffs(a)
        row = rows.extend(n, top)
        integral = all(Fraction(v).denominator == 1 for v in a)
        entries = [v for r in rows.rows[1:n + 1] for v in r[1:]]
        # ints for integral input; otherwise exact by promotion, never a float
        assert all(type(v) is int if integral else type(v) in (int, Fraction)
                   for v in entries)
        # row n is the positive part of F_n(f), in either type
        f = QSeries(-1, 1, [1, 0] + a, len(a) + 1)
        series = faber_by_recursion(a, n)(f)
        assert row[1:top + 1] == [series.coeff(m) for m in range(1, top + 1)]


class TestEvaluation:
    def test_horner_on_rationals(self):
        p = FaberPolynomial(2, (Fraction(1), Fraction(0), Fraction(-2)))
        assert p(Fraction(3)) == 7

    def test_monic_enforced(self):
        with pytest.raises(ValueError):
            FaberPolynomial(1, (Fraction(2), Fraction(0)))
        with pytest.raises(ValueError):
            FaberPolynomial(2, (Fraction(1), Fraction(0)))


def symmetric_functions_hold(xs, order):
    items = list(symmetric_function_comparisons(xs, order))
    assert [label for label, _, _ in items] == [
        (kind, k) for kind in ("complete", "elementary") for k in range(order + 1)]
    return all(got == want for _, got, want in items)


class TestSymmetricFunctions:
    def test_small_sets(self):
        rng = random.Random(5)
        for _ in range(10):
            xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
            assert symmetric_functions_hold(xs, 8)

    def test_trivial(self):
        assert symmetric_functions_hold([Fraction(1)], 5)
