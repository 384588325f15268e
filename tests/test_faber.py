"""Faber polynomials: three routes, closed forms, pole-killing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from replicaq import faber
from replicaq.qseries import QSeries, TruncationError, j_oracle
from replicaq.faber import (FaberPolynomial, faber_by_recursion,
                            faber_by_elimination, faber_by_determinant, _FaberRows)
from replicaq.grunsky import GrunskyCalculator, grunsky_by_recursion, grunsky_from_faber
from replicaq.replicable import ReplicationFamily, replicate, replicate_by_grunsky
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

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_on_integral_rational_and_mixed_input(self, data):
        integral = st.integers(-9, 9)
        rational = st.fractions(-9, 9, max_denominator=6)
        a = data.draw(st.one_of(*(st.lists(entry, min_size=1, max_size=12) for entry in
                                  (integral, rational, st.one_of(integral, rational)))))
        n = data.draw(st.integers(0, len(a)))
        f = QSeries(-1, 1, [1, 0] + a, len(a) + 1)
        rec = faber_by_recursion(a, n)
        assert faber_by_determinant(a, n) == rec
        assert faber_by_elimination(f, n) == rec


class TestElimination:
    """Elimination works on the integer exponents of a normalized series."""

    # terms of f at fractional exponents (q^(1/2), q^(3/2), q^(7/2)) would
    # meet at integer exponents in its powers, where the routes that read
    # a_1, a_2, .. cannot see them: such a series is not normalized, and
    # every route that needs one refuses it
    OFF_GRID = [QSeries(-1, Fraction(3, 2), [1, 5, 7, 2], 20),
                QSeries(-1, Fraction(1, 2), [1, 0, 0, 3, 1, 4], 20)]

    @pytest.mark.parametrize("f", OFF_GRID, ids=["step_3/2", "step_1/2"])
    def test_series_off_the_integer_grid(self, f):
        assert not f.is_normalized()
        for route in (lambda: faber_by_elimination(f, 3), lambda: replicate(f, 2, 3),
                      lambda: replicate_by_grunsky(f, 2, 3), lambda: grunsky_from_faber(f, 6),
                      lambda: ReplicationFamily(f), lambda: ReplicationFamily(j_oracle(20), {2: f})):
            with pytest.raises(ValueError, match="normalized"):
                route()

    def test_integer_terms_on_a_finer_grid(self):
        # zeros at the half-integers change nothing: the same series on step 1
        a = [0, 3, 1, 4, 0, -2]
        f = QSeries(-1, Fraction(1, 2), [x for c in [1, *a] for x in (c, 0)], 20)
        assert f.is_normalized()
        for n in range(7):
            assert faber_by_elimination(f, n) == faber_by_recursion(a[1:], n)


class TestRouteIndependence:
    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the determinant reached the recursion's code")

    def test_determinant_runs_without_the_recursion(self, monkeypatch):
        J = j_oracle(12)
        a = [J.coeff(k) for k in range(1, 12)]
        for name in ("faber_by_recursion", "_FaberRows"):
            monkeypatch.setattr(faber, name, self.refuse)
        dets = [faber_by_determinant(a, n) for n in range(13)]
        monkeypatch.undo()
        assert dets == [faber_by_recursion(a, n) for n in range(13)]


class TestShortCoefficientList:
    @pytest.mark.parametrize("engine, a, need", [
        (lambda a: faber_by_recursion(a, 6), [1, 2], 3),
        (lambda a: faber_by_determinant(a, 6), [1, 2], 3),
        (lambda a: grunsky_by_recursion(a, 10), [1, 2, 3], 4),
        (lambda a: _FaberRows(a).h(2, 3), [1, 2, 3], 4),
        (lambda a: GrunskyCalculator(a).h(2, 3), [1, 2, 3], 4),
    ], ids=["faber_recursion", "faber_determinant", "grunsky_recursion", "faber_rows",
            "grunsky_calculator"])
    def test_raises_truncation_error_naming_the_coefficient(self, engine, a, need):
        with pytest.raises(TruncationError, match=f"a_{need}"):
            engine(a)


class TestNegativeDegree:
    def test_every_route_rejects_it(self):
        J = j_oracle(12)
        a = [J.coeff(k) for k in range(1, 12)]
        for route in (lambda n: faber_by_recursion(a, n), lambda n: faber_by_determinant(a, n),
                      lambda n: faber_by_elimination(J, n)):
            with pytest.raises(ValueError, match="degree must be nonnegative"):
                route(-1)


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
        rows = _FaberRows(a)
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
