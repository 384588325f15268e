"""Frame shapes, balance, eta products and the degree-24 classification."""

import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from replicaq import checks, qseries
from replicaq.qseries import QSeries
from replicaq.frames import (FrameShape, FrameShapeError,
                             parse_frame_shape, is_balanced, eta_product,
                             weak_multiplicativity, partitions_of,
                             classify_degree24, euler_factor_check,
                             _product_int_coeffs, _log_derivative_coeffs,
                             _first_mult_failure, _coprime_splits, _screened_partitions,
                             _multiplicativity_test, _phi_power_sizes)
from replicaq.qseries import _phi_power_table
import replicaq.frames as frames


def expanded(shape):
    """The parts of a shape with no negative exponent, ascending, each
    repeated by its exponent."""
    assert all(c > 0 for _, c in shape.net), shape
    return tuple(k for k, c in shape.net for _ in range(c))


PARTS = st.lists(st.integers(1, 24), max_size=6)


class TestParsing:
    def test_simple(self):
        s = parse_frame_shape("1^24")
        assert s.net == ((1, 24),) and expanded(s) == (1,) * 24
        assert str(s) == "1^24"

    def test_quotient(self):
        s = parse_frame_shape("2^24/1^24")
        assert s.exponents() == {2: 24, 1: -24}
        assert str(s) == "2^24/1^24"

    def test_mixed(self):
        s = parse_frame_shape("1^1 2^1 7^1 14^1")
        assert expanded(s) == (1, 2, 7, 14)
        # stored sorted: the order parts arrive in makes no other shape
        t = FrameShape([14, 2, 7, 1])
        assert t == s and hash(t) == hash(s) and str(t) == "1^1 2^1 7^1 14^1"
        u = FrameShape([8, 4, 4, 4, 4, 4, 4, 4, 8, 4], [2, 8, 2, 8, 2, 8, 2, 8])
        assert str(u) == "4^8/2^4 8^2"

    def test_cancellation(self):
        s = FrameShape([1, 1, 2], [2])
        assert s.exponents() == {1: 2}

    def test_rejects_garbage(self):
        for bad in ("", "1^0", "0^3", "x^2", "1^2/", "1^-1", "1^2/2^1/3^1", "1^1/1^2"):
            with pytest.raises(FrameShapeError):
                parse_frame_shape(bad)

    def test_a_huge_multiplicity_is_counted_not_expanded(self):
        start = time.perf_counter()
        s = parse_frame_shape("1^1000000000/2^1")
        assert time.perf_counter() - start < 1
        assert s.net == ((1, 10 ** 9), (2, -1))

    def test_rejects_a_part_that_is_not_a_positive_int(self):
        for num, den in (([2.5], ()), (["3"], ()), ([0], ()), ([3.0], ()), ([1], [2.5]),
                         ([1], [-1]), ([True], ())):
            with pytest.raises(FrameShapeError):
                FrameShape(num, den)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(PARTS, PARTS)
    def test_a_shape_is_its_net_count(self, num, den):
        count = Counter(num)
        count.subtract(den)
        net = {k: c for k, c in count.items() if c}
        if not any(c > 0 for c in net.values()):
            with pytest.raises(FrameShapeError):
                FrameShape(num, den)
            return
        s = FrameShape(num, den)
        assert s.exponents() == net
        assert parse_frame_shape(str(s)) == s
        assert s.lead_exponent() == Fraction(sum(num) - sum(den), 24)

    def test_weight_and_lead(self):
        s = parse_frame_shape("1^24/2^24")
        assert sum(s.exponents().values()) == 0  # weight: half the net eta count
        assert s.lead_exponent() == Fraction(24 - 48, 24)


class TestBalance:
    def test_1_2_7_14(self):
        assert is_balanced((1, 2, 7, 14)) == 14
        assert is_balanced([14, 1, 7, 2]) == 14

    def test_uniform(self):
        assert is_balanced([1] * 24) == 1
        assert is_balanced([2] * 12) == 4

    def test_unbalanced(self):
        assert is_balanced([1, 2, 3]) is None
        with pytest.raises(FrameShapeError):
            is_balanced([])


class TestEtaProduct:
    def test_1_24_is_delta(self):
        # tau(1..120) by the log-derivative recurrence, which runs no product;
        # at 120 terms the factor route runs the packed kernel
        n = 120
        f = eta_product(parse_frame_shape("1^24"), n + 1)
        tau = frames._log_derivative_coeffs({1: 24}, n - 1)
        assert f.lead_exp == 1
        assert f.coeff_range(1, n) == tau

    def test_quotient_pole(self):
        f = eta_product(parse_frame_shape("1^24/2^24"), 10)
        assert f.lead_exp == -1 and f.coeff(-1) == 1 and f.coeff(0) == -24

    def test_brute_force_product_oracle(self):
        # expand prod (1-q^n)^2 (1-q^(2n))^(-1) directly; both routes must match
        n = 30
        exps = {1: 2, 2: -1}
        poly = [Fraction(0)] * n
        poly[0] = Fraction(1)
        for k, c in exps.items():
            for m in range(k, n, k):
                factor = [Fraction(0)] * n
                factor[0] = Fraction(1)
                if m < n:
                    factor[m] = Fraction(-1)
                if c > 0:
                    reps, inv = c, False
                else:
                    reps, inv = -c, True
                for _ in range(reps):
                    if inv:
                        out = [Fraction(0)] * n
                        out[0] = poly[0] / factor[0]
                        for i in range(1, n):
                            out[i] = (poly[i] - sum(factor[j] * out[i - j]
                                                    for j in range(1, i + 1))) / factor[0]
                        poly = out
                    else:
                        out = [Fraction(0)] * n
                        for i in range(n):
                            if poly[i]:
                                for j in range(n - i):
                                    out[i + j] += poly[i] * factor[j]
                        poly = out
        for route in (_product_int_coeffs, _log_derivative_coeffs):
            assert [Fraction(g) for g in route(exps, n - 1)] == poly


# 1 to 3 parts from 1..24, exponents of either sign, all parts scaled by a
# common factor so that the gcd of the parts is often above 1
SHAPES = st.builds(
    lambda parts, scale: {k * scale: c for k, c in parts.items()},
    st.dictionaries(st.integers(1, 24), st.integers(-24, 24).filter(bool),
                    min_size=1, max_size=3),
    st.sampled_from([1, 1, 2, 3, 4]))


def full_recurrence(exps, n_terms):
    """b_0..b_n_terms by the plain log-derivative recurrence on the q grid."""
    return list(frames._log_derivative_series(exps, n_terms))


class TestFactorRoute:
    """The factor route against the log-derivative recurrence, its oracle."""

    def test_every_partition_of_24(self):
        for parts in partitions_of(24):
            exps = FrameShape(parts).exponents()
            assert _product_int_coeffs(exps, 60) == _log_derivative_coeffs(exps, 60), parts

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(SHAPES, st.sampled_from([0, 1, 2, 41, 1000]))
    def test_sampled_shapes(self, exps, n_terms):
        got = _product_int_coeffs(exps, n_terms)
        assert len(got) == n_terms + 1
        assert got == _log_derivative_coeffs(exps, n_terms)

    @pytest.mark.parametrize("shape", ["2^12", "1^24/2^24", "4^8/2^4 8^2", "3^8/1^8 9^2"])
    def test_gcd_and_quotients_to_1000(self, shape):
        exps = parse_frame_shape(shape).exponents()
        for n_terms in (0, 1, 1000):
            assert _product_int_coeffs(exps, n_terms) == _log_derivative_coeffs(exps, n_terms)

    # the six eta quotients 1^k/N^k, N = 24/k + 1, that the expand workload
    # realizes, and shapes on several grids with exponents of both signs
    @pytest.mark.parametrize("exps", [
        *({1: k, 24 // k + 1: -k} for k in (24, 12, 8, 6, 4, 2)),
        {2: 5, 3: -7, 6: 2}, {1: -3, 4: 9, 12: -6}], ids=str)
    def test_residue_classes_to_1000(self, exps):
        # each factor phi(q^m)^c multiplies the classes mod m one at a time
        for n_terms in (0, 1, 1000):
            assert _product_int_coeffs(exps, n_terms) == _log_derivative_coeffs(exps, n_terms)

    @pytest.mark.parametrize("exps", [{1: 24}, {2: 12}, {12: 2}, {1: 8, 2: 8},
                                      {2: 5, 3: -7, 6: 2}], ids=str)
    def test_no_product_by_the_unit_series(self, exps, monkeypatch):
        # the first factor is placed on its grid, so neither the classes nor
        # the powers ever multiply [1, 0, 0, ...]
        operands = []
        for module in (frames, qseries):
            def spy(a, b, n_out, real=module._int_conv):
                operands.extend((a, b))
                return real(a, b, n_out)

            monkeypatch.setattr(module, "_int_conv", spy)
        assert _product_int_coeffs(exps, 300) == _log_derivative_coeffs(exps, 300)
        assert operands
        assert not [x for x in operands if x[:1] == [1] and not any(x[1:])]

    def test_recurrence_on_the_gcd_grid_is_the_full_recurrence(self):
        # the list runs by divide and conquer on the q^g grid, g the gcd of
        # the parts; the generator alone is the plain recurrence on the q
        # grid (the screen runs its step, _log_derivative_step, in the
        # pruned walk)
        shapes = [s.exponents() for s in classify_degree24(100)]
        assert len(shapes) == 30 and sum(gcd(*exps) > 1 for exps in shapes) == 18
        for exps in shapes:
            assert _log_derivative_coeffs(exps, 300) == full_recurrence(exps, 300), exps
        every = [FrameShape(parts).exponents() for parts in partitions_of(24)]
        assert len(every) == 1575 and any(gcd(*exps) > 1 for exps in every)
        for exps in every:
            assert _log_derivative_coeffs(exps, 120) == full_recurrence(exps, 120), exps

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(SHAPES, st.sampled_from([0, 1, 47, 48, 49, 1000]))
    def test_divide_and_conquer_on_sampled_shapes(self, exps, n_terms):
        # either sign, gcd above 1, and lengths about the leaf of 48 terms
        assert _log_derivative_coeffs(exps, n_terms) == full_recurrence(exps, n_terms)

    def test_inexact_recurrence_raises(self):
        # a non-integral exponent makes n b_n indivisible by n; no rounding
        with pytest.raises(ArithmeticError):
            _log_derivative_coeffs({1: Fraction(1, 2)}, 4)

    def test_inexact_recurrence_raises_under_optimize(self):
        # python -O strips assert statements; the exactness check must survive it
        script = ("import sys; sys.path.insert(0, sys.argv[1]); from fractions import Fraction; "
                  "from replicaq.frames import _log_derivative_coeffs; "
                  "print(_log_derivative_coeffs({1: Fraction(1, 2)}, 4))")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-O", "-c", script, str(src)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and "ArithmeticError" in proc.stderr, proc.stdout


class TestMultiplicativity:
    def test_tau_is_multiplicative(self):
        f = eta_product(parse_frame_shape("1^24"), 200)
        rep = weak_multiplicativity(f, 198)
        assert rep.verdict and rep.first_failure is None

    def test_detects_failure(self):
        f = QSeries(1, 1, [1, 1, 1, 1, 1, 7], 10)
        rep = weak_multiplicativity(f, 8)
        assert not rep.verdict and rep.first_failure[:2] == (2, 3)

    def test_bound_below_the_first_pair_raises(self):
        # (2, 3) is the first coprime pair: below bound 6 nothing is compared
        with pytest.raises(ValueError, match="at least 6"):
            weak_multiplicativity(QSeries(1, 1, [1, 5, 7, 0, 9], 6), 5)
        assert weak_multiplicativity(QSeries(1, 1, [1, 5, 7, 0, 9, 35], 7), 6).verdict
        rep = weak_multiplicativity(QSeries(1, 1, [1, 5, 7, 0, 9, 36], 7), 6)
        assert rep.first_failure == (2, 3, 5, 7, 36)

    def test_normalizes_by_a_unit_and_rejects_non_integral(self):
        tau = eta_product(parse_frame_shape("1^24"), 40)
        assert weak_multiplicativity(tau * -1, 38) == weak_multiplicativity(tau, 38)
        with pytest.raises(ValueError, match="integer coefficients"):
            weak_multiplicativity(tau + QSeries(7, 1, [Fraction(1, 2)], 40), 38)
        with pytest.raises(ValueError, match="c\\(1\\)"):
            weak_multiplicativity(tau * 2, 38)


def tau(n_terms):
    """[tau(1)..tau(n_terms)], a multiplicative list, by the plain recurrence."""
    return full_recurrence({1: 24}, n_terms - 1)


class TestMultiplicativityTest:
    """The test over one coprime pair per N against the scan over all pairs."""

    def test_same_verdict_as_the_pair_scan_on_every_partition(self):
        # the factor-route lists of all 1575 partitions to c(300), powers of
        # phi from one table; 32 pass the screen to c(42), and fewer these
        every = [FrameShape(parts).exponents() for parts in partitions_of(24)]
        table = _phi_power_table(_phi_power_sizes(every, 299))
        test = _multiplicativity_test(300)
        verdicts = Counter()
        for exps in every:
            c = _product_int_coeffs(exps, 299, table)
            assert c == _product_int_coeffs(exps, 299), exps
            verdict = _first_mult_failure(c, 300) is None
            assert test(c) is verdict, exps
            verdicts[verdict] += 1
        assert verdicts == {True: 30, False: 1545}

    @pytest.mark.parametrize("n", [6, 12, 30, 299])
    def test_a_changed_coefficient_fails(self, n):
        # c(6) = c(2) c(3) and c(12) = c(4) c(3) are each the one pair of N
        c = tau(300)
        test = _multiplicativity_test(300)
        assert test(c) and _first_mult_failure(c, 300) is None
        c[n - 1] += 1
        assert not test(c) and _first_mult_failure(c, 300) is not None

    def test_a_changed_prime_power_fails_through_its_multiples(self):
        # c(4) sits in no N it is the whole of; it enters as the q of N = 12
        c = tau(300)
        c[3] += 1
        assert not _multiplicativity_test(300)(c)
        assert _first_mult_failure(c, 300)[:2] == (3, 4)

    def test_bound_below_the_second_test_raises(self):
        assert _multiplicativity_test(10)(tau(10))
        with pytest.raises(ValueError, match="at least 10"):
            _multiplicativity_test(9)


class TestClassification:
    def test_partition_count(self):
        assert sum(1 for _ in partitions_of(24)) == 1575

    def test_thirty_shapes(self):
        shapes = classify_degree24(200)
        assert len(shapes) == 30
        names = {str(s) for s in shapes}
        assert "1^24" in names
        assert "1^1 2^1 7^1 14^1" in names
        assert "1^2 11^2" in names
        assert "24^1" not in names or is_balanced([24])
        # every survivor is balanced
        for s in shapes:
            assert is_balanced(expanded(s)) is not None

    def test_shapes_come_in_ascending_order_of_their_parts(self):
        # the order the CLI prints and the benchmark's digest reads
        parts = [expanded(s) for s in classify_degree24(200)]
        assert parts == sorted(parts) and len(set(parts)) == 30

    def test_m24_anchor_names_a_missing_cycle_shape(self, monkeypatch):
        assert checks.degree24(100)["m24_shapes_ok"] == checks.CheckReport(
            "degree24_m24_shapes", 21)
        real = classify_degree24(100)
        monkeypatch.setattr(checks, "classify_degree24",
                            lambda bound: [s for s in real if str(s) != "1^3 7^3"])
        report = checks.degree24(100)["m24_shapes_ok"]
        assert not report.ok and report.first_mismatch == ("1^3 7^3", False, True)


def full_scan(parts) -> bool:
    """Whether all 42 recurrence coefficients of a partition of 24 pass the pair scan."""
    exps = FrameShape(parts).exponents()
    return _first_mult_failure(_log_derivative_coeffs(exps, 41), 42) is None


@pytest.fixture(scope="module")
def fully_scanned():
    return [parts for parts in partitions_of(24) if full_scan(parts)]


class TestScreen:
    def test_screen_is_the_full_scan_on_every_partition(self, fully_scanned):
        # the pruned walk keeps exactly the partitions whose 42 recurrence
        # coefficients pass the pair scan, in partitions_of order
        assert len(fully_scanned) == 32
        assert _screened_partitions(_coprime_splits(42)) == fully_scanned

    def test_splits_are_the_coprime_pairs(self):
        splits = _coprime_splits(42)
        assert len(splits) == 43
        assert splits[6] == [(2, 3)] and splits[12] == [(3, 4)] and splits[8] == []
        assert splits[30] == [(2, 15), (3, 10), (5, 6)]

    def test_screen_stops_at_the_first_failing_pair(self, monkeypatch):
        # the walk takes b_n only where b_0..b_(n-1) pass every pair with
        # mn <= n, and takes it once for all the completions of its prefix
        # (s_1..s_n fix the parts up to n)
        splits = _coprime_splits(42)
        taken = set()
        step = frames._log_derivative_step

        def checked(s, b, n):
            assert all(b[m - 1] * b[k - 1] == b[m * k - 1]
                       for N in range(n + 1) for m, k in splits[N])
            key = (n, tuple(s[1:n + 1]))
            assert key not in taken
            taken.add(key)
            return step(s, b, n)

        monkeypatch.setattr(frames, "_log_derivative_step", checked)
        assert len(_screened_partitions(splits)) == 32
        # 1315 of the 1575 partitions fail at c(6); taking c(1)..c(6) of each
        # partition apart would cost more steps than the whole walk.  One
        # step per prefix, solved for the multiplicity its pairs force, takes
        # 3513; one step per child took 4770
        assert len(taken) <= 3513

    def test_frame_shapes_are_built_for_the_survivors_only(self, monkeypatch):
        built = []

        def counted(parts):
            built.append(parts)
            return FrameShape(parts)

        monkeypatch.setattr(frames, "FrameShape", counted)
        assert len(classify_degree24(702)) == 30
        assert len(built) == 32

    def test_the_recheck_builds_one_table_of_powers(self, monkeypatch):
        tables = []
        real = frames._phi_power_table

        def counted(sizes):
            tables.append(sizes)
            return real(sizes)

        monkeypatch.setattr(frames, "_phi_power_table", counted)
        assert len(classify_degree24(702)) == 30
        assert tables == [{24: 702, 8: 702, 6: 702, 4: 702, 2: 702, 3: 702, 1: 702, 12: 351}]

    @pytest.mark.parametrize("bound", [100, 702, 3000])
    def test_classification_is_the_full_scan_then_the_recheck(self, bound, fully_scanned):
        want = [shape for shape in map(FrameShape, fully_scanned)
                if _first_mult_failure(_product_int_coeffs(shape.exponents(), bound - 1),
                                       bound) is None]
        assert classify_degree24(bound) == want


class TestEulerFactor:
    def test_tau_euler_factors(self):
        f = eta_product(parse_frame_shape("1^24"), 200)
        for p in (2, 3, 5, 7):
            assert euler_factor_check(f, p, 12)

    def test_wrong_weight_fails(self):
        f = eta_product(parse_frame_shape("1^24"), 200)
        assert not euler_factor_check(f, 2, 10)

    @pytest.mark.parametrize("weight", [12, 10])
    def test_a_fractional_order_reads_the_last_integer_exponent(self, weight):
        # below q^(51/2), as below q^26, Delta knows c(25) = c(5^2)
        f = eta_product(parse_frame_shape("1^24"), 26)
        assert (euler_factor_check(f.truncate(Fraction(51, 2)), 5, weight)
                == euler_factor_check(f, 5, weight) == (weight == 12))
