"""Core series arithmetic, truncation bookkeeping and the three oracles."""

import decimal
import math
import operator
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from replicaq.qseries import (QSeries, GridError, TruncationError, agree, eta,
                              _exponents_below,
                              eisenstein_e4, delta, delta_int_coeffs, j_oracle,
                              j_int_coeffs, euler_phi_int_coeffs, _grid_points,
                              _e4_int_coeffs, _e8_int_coeffs, _int_conv,
                              _int_series_inverse, _int_power, _kronecker_conv,
                              _miller_power, _phi_cube_int_coeffs, _phi_power_table,
                              _schoolbook_conv, _KRONECKER_MIN_LEN)
from replicaq import frames, qseries

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# small entries with plenty of zeros, so the kernels' zero skips are exercised
INTS = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -7, 10**30]), max_size=12)
FRACTIONS = st.lists(st.sampled_from([Fraction(0), Fraction(0), Fraction(1),
                                      Fraction(-3, 5), Fraction(7, 2), Fraction(4)]),
                     max_size=12)


# series on the q, q^(1/2) or q^(1/3) grid, with zeros and non-integral
# entries, known from 0 to 10 grid steps past the lead
SERIES = st.builds(
    lambda step, lead, coeffs, known: QSeries(lead * step, step, coeffs, (lead + known) * step),
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3)]), st.integers(-3, 3),
    st.lists(st.sampled_from([0, 0, 1, -1, 3, Fraction(2, 3)]), max_size=8),
    st.integers(0, 10))


# every step of the 1/24 grid from 1/24 to 2
GRID_STEPS = [Fraction(k, 24) for k in range(1, 49)]
GRID_OFFSETS = st.integers(0, 72).map(lambda k: Fraction(k, 24))

# series on any of those grids with a lead anywhere on the 1/24 grid, zeros
# and trailing zeros in the list, known from the lead to 3 past it
GRID_SERIES = st.builds(
    lambda step, lead, coeffs, zeros, known: QSeries(lead, step, coeffs + [0] * zeros,
                                                     lead + known),
    st.sampled_from(GRID_STEPS), st.integers(-48, 48).map(lambda k: Fraction(k, 24)),
    st.lists(st.sampled_from([0, 0, 1, -1, 3, Fraction(2, 3)]), max_size=10),
    st.integers(0, 3), GRID_OFFSETS)


def stored_exactly(c) -> bool:
    """The store contract: an int when integral, else a Fraction; never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def random_series(rng, trunc=12):
    lead = rng.randint(-2, 1)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
              for _ in range(trunc - lead)]
    return QSeries(lead, 1, coeffs, trunc)


class TestConstruction:
    def test_leading_zeros_trimmed(self):
        f = QSeries(-2, 1, [0, 0, 5], 10)
        assert f.lead_exp == 0 and f.coeffs == [5]

    def test_coeffs_at_or_past_trunc_dropped(self):
        f = QSeries(0, 1, [1, 2, 3, 4], 3)
        assert f.coeffs == [1, 2, 3]
        with pytest.raises(TruncationError):
            f.coeff(3)

    def test_grid_denominator_must_divide_24(self):
        QSeries(Fraction(1, 24), Fraction(1, 8), [1], 2)
        with pytest.raises(GridError):
            QSeries(Fraction(1, 5), 1, [1], 2)

    def test_unknown_is_not_zero(self):
        f = QSeries(0, 1, [1], 5)
        assert f.coeff(4) == 0
        with pytest.raises(TruncationError):
            f.coeff(5)
        with pytest.raises(TruncationError):
            f.coeff(7)

    def test_nothing_known_below_a_trunc_under_the_lead(self):
        f = QSeries(5, 1, [1, 2, 3, 4, 5], 4)
        assert f.is_zero and f.exponents() == [] and f.trunc == 4

    @PROPERTY
    @given(st.integers(-30, 30), st.sampled_from([1, 2, 3, 24]), st.integers(1, 4),
           st.integers(1, 3), st.integers(-60, 60), st.integers(1, 24))
    def test_grid_points_below_trunc(self, lead_num, lead_den, step_num, step_den,
                                     trunc_num, trunc_den):
        lead, step = Fraction(lead_num, lead_den), Fraction(step_num, step_den)
        trunc = Fraction(trunc_num, trunc_den)
        want = sum(1 for k in range(300) if lead + k * step < trunc)
        assert _grid_points(lead, step, trunc) == want

    @settings(PROPERTY, max_examples=200)
    @given(st.sampled_from(GRID_STEPS), st.sampled_from([-1, -1, -1, -2, 0]),
           st.sampled_from([1, 1, 1, 0, 2]), st.integers(-2, 2),
           st.lists(st.sampled_from([0, 0, 0, 1, -2]), max_size=8), st.integers(0, 60))
    def test_is_normalized_is_the_exponent_definition(self, step, lead, lead_coeff, shift,
                                                      tail, known):
        # a pole at or near q^-1, then zeros up to a first nonzero term just
        # before, at or just past q^0, on grids with steps from 1/24 to 2
        zeros = max(0, int(1 / step) - 1 + shift)
        f = QSeries(lead, step, [lead_coeff] + [0] * zeros + [1] + tail, lead + known * step)
        want = (not f.is_zero and f.lead_exp == -1 and f.coeffs[0] == 1
                and all(c == 0 for e, c in zip(f.exponents(), f.coeffs) if -1 < e <= 0))
        assert f.is_normalized() == want

    @pytest.mark.parametrize("lead, step", [(-1, 1), (3, 1), (Fraction(1, 24), 1),
                                            (-1, Fraction(1, 24)), (0, Fraction(1, 2)),
                                            (Fraction(-5, 24), Fraction(1, 24))])
    def test_coeff_int_and_fraction_paths_agree(self, lead, step):
        coeffs = [Fraction(k * k - 7, 3) if k % 3 else 0 for k in range(1, 40)]
        f = QSeries(lead, step, coeffs, 30)
        for e in range(-4, 30):
            # past the end of coeffs and off the grid both read as zero
            assert f.coeff(e) == f.coeff(Fraction(e))
            assert stored_exactly(f.coeff(e)) and type(f.coeff(e)) is type(f.coeff(Fraction(e)))
        for e in (30, 31, Fraction(30), Fraction(61, 2)):
            with pytest.raises(TruncationError):
                f.coeff(e)
        empty = QSeries(lead, step, [], 9)
        assert empty.coeff(8) == empty.coeff(Fraction(8)) == 0
        with pytest.raises(TruncationError):
            empty.coeff(9)


# series on the q grid or the 1/24 grid, with an integral or a 1/24-grid
# lead, zeros and non-integral entries, known from the lead to 12 past it
BULK_SERIES = st.builds(
    lambda step, lead, coeffs, known: QSeries(lead, step, coeffs, lead + known),
    st.sampled_from([Fraction(1), Fraction(1, 24)]),
    st.one_of(st.integers(-4, 4), st.integers(-96, 96).map(lambda k: Fraction(k, 24))),
    st.lists(st.sampled_from([0, 0, 1, -1, 5, Fraction(2, 3)]), max_size=14),
    st.integers(0, 12))


class TestBulkRead:
    @PROPERTY
    @given(BULK_SERIES, st.integers(-9, 4), st.integers(-3, 16))
    def test_bulk_read_is_the_per_index_read(self, f, lo, width):
        # lo from below the lead, hi from below lo to past the stored list and trunc
        hi = lo + width
        try:
            want = [f.coeff(k) for k in range(lo, hi + 1)]
        except TruncationError as exc:
            assert hi >= f.trunc
            with pytest.raises(TruncationError) as got:
                f.coeff_range(lo, hi)
            assert str(got.value) == str(exc)
            return
        got = f.coeff_range(lo, hi)
        assert got == want and list(map(type, got)) == list(map(type, want))
        assert f.integer_coeffs(lo, hi) == want

    def test_bulk_read_raises_at_trunc(self):
        f = j_oracle(20)
        assert f.coeff_range(-3, 19) == [f.coeff(k) for k in range(-3, 20)]
        assert f.coeff_range(25, 24) == []
        for hi in (20, 21):
            with pytest.raises(TruncationError, match="q\\^20 "):
                f.coeff_range(-1, hi)


class TestStore:
    @PROPERTY
    @given(SERIES, SERIES, st.sampled_from([0, 3, -1, Fraction(1, 2), Fraction(4, 2)]),
           st.sampled_from([1, 2, 3, Fraction(1, 2)]), st.integers(-2, 3))
    def test_integral_coefficients_are_ints(self, a, b, c, k, n):
        """Every operation stores int-if-integral, else Fraction; the public
        integer_coeffs boundary stays Fraction."""
        rebuilt = QSeries(a.lead_exp, a.step, [Fraction(v) for v in a.coeffs], a.trunc)
        assert rebuilt == a
        results = [a, rebuilt, a + b, a - b, a * b, a * c, c * a, a.substitute(k),
                   a.truncate(a.trunc - a.step)]
        if not a.is_zero:
            results += [a.invert(), a ** n]
        elif n >= 0:
            results.append(a ** n)
        for s in results:
            assert all(stored_exactly(v) for v in s.coeffs), s.coeffs
            hi = math.ceil(s.trunc) - 1
            assert all(type(v) is Fraction for v in s.integer_coeffs(hi - 4, hi))


class TestAgree:
    def test_short_side_raises(self):
        short = QSeries(-1, 1, [1], 1)
        assert short != j_oracle(30)  # == needs the same truncation order
        with pytest.raises(TruncationError):
            agree(short, j_oracle(30), 30)
        with pytest.raises(TruncationError):
            agree(j_oracle(30), short, 30)
        with pytest.raises(TruncationError):  # no coefficient of short is read past q^1
            agree(short, QSeries(-1, 1, [1], 30), 30)

    def test_first_mismatch(self):
        J = j_oracle(40)
        assert agree(J, j_oracle(30), 30) is None
        bent = J + QSeries(3, 1, [1], 40) + QSeries(5, 1, [1], 40)
        assert agree(J, bent, 30) == (3, J.coeff(3), J.coeff(3) + 1)
        assert agree(J, bent, 3) is None

    @settings(PROPERTY, max_examples=300)
    @given(st.data())
    def test_walk_is_the_exponent_set_definition(self, data):
        # steps 1/24 to 2, leads anywhere on the 1/24 grid, zero series and
        # trailing zeros, orders below, inside and past both truncations,
        # equal pairs and pairs with one coefficient bent at a random exponent
        a = data.draw(GRID_SERIES)
        kind = data.draw(st.sampled_from(["independent", "equal", "planted"]))
        bent_at = None
        if kind == "independent":
            b = data.draw(GRID_SERIES)
        elif kind == "equal":
            b = QSeries(a.lead_exp, a.step, a.coeffs, a.trunc + data.draw(GRID_OFFSETS))
        else:
            e = data.draw(st.integers(-48, 96).map(lambda k: Fraction(k, 24)))
            b = a + QSeries(e, 1, [data.draw(st.sampled_from([1, Fraction(-1, 3)]))],
                            a.trunc + data.draw(GRID_OFFSETS))
            bent_at = e if e < a.trunc else None
        a, b = data.draw(st.permutations([a, b]))
        order = min(a.trunc, b.trunc) - Fraction(data.draw(st.integers(-12, 96)), 24)
        assert _exponents_below(a, b, order) == old_exponents_below(a, b, order)
        try:
            want = old_agree(a, b, order)
        except TruncationError:
            with pytest.raises(TruncationError):
                agree(a, b, order)
            return
        assert agree(a, b, order) == want
        if bent_at is not None and bent_at < order:
            assert want[0] == bent_at


def old_exponents_below(a, b, order):
    """Every exponent held by either series, then those below order."""
    return sorted({e for s in (a, b) for e in s.exponents() if e < order})


def old_agree(a, b, order):
    """agree as the ascending walk over old_exponents_below, by coeff."""
    order = Fraction(order)
    for s in (a, b):
        if s.trunc < order:
            raise TruncationError(f"known below q^{s.trunc}")
    for e in old_exponents_below(a, b, order):
        if a.coeff(e) != b.coeff(e):
            return (e, a.coeff(e), b.coeff(e))
    return None


class TestArithmetic:
    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(25):
            a, b, c = (random_series(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_add_trunc_is_min(self):
        a = QSeries(0, 1, [1], 10)
        b = QSeries(0, 1, [1], 6)
        assert (a + b).trunc == 6

    @PROPERTY
    @given(GRID_SERIES, GRID_SERIES)
    def test_add_is_coefficientwise(self, a, b):
        total = a + b
        assert total.trunc == min(a.trunc, b.trunc)
        assert all(stored_exactly(c) for c in total.coeffs)
        lo = min(a.lead_exp, b.lead_exp)
        for k in range(int((total.trunc - lo) * 24)):
            e = lo + Fraction(k, 24)
            assert total.coeff(e) == a.coeff(e) + b.coeff(e)

    def test_add_on_a_shared_fractional_lead(self):
        # both leads at q^(1/24): the offsets on the q grid are 1/24 each,
        # and only their difference has to be integral
        e = eta(5)
        assert e + e == e * 2
        assert (e + e).lead_exp == Fraction(1, 24)
        shifted = eta(5) + QSeries(Fraction(25, 24), 1, [3], 5)
        assert shifted.coeff(Fraction(25, 24)) == e.coeff(Fraction(25, 24)) + 3

    def test_mul_trunc_propagation(self):
        a = QSeries(-1, 1, [1], 10)  # q^-1, known to q^10
        b = QSeries(2, 1, [1], 6)
        assert (a * b).trunc == min(Fraction(10) + 2, Fraction(6) + (-1))

    def test_invert_roundtrip_random_units(self):
        rng = random.Random(11)
        for _ in range(100):
            f = random_series(rng)
            if f.is_zero or f.coeffs[0] == 0:
                continue
            g = f.invert()
            prod = f * g
            assert prod.coeff(0) == 1
            for e in range(1, int(prod.trunc)):
                assert prod.coeff(e) == 0

    def test_pow(self):
        f = QSeries(-1, 1, [1, 0, 196884], 10)
        assert f ** 0 == QSeries(0, 1, [1], 11)
        assert f ** 3 == f * f * f

    def test_product_chain_is_stored_as_the_power(self):
        # eta's 1/24 lead is no reason for a 1/24 grid: a product needs only the steps
        e = eta(200)
        chain, power = e * (e * e), e ** 3
        assert chain == power
        assert (chain.step, len(chain.coeffs)) == (power.step, len(power.coeffs)) == (1, 191)

    @PROPERTY
    @given(GRID_SERIES, GRID_SERIES)
    def test_mul_is_the_double_sum_on_the_steps_gcd(self, a, b):
        prod = a * b
        if a.is_zero or b.is_zero:
            return
        assert prod.step == qseries._frgcd(a.step, b.step)
        want = {}
        for ea, ca in zip(a.exponents(), a.coeffs):
            for eb, cb in zip(b.exponents(), b.coeffs):
                want[ea + eb] = want.get(ea + eb, 0) + ca * cb
        lo = a.lead_exp + b.lead_exp
        for k in range(int((prod.trunc - lo) * 24)):
            e = lo + Fraction(k, 24)
            assert prod.coeff(e) == want.get(e, 0)

    def test_substitute(self):
        f = QSeries(-1, 1, [1, 0, 5], 4)
        g = f.substitute(3)
        assert g.coeff(-3) == 1 and g.coeff(3) == 5 and g.trunc == 12

    @PROPERTY
    @given(SERIES, SERIES, st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(3, 2)]))
    def test_substitution_commutes_with_multiplication(self, f, g, k):
        assert (f * g).substitute(k) == f.substitute(k) * g.substitute(k)

    @PROPERTY
    @given(SERIES, SERIES, st.integers(0, 6), st.integers(0, 6),
           st.sampled_from(["add", "sub", "mul", "invert"]))
    def test_truncation_is_monotone(self, f, g, cut_f, cut_g, op):
        # an op on truncated operands agrees with the full op below its own order
        short_f = f.truncate(f.trunc - cut_f * f.step)
        short_g = g.truncate(g.trunc - cut_g * g.step)
        if op == "invert":
            if short_f.is_zero:
                return
            full, short = f.invert(), short_f.invert()
        else:
            full, short = getattr(operator, op)(f, g), getattr(operator, op)(short_f, short_g)
        assert short.trunc <= full.trunc
        assert agree(short, full, short.trunc) is None

    def test_truncation_soundness_under_ops(self):
        # reported coefficients are independent of the working truncation
        lo, hi = j_oracle(20), j_oracle(30)
        prod_lo, prod_hi = lo * lo - 2 * lo, hi * hi - 2 * hi
        for e in range(-2, int(prod_lo.trunc)):
            assert prod_lo.coeff(e) == prod_hi.coeff(e)


def naive_product(a, b, n_out):
    return [sum((a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)),
                start=Fraction(0)) for k in range(n_out)]


class TestGuardsUnderOptimize:
    def test_invariant_guards_raise_under_optimize(self):
        # python -O strips assert statements; the invariant guards must survive it
        script = """
import sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from replicaq.faber import FaberPolynomial

def raises(kind, fn):
    try:
        fn()
    except kind:
        return True
    return False

print(raises(ValueError, lambda: FaberPolynomial(1, (Fraction(2), Fraction(0)))),
      raises(ValueError, lambda: FaberPolynomial(2, (Fraction(1),))))
"""
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-O", "-c", script, str(src)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"] * 2


class TestKernels:
    @PROPERTY
    @given(st.one_of(st.tuples(INTS, INTS), st.tuples(FRACTIONS, FRACTIONS)))
    def test_conv_is_the_double_sum(self, ab):
        a, b = ab
        for n_out in range(len(a) + len(b) + 2):
            out = _int_conv(a, b, n_out)
            assert out == naive_product(a, b, n_out)
            # ints stay ints, Fractions stay Fractions; never a float
            assert {type(v) for v in out} <= {type(a[0]) if a else int}

    def test_conv_empty_output(self):
        assert _int_conv([1, 2], [3], 0) == []
        assert _int_conv([Fraction(1, 2)], [Fraction(3)], 0) == []
        assert _int_conv([], [1], 3) == [0, 0, 0]

    def test_conv_fraction_zero_stays_fraction(self):
        out = _int_conv([Fraction(0), Fraction(1, 3)], [Fraction(0)], 3)
        assert out == [0, 0, 0] and all(type(v) is Fraction for v in out)

    @PROPERTY
    @given(st.sampled_from([1, -1]), INTS, st.integers(1, 14))
    def test_inverse_of_unit_led_int_series(self, c0, tail, n):
        a = [c0] + tail
        inv = _int_series_inverse(a, n)
        assert all(type(v) is int for v in inv)
        assert _int_conv(a, inv, n) == [1] + [0] * (n - 1)

    @PROPERTY
    @given(st.sampled_from([Fraction(2), Fraction(-3, 5), Fraction(7)]), FRACTIONS,
           st.integers(1, 14))
    def test_inverse_of_fraction_series(self, c0, tail, n):
        a = [c0] + tail
        inv = _int_series_inverse(a, n)
        assert not any(isinstance(v, float) for v in inv)
        assert _int_conv(a, inv, n) == [1] + [0] * (n - 1)

    @pytest.mark.parametrize("c0", [-1, 1, 2])
    def test_invert_roundtrip_integral(self, c0):
        rng = random.Random(c0 + 5)
        for _ in range(20):
            f = QSeries(rng.randint(-2, 1), 1,
                        [c0] + [rng.choice([0, 0, 1, -3, 8]) for _ in range(11)], 12)
            prod = f * f.invert()
            assert prod.coeff(0) == 1
            assert prod.trunc == 12 - f.lead_exp
            assert all(prod.coeff(e) == 0 for e in range(1, int(prod.trunc)))


LONG = _KRONECKER_MIN_LEN
PENTAGONAL = {k * (3 * k - 1) // 2 for k in range(-10, 11)}
# either sign, many zeros, and entries past 600 bits
WIDE = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2 ** 700, 2 ** 700))
# lengths from below the packing threshold to well above it
AROUND_THRESHOLD = st.lists(WIDE, min_size=LONG - 3, max_size=LONG + 25)


def naive_inverse(a, n_out):
    inv = []
    for k in range(n_out):
        s = sum((a[j] * inv[k - j] for j in range(1, min(k, len(a) - 1) + 1)), start=0)
        inv.append((int(k == 0) - s) / Fraction(a[0]))
    return inv


class TestKronecker:
    """The packed product against the schoolbook loop, its oracle."""

    @PROPERTY
    @given(AROUND_THRESHOLD, AROUND_THRESHOLD, st.integers(1, 30))
    def test_dispatch_matches_schoolbook(self, a, b, cut):
        full = len(a) + len(b) - 1
        # sparse x sparse and sparse x dense: each list cut down to its entries
        # at pentagonal positions, phi(q)'s support
        sparse_a, sparse_b = ([x if i in PENTAGONAL else 0 for i, x in enumerate(xs)]
                              for xs in (a, b))
        for x, y in ((a, b), (sparse_a, sparse_b), (sparse_a, b), (a, sparse_b)):
            for n_out in (LONG - 1, full - cut, full, full + cut):
                out = _int_conv(x, y, n_out)
                assert out == _schoolbook_conv(x, y, n_out)
                assert len(out) == n_out and all(type(v) is int for v in out)

    @pytest.mark.parametrize("n", [LONG, 300, 3000])
    def test_sparse_squares_pack_once(self, n, monkeypatch):
        # phi(q) has about 2 sqrt(2n/3) nonzero terms and packs like a dense
        # operand; cutting the operands to n_out keeps a square one list
        # object, so the packer packs it once
        phi = euler_phi_int_coeffs(n)
        taken = spy_slot_paths(monkeypatch)
        assert _int_conv(phi, phi, n) == _schoolbook_conv(phi, phi, n)
        assert [(name, square) for name, _, square in taken] == [("_binary_slot_product", True)]

    @PROPERTY
    @given(st.lists(WIDE, min_size=1, max_size=12), st.lists(WIDE, min_size=1, max_size=12),
           st.integers(0, 26))
    def test_packed_product_at_any_length(self, a, b, n_out):
        out = _kronecker_conv(a, b, n_out)
        assert out == _schoolbook_conv(a, b, n_out)
        assert all(type(v) is int for v in out)

    @pytest.mark.parametrize("bits", [7, 8, 63, 64, 601, 700])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
    def test_extreme_coefficients_fill_their_slots(self, bits, signs):
        # every product coefficient as large as the slot bound allows
        for n in (LONG, LONG + 1, 3 * LONG):
            top = 2 ** bits - 1
            a, b = [signs[0] * top] * n, [signs[1] * (top + 1)] * n
            for n_out in (n, 2 * n - 1, 2 * n + 3):
                assert _int_conv(a, b, n_out) == _schoolbook_conv(a, b, n_out)

    def test_all_zero_operands(self):
        zeros = [0] * (LONG + 5)
        ones = [1] * (LONG + 5)
        for a, b in ((zeros, ones), (ones, zeros), (zeros, zeros)):
            assert _int_conv(a, b, 2 * LONG) == [0] * (2 * LONG)
            assert _kronecker_conv(a, b, 3) == [0, 0, 0]

    def test_fractions_above_the_threshold_stay_fractions(self):
        a = [Fraction(k, 3) for k in range(LONG + 5)]
        out = _int_conv(a, a, LONG + 5)
        assert out == _schoolbook_conv(a, a, LONG + 5)
        assert all(type(v) is Fraction for v in out)
        mixed = [1] * (LONG + 5)
        mixed[7] = Fraction(1, 2)
        assert _int_conv(mixed, a, LONG) == naive_product(mixed, a, LONG)

    @pytest.mark.parametrize("e", [1, 2, 3, 5, 24])
    def test_power_is_repeated_product(self, e):
        a = [1, -2, 0, 5, 0, 0, 3]
        for n_out in (0, 1, 4, 60):
            want = [1] + [0] * (n_out - 1) if n_out else []
            for _ in range(e):
                want = _schoolbook_conv(want, a, n_out)
            assert _int_power(a, e, n_out) == want


class TestOperandScans:
    def test_each_operand_is_read_once_for_type_and_size(self, monkeypatch):
        # one scan per operand, one for a square, finds the type and the
        # largest entry that fix the packed path and its slot width
        read = []
        monkeypatch.setattr(qseries, "index", lambda x: read.append(x) or operator.index(x))
        a, b = list(range(-3, LONG + 2)), [7, 0, -2] * LONG
        full = len(a) + len(b) - 1
        assert _int_conv(a, b, full) == _schoolbook_conv(a, b, full)
        assert len(read) == len(a) + len(b)
        read.clear()
        assert _int_conv(a, a, LONG + 1) == _schoolbook_conv(a, a, LONG + 1)
        assert len(read) == LONG + 1

    def test_a_fraction_anywhere_keeps_the_loop(self, monkeypatch):
        taken = spy_slot_paths(monkeypatch)
        for at in (0, LONG // 2, LONG + 4):
            a = [3] * (LONG + 5)
            a[at] = Fraction(1, 3)
            for x, y in ((a, a[::-1]), ([2] * (LONG + 5), a), (a, a)):
                out = _int_conv(x, y, LONG + 5)
                assert out == naive_product(x, y, LONG + 5)
                assert all(type(v) is Fraction for v in out[at:])
        assert taken == []


class TestSlotWidths:
    """The packed product at every slot width from one byte to past a machine
    word, against the schoolbook loop."""

    @PROPERTY
    @given(st.integers(1, 9), st.integers(1, 14), st.integers(1, 14), st.booleans(),
           st.data())
    def test_every_width_matches_schoolbook(self, width, len_a, len_b, square, data):
        # entries up to v in size, v^2 min(len) as close under the width's
        # product bound 2^(8 width - 1) - 1 as a square allows; a square
        # passes one list object as both operands
        if square:
            len_b = len_a
        v = math.isqrt((2 ** (8 * width - 1) - 1) // min(len_a, len_b))
        entry = st.one_of(st.just(0), st.just(0), st.sampled_from([v, -v]),
                          st.integers(-v, v))
        a = data.draw(st.lists(entry, min_size=len_a, max_size=len_a))
        a[data.draw(st.integers(0, len_a - 1))] = data.draw(st.sampled_from([v, -v]))
        if square:
            b = a
        else:
            b = data.draw(st.lists(entry, min_size=len_b, max_size=len_b))
            b[data.draw(st.integers(0, len_b - 1))] = data.draw(st.sampled_from([v, -v]))
        assert (v * v * min(len_a, len_b)).bit_length() // 8 + 1 == width
        full = len_a + len_b - 1
        for n_out in (0, 1, full - 1, full, full + 3, data.draw(st.integers(0, 30))):
            out = _kronecker_conv(a, b, n_out)
            assert out == _schoolbook_conv(a, b, n_out)
            assert all(type(x) is int for x in out)

    @pytest.mark.parametrize("width", range(1, 10))
    def test_product_bound_at_the_slot_limit(self, width, monkeypatch):
        # max|a| max|b| min(len) = 2^(8 width - 1) - 1 exactly, and every
        # product coefficient is that bound or its negative; every width
        # takes the binary slots (one packed term is far below the decimal
        # threshold)
        taken = spy_slot_paths(monkeypatch)
        top = 2 ** (8 * width - 1) - 1
        b = [top, -top, 0, 0, top, -top, -top]
        for a in ([1], [-1]):
            for n_out in (3, len(b), len(b) + 4):
                assert _kronecker_conv(a, b, n_out) == _schoolbook_conv(a, b, n_out)
        assert taken == [("_binary_slot_product", width, False)] * 6
        # a square of 7 terms +-v, whose middle coefficient 7 v^2 is as close
        # under the bound as a square allows, and with v + 1 a byte wider
        v = math.isqrt(top // 7)
        for entry, want in ((v, width), (v + 1, width + 1)):
            a = [entry, -entry] * 3 + [entry]
            taken.clear()
            for n_out in (3, len(a), 2 * len(a) - 1, 2 * len(a) + 2):
                out = _kronecker_conv(a, a, n_out)
                assert out == _schoolbook_conv(a, a, n_out)
                assert all(type(x) is int for x in out)
            assert out[6] == 7 * entry * entry
            assert taken == [("_binary_slot_product", want, True)] * 4

    @pytest.mark.parametrize("digits", [20, 21, 40, 155, 600])
    def test_product_bound_at_the_decimal_slot_limit(self, digits, monkeypatch):
        # max|a| max|b| min(len) = H - 1 with H = 10^digits / 2: the product's
        # slots hold H - 1 + H = 10^digits - 1 and -(H - 1) + H = 1, the
        # largest and smallest values of a slot of that many digits; one more
        # takes a digit more
        monkeypatch.setattr(qseries, "_DECIMAL_MIN_BITS", 0)
        taken = spy_slot_paths(monkeypatch)
        half = 5 * 10 ** (digits - 1)
        for top, want in ((half - 1, digits), (half, digits + 1)):
            b = [top, -top, 0, 0, top, -top, -top]
            taken.clear()
            for a in ([1], [-1]):
                for n_out in (0, 1, len(b) - 1, len(b), len(b) + 3):
                    out = _kronecker_conv(a, b, n_out)
                    assert out == _schoolbook_conv(a, b, n_out)
                    assert all(type(v) is int for v in out)
            assert taken == [("_decimal_slot_product", want, False)] * 10
        # a square of 7 terms +-v, whose middle coefficient 7 v^2 is as close
        # under H - 1 as a square allows, and with v + 1 a digit wider
        v = math.isqrt((half - 1) // 7)
        for entry, want in ((v, digits), (v + 1, digits + 1)):
            a = [entry, -entry] * 3 + [entry]
            taken.clear()
            for n_out in (1, len(a), 2 * len(a) - 1, 2 * len(a) + 2):
                out = _kronecker_conv(a, a, n_out)
                assert out == _schoolbook_conv(a, a, n_out)
                assert all(type(x) is int for x in out)
            assert out[6] == 7 * entry * entry
            assert taken == [("_decimal_slot_product", want, True)] * 4


def spy_slot_paths(monkeypatch) -> list:
    """Wrap the two slot products; the list records (name, slot size, whether
    both operands are one object) per call."""
    taken = []
    for name in ("_binary_slot_product", "_decimal_slot_product"):
        real = getattr(qseries, name)

        def spy(a, b, size, k, real=real, name=name):
            taken.append((name, size, b is a))
            return real(a, b, size, k)

        monkeypatch.setattr(qseries, name, spy)
    return taken


def global_number_state():
    """What a product must leave as it found it: the thread's decimal context
    (the object, its settings and its flags) and the int/str digit limit."""
    ctx = decimal.getcontext()
    return ctx, repr(ctx), sys.get_int_max_str_digits()


# entries of up to 900 bits, either sign, many zeros: slots past 8 bytes
HUGE = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2 ** 900, 2 ** 900))


class TestDecimalSlots:
    """The decimal-slot product, with its bit threshold patched low, against
    the schoolbook loop."""

    @PROPERTY
    @given(st.lists(HUGE, min_size=LONG, max_size=LONG + 30),
           st.lists(HUGE, min_size=LONG, max_size=LONG + 30), st.integers(2 ** 64, 2 ** 900))
    def test_int_conv_matches_schoolbook(self, a, b, big):
        a[0], b[-1] = big, -big  # slots past a machine word
        full = len(a) + len(b) - 1
        state = global_number_state()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qseries, "_DECIMAL_MIN_BITS", 64)
            taken = spy_slot_paths(mp)
            for n_out in (0, 1, full - 1, full, full + 3):
                out = _int_conv(a, b, n_out)
                assert out == _schoolbook_conv(a, b, n_out)
                assert len(out) == n_out and all(type(v) is int for v in out)
                assert global_number_state() == state
        # n_out = 0 and 1 cut the operands below the packing threshold; every
        # int pair at LONG terms or more packs, however few its nonzero terms
        assert [name for name, _, _ in taken] == ["_decimal_slot_product"] * 3

    def test_wide_j_product_takes_decimal_slots(self, monkeypatch):
        # E4^3 (q / Delta) at 804 terms: 72-byte slots, 4.6e5 bits per operand
        n = 804
        e4 = _e4_int_coeffs(n)
        e12 = _int_conv(_int_conv(e4, e4, n), e4, n)
        inv = _miller_power(euler_phi_int_coeffs(n), -24, n)
        taken = spy_slot_paths(monkeypatch)
        state = global_number_state()
        out = _int_conv(e12, inv, n)
        assert global_number_state() == state
        assert taken == [("_decimal_slot_product", 172, False)]
        assert out == qseries._binary_slot_product(e12, inv, 72, n)
        assert out[:4] == [1, 744, 196884, 21493760]  # q (J + 744)

    @pytest.mark.parametrize("limit, value_digits, path", [
        (640, 637, "_binary_slot_product"),   # slots of 640 digits: at the limit
        (640, 700, "_binary_slot_product"),   # and past it
        (640, 636, "_decimal_slot_product"),  # 639 digits: below it
        (0, 637, "_decimal_slot_product"),    # 0 is no limit
        (0, 700, "_decimal_slot_product")])
    def test_slots_at_the_int_str_limit_take_bytes(self, limit, value_digits, path,
                                                   monkeypatch):
        # 100 x 100 terms of 10^value_digits: the bound 2 * 100 * 10^value_digits
        # has value_digits + 3 digits, and the operands pack past 2e5 bits
        a, b = [1] * 100, [10 ** value_digits, -(10 ** value_digits)] * 50
        taken = spy_slot_paths(monkeypatch)
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(limit)
            out = _int_conv(a, b, 199)
            assert out == _schoolbook_conv(a, b, 199)
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(old)
        assert [name for name, _, _ in taken] == [path]


class TestSparseInverse:
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_sparse_phi_of_q_k(self, k):
        n = 400
        phi = [0] * n
        phi[::k] = euler_phi_int_coeffs(len(range(0, n, k)))
        inv = _int_series_inverse(phi, n)
        assert all(type(v) is int for v in inv)
        assert inv[:120] == naive_inverse(phi, 120)
        assert _int_conv(phi, inv, n) == [1] + [0] * (n - 1)

    @PROPERTY
    @given(st.sampled_from([1, -1]), st.lists(WIDE, min_size=0, max_size=30),
           st.integers(0, 34))
    def test_dense_and_sparse_int_input(self, c0, tail, n_out):
        a = [c0] + tail
        inv = _int_series_inverse(a, n_out)
        assert inv == naive_inverse(a, n_out)
        assert all(type(v) is int for v in inv)


class TestMillerPower:
    """Miller's power recurrence against repeated squaring and the inverse."""

    @pytest.mark.parametrize("n", [1, 2, 40, 1000])
    def test_negative_powers_of_phi(self, n):
        phi = euler_phi_int_coeffs(n)
        inv = _int_series_inverse(phi, n)
        for c in range(-24, 0):
            assert _miller_power(phi, c, n) == _int_power(inv, -c, n), c

    @pytest.mark.parametrize("c", [0, 1, 2, 8, 24])
    def test_nonnegative_powers_of_phi(self, c):
        phi = euler_phi_int_coeffs(300)
        want = [1] + [0] * 299 if c == 0 else _int_power(phi, c, 300)
        assert _miller_power(phi, c, 300) == want

    @PROPERTY
    @given(st.lists(WIDE, max_size=20), st.integers(-5, 5), st.integers(0, 24))
    def test_unit_led_int_series(self, tail, e, n_out):
        h = [1] + tail
        base = h if e >= 0 else _int_series_inverse(h, n_out)
        want = _int_power(base, abs(e), n_out) if e else [1] + [0] * (n_out - 1)
        out = _miller_power(h, e, n_out)
        assert out == want[:n_out]
        assert all(type(v) is int for v in out)

    def test_inexact_division_raises(self):
        # a non-integral h makes m u_m indivisible by m at m = 1; no rounding
        with pytest.raises(ArithmeticError):
            _miller_power([1, Fraction(1, 2)], -1, 3)
        with pytest.raises(ValueError):
            _miller_power([2, 1], -1, 3)

    def test_j_matches_the_dense_inverse_route(self):
        # the dense-inverse route: E4^3 times the series inverse of Delta / q
        n = 1002
        e4 = _e4_int_coeffs(n)
        e12 = _int_conv(_int_conv(e4, e4, n), e4, n)
        want = _int_conv(e12, _int_series_inverse(delta_int_coeffs(n), n), n)
        want[1] -= 744
        assert j_int_coeffs(1000) == want


class TestPhiPowers:
    """Jacobi's phi^3, the table of powers of phi, and E8 = E4^2."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3000])
    def test_jacobi_cube_is_the_cube_of_phi(self, n):
        assert _phi_cube_int_coeffs(n) == _int_power(euler_phi_int_coeffs(n), 3, n)

    def test_table_holds_each_power_to_its_length(self):
        # 12 is asked for at a greater length than 24 needs of it, 5 and 9
        # are odd, 9 a power of phi^3, and the negative powers use Miller
        sizes = {24: 300, 12: 500, 8: 40, 5: 200, 9: 100, -3: 150, -24: 60, 1: 7}
        table = _phi_power_table(sizes)
        for c, n in sizes.items():
            phi = euler_phi_int_coeffs(n)
            want = _miller_power(phi, c, n) if c < 0 else _int_power(phi, c, n)
            assert len(table[c]) >= n and table[c][:n] == want, c

    @pytest.mark.parametrize("sizes, products", [
        ({24: 200}, 3),                                   # phi^3 squared three times
        ({1: 200, 2: 200, 4: 200, 8: 200}, 3),             # phi squared three times
        ({24: 200, 12: 100, 8: 200, 6: 200, 4: 200, 3: 200, 2: 200, 1: 200}, 6)])
    def test_an_even_power_is_the_square_of_its_half(self, sizes, products, monkeypatch):
        calls = []
        real = qseries._int_conv
        monkeypatch.setattr(qseries, "_int_conv",
                            lambda a, b, n: calls.append(a is b) or real(a, b, n))
        _phi_power_table(sizes)
        assert calls == [True] * products

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_e8_is_the_square_of_e4(self, n):
        e4 = _e4_int_coeffs(n)
        assert _e8_int_coeffs(n) == _int_conv(e4, e4, n)


class TestOracles:
    def test_eta_pentagonal_leading_terms(self):
        f = eta(6)
        base = Fraction(1, 24)
        assert f.coeff(base) == 1
        assert f.coeff(base + 1) == -1
        assert f.coeff(base + 2) == -1
        assert f.coeff(base + 5) == 1
        assert f.coeff(base + 3) == 0

    def test_euler_phi_is_eta_without_prefactor(self):
        # brute-force product expansion oracle
        n = 40
        prod = [0] * n
        prod[0] = 1
        for k in range(1, n):
            new = prod[:]
            for i in range(n - k):
                new[i + k] -= prod[i]
            prod = new
        assert euler_phi_int_coeffs(n) == prod

    def test_delta_tau_values(self):
        tau = delta_int_coeffs(7)
        assert tau[:6] == [1, -24, 252, -1472, 4830, -6048]

    def test_delta_is_eta_24(self):
        # against the log-derivative recurrence of eta^24, which runs no
        # product; at 120 terms delta's power runs the packed kernel
        n = 120
        d = delta(n + 1)
        assert d.coeff_range(1, n) == frames._log_derivative_coeffs({1: 24}, n - 1)

    def test_e4_leading(self):
        e4 = eisenstein_e4(4)
        assert e4.coeff(0) == 1 and e4.coeff(1) == 240 and e4.coeff(2) == 2160

    def test_j_first_coefficients(self):
        J = j_oracle(5)
        assert J.coeff(-1) == 1 and J.coeff(0) == 0
        assert [J.coeff(k) for k in range(1, 5)] == [
            196884, 21493760, 864299970, 20245856256]

    def test_j_small_coefficients_positive_integers(self):
        J = j_oracle(25)
        for k in range(1, 25):
            c = J.coeff(k)
            assert c.denominator == 1 and c > 0

    def test_j_int_coeffs_agrees(self):
        J = j_oracle(30)
        ints = j_int_coeffs(30)
        assert ints[0] == 1 and ints[1] == 0
        assert all(J.coeff(k) == ints[k + 1] for k in range(1, 29))

