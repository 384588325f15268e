"""The library's input checks, one parametrized test per module.

Each case is a call and its outcome: an error whose message names the check,
or the value a guard returns in place of what the unguarded code would do.
Each case fails if the check it names is deleted.  Two statements stay
unreached: the big-endian ``byteswap`` lines of the slot kernels, which run
only on a big-endian host, and the last ``return None`` of
``replicable._case_reducing_pair``, which no grade up to 500 reaches.
"""

import re
from fractions import Fraction

import pytest

from replicaq.faber import faber_by_elimination
from replicaq.frames import (FrameShapeError, classify_degree24, eta_product, euler_factor_check,
                             is_balanced, parse_frame_shape)
from replicaq.functions import SpecError, parse_function_spec
from replicaq.grunsky import bivariate_log_coefficients, grunsky_from_faber
from replicaq.hecke import up, _rule_for
from replicaq.qseries import QSeries, GridError, TruncationError, eta, j_oracle
from replicaq.replicable import (NORTON_BASIS, ReplicationFamily, exhaustive_reducing_pair,
                                 find_reducing_pair, reconstruct_by_grunsky,
                                 reconstruct_from_basis, replicate)


def check(call, error, expected):
    """call() equals ``expected``, or, when ``error`` is given, raises it with
    ``expected`` in its message."""
    if error is None:
        assert call() == expected
    else:
        with pytest.raises(error, match=re.escape(expected)):
            call()


F = QSeries(-1, 1, [1, 0, 5], 3)


@pytest.mark.parametrize("call, error, expected", [
    (lambda: QSeries(0, 0, [1], 5), ValueError, "step must be positive"),
    (lambda: QSeries(0, -1, [1], 5), ValueError, "step must be positive"),
    (lambda: F.truncate(4), TruncationError, "cannot extend"),
    (lambda: QSeries(0, 1, [], 5).invert(), ZeroDivisionError, "cannot invert"),
    (lambda: F.substitute(0), ValueError, "substitution exponent must be positive"),
    (lambda: F.substitute(Fraction(1, 48)), GridError, "leaves the 1/24 grid"),
    (lambda: eta(Fraction(1, 24)), ValueError, "trunc must exceed 1/24"),
    (lambda: F == QSeries(-1, 1, [1, 0, 5], 4), None, False),
    (lambda: repr(F), None, "QSeries(1*q^(-1) + 5*q^(1) + O(q^3))"),
    (lambda: repr(QSeries(-1, 1, range(1, 7), 9)), None,
     "QSeries(1*q^(-1) + 2*q^(0) + 3*q^(1) + 4*q^(2) + ... + O(q^9))"),
    (lambda: repr(QSeries(0, 1, [], 4)), None, "QSeries(0 + O(q^4))"),
    (lambda: 1 - F, None, QSeries(-1, 1, [-1, 1, -5], 3)),
    (lambda: F.__eq__("F"), None, NotImplemented),
    (lambda: F.__add__("F"), None, NotImplemented),
    (lambda: F.__mul__("F"), None, NotImplemented),
    (lambda: F.__pow__(Fraction(1, 2)), None, NotImplemented),
], ids=["step 0", "step -1", "truncate past trunc", "invert zero", "substitute 0",
        "substitute off the grid", "eta at 1/24", "eq at another order",
        "repr", "repr of many terms", "repr of zero", "rsub", "eq str", "add str", "mul str",
        "pow half"])
def test_qseries(call, error, expected):
    check(call, error, expected)


TAU = eta_product(parse_frame_shape("1^24"), 60)


@pytest.mark.parametrize("call, error, expected", [
    (lambda: eta_product(parse_frame_shape("1^8/4^8"), -1), None, QSeries(0, 1, [], -1)),
    (lambda: classify_degree24(99), ValueError, "screening bound must be at least 100"),
    (lambda: euler_factor_check(TAU.truncate(4), 2, 12), ValueError,
     "truncation 4 too small to see p^2 = 4"),
    # b_2 = a_2^2 - a_4 still holds, but c(8) breaks c(p^3) = a_p c(p^2) - b_p c(p)
    (lambda: euler_factor_check(TAU + QSeries(8, 1, [1], 60), 2, 12), None, False),
    (lambda: euler_factor_check(TAU, 0, 12), ValueError, "p must be a prime, not 0"),
    (lambda: euler_factor_check(TAU, 1, 12), ValueError, "p must be a prime, not 1"),
    (lambda: euler_factor_check(TAU, 4, 12), ValueError, "p must be a prime, not 4"),
    (lambda: euler_factor_check(TAU, -2, 12), ValueError, "p must be a prime, not -2"),
    (lambda: is_balanced((0, 5)), FrameShapeError, "a part must be an int >= 1, not 0"),
    (lambda: is_balanced((2.5, 2)), FrameShapeError, "a part must be an int >= 1, not 2.5"),
], ids=["eta product with no term below trunc", "classify_degree24(99)",
        "euler factor below p^2", "euler factor power recurrence", "euler factor at 0",
        "euler factor at 1", "euler factor at 4", "euler factor at -2", "is_balanced part 0",
        "is_balanced part 2.5"])
def test_frames(call, error, expected):
    check(call, error, expected)


@pytest.mark.parametrize("call, error, expected", [
    (lambda: faber_by_elimination(j_oracle(10) * 2, 3), ValueError,
     "elimination needs a normalized series"),
    (lambda: faber_by_elimination(j_oracle(10) + 1, 3), ValueError,
     "elimination needs a normalized series"),
    (lambda: faber_by_elimination(QSeries(-2, 1, [1, 0, 0, 5], 10), 3), ValueError,
     "elimination needs a normalized series"),
    (lambda: faber_by_elimination(QSeries(-1, Fraction(1, 2), [1, 3], 10), 3), ValueError,
     "elimination needs a normalized series"),
    (lambda: faber_by_elimination(j_oracle(3), 3), TruncationError, "need trunc >= 4, have 3"),
], ids=["not normalized", "constant term", "double pole", "term at q^(-1/2)", "too short"])
def test_faber(call, error, expected):
    check(call, error, expected)


@pytest.mark.parametrize("call, error, expected", [
    (lambda: grunsky_from_faber(j_oracle(10) + 1, 8), ValueError,
     "Grunsky extraction needs a normalized series"),
    (lambda: bivariate_log_coefficients(j_oracle(5), 8), TruncationError,
     "need trunc >= 8, have 5"),
], ids=["grunsky_from_faber not normalized", "bivariate too short"])
def test_grunsky(call, error, expected):
    check(call, error, expected)


@pytest.mark.parametrize("call, error, expected", [
    (lambda: up(QSeries(-1, Fraction(1, 2), [1, 0, 3], 4), 2), ValueError,
     "Hecke operators here act on integer exponent grids"),
    (lambda: up(QSeries(Fraction(-1, 2), 1, [1, 3], 4), 2), ValueError,
     "Hecke operators here act on integer exponent grids"),
    (lambda: up(j_oracle(10), 0), ValueError, "p must be positive"),
    (lambda: _rule_for(5), ValueError, "rules start at a_6"),
], ids=["half-integer step", "half-integer lead", "up(f, 0)", "_rule_for(5)"])
def test_hecke(call, error, expected):
    check(call, error, expected)


@pytest.mark.parametrize("call, error, expected", [
    (lambda: parse_function_spec("fiction:x"), SpecError, "must look like fiction:c=1"),
    (lambda: parse_function_spec("fiction:c=a"), SpecError, "bad fiction parameter"),
    (lambda: parse_function_spec("eta:1^x"), SpecError, "bad frame-shape token '1^x'"),
    (lambda: parse_function_spec("theta:1"), SpecError, "unrecognized function spec 'theta:1'"),
], ids=["fiction:x", "fiction:c=a", "eta with a bad shape", "unknown head"])
def test_functions(call, error, expected):
    check(call, error, expected)


J_BASIS = {k: j_oracle(24).coeff(k) for k in NORTON_BASIS}


@pytest.mark.parametrize("call, error, expected", [
    (lambda: ReplicationFamily(j_oracle(10), {2: j_oracle(10)}).power(3), KeyError,
     "replicate f^(3) missing from family"),
    # power(1) is the base, so a power held at 1 would contradict it
    (lambda: ReplicationFamily(j_oracle(10), {1: j_oracle(10) * j_oracle(10)}), ValueError,
     "replicate index must be an int >= 2, not 1"),
    (lambda: ReplicationFamily(j_oracle(10), {0: j_oracle(10)}), ValueError,
     "replicate index must be an int >= 2, not 0"),
    (lambda: ReplicationFamily(j_oracle(10), {"2": j_oracle(10)}), ValueError,
     "replicate index must be an int >= 2, not '2'"),
    # a value off the basis was taken as an override (a_6 = 999) or ignored
    (lambda: reconstruct_from_basis({**J_BASIS, 6: 999}, 10), ValueError,
     "values given for k in [6], outside the Norton basis"),
    (lambda: reconstruct_by_grunsky({**J_BASIS, 6: 999}, 10), ValueError,
     "values given for k in [6], outside the Norton basis"),
    (lambda: reconstruct_from_basis({**J_BASIS, 0: 1, 99: 1, "x": 1}, 10), ValueError,
     "values given for k in [0, 99, 'x'], outside the Norton basis"),
    (lambda: replicate(j_oracle(10), 0, 5), ValueError, "replicate index must be positive"),
    (lambda: find_reducing_pair(1), ValueError, "grade must be at least 2"),
    (lambda: exhaustive_reducing_pair(1), ValueError, "grade must be at least 2"),
    (lambda: exhaustive_reducing_pair(0), ValueError, "grade must be at least 2"),
    (lambda: exhaustive_reducing_pair(-3), ValueError, "grade must be at least 2"),
], ids=["missing power", "power at 1", "power at 0", "power at '2'", "basis value at 6",
        "basis value at 6 by grunsky", "basis values at 0, 99, x", "replicate(f, 0, n)",
        "find_reducing_pair(1)", "exhaustive_reducing_pair(1)", "exhaustive_reducing_pair(0)",
        "exhaustive_reducing_pair(-3)"])
def test_replicable(call, error, expected):
    check(call, error, expected)
