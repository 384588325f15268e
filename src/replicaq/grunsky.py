"""Grunsky coefficient tables by three independent routes.

h_{m,n} is read off the Faber rows F_n(f) = q^-n + n sum_m h_{m,n} q^m, or
built by Norton's recursion, or checked against the bivariate log generating
function.  Tables are keyed by unordered pair, which makes the m <-> n
symmetry structural; the symmetry test in the suite bypasses storage on
purpose.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Optional, Sequence, Tuple, Union

from .qseries import QSeries, TruncationError, _as_fraction
from .faber import _FaberRows, _coeff_list, _ordered


class GrunskyTable:
    """h_{m,n} below a grade bound, keyed by the ordered pair (min, max).
    Mutable, so it compares by value and has no hash."""

    key = staticmethod(_ordered)

    def __init__(self, grade_bound: int,
                 entries: Optional[Dict[Tuple[int, int], Fraction]] = None):
        self.grade_bound = grade_bound
        self.entries = {} if entries is None else entries

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.grade_bound, self.entries) == (other.grade_bound, other.entries)

    def __repr__(self) -> str:
        return f"GrunskyTable(grade_bound={self.grade_bound!r}, entries={self.entries!r})"

    def get(self, m: int, n: int) -> Fraction:
        return self.entries[self.key(m, n)]

    def set(self, m: int, n: int, value) -> None:
        self.entries[self.key(m, n)] = _as_fraction(value)

    def pairs(self):
        return sorted(self.entries)


def _table(h, grade: int) -> GrunskyTable:
    """The table of grade ``grade`` filled from an engine's h(m, n)."""
    t = GrunskyTable(grade)
    for m in range(1, grade):
        for n in range(m, grade - m + 1):
            t.set(m, n, h(m, n))
    return t


class GrunskyCalculator:
    """Memoized h_{r,s} by Norton's recursion over [a_1, ..., a_top].

    h_{r,s} = a_{r+s-1}
            + 1/(r+s) * sum_{m<r, n<s} a_{m+n-1} (r+s-m-n) h_{r-m, s-n},
    so an entry of grade g touches only a_k with k <= g - 1 and entries of
    strictly lower grade.

    The memo holds K_{r,s} = (r+s) h_{r,s} for r <= s.  With g = r + s,
    i = r - m and j = s - n the recursion reads
    K_{r,s} = g a_{g-1} + sum_{i<r, j<s} a_{g-1-i-j} K_{i,j},
    which divides by nothing: integral a give int K, and non-integral a_k
    enter as Fractions and keep the sums exact by promotion.  For integral a,
    gcd(r, s) h_{r,s} is an integer, so an int sum that g / gcd(r, s) leaves
    a remainder in raises ArithmeticError.  ``a`` holds a[k] = a_k with
    a[0] = 0, read through ``faber._coeff_list`` as ``faber._FaberRows``
    reads it, and a caller may append to it.  ``b``, ``h`` and ``correction``
    are the contract that ``faber._FaberRows`` answers too.
    """

    def __init__(self, coeffs: Sequence):
        self.a = _coeff_list(coeffs)
        self._memo: Dict[Tuple[int, int], Union[int, Fraction]] = {}

    def h(self, r: int, s: int) -> Fraction:
        r, s = _ordered(r, s)
        return Fraction(self._scaled(r, s), r + s)

    def b(self, r: int, s: int):
        """b_{r,s} = r h_{r,s} = r K / (r+s) in either argument order: an int
        when K is, since (r+s) / gcd(r, s) divides K and gcd(r, s) divides r."""
        g = r + s
        K = r * self._scaled(*_ordered(r, s))
        return K // g if type(K) is int else K / g

    def correction(self, r: int, s: int) -> Fraction:
        """h_{r,s} - a_{r+s-1}, the double sum of the recursion: it reads only
        a_k with k <= r + s - 2, so it is known before a_{r+s-1} is."""
        r, s = _ordered(r, s)
        return Fraction(self._scaled_sum(r, s), r + s)

    def table(self, grade: int) -> GrunskyTable:
        return _table(self.h, grade)

    def _coeffs(self, top: int) -> list:
        """``a``, which must hold a_top; raises TruncationError naming the
        first a_k it lacks."""
        a = self.a
        if len(a) <= top:
            raise TruncationError(f"needs a_{len(a)}, the list ends at a_{len(a) - 1}")
        return a

    def _scaled(self, r: int, s: int):
        """K_{r,s} = (r+s) h_{r,s} for r <= s, memoized."""
        got = self._memo.get((r, s))
        if got is None:
            g = r + s
            got = self._scaled_sum(r, s) + g * self._coeffs(g - 1)[g - 1]
            self._memo[(r, s)] = got
        return got

    def _scaled_sum(self, r: int, s: int):
        """K_{r,s} - (r+s) a_{r+s-1} for r <= s."""
        g = r + s
        a = self._coeffs(g - 3)
        memo, scaled = self._memo, self._scaled
        acc = 0
        for i in range(1, r):
            for j in range(1, s):
                key = (i, j) if i <= j else (j, i)
                K = memo.get(key)
                if K is None:
                    K = scaled(*key)
                acc += a[g - 1 - i - j] * K
        if type(acc) is int:
            rem = acc % (g // gcd(r, s))
            if rem:
                raise ArithmeticError(
                    f"Norton's recursion left remainder {rem} at h_{{{r},{s}}}")
        return acc


def grunsky_by_recursion(coeffs: Sequence, grade: int) -> GrunskyTable:
    return GrunskyCalculator(coeffs).table(grade)


def grunsky_from_faber(f: QSeries, grade: int) -> GrunskyTable:
    """h_{m,n} = [q^n] F_m(f) / m for m <= n, read off the Faber rows of f,
    which need a_1..a_{grade-1} only.  The table reads row m to entry
    grade - m for m <= grade // 2, so one ``extend`` grows every row once."""
    if not f.is_normalized():
        raise ValueError("Grunsky extraction needs a normalized series")
    if f.trunc < grade:
        raise TruncationError(f"need trunc >= {grade}, have {f.trunc}")
    rows = _FaberRows(f.coeff_range(1, grade - 1))
    rows.extend(grade // 2, grade - grade // 2)
    return _table(rows.h, grade)


# -- bivariate generating function ---------------------------------------

def _bi_trunc_mul(x: dict, y: dict, grade: int) -> dict:
    out: dict = {}
    for (i1, j1), a in x.items():
        for (i2, j2), b in y.items():
            i, j = i1 + i2, j1 + j2
            if i + j <= grade:
                key = (i, j)
                out[key] = out.get(key, 0) + a * b
    return {k: v for k, v in out.items() if v}


def bivariate_log_coefficients(f: QSeries, grade: int) -> dict:
    """Coefficients of -ln((f(p) - f(q)) / (1/p - 1/q)) as {(n_p, m_q): value}.

    (f(p) - f(q)) / (1/p - 1/q) = 1 + u, u = -sum_k a_k sum_{s+t=k-1} p^(s+1) q^(t+1),
    which is the rearranged single-sum form of the generating function.  The
    powers of u stay in ints on integral a_k; the values come back as Fractions.
    """
    if f.trunc < grade:
        raise TruncationError(f"need trunc >= {grade}, have {f.trunc}")
    u: dict = {}
    for k, ak in enumerate(f.coeff_range(1, grade - 1), 1):
        if ak:
            for s in range(1, k + 1):
                u[(s, k + 1 - s)] = -ak
    # -ln(1 + u) = sum_{j>=1} (-1)^j u^j / j
    result: dict = {}
    power = dict(u)
    j = 1
    while power:
        sign = Fraction((-1) ** j, j)
        for key, v in power.items():
            result[key] = result.get(key, 0) + sign * v
        j += 1
        power = _bi_trunc_mul(power, u, grade)
    return {k: v for k, v in result.items() if v}


def bivariate_comparisons(f: QSeries, grade: int, table: GrunskyTable):
    """((m, n), log coefficient, h_{m,n}) for m + n <= grade: the bivariate
    log expansion of f against a Grunsky table, entry by entry."""
    coeffs = bivariate_log_coefficients(f, grade)
    return (((m, n), coeffs.get((n, m), Fraction(0)), table.get(m, n))
            for m in range(1, grade) for n in range(1, grade - m + 1))


def grunsky_bivariate_check(f: QSeries, grade: int, table: GrunskyTable) -> bool:
    """True iff the bivariate log expansion matches the table."""
    return all(got == want for _, got, want in bivariate_comparisons(f, grade, table))


def denominator_bound_violations(t: GrunskyTable) -> list:
    """Pairs where gcd(m,n) * h_{m,n} is not an integer (expected empty)."""
    bad = []
    for (m, n), h in t.entries.items():
        if (h * gcd(m, n)).denominator != 1:
            bad.append((m, n, h))
    return bad
