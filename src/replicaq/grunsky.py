"""Grunsky coefficient tables by three independent routes.

h_{m,n} is read off the Faber rows F_n(f) = q^-n + n sum_m h_{m,n} q^m, or
built by Norton's recursion, or checked against the bivariate log generating
function.  Tables are keyed by unordered pair, which makes the m <-> n
symmetry structural; the symmetry test in the suite bypasses storage on
purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Tuple

from .qseries import QSeries, TruncationError, _as_fraction
from .faber import CoeffSource, _FaberRows, _coeff_accessor


@dataclass
class GrunskyTable:
    grade_bound: int
    entries: Dict[Tuple[int, int], Fraction] = field(default_factory=dict)

    def key(self, m: int, n: int) -> Tuple[int, int]:
        return (m, n) if m <= n else (n, m)

    def get(self, m: int, n: int) -> Fraction:
        return self.entries[self.key(m, n)]

    def set(self, m: int, n: int, value) -> None:
        self.entries[self.key(m, n)] = _as_fraction(value)

    def pairs(self):
        return sorted(self.entries)


class GrunskyCalculator:
    """Memoized h_{r,s} by Norton's recursion over a coefficient source.

    h_{r,s} = a_{r+s-1}
            + 1/(r+s) * sum_{m<r, n<s} a_{m+n-1} (r+s-m-n) h_{r-m, s-n},
    so an entry of grade g touches only a_k with k <= g - 1 and entries of
    strictly lower grade.
    """

    def __init__(self, a: CoeffSource):
        self._a = _coeff_accessor(a)
        self._memo: Dict[Tuple[int, int], Fraction] = {}

    def h(self, r: int, s: int) -> Fraction:
        if r > s:
            r, s = s, r
        key = (r, s)
        got = self._memo.get(key)
        if got is not None:
            return got
        total = self._a(r + s - 1) + self.correction(r, s)
        self._memo[key] = total
        return total

    def correction(self, r: int, s: int) -> Fraction:
        """h_{r,s} - a_{r+s-1}, the double sum of the recursion: it reads only
        a_k with k <= r + s - 2, so it is known before a_{r+s-1} is."""
        a, g = self._a, r + s
        acc = Fraction(0)
        for m in range(1, r):
            for n in range(1, s):
                acc += a(m + n - 1) * (g - m - n) * self.h(r - m, s - n)
        return acc / g

    def table(self, grade: int) -> GrunskyTable:
        t = GrunskyTable(grade)
        for m in range(1, grade):
            for n in range(m, grade - m + 1):
                t.set(m, n, self.h(m, n))
        return t


def grunsky_by_recursion(a: CoeffSource, grade: int) -> GrunskyTable:
    return GrunskyCalculator(a).table(grade)


def grunsky_from_faber(f: QSeries, grade: int) -> GrunskyTable:
    """h_{m,n} = [q^n] F_m(f) / m for m <= n, read off the Faber rows of f,
    which need a_1..a_{grade-1} only."""
    if not f.is_normalized():
        raise ValueError("Grunsky extraction needs a normalized series")
    if f.trunc < grade:
        raise TruncationError(f"need trunc >= {grade}, have {f.trunc}")
    rows = _FaberRows.from_coeffs([f.coeff(k) for k in range(1, grade)])
    t = GrunskyTable(grade)
    for m in range(1, grade):
        for n in range(m, grade - m + 1):
            t.set(m, n, Fraction(rows.entry(m, n), m))
    return t


# -- bivariate generating function ---------------------------------------

def _bi_trunc_mul(x: dict, y: dict, grade: int) -> dict:
    out: dict = {}
    for (i1, j1), a in x.items():
        for (i2, j2), b in y.items():
            i, j = i1 + i2, j1 + j2
            if i + j <= grade:
                key = (i, j)
                out[key] = out.get(key, Fraction(0)) + a * b
    return {k: v for k, v in out.items() if v}


def bivariate_log_coefficients(f: QSeries, grade: int) -> dict:
    """Coefficients of -ln((f(p) - f(q)) / (1/p - 1/q)) as {(n_p, m_q): value}.

    (f(p) - f(q)) / (1/p - 1/q) = 1 - sum_k a_k sum_{s+t=k-1} p^(s+1) q^(t+1),
    which is the rearranged single-sum form of the generating function.
    """
    if f.trunc < grade:
        raise TruncationError(f"need trunc >= {grade}, have {f.trunc}")
    u: dict = {}
    for k in range(1, grade):
        ak = f.coeff(k)
        if ak:
            for s in range(k):
                t = k - 1 - s
                if s + t + 2 <= grade:
                    u[(s + 1, t + 1)] = u.get((s + 1, t + 1), Fraction(0)) - ak
    # -ln(1 + u) = sum_{j>=1} (-1)^j u^j / j
    result: dict = {}
    power = dict(u)
    j = 1
    while power:
        sign = Fraction((-1) ** j, j)
        for key, v in power.items():
            result[key] = result.get(key, Fraction(0)) + sign * v
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
    from math import gcd
    bad = []
    for (m, n), h in t.entries.items():
        if (h * gcd(m, n)).denominator != 1:
            bad.append((m, n, h))
    return bad
