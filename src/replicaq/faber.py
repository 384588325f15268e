"""Faber polynomials of a normalized series, by three routes, and the Faber
series F_n(f) row by row.

The recursion is the canonical construction; pole-killing elimination and the
Hessenberg determinant are independent verification paths.  The recursion is
derived from the log generating function and reproduces the classical closed
forms F_2 = z^2 - 2 a_1 and F_3 = z^3 - 3 a_1 z - 3 a_2.  ``_FaberRows`` runs
the same recursion on the q-expansions of F_n(f) and answers ``b``, ``h``
and ``correction`` as ``grunsky.GrunskyCalculator`` does, so the Faber route
to the Grunsky table, ``replicate`` and the basis descent take it as their
engine.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .qseries import QSeries, TruncationError, _as_fraction, _exact, _int_conv


class _FaberPolynomialFields(NamedTuple):
    n: int
    coeffs: tuple


class FaberPolynomial(_FaberPolynomialFields):
    """Monic polynomial of degree n; coeffs descending, length n + 1."""

    __slots__ = ()

    def __new__(cls, n: int, coeffs: tuple):
        if len(coeffs) != n + 1:
            raise ValueError(f"degree {n} needs {n + 1} coefficients, got {len(coeffs)}")
        if coeffs[0] != 1:
            raise ValueError(f"Faber polynomial must be monic, leads with {coeffs[0]}")
        return super().__new__(cls, n, coeffs)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __call__(self, f):
        """Evaluate at a rational or a QSeries, by Horner."""
        acc = None
        for c in self.coeffs:
            if acc is None:
                acc = f * 0 + c if isinstance(f, QSeries) else Fraction(c)
            else:
                acc = acc * f + c
        return acc


def _coeff_list(coeffs: Sequence, top: int = 0) -> list:
    """[0, a_1, a_2, ...] from [a_1, a_2, ...] of a normalized series, each a_k
    an int when integral and a Fraction otherwise, so the recursions over it
    run in ints on integral input and stay exact through int-Fraction
    promotion on any other.  Raises TruncationError naming the first a_k
    missing when the list stops short of a_top."""
    if len(coeffs) < top:
        raise TruncationError(f"needs a_{len(coeffs) + 1}, the list ends at a_{len(coeffs)}")
    return [0, *map(_exact, coeffs)]


def _ordered(r: int, s: int) -> tuple:
    """(min, max) of a Grunsky index pair; raises ValueError below index 1."""
    if min(r, s) < 1:
        raise ValueError(f"Grunsky indices start at 1, got h_{{{r},{s}}}")
    return (r, s) if r <= s else (s, r)


class _FaberRows:
    """Rows b_{n,m} = [q^m] F_n(f) = n h_{m,n} of the Faber series of f.

    ``a`` holds a[p] = a_p with a[0] = 0, read from [a_1, ..., a_top] through
    ``_coeff_list``, and is row 1 itself, so row 1 grows whenever a caller
    appends a coefficient to ``a``.  Row n follows from
    F_n = f F_{n-1} - n a_{n-1} - sum_{i=1}^{n-2} a_i F_{n-1-i}:

        b_{n,m} = a_{m+n-1} + b_{n-1,m+1} + sum_{p<m} a_p b_{n-1,m-p}
                  - sum_{i=1}^{n-2} a_i b_{n-1-i,m}      (m >= 1; b_{n,0} = 0),

    so row n up to entry m needs row n-1 up to entry m+1 and a up to a_{m+n-1}.
    Entries are ints when a is integral, and exact by int-Fraction promotion
    otherwise.
    """

    def __init__(self, coeffs: Sequence):
        self.a = _coeff_list(coeffs)
        self.rows = [None, self.a]

    def _sums(self, j: int):
        """e -> S_j(e) = sum_{p<e} a_p b_{j-1,e-p} - sum_{i=1}^{j-2} a_i b_{j-1-i,e},
        the sums of row j's recurrence, which read rows below j only."""
        a, rows = self.a, self.rows
        prev = rows[j - 1]
        lower = list(zip(a[1:j - 1], rows[j - 2:0:-1]))  # (a_i, row j-1-i)

        def s(e: int):
            acc = sum(map(mul, a[1:e], prev[e - 1:0:-1]))
            for ai, r in lower:
                acc -= ai * r[e]
            return acc
        return s

    def extend(self, n: int, m: int) -> list:
        """Row n grown to hold entry m; row j < n then holds entry m + n - j.
        A row that already holds entry m comes back as it is."""
        a, rows = self.a, self.rows
        if n < len(rows) and len(rows[n]) > m:
            return rows[n]
        if len(a) < m + n:
            raise TruncationError(f"Faber row {n} to q^{m} needs a_{m + n - 1}")
        while len(rows) <= n:
            rows.append([0])
        for j in range(2, n + 1):
            row, stop = rows[j], m + n - j + 1
            if len(row) < stop:
                prev, s = rows[j - 1], self._sums(j)
                for e in range(len(row), stop):
                    row.append(a[e + j - 1] + prev[e + 1] + s(e))
        return rows[n]

    def b(self, r: int, s: int):
        """b_{r,s} = [q^s] F_r(f) = r h_{r,s}, the stored row entry: an int
        when a is integral."""
        _ordered(r, s)
        return self.extend(r, s)[s]

    def h(self, r: int, s: int) -> Fraction:
        """h_{r,s} = b_{r,s} / r for r <= s, in either argument order."""
        r, s = _ordered(r, s)
        return Fraction(self.b(r, s), r)

    def correction(self, r: int, s: int) -> Fraction:
        """h_{r,s} - a_{r+s-1}, from a_1..a_{r+s-2} only, and not cached.

        With r <= s and g = r + s, a_{g-1} enters b_{r,s} with coefficient r:
        telescoping the row recurrence down to b_{1,g-1} = a_{g-1} leaves
        b_{r,s} - r a_{g-1} = sum_{j=2}^{r} S_j(g-j).
        """
        r, s = _ordered(r, s)
        if r > 1:
            self.extend(r - 1, s - 1)
        g = r + s
        return Fraction(sum(self._sums(j)(g - j) for j in range(2, r + 1)), r)


def _to_poly(ascending) -> FaberPolynomial:
    asc = list(ascending)
    n = len(asc) - 1
    return FaberPolynomial(n, tuple(_as_fraction(c) for c in reversed(asc)))


def faber_by_recursion(coeffs: Sequence, n: int) -> FaberPolynomial:
    """F_n = z F_{n-1} - n a_{n-1} - sum_{i=1}^{n-2} a_i F_{n-1-i}  (a_0 = 0),
    on dense ascending lists, in ints for integral a; the coefficients come
    back as Fractions."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    a = _coeff_list(coeffs, n - 1)
    polys = [[1]]
    for m in range(1, n + 1):
        cur = [0, *polys[m - 1]]
        if m >= 2:
            cur[0] -= m * a[m - 1]
            for i in range(1, m - 1):
                ai = a[i]
                for d, c in enumerate(polys[m - 1 - i]):
                    cur[d] -= ai * c
        polys.append(cur)
    return _to_poly(polys[n])


def faber_by_elimination(f: QSeries, n: int) -> FaberPolynomial:
    """Kill the terms of f^n at q^-j, 0 <= j < n, with lower powers of f.

    The powers f^j are coefficient lists on f's own grid, f^j at exponents
    -j + k*step for k < size, where size reaches exponent 0 in f^n.  The
    combination x = f^n - sum c_j f^j keeps to the grid of f^n: c_j is the
    coefficient of x at q^-j, which is nonzero only when -j lies on that grid
    (at index k = (n - j) / step), and then f^j, whose grid -j + k*step is the
    same one, is subtracted in place from index k on."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if not f.is_normalized():
        raise ValueError("elimination needs a normalized series q^-1 + O(q)")
    if f.trunc < n + 1:
        raise TruncationError(f"need trunc >= {n + 1}, have {f.trunc}")
    p, q = f.step.numerator, f.step.denominator
    size = n * q // p + 1
    base = f.coeffs[:size]
    base += [0] * (size - len(base))
    powers = [[1] + [0] * (size - 1)]
    for _ in range(n):
        powers.append(_int_conv(powers[-1], base, size))
    combo = powers[n]
    poly = [0] * n + [1]  # ascending
    for j in range(n - 1, -1, -1):
        k, off = divmod((n - j) * q, p)
        c = 0 if off else combo[k]
        if c:
            for i, x in enumerate(powers[j][:size - k], k):
                combo[i] -= c * x
            poly[j] = -c
    return _to_poly(poly)


def faber_by_determinant(coeffs: Sequence, n: int) -> FaberPolynomial:
    """det(z I - A_n) for the shifted Hessenberg matrix with b_1 = 0, b_k = a_{k-1}.

    Evaluated by Berkowitz's division-free algorithm on the scalar matrix, so
    this path shares no arithmetic with the recursion.  With no division,
    integral input stays in ints and any other input stays exact by promotion.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    b = [0, *_coeff_list(coeffs, n - 1)[:n]]  # b[k] = b_k = a_{k-1}, a_0 = 0
    # 1-based: A[i][1] = i b_i, A[i][j] = b_{i-j+1} for 1 < j <= i, A[i][i+1] = 1
    A = [[(i * b[i] if j == 1 else b[i - j + 1]) if j <= i else int(j == i + 1)
          for j in range(1, n + 1)] for i in range(1, n + 1)]
    return _to_poly(reversed(_charpoly(A)))


def _charpoly(A) -> list:
    """det(z I - A), descending, by Berkowitz's algorithm (Inf. Process. Lett.
    18, 1984).  With A_k the trailing principal submatrix from row k, split as
    [[a_kk, R], [C, M]] with M = A_{k+1}, the coefficients of det(z I - A_k)
    are the lower-triangular Toeplitz matrix with first column
    [1, -a_kk, -R C, -R M C, -R M^2 C, ...] times those of det(z I - M): a
    truncated Cauchy product.  The empty matrix gives [1]."""
    n = len(A)
    p = [1]
    for k in range(n - 1, -1, -1):
        R, C = A[k][k + 1:], [A[i][k] for i in range(k + 1, n)]
        M = [row[k + 1:] for row in A[k + 1:]]
        t = [1, -A[k][k]]
        for _ in range(n - 1 - k):
            t.append(-sum(map(mul, R, C)))
            C = [sum(map(mul, row, C)) for row in M]
        p = _int_conv(t, p, len(t))
    return p
