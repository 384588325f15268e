"""Frame shapes and eta products.

A frame shape like ``2^24/1^24`` is a formal quotient of cycle lengths; each
part k contributes a factor eta(q^k)^(c_k), c_k its net exponent.  Balance,
weak multiplicativity and the degree-24 classification of multiplicative eta
products live here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, repeat
from math import ceil, gcd, isqrt
from operator import itemgetter, mul
from typing import NamedTuple, Optional

from .qseries import (QSeries, Rat, _grid_points, _int_conv, _phi_power_table,
                      _sigma_list)


class FrameShapeError(ValueError):
    pass


def _part(p) -> int:
    """p, when it may be a part of a frame or cycle shape: an int >= 1."""
    if type(p) is not int or p < 1:
        raise FrameShapeError(f"a part must be an int >= 1, not {p!r}")
    return p


class _FrameShapeFields(NamedTuple):
    net: tuple


class FrameShape(_FrameShapeFields):
    """Formal eta quotient prod_k eta(q^k)^(c_k), stored as its net exponents:
    the pairs (k, c_k) with c_k != 0, ascending in k."""

    __slots__ = ()

    def __new__(cls, numerator, denominator=()):
        """The net count of each part over the two sequences of parts."""
        return cls._of_multiplicities(chain(zip(numerator, repeat(1)),
                                            zip(denominator, repeat(-1))))

    @classmethod
    def _of_multiplicities(cls, weighted) -> "FrameShape":
        """The shape of (part, signed multiplicity) pairs; no part is repeated
        out into a list, so a multiplicity costs nothing for its size."""
        count: dict = {}
        for p, m in weighted:
            p = _part(p)
            count[p] = count.get(p, 0) + m
        net = tuple(sorted((p, c) for p, c in count.items() if c))
        if not any(c > 0 for _, c in net):
            raise FrameShapeError("numerator cancels away entirely")
        return super().__new__(cls, net)

    _make = classmethod(lambda cls, fields: cls._of_multiplicities(*fields))  # _replace too

    def __reduce__(self):
        """Copies and pickles rebuild the shape from its net exponents."""
        return self._of_multiplicities, (self.net,)

    def exponents(self) -> dict:
        """part -> net eta exponent."""
        return dict(self.net)

    def lead_exponent(self) -> Fraction:
        return Fraction(sum(k * c for k, c in self.net), 24)

    def __str__(self) -> str:
        num = " ".join(f"{k}^{c}" for k, c in self.net if c > 0)
        den = " ".join(f"{k}^{-c}" for k, c in self.net if c < 0)
        return f"{num}/{den}" if den else num


_TOKEN = re.compile(r"^(\d+)\^(\d+)$")


def parse_frame_shape(text: str) -> FrameShape:
    """Grammar: `part^mult` tokens joined by spaces, optional `/` before the denominator."""
    weighted = []
    for sign, side in zip((1, -1), text.split("/", 1)):
        tokens = side.split()
        if not tokens:
            raise FrameShapeError(f"empty side in frame shape {text!r}")
        for tok in tokens:
            m = _TOKEN.match(tok)
            if not m:
                raise FrameShapeError(f"bad frame-shape token {tok!r}")
            mult = int(m.group(2))
            if mult < 1:
                raise FrameShapeError(f"multiplicities must be positive: {tok!r}")
            weighted.append((int(m.group(1)), sign * mult))
    return FrameShape._of_multiplicities(weighted)


# -- balance -------------------------------------------------------------

def is_balanced(parts) -> Optional[int]:
    """Balance number N if the outside-in pairwise products of the sorted
    parts (a cycle shape) are constant, else None."""
    parts = sorted(map(_part, parts))
    if not parts:
        raise FrameShapeError("a cycle shape needs at least one part")
    t = len(parts)
    n = parts[0] * parts[-1]
    for i in range(1, (t + 1) // 2):
        if parts[i] * parts[t - 1 - i] != n:
            return None
    return n


# -- eta products --------------------------------------------------------

def _phi_power_sizes(products: list, n_terms: int) -> dict:
    """exponent c -> the length of phi^c that _product_int_coeffs(exponents,
    n_terms) needs for every exponent map in ``products``: that of the least
    part with exponent c, on its own grid."""
    sizes: dict = {}
    for exponents in products:
        g = gcd(*exponents)
        n = n_terms // g + 1  # coefficients on the q^g grid
        for k, c in exponents.items():
            sizes[c] = max(sizes.get(c, 0), (n - 1) // (k // g) + 1)
    return sizes


def _product_int_coeffs(exponents: dict, n_terms: int, table: Optional[dict] = None) -> list:
    """Coefficients b_0..b_n_terms of prod_k phi(q^k)^(c_k), phi = prod_n (1 - q^n).

    The factor route: on the q^g grid, g the gcd of the parts, each factor
    phi(q^m), m = k/g, is the pentagonal series raised to c_k on its own q^m
    grid.  The powers come from one table, which holds each distinct
    exponent once, at the longest length a part needs, and a shorter part
    slices it; ``table`` is one built by the caller for several products
    (_phi_power_table), at least as long as these parts need.  The first
    factor is placed on its grid (prod[::m] = power).  A later factor, a
    series in q^m, maps each residue class r mod m of the product onto
    itself, so each class prod[r::m] is multiplied by it on its own grid,
    and none of its (m - 1)/m zero slots is ever multiplied.
    """
    if table is None:
        table = _phi_power_table(_phi_power_sizes([exponents], n_terms))
    g = gcd(*exponents)
    n = n_terms // g + 1  # coefficients on the q^g grid
    prod = None
    for k, c in exponents.items():
        m = k // g
        power = table[c][:(n - 1) // m + 1]  # coefficients on the q^k grid
        if prod is None:
            prod = [0] * n
            prod[::m] = power
        else:
            for r in range(min(m, n)):
                cls = prod[r::m]
                prod[r::m] = _int_conv(cls, power, len(cls))
    out = [0] * (n_terms + 1)
    out[::g] = prod
    return out


def _log_derivative_weights(exponents: dict, n_terms: int) -> list:
    """s_0..s_n_terms, s_0 = 0: q d/dq log prod_k phi(q^k)^(c_k) is
    -sum_i s_i q^i, s_i = sum_{k | i} k sigma(i/k) c_k."""
    sigma = _sigma_list(1, n_terms)
    s = [0] * (n_terms + 1)
    for k, c in exponents.items():
        for i in range(k, n_terms + 1, k):
            s[i] += k * c * sigma[i // k]
    return s


def _log_derivative_series(exponents: dict, n_terms: int):
    """Yield b_0, b_1, .., b_n_terms of prod_k phi(q^k)^(c_k), via d/dq log.

    n * b_n = -sum_{i=1..n} s_i b_{n-i} with s_i = sum_{k | i} k sigma(i/k) c_k;
    the division is exact because the product has integer coefficients.
    A consumer that stops early pays only for the coefficients it took.
    """
    s = _log_derivative_weights(exponents, n_terms)
    b = [1]
    yield 1
    for n in range(1, n_terms + 1):
        b.append(_log_derivative_step(s, b, n))
        yield b[n]


def _log_derivative_step(s: list, b: list, n: int) -> int:
    """b_n = -(1/n) sum_{i=1..n} s_i b_(n-i), from s_1..s_n and b_0..b_(n-1);
    a remainder raises ArithmeticError instead of being rounded away."""
    q, r = divmod(-sum(map(mul, s[1:n + 1], b[n - 1::-1])), n)
    if r:
        raise ArithmeticError(f"eta-product recurrence left remainder {r} at index {n}")
    return q


# Terms up to which _log_derivative_coeffs sums the recurrence directly
# rather than splitting the range in two.  On the 30 degree-24 shapes to
# q^3000, leaves of 48 and 64 terms were the fastest of 16 to 128, and the
# whole range lies within 15 % (CPython 3.11, 2 vCPU).
_LOG_DERIVATIVE_LEAF = 48


def _log_derivative_coeffs(exponents: dict, n_terms: int) -> list:
    """The same coefficients as _product_int_coeffs, by the log-derivative
    recurrence n b_n = -sum_{i=1..n} s_i b_(n-i): the route independent of
    the factor route, and its oracle.

    The recurrence runs online by divide and conquer (van der Hoeven,
    "Relax, but don't be too lazy", J. Symb. Comp. 2002).  A range [lo, hi)
    of n is split at mid: once b_lo..b_(mid-1) are known, one product
    b[lo:mid] * s[:hi - lo] adds their share of the sum to every n in
    [mid, hi), and then the upper half runs.  A range of at most
    _LOG_DERIVATIVE_LEAF terms sums the rest of the recurrence directly.  So
    n terms cost O(M(n) log n), M(n) one product of length n, where the
    generator _log_derivative_series takes O(n^2).  Like the factor route it
    runs on the q^g grid, g the gcd of the parts, and spreads the result back.
    """
    g = gcd(*exponents)
    n = n_terms // g + 1  # coefficients on the q^g grid
    s = _log_derivative_weights({k // g: c for k, c in exponents.items()}, n - 1)
    b = [1] * n
    part = [0] * n  # part[t] = sum of s_(t-j) b_j over the j folded in so far

    def solve(lo, hi):
        if hi - lo <= _LOG_DERIVATIVE_LEAF:
            for t in range(max(lo, 1), hi):
                b[t], r = divmod(-part[t] - sum(map(mul, s[1:t - lo + 1], reversed(b[lo:t]))), t)
                if r:
                    raise ArithmeticError(
                        f"eta-product recurrence left remainder {r} at index {t}")
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        share = _int_conv(b[lo:mid], s[:hi - lo], hi - lo)
        for t in range(mid, hi):
            part[t] += share[t - lo]
        solve(mid, hi)

    solve(0, n)
    out = [0] * (n_terms + 1)
    out[::g] = b
    return out


def eta_product(shape: FrameShape, trunc: Rat) -> QSeries:
    """prod_k eta(q^k)^(m_k) / prod_k eta(q^k)^(n_k) as an exact QSeries."""
    lead = shape.lead_exponent()
    n_terms = _grid_points(lead, 1, trunc)
    if not n_terms:
        return QSeries(0, 1, [], trunc)
    coeffs = _product_int_coeffs(shape.exponents(), n_terms - 1)
    return QSeries(lead, 1, coeffs, trunc)


# -- multiplicativity ----------------------------------------------------

class MultiplicativityReport(NamedTuple):
    verdict: bool
    bound: int
    first_failure: Optional[tuple] = None  # (m, n, c(m), c(n), c(mn))


def _normalized_int_coeffs(f: QSeries, bound: int) -> list:
    """[c(1)..c(bound)] with c(1) normalized to 1; raises if c(1) not a unit."""
    c = f.coeff_range(1, bound)
    if not c or c[0] not in (1, -1):
        raise ValueError("cannot normalize: c(1) must be +-1")
    if not all(map(isinstance, c, repeat(int))):
        raise ValueError("weak multiplicativity needs integer coefficients")
    return c if c[0] == 1 else [-v for v in c]


def weak_multiplicativity(f: QSeries, bound: int) -> MultiplicativityReport:
    """Check c(mn) = c(m) c(n) for all coprime pairs with m*n <= bound; a
    bound below 6, short of the first pair (2, 3), raises ValueError."""
    if bound < 6:
        raise ValueError("multiplicativity bound must be at least 6")
    c = _normalized_int_coeffs(f, bound)
    fail = _first_mult_failure(c, bound)
    return MultiplicativityReport(fail is None, bound, fail)


def _first_mult_failure(c: list, bound: int) -> Optional[tuple]:
    for m in range(2, bound):
        if m * (m + 1) > bound:
            break
        cm = c[m - 1]
        for n in range(m + 1, bound // m + 1):
            # the gcd only where the values differ: most coprime pairs agree
            if c[m * n - 1] != cm * c[n - 1] and gcd(m, n) == 1:
                return (m, n, cm, c[n - 1], c[m * n - 1])
    return None


# -- degree-24 classification --------------------------------------------

def partitions_of(n: int):
    """All partitions of n, ascending parts, generated in lexicographic order."""

    def rec(remaining, minimum, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(minimum, remaining + 1):
            prefix.append(p)
            yield from rec(remaining - p, p, prefix)
            prefix.pop()

    yield from rec(n, 1, [])


def _coprime_splits(bound: int) -> list:
    """splits[N] = (q, N/q) for N <= bound, q the full power of N's least
    prime: one coprime pair per N; () for N < 2 and the prime powers."""
    least = list(range(bound + 1))  # least[N] = the least prime factor of N
    for p in range(2, isqrt(bound) + 1):
        if least[p] == p:
            for N in range(p * p, bound + 1, p):
                if least[N] == N:
                    least[N] = p
    splits = [()] * (bound + 1)
    for N in range(2, bound + 1):
        p = least[N]
        m = N // p
        if least[m] == p:
            if splits[m]:  # m = q n with q a power of p: N = (p q) n
                q, n = splits[m]
                splits[N] = (p * q, n)
        elif m > 1:  # p divides N once
            splits[N] = (p, m)
    return splits


def _screened_partitions(splits: list) -> list:
    """The partitions of 24, in partitions_of order, whose coefficients
    c(N) = b_(N-1) (a product of degree 24 leads with q^1) satisfy
    c(N) = c(q) c(N/q) for the pair (q, N/q) = splits[N] of every
    N < len(splits), len(splits) > 25.  By induction on N this is
    c(mn) = c(m) c(n) for every coprime pair with mn < len(splits).

    One depth-first walk fixes the multiplicity c_k of the part k for
    k = 1, 2, ..; parts >= k + 1 leave b_0..b_k unchanged, so once c_1..c_k
    are fixed those coefficients are final.  Adding c_k parts of size k adds
    k c_k to s_k, so b_k = b_k(c_k = 0) - c_k: a prefix takes
    one recurrence step for all its children.  Where k + 1 = qn has a pair,
    it forces c_k = b_k(0) - c(q) c(n), and the walk tries that one value.
    After the last part the walk goes on with c_k = 0, stopping at the first
    failing pair, and keeps the partition once it passes k = len(splits) - 2.
    Every prefix shares one set of the recurrence's s and b lists.
    """
    top = len(splits) - 2
    sigma = _sigma_list(1, top)
    # s_i = sum_{t | i} t e_t with e_t = sum_{d | t} c_d is sum_{d | i} d sigma(i/d) c_d
    divisors = [[d for d in range(1, i) if i % d == 0] for i in range(top + 1)]
    weights = [[d * sigma[i // d] for d in ds] for i, ds in enumerate(divisors)]
    mult = [0] * (top + 1)  # mult[k] = c_k on the walk's current path
    s = [0] * (top + 1)     # s and b as in _log_derivative_series
    b = [1] * (top + 1)
    out = []

    def walk(k, remaining):
        if k > top:
            out.append(tuple(d for d in range(1, top + 1) for _ in range(mult[d])))
            return
        # s_k and b_k with c_k = 0, from the parts fixed below k
        s[k] = s0 = sum(map(mul, weights[k], map(mult.__getitem__, divisors[k])))
        b[k] = bk = _log_derivative_step(s, b, k)
        if splits[k + 1]:
            q, n = splits[k + 1]
            counts = (bk - b[q - 1] * b[n - 1],)
        else:
            counts = range(remaining // k, -1, -1)  # more k's first
        for c in counts:
            left = remaining - k * c
            if c < 0 or left < 0 or 0 < left <= k:  # no parts above k sum to 0 < left <= k
                continue
            mult[k] = c
            s[k], b[k] = s0 + k * c, bk - c
            walk(k + 1, left)
        mult[k] = 0

    walk(1, 24)
    return out


def _multiplicativity_test(bound: int):
    """The test of a list [c(1)..c(bound)] whether c(N) = c(q) c(N/q) for
    every N <= bound that is not a prime power, (q, N/q) = _coprime_splits'
    pair of N.  By induction on N it passes exactly when c(mn) = c(m) c(n)
    for every coprime pair with mn <= bound, the pairs _first_mult_failure
    scans; it says only whether one fails, not which one first.  Needs
    bound >= 10, the second such N."""
    if bound < 10:
        raise ValueError("the multiplicativity test needs a bound of at least 10")
    pairs = [qn for qn in _coprime_splits(bound) if qn]
    whole, head, tail = (itemgetter(*xs) for xs in (  # two or more: tuples
        [q * n - 1 for q, n in pairs], [q - 1 for q, _ in pairs], [n - 1 for _, n in pairs]))

    def test(c: list) -> bool:
        return whole(c) == tuple(map(mul, head(c), tail(c)))

    return test


def classify_degree24(bound: int) -> list:
    """The weakly multiplicative eta products among the partitions of 24.

    Screens every partition numerically up to ``bound`` coprime products;
    a cheap low-order screen to c(42), one pruned walk over the partitions
    on the log-derivative recurrence, rejects most candidates first, and
    the survivors are rechecked to ``bound`` on the factor route, with one
    table of the powers of phi for all of them, by _multiplicativity_test.
    """
    if bound < 100:
        raise ValueError("screening bound must be at least 100")
    shapes = list(map(FrameShape, _screened_partitions(_coprime_splits(42))))
    survivors = [shape.exponents() for shape in shapes]
    table = _phi_power_table(_phi_power_sizes(survivors, bound - 1))
    multiplicative = _multiplicativity_test(bound)
    return [shape for shape, exps in zip(shapes, survivors)
            if multiplicative(_product_int_coeffs(exps, bound - 1, table))]


# -- Euler factors -------------------------------------------------------

def euler_factor_check(f: QSeries, p: int, weight: int) -> bool:
    """Whether f's normalized coefficients satisfy the Euler factor at p of
    a weight ``weight`` Hecke eigenform: b_p = a_p^2 - a_{p^2} = p^(weight-1),
    and c(p^(r+1)) = a_p c(p^r) - b_p c(p^(r-1)) for every power of p below
    f's truncation order.  Raises ValueError unless p is a prime."""
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"p must be a prime, not {p}")
    avail = f.trunc
    if avail <= p * p:
        raise ValueError(f"truncation {avail} too small to see p^2 = {p * p}")
    bound = ceil(avail) - 1
    c = _normalized_int_coeffs(f, bound)
    a_p = c[p - 1]
    b_p = a_p * a_p - c[p * p - 1]
    if b_p != p ** (weight - 1):
        return False
    power = p * p
    prev, cur = c[p - 1], c[p * p - 1]
    while power * p <= bound:
        power *= p
        nxt = c[power - 1]
        if nxt != a_p * cur - b_p * prev:
            return False
        prev, cur = cur, nxt
    return True
