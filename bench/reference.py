"""Known answers and independent routes that the benchmark checks outputs against.

Nothing here imports replicaq: every reference is computed by code of the
benchmark's own, by an algorithm different from the library's where one
exists (sparse pentagonal products instead of the log-derivative recurrence),
or is a published answer (the 30 multiplicative eta products of degree 24).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import gcd

# Dummit, Kisilevsky and McKay (1985): the weakly multiplicative eta products
# among the 1575 partitions of 24, in the library's sort order.
KNOWN_30 = (
    "1^24", "1^8 2^8", "1^6 3^6", "1^4 2^2 4^4", "1^4 5^4", "1^3 7^3",
    "1^2 2^2 3^2 6^2", "1^2 2^1 4^1 8^2", "1^2 11^2", "1^1 2^1 7^1 14^1",
    "1^1 3^1 5^1 15^1", "1^1 23^1", "2^12", "2^4 4^4", "2^3 6^3", "2^2 10^2",
    "2^1 4^1 6^1 12^1", "2^1 22^1", "3^8", "3^2 9^2", "3^1 21^1", "4^6",
    "4^2 8^2", "4^1 20^1", "6^4", "6^1 18^1", "8^3", "8^1 16^1", "12^2", "24^1",
)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


KNOWN_30_DIGEST = sha256_text("\n".join(KNOWN_30))

# The seven replicable functions the workloads draw from, by conjugacy class
# of the Monster: spec string and class order.
FUNCTIONS = {
    "J": ("j", 1),
    "2B": ("eta:1^24/2^24+24", 2),
    "3B": ("eta:1^12/3^12+12", 3),
    "4C": ("eta:1^8/4^8+8", 4),
    "5B": ("eta:1^6/5^6+6", 5),
    "7B": ("eta:1^4/7^4+4", 7),
    "13B": ("eta:1^2/13^2+2", 13),
}
ETA_QUOTIENTS = {
    "2B": ({1: 24, 2: -24}, 24),
    "3B": ({1: 12, 3: -12}, 12),
    "4C": ({1: 8, 4: -8}, 8),
    "5B": ({1: 6, 5: -6}, 6),
    "7B": ({1: 4, 7: -4}, 4),
    "13B": ({1: 2, 13: -2}, 2),
}


def replicate_class(name: str, k: int) -> str:
    """Class of the k-th replicate f^(k) of the function of class ``name``."""
    order = FUNCTIONS[name][1]
    m = order // gcd(order, k)
    if m == 1:
        return "J"
    if name == "4C" and m == 2:
        return "2B"
    return name


def rat(x) -> str:
    """Exact decimal rendering, as the CLI prints it."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- partitions and pentagonal products ------------------------------------

def partitions(n: int, smallest: int = 1):
    """Partitions of n with parts >= smallest, ascending parts."""
    if n == 0:
        yield ()
        return
    for p in range(smallest, n + 1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


def shape_text(parts) -> str:
    mults: dict = {}
    for p in parts:
        mults[p] = mults.get(p, 0) + 1
    return " ".join(f"{p}^{m}" for p, m in sorted(mults.items()))


def _pentagonal(n: int) -> list:
    """[(e, sign)] of prod (1 - q^m) = sum sign q^e, all e < n, e > 0."""
    out = []
    k = 1
    while True:
        added = False
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < n:
                out.append((e, -1 if k % 2 else 1))
                added = True
        if not added:
            return out
        k += 1


def eta_quotient_coeffs(exponents: dict, n: int) -> list:
    """First n coefficients of prod_k phi(q^k)^(c_k), phi = prod (1 - q^m).

    Multiplies (or divides) by the sparse pentagonal series one factor at a
    time, so it shares nothing with the library's log-derivative recurrence.
    """
    b = [1] + [0] * (n - 1)
    for k, c in exponents.items():
        terms = [(e * k, s) for e, s in _pentagonal(n) if e * k < n]
        for _ in range(abs(c)):
            if c > 0:
                for i in range(n - 1, 0, -1):
                    acc = b[i]
                    for d, s in terms:
                        if d > i:
                            break
                        acc += s * b[i - d]
                    b[i] = acc
            else:
                for i in range(1, n):
                    acc = b[i]
                    for d, s in terms:
                        if d > i:
                            break
                        acc -= s * b[i - d]
                    b[i] = acc
    return b


# -- series of the seven functions -------------------------------------------

def j_coeffs(n: int) -> list:
    """[c(-1), c(0), ..., c(n-2)] of J = E4^3 / Delta - 744, by own code."""
    sig = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            sig[m] += d ** 3
    e4 = [1] + [240 * sig[m] for m in range(1, n)]

    def conv(a, b):
        out = [0] * n
        for i, x in enumerate(a):
            for j in range(n - i):
                out[i + j] += x * b[j]
        return out

    e12 = conv(conv(e4, e4), e4)
    dq = eta_quotient_coeffs({1: 24}, n)  # Delta / q
    out = [0] * n
    for i in range(n):
        acc = e12[i]
        for j in range(1, i + 1):
            acc -= dq[j] * out[i - j]
        out[i] = acc
    out[1] -= 744
    return out


class References:
    """Reference coefficient lists, each computed once at its longest length."""

    def __init__(self):
        self._series: dict = {}

    def series(self, name: str, n: int) -> list:
        """[c(-1), c(0), ..., c(n-2)] of the function of class ``name``, as text."""
        have = self._series.get(name)
        if have is None or len(have) < n:
            if name == "J":
                coeffs = j_coeffs(n)
            else:
                exponents, shift = ETA_QUOTIENTS[name]
                coeffs = eta_quotient_coeffs(exponents, n)
                coeffs[1] += shift
            have = self._series[name] = [rat(c) for c in coeffs]
        return have[:n]

    def eta_product(self, shape: str, exponents: dict, n: int) -> list:
        """c(1), ..., c(n) of a degree-24 eta product (lead q^1), as integers."""
        have = self._series.get(shape)
        if have is None or len(have) < n:
            have = self._series[shape] = eta_quotient_coeffs(exponents, n)
        return have[:n]


# -- comparisons ---------------------------------------------------------------

class Mismatch(Exception):
    """An output disagrees with its reference."""


def compare_lists(got, want, what: str) -> int:
    """Entry-by-entry comparison over the full requested range.

    Returns the number of entries compared; a shorter or longer output is a
    mismatch, never a pass on the common prefix.
    """
    got, want = list(got), list(want)
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            raise Mismatch(f"{what}: entry {i} is {g}, expected {w}")
    if len(got) != len(want):
        raise Mismatch(f"{what}: {len(got)} entries, expected {len(want)}")
    return len(want)


def first_mult_failure(c: list, bound: int):
    """First coprime (m, n), m < n, m n <= bound with c(mn) != c(m) c(n)."""
    for m in range(2, bound + 1):
        if m * (m + 1) > bound:
            break
        for n in range(m + 1, bound // m + 1):
            if gcd(m, n) == 1 and c[m * n - 1] != c[m - 1] * c[n - 1]:
                return [m, n, c[m - 1], c[n - 1], c[m * n - 1]]
    return None


def euler_factor_holds(c: list, p: int, weight: int) -> bool:
    """a_p^2 - a_{p^2} = p^(weight-1) and the prime-power recursion, on c(1..)."""
    bound = len(c)
    a_p = c[p - 1]
    b_p = a_p * a_p - c[p * p - 1]
    if b_p != p ** (weight - 1):
        return False
    power, prev, cur = p * p, c[p - 1], c[p * p - 1]
    while power * p <= bound:
        power *= p
        if c[power - 1] != a_p * cur - b_p * prev:
            return False
        prev, cur = cur, c[power - 1]
    return True
