"""Hecke operators on normalized q-series and the p = 2 coefficient recurrences.

T_n is implemented twice: a closed coefficient formula and an independent
composition of U_d and V_a slash operators.  For a replicable family the
twisted operator satisfies n T_n f = F_n(f), which ties this module to the
Faber machinery.  The second half derives Mahler-style recurrences expressing
every coefficient a_N (N >= 6) through a_1..a_5 and the duplicate f^(2).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from operator import mul
from typing import Callable, List, NamedTuple, Optional, Sequence, Union

from .qseries import QSeries, _exact, agree
from .faber import faber_by_recursion
from .replicable import ReplicationFamily


def _require_integer_grid(f: QSeries) -> None:
    if f.step != 1 or f.lead_exp.denominator != 1:
        raise ValueError("Hecke operators here act on integer exponent grids")


def up(f: QSeries, p: int) -> QSeries:
    """U_p: picks coefficients c(p j); the q^-1 pole is dropped unless p = 1."""
    _require_integer_grid(f)
    if p < 1:
        raise ValueError("p must be positive")
    lead = f.lead_exp.numerator
    lo = -(-lead // p)  # ceil(lead / p)
    return QSeries(lo, 1, f.coeffs[p * lo - lead::p], f.trunc / p)


def vp(f: QSeries, p: int) -> QSeries:
    """V_p: q -> q^p."""
    return f.substitute(p)


def hecke_Tn(f: QSeries, n: int) -> QSeries:
    """T_n by the closed formula [q^j] T_n f = (1/n) sum_{ad=n, a|j} d c(jd/a)."""
    _require_integer_grid(f)
    if n < 1:
        raise ValueError("index must be positive")
    pairs = [(a, n // a) for a in range(1, n + 1) if n % a == 0]
    trunc = f.trunc / n
    lo = n * min(f.lead_exp.numerator, -1)  # the a = n term c(j / n) starts at j = n lead
    hi = ceil(trunc) - 1
    # j d / a runs from lo n (j = lo, a = 1) up to hi n, or up to hi // n when hi < 0
    base = lo * n
    c = f.coeff_range(base, max(hi * n, hi // n)) if hi >= lo else []
    out = [Fraction(sum(d * c[j * d // a - base] for a, d in pairs if j % a == 0), n)
           for j in range(lo, hi + 1)]
    return QSeries(lo, 1, out, trunc)


def _uv_sum(power: Callable[[int], QSeries], n: int) -> QSeries:
    """(1/n) sum_{ad=n} d V_a(U_d g_a) with g_a = power(a)."""
    if n < 1:
        raise ValueError("index must be positive")
    acc = None
    for a in range(1, n + 1):
        if n % a == 0:
            d = n // a
            g = power(a)
            _require_integer_grid(g)
            term = vp(up(g, d), a) * d
            acc = term if acc is None else acc + term
    return acc * Fraction(1, n)


def hecke_Tn_via_uv(f: QSeries, n: int) -> QSeries:
    """Oracle route: T_n f = (1/n) sum_{ad=n} d V_a(U_d f) with the pole restored.

    U_d drops the q^-1 term of f (d does not divide -1), so the a = n, d = 1
    summand is the only one contributing the q^-n pole; no correction needed.
    """
    return _uv_sum(lambda a: f, n)


def twisted_Tn(fam: ReplicationFamily, n: int) -> QSeries:
    """Twisted Hecke operator: the a-divisor slice acts on the replicate f^(a)."""
    return _uv_sum(fam.power, n)


class HeckeFaberReport(NamedTuple):
    n: int
    ok: bool
    compared_exponents: int
    first_mismatch: Optional[tuple] = None  # (exponent, n*T_n side, Faber side)


def _cut(g: QSeries, order) -> QSeries:
    """g known below q^order at most: coefficients from there on are not read."""
    return g.truncate(min(g.trunc, order))


def hecke_faber_verify(fam: ReplicationFamily, n_max: int, trunc: int) -> List[HeckeFaberReport]:
    """Check n T_n f = F_n(f) (twisted T_n) below q^trunc for n = 1..n_max,
    per-n reports.  Both sides must be known to q^trunc, and U_n f is known
    only below q^(f.trunc / n); a shorter family raises TruncationError.

    Each side is built only to the order compared: F_n is evaluated on f cut
    to q^(trunc + n), which leaves F_n(f) known to q^trunc, and the a-slice of
    twisted T_n, V_a U_(n/a) f^(a), reads f^(a) only below q^(n trunc / a^2),
    so twisted T_n runs on the family's f^(a), a | n, cut to q^(n trunc).
    ``n_max`` and ``trunc`` below 1, which would compare nothing, raise ValueError."""
    for arg, value in (("n_max", n_max), ("trunc", trunc)):
        if value < 1:
            raise ValueError(f"{arg} must be at least 1, got {value}")
    f = fam.base
    a_list = f.coeff_range(1, min(int(f.trunc) - 1, n_max))
    out = []
    for n in range(1, n_max + 1):
        cut = ReplicationFamily(_cut(f, n * trunc), {
            a: _cut(fam.power(a), n * trunc) for a in range(2, n + 1) if n % a == 0})
        lhs = twisted_Tn(cut, n) * n
        rhs = faber_by_recursion(a_list, n)(_cut(f, trunc + n))
        mismatch = agree(lhs, rhs, trunc)
        if mismatch is None:
            out.append(HeckeFaberReport(n, True, n + trunc))
        else:
            j = int(mismatch[0])
            out.append(HeckeFaberReport(n, False, n + j + 1, (j,) + mismatch[1:]))
    return out


# -- p = 2 recurrences ---------------------------------------------------

Num = Union[int, Fraction]
CoeffFn = Callable[[int], Num]


def _half_twist(g: QSeries) -> QSeries:
    """q^(1/2) -> -q^(1/2): negate coefficients at odd half-integer exponents."""
    lead, step = 2 * g.lead_exp, 2 * g.step  # in half-units
    if (g.coeffs and lead.denominator != 1) or (len(g.coeffs) > 1 and step.denominator != 1):
        raise ValueError("series does not live on the half-integer grid")
    lead, step = lead.numerator, step.numerator
    coeffs = [-c if (lead + i * step) % 2 else c for i, c in enumerate(g.coeffs)]
    return QSeries(g.lead_exp, g.step, coeffs, g.trunc)


def _halved(whole: Num, doubled: Num) -> Num:
    """whole + doubled / 2, staying in int whenever the division is exact."""
    if isinstance(whole, int) and isinstance(doubled, int):
        q, r = divmod(doubled, 2)
        if r == 0:
            return whole + q
    return whole + Fraction(doubled, 2)


# The rules read lists with index 0 unused: a[j] = a_j for every j below the
# index computed, and h2[k] = h2_k.

def _rule_even(a: list, h2: list, m: int) -> Num:
    """a_{2m} = a_{m+1} + sum_{1<=j<m/2} a_j a_{m-j}
    (+ (a_{m/2}^2 - h2_{m/2}) / 2 when m is even)."""
    half = (m + 1) // 2
    whole = a[m + 1] + sum(map(mul, a[1:half], a[m - 1:m - half:-1]))
    if m % 2:
        return whole
    return _halved(whole, a[m // 2] * a[m // 2] - h2[m // 2])


def _rule_odd(a: list, h2: list, m: int) -> Num:
    """a_{2m+1} for m >= 3: a_{m+3} - a_2 a_m + sum_{1<=k<=(m-1)/2} a_{2m-4k} h2_k
    + (h2_m - [m even] h2_{m/2+1} + sum_{i=1}^{m+1} a_i a_{m+2-i}
       + sum_{i=1}^{2m-1} (-1)^i a_i a_{2m-i}) / 2."""
    k = (m - 1) // 2
    whole = (a[m + 3] - a[2] * a[m]
             + sum(map(mul, a[2 * m - 4 * k:2 * m - 3:4], h2[k:0:-1])))
    doubled = h2[m] + sum(map(mul, a[1:m + 2], a[m + 1:0:-1]))
    if m % 2 == 0:
        doubled -= h2[m // 2 + 1]
    # (-1)^i: the even i add, the odd i subtract
    doubled += sum(map(mul, a[2:2 * m:2], a[2 * m - 2:0:-2]))
    doubled -= sum(map(mul, a[1:2 * m:2], a[2 * m - 1:0:-2]))
    return _halved(whole, doubled)


def _rule_for(n: int):
    """(rule, m) computing a_n by the rule for n's parity, m = n // 2; defined for n >= 6."""
    if n < 6:
        raise ValueError("rules start at a_6; a_1..a_5 are seeds")
    return (_rule_even, _rule_odd)[n % 2], n // 2


def p2_identities(fam: ReplicationFamily) -> list:
    """The two symmetric-function identities behind the p = 2 rules, as
    (name, lhs, rhs, order): each side is known, and must agree, below order.

    E1: A + B + C = f^2 - 2 a_1, with A = f(z/2), B its q^(1/2) -> -q^(1/2)
    twist and C = f^(2)(2z).  E2: AB + AC + BC = 2 a_2 f - f^(2) + 2 (a_4 - a_1);
    the f^(2) term collapses into the classical (2 a_2 - 1) f form only when f
    is its own duplicate.
    """
    f = fam.base
    _require_integer_grid(f)
    f2 = fam.power(2)
    A = f.substitute(Fraction(1, 2))
    B = _half_twist(A)
    C = f2.substitute(2)
    a1, a2, a4 = f.coeff(1), f.coeff(2), f.coeff(4)
    half = f.trunc / 2
    return [("E1", A + B + C, f * f - 2 * a1, half),
            ("E2", A * B + A * C + B * C, f * (2 * a2) - f2 + 2 * (a4 - a1), half - 2)]


def mahler_compute(seeds: Sequence[Num], h2: CoeffFn, trunc: int) -> QSeries:
    """Expand a replicable function from a_1..a_5 and its duplicate's
    coefficients, by the two p = 2 rules.  h2 is read once, at 1 <= k < trunc // 2,
    the indices the rules reach.  Integral seeds and values of h2, ints or
    Fractions, enter the rules as ints, so integral input runs in integer
    arithmetic."""
    if len(seeds) != 5:
        raise ValueError("need exactly the five seeds a_1..a_5")
    a = [0, *map(_exact, seeds)]
    h2 = [0] + [_exact(h2(k)) for k in range(1, trunc // 2)]
    for n in range(6, trunc):
        rule, m = _rule_for(n)
        a.append(rule(a, h2, m))
    return QSeries(-1, 1, [1, 0] + a[1:trunc], trunc)
