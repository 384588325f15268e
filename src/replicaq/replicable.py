"""Replicability, replication powers, reducing pairs and the Norton basis.

A function is replicable iff its Grunsky table satisfies
h_{m,n} = h_{lcm(m,n), gcd(m,n)}.  The reducing-pair machinery descends any
grade outside {k+1 : k in the 12-element basis} to a lower one, which is what
lets 12 coefficients determine all the rest.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Tuple

from .qseries import QSeries, TruncationError, _exact
from .faber import _FaberRows
from .grunsky import GrunskyCalculator, GrunskyTable

NORTON_BASIS = (1, 2, 3, 4, 5, 7, 8, 9, 11, 17, 19, 23)
IRREDUCIBLE_GRADES = tuple(k + 1 for k in NORTON_BASIS)


class DescentError(RuntimeError):
    """No reducing pair where the basis theorem requires one; an implementation bug."""


class _ReplicationFamilyFields(NamedTuple):
    base: QSeries
    powers: Mapping[int, QSeries]


class ReplicationFamily(_ReplicationFamilyFields):
    """f together with its replication powers f^(a), kept in a read-only copy."""

    __slots__ = ()

    def __new__(cls, base: QSeries, powers: Optional[Mapping[int, QSeries]] = None):
        powers = MappingProxyType({} if powers is None else dict(powers))
        if not base.is_normalized():
            raise ValueError("family base must be normalized")
        for a, g in powers.items():
            if not isinstance(a, int) or a < 2:  # f^(1) is the base itself
                raise ValueError(f"replicate index must be an int >= 2, not {a!r}")
            if not g.is_normalized():
                raise ValueError(f"replicate f^({a}) must be normalized")
        return super().__new__(cls, base, powers)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __reduce__(self):
        """Copies and pickles rebuild the family through the constructor."""
        return type(self), (self.base, dict(self.powers))

    def power(self, a: int) -> QSeries:
        if a == 1:
            return self.base
        try:
            return self.powers[a]
        except KeyError:
            raise KeyError(f"replicate f^({a}) missing from family") from None


class ReducingPair(NamedTuple):
    grade: int
    from_pair: Tuple[int, int]
    to_pair: Tuple[int, int]

    @property
    def valid(self) -> bool:
        """r + s is the grade, r' + s' is smaller, and gcd and lcm agree."""
        r, s = self.from_pair
        rp, sp = self.to_pair
        return (r + s == self.grade and rp + sp < self.grade
                and gcd(r, s) == gcd(rp, sp) and lcm(r, s) == lcm(rp, sp))


class ReplicabilityReport(NamedTuple):
    ok: bool
    grade_bound: int
    checked_pairs: int
    counterexample: Optional[tuple] = None  # (m, n, h_{m,n}, h_{lcm,gcd})


def is_replicable(t: GrunskyTable) -> ReplicabilityReport:
    """Check h_{m,n} = h_{lcm,gcd} on every pair both of whose entries fit; a
    grade below 7, short of the first pair (2, 3) against (6, 1), raises ValueError."""
    if t.grade_bound < 7:
        raise ValueError("table grade must be at least 7")
    checked = 0
    for m in range(1, t.grade_bound):
        for n in range(m, t.grade_bound - m + 1):
            l, g = lcm(m, n), gcd(m, n)
            if l + g > t.grade_bound or (g, l) == (m, n):
                continue
            checked += 1
            if t.get(m, n) != t.get(l, g):
                return ReplicabilityReport(False, t.grade_bound, checked,
                                           (m, n, t.get(m, n), t.get(l, g)))
    return ReplicabilityReport(True, t.grade_bound, checked)


def _mobius(n: int) -> int:
    m, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            m = -m
        else:
            p += 1
    return -m if n > 1 else m


def _replicate(f: QSeries, k: int, trunc: int, engine) -> QSeries:
    """h_i^(k) = k sum_{d|k} mu(d) h_{k/d, dki} = sum_{d|k} mu(d) d b_{k/d, dki},
    since k h_{r,s} = d b_{r,s} for r = k/d, with b = engine(a).b over
    a = [a_1, ..., a_top], the coefficients of f that the sum reads.  The b
    are ints on integral a, so no Fraction is built there."""
    if k < 1:
        raise ValueError("replicate index must be positive")
    if not f.is_normalized():
        raise ValueError("replication needs a normalized series q^-1 + O(q)")
    terms = [(mu * d, k // d, d * k) for d in range(1, k + 1)
             if k % d == 0 and (mu := _mobius(d))]
    top = max(r + step * (trunc - 1) - 1 for _, r, step in terms)
    if f.trunc <= top:
        raise TruncationError(
            f"replicate({k}) to {trunc} terms reads a_{top}, beyond trunc={f.trunc}")
    b = engine(f.coeff_range(1, top)).b
    coeffs = [1] + [0] * trunc  # exponents -1, 0, 1, ..., trunc-1
    # highest i first: the first b of each term grows its Faber row once,
    # and every later one reads an entry the row already holds
    for i in range(trunc - 1, 0, -1):
        coeffs[i + 1] = sum(c * b(r, step * i) for c, r, step in terms)
    return QSeries(-1, 1, coeffs, trunc)


def replicate(f: QSeries, k: int, trunc: int) -> QSeries:
    """k-th replication power via h_i^(k) = k sum_{d|k} mu(d) h_{k/d, dki}.

    Each b_{r,s} = r h_{r,s} is the stored entry s of row r <= k of the Faber
    series of f, an int when f's coefficients are integral, so the sum runs
    in ints there; ``replicate_by_grunsky`` is the independent check route.
    """
    return _replicate(f, k, trunc, _FaberRows)


def replicate_by_grunsky(f: QSeries, k: int, trunc: int) -> QSeries:
    """Check route for ``replicate``: the same formula over Norton's recursion."""
    return _replicate(f, k, trunc, GrunskyCalculator)


def inverse_identity_sum(fam: ReplicationFamily, m: int, n: int) -> Fraction:
    """sum_{d | gcd(m,n)} (1/d) h^(d)_{mn/d^2}, which is h_{m,n} for a replicable family."""
    g = gcd(m, n)
    return sum((Fraction(1, d) * fam.power(d).coeff(m * n // (d * d))
                for d in range(1, g + 1) if g % d == 0), Fraction(0))


def mod_p_residues(f: QSeries, fp: QSeries, p: int, bound: int):
    """(i, (a_i(f) - a_i(f^(p))) mod p) for 1 <= i <= bound, in order; raises
    ValueError on reaching a coefficient that is not an integer."""
    for i in range(1, bound + 1):
        a, b = f.coeff(i), fp.coeff(i)
        if not (isinstance(a, int) and isinstance(b, int)):
            raise ValueError("congruence check needs integer coefficients")
        yield i, (a - b) % p


# -- reducing pairs ------------------------------------------------------

def _require_grade(N: int) -> None:
    """Reducing pairs are defined from grade 2 on."""
    if N < 2:
        raise ValueError("grade must be at least 2")


def exhaustive_reducing_pair(N: int) -> Optional[ReducingPair]:
    """Search every (r, s) with r + s = N for a gcd/lcm-matching pair of
    smaller sum; ties broken by smallest r' + s', then smallest r'."""
    _require_grade(N)
    best = None
    for r in range(1, N // 2 + 1):
        s = N - r
        g, l = gcd(r, s), lcm(r, s)
        prod = g * l
        # candidates (r', s') have product g*l and gcd g
        for rp in range(g, N, g):
            if rp * rp > prod:
                break
            if prod % rp == 0:
                sp = prod // rp
                if rp + sp < N and gcd(rp, sp) == g:
                    key = (rp + sp, rp)
                    if best is None or key < best[0]:
                        best = (key, ReducingPair(N, (r, s), (rp, sp)))
    return best[1] if best else None


def _case_reducing_pair(N: int) -> Optional[ReducingPair]:
    if N < 2 or N in IRREDUCIBLE_GRADES:
        return None
    if N & (N - 1) == 0:  # power of two, so N >= 16 here
        t = N // 16
        return ReducingPair(N, (t, 15 * t), (3 * t, 5 * t))
    if N % 2 == 1:
        m = N - 1
        if m & (m - 1) == 0 and N >= 17:
            # N = 2^a + 1
            return ReducingPair(N, (m - 2, 3), (m // 2 - 1, 6))
        r = (m & -m)  # largest power of two dividing N - 1
        return ReducingPair(N, (m, 1), (m // r, r))
    # N even, not a power of two
    explicit = {36: ((1, 35), (5, 7)), 40: ((1, 39), (3, 13)), 72: ((2, 70), (10, 14))}
    if N in explicit:
        fp, tp = explicit[N]
        return ReducingPair(N, fp, tp)
    # scale a reduction of a proper divisor
    for k in range(2, N):
        if N % k == 0:
            sub = _case_reducing_pair(N // k)
            if sub is not None:
                (r, s), (rp, sp) = sub.from_pair, sub.to_pair
                return ReducingPair(N, (k * r, k * s), (k * rp, k * sp))
    return None


def find_reducing_pair(N: int) -> Optional[ReducingPair]:
    """The reducing pair the case analysis gives at grade N; None only for
    the irreducible grades.  ``exhaustive_reducing_pair`` is the oracle that
    ``checks.basis`` compares it with."""
    _require_grade(N)
    pair = _case_reducing_pair(N)
    if pair is not None and not pair.valid:
        raise DescentError(f"case analysis gave an invalid pair {pair}")
    return pair


# -- reconstruction from the basis ---------------------------------------

def _descend(values: Mapping[int, Fraction], trunc: int, engine) -> Tuple[list, Optional[int]]:
    """Fill a_1..a_{trunc-1} grade by grade from ``values``.

    At grade N, a_{N-1} is taken from ``values`` when given, else solved from
    the reducing pair (r, s) -> (r', s') as h_{r',s'} - (h_{r,s} - a_{N-1}),
    both read from ``calc = engine([])`` while its list a = ``calc.a`` grows:
    the correction h_{r,s} - a_{N-1} needs a_1..a_{N-2} only.  Returns
    (a, None) with a[p] = a_p, or (a, N) for the first grade N that is neither
    given nor reducible.  Each coefficient is an int when integral, a Fraction
    otherwise; when every given value is integral, a non-integral solution
    raises ValueError.
    """
    given = {k: _exact(v) for k, v in values.items()}
    integral = all(isinstance(v, int) for v in given.values())
    calc = engine([])
    a = calc.a
    for N in range(2, trunc + 1):
        k = N - 1
        if k in given:
            value = given[k]
        else:
            pair = find_reducing_pair(N)
            if pair is None:
                return a, N
            value = _exact(calc.h(*pair.to_pair) - calc.correction(*pair.from_pair))
            if integral and not isinstance(value, int):
                raise ValueError(
                    f"non-integral coefficient a_{k} = {value} from integral basis input")
        a.append(value)
    return a, None


def _reconstruct(basis_values: Mapping[int, Fraction], trunc: int, engine) -> QSeries:
    missing = [k for k in NORTON_BASIS if k not in basis_values]
    if missing:
        raise ValueError(f"basis values missing for k in {missing}")
    extra = [k for k in basis_values if k not in NORTON_BASIS]
    if extra:
        raise ValueError(f"values given for k in {extra}, outside the Norton basis")
    a, blocked = _descend(basis_values, trunc, engine)
    if blocked is not None:
        raise DescentError(f"grade {blocked} should be reducible but no pair was found")
    return QSeries(-1, 1, [1, 0] + a[1:trunc], trunc)


def reconstruct_from_basis(basis_values: Mapping[int, Fraction], trunc: int) -> QSeries:
    """Rebuild a replicable function's coefficients from its 12 basis values.

    Processes grades in ascending order; at each non-basis grade N the
    reducing pair gives h_{r,s} = h_{r',s'} (replicability), and since
    a_{N-1} enters h_{r,s} with coefficient 1 it is h_{r',s'} less the rest
    of h_{r,s}.  Both are read off Faber rows that grow with each new
    coefficient; ``reconstruct_by_grunsky`` is the independent check route.
    ``basis_values`` must hold a value for each index of ``NORTON_BASIS`` and
    for no other; anything else raises ValueError.
    """
    return _reconstruct(basis_values, trunc, _FaberRows)


def reconstruct_by_grunsky(basis_values: Mapping[int, Fraction], trunc: int) -> QSeries:
    """Check route for ``reconstruct_from_basis``: solve Norton's recursion."""
    return _reconstruct(basis_values, trunc, GrunskyCalculator)

