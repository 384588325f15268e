"""Exact truncated Laurent series in the nome q.

Coefficients are exact rationals, stored by one integrality rule
(``_exact``): an integral coefficient is held as an int and any other as a
Fraction, so integral series run through the int kernels with no
conversion.  The public boundary stays Fraction: ``integer_coeffs``,
Grunsky table entries and Faber polynomial coefficients.  Divide a
coefficient read from a series as Fraction(x, n); x / n gives a float when
x is an int.

Exponents live on a grid lead_exp + k*step whose denominators divide 24
(the eta grid).  Truncation is an explicit attribute: exponents at or above
``trunc`` are unknown, not zero, and arithmetic never fabricates
coefficients past the knowledge boundary of its operands.
"""

from __future__ import annotations

import sys
from array import array
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from math import ceil, gcd
from operator import index, mul
from typing import Iterable, NamedTuple, Optional, Union

Rat = Union[int, Fraction]

GRID_DENOMINATOR = 24

_BIG_ENDIAN = sys.byteorder == "big"  # array('q') holds native-order words


class GridError(ValueError):
    """A series' exponent grid leaves the 1/24 grid."""


class TruncationError(ValueError):
    """A coefficient beyond the truncation order was requested."""


def _frgcd(x: Fraction, y: Fraction) -> Fraction:
    """The largest step both are integer multiples of; gcd(0, n) = |n| covers zero."""
    return Fraction(gcd(x.numerator * y.denominator, y.numerator * x.denominator),
                    x.denominator * y.denominator)


def _as_fraction(v: Rat) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _exact(v: Rat) -> Rat:
    """v as an int when it is integral, else as a Fraction: the one
    integrality rule of the series store and of the recursions that run in
    ints on integral input."""
    if isinstance(v, int):
        return v
    v = _as_fraction(v)
    return v.numerator if v.denominator == 1 else v


def _grid_points(lead: Rat, step: Rat, trunc: Rat) -> int:
    """How many exponents lead + k*step, k >= 0, lie below trunc."""
    return max(0, -((lead - trunc) // step))


class QSeries:
    """A truncated series sum_i c_i q^(lead_exp + i*step), known below ``trunc``."""

    __slots__ = ("lead_exp", "step", "coeffs", "trunc")

    def __init__(self, lead_exp: Rat, step: Rat, coeffs: Iterable[Rat], trunc: Rat):
        lead_exp = _as_fraction(lead_exp)
        step = _as_fraction(step)
        trunc = _as_fraction(trunc)
        if step <= 0:
            raise ValueError("step must be positive")
        cs = [_exact(c) for c in coeffs]
        # trim leading zeros
        lo = 0
        while lo < len(cs) and cs[lo] == 0:
            lo += 1
        cs = cs[lo:]
        lead_exp += lo * step
        # drop anything at or above the truncation order
        del cs[_grid_points(lead_exp, step, trunc):]
        while cs and cs[-1] == 0:
            cs.pop()
        if GRID_DENOMINATOR % step.denominator or GRID_DENOMINATOR % lead_exp.denominator:
            raise GridError(
                f"exponent grid {lead_exp} + k*{step} leaves the 1/{GRID_DENOMINATOR} grid")
        self.lead_exp = lead_exp
        self.step = step
        self.coeffs = cs
        self.trunc = trunc

    # -- inspection ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exp: Rat) -> Rat:
        """Coefficient at exponent ``exp`` as stored, 0 where the series has no
        term; raises past the truncation order."""
        if exp >= self.trunc:
            raise TruncationError(f"coefficient at q^{exp} is beyond trunc={self.trunc}")
        if type(exp) is int and self.step == 1 and self.lead_exp.denominator == 1:
            i = exp - self.lead_exp.numerator
            return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        idx = (_as_fraction(exp) - self.lead_exp) / self.step
        i = idx.numerator
        return self.coeffs[i] if idx.denominator == 1 and 0 <= i < len(self.coeffs) else 0

    def coeff_range(self, lo: int, hi: int) -> list:
        """Coefficients at integer exponents lo..hi inclusive, as stored: what
        ``coeff`` gives at each, read at once.  Raises past the truncation order.

        On a step-1 grid with an integral lead this is one slice of the list;
        any other grid reads through ``coeff``."""
        if hi < lo:
            return []
        if hi >= self.trunc:  # named as coeff names it: the first exponent past trunc
            first = max(lo, ceil(self.trunc))
            raise TruncationError(f"coefficient at q^{first} is beyond trunc={self.trunc}")
        if self.step != 1 or self.lead_exp.denominator != 1:
            return [self.coeff(k) for k in range(lo, hi + 1)]
        lead, n = self.lead_exp.numerator, hi + 1 - lo
        out = [0] * min(max(lead - lo, 0), n)  # exponents below the lead
        out += self.coeffs[max(lo - lead, 0):max(hi + 1 - lead, 0)]
        return out + [0] * (n - len(out))  # and past the stored list

    def integer_coeffs(self, lo: int, hi: int) -> list:
        """Coefficients at integer exponents lo..hi inclusive, as Fractions:
        the benchmark's ``workloads.plain`` renders only Fractions as decimal
        strings, so an int here would compare unequal to its reference."""
        return list(map(Fraction, self.coeff_range(lo, hi)))

    def exponents(self):
        return [self.lead_exp + i * self.step for i in range(len(self.coeffs))]

    def is_normalized(self) -> bool:
        """Simple pole with unit residue and zero constant term: q^-1 + O(q)."""
        if self.is_zero or self.lead_exp != -1 or self.coeffs[0] != 1:
            return False
        # exponents -1 + i*step in (-1, 0] are those with 1 <= i <= 1/step
        last = self.step.denominator // self.step.numerator
        return not any(self.coeffs[1:last + 1])

    def truncate(self, new_trunc: Rat) -> "QSeries":
        new_trunc = _as_fraction(new_trunc)
        if new_trunc > self.trunc:
            raise TruncationError("cannot extend knowledge by truncating")
        return QSeries(self.lead_exp, self.step, self.coeffs, new_trunc)

    def __repr__(self) -> str:
        parts = []
        for e, c in zip(self.exponents(), self.coeffs):
            if c:
                parts.append(f"{c}*q^({e})")
            if len(parts) == 4:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"QSeries({body} + O(q^{self.trunc}))"

    def __eq__(self, other) -> bool:
        """Known to the same order, with the same coefficients below it."""
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.trunc == other.trunc and agree(self, other, self.trunc) is None

    __hash__ = None

    # -- grid handling ---------------------------------------------------

    def _on_grid(self, step: Fraction) -> list:
        """The coeff list on the grid of ``step``, which divides this series' step."""
        r = (self.step / step).numerator
        if r == 1 or not self.coeffs:
            return self.coeffs
        out = [0] * ((len(self.coeffs) - 1) * r + 1)
        out[::r] = self.coeffs
        return out

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "QSeries":
        return QSeries(self.lead_exp, self.step, [-c for c in self.coeffs], self.trunc)

    def __add__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            other = QSeries(0, 1, [other], self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        if self.is_zero:
            return QSeries(other.lead_exp, other.step, other.coeffs, trunc)
        if other.is_zero:
            return QSeries(self.lead_exp, self.step, self.coeffs, trunc)
        lead, step, (ia, ca), (ib, cb) = _aligned(self, other)
        # the longer list is the start, and the shorter one is added into it
        if len(ca) < len(cb):
            (ia, ca), (ib, cb) = (ib, cb), (ia, ca)
        out = [0] * ia + ca
        out += [0] * (ib + len(cb) - len(out))
        for i, c in enumerate(cb, ib):
            out[i] += c
        return QSeries(lead, step, out, trunc)

    __radd__ = __add__

    def __sub__(self, other) -> "QSeries":
        return self + (-other)

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return QSeries(self.lead_exp, self.step, [c * other for c in self.coeffs],
                           self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.is_zero or other.is_zero:
            a_lead = self.lead_exp if not self.is_zero else self.trunc
            b_lead = other.lead_exp if not other.is_zero else other.trunc
            return QSeries(0, 1, [], min(self.trunc + b_lead, other.trunc + a_lead))
        # the product's exponents are the sum of the leads plus multiples of
        # the steps' gcd; unlike a sum, it needs no grid through both leads
        step = _frgcd(self.step, other.step)
        trunc = min(self.trunc + other.lead_exp, other.trunc + self.lead_exp)
        ca = self._on_grid(step)
        cb = other._on_grid(step)
        lead = self.lead_exp + other.lead_exp
        # number of product coefficients actually known
        n_out = min(_grid_points(lead, step, trunc), len(ca) + len(cb) - 1)
        out = _int_conv(ca, cb, n_out)
        return QSeries(lead, step, out, trunc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            t = self.trunc if self.is_zero else self.trunc - self.lead_exp
            return QSeries(0, 1, [1], t)
        # the truncation a chain of n - 1 products would propagate
        if self.is_zero:
            return QSeries(0, 1, [], n * self.trunc)
        lead, step, trunc = self.lead_exp, self.step, self.trunc
        size = _grid_points(lead, step, trunc)
        coeffs = self.coeffs + [0] * (size - len(self.coeffs))
        return QSeries(n * lead, step, _int_power(coeffs, n, size), trunc + (n - 1) * lead)

    def invert(self) -> "QSeries":
        """Multiplicative inverse up to the propagated truncation order."""
        if self.is_zero:
            raise ZeroDivisionError("cannot invert a series that vanishes to its trunc order")
        lead = self.lead_exp
        # the list past q^lead is known to order (trunc - lead): trailing zeros
        # below trunc are known and count toward the order; the inverse stays
        # in ints for an integral list led by +-1
        n = max(len(self.coeffs), _grid_points(lead, self.step, self.trunc))
        inv = _int_series_inverse(self.coeffs + [0] * (n - len(self.coeffs)), n)
        trunc = self.trunc - 2 * lead
        return QSeries(-lead, self.step, inv, trunc)

    def substitute(self, k: Rat) -> "QSeries":
        """q -> q^k; exponents and truncation scale by k."""
        k = _as_fraction(k)
        if k <= 0:
            raise ValueError("substitution exponent must be positive")
        return QSeries(self.lead_exp * k, self.step * k, self.coeffs, self.trunc * k)


def _aligned(a: QSeries, b: QSeries):
    """a and b on one grid: (the lower lead exponent, the grid step, and for
    each series its (index offset from that lead, coeff list)).  The step is
    the gcd of both steps and, when neither series is zero, of the gap between
    the leads, so both offsets are integral; a zero series sits at offset 0
    with an empty list."""
    step = _frgcd(a.step, b.step)
    leads = [s.lead_exp for s in (a, b) if s.coeffs]
    if len(leads) == 2:
        step = _frgcd(step, leads[0] - leads[1])
    lead = min(leads, default=Fraction(0))
    placed = [(((s.lead_exp - lead) / step).numerator if s.coeffs else 0, s._on_grid(step))
              for s in (a, b)]
    return lead, step, placed[0], placed[1]


def _exponents_below(a: QSeries, b: QSeries, order: Fraction) -> list:
    """Exponents below ``order`` held by either series, ascending."""
    return sorted({s.lead_exp + i * s.step for s in (a, b)
                   for i in range(min(len(s.coeffs), _grid_points(s.lead_exp, s.step, order)))})


def agree(a: QSeries, b: QSeries, order: Rat):
    """First (exponent, a's coefficient, b's coefficient) where a and b differ
    below ``order``, or None.  Nothing at or above ``order`` is read.

    Raises TruncationError when either side is known only below ``order``.
    """
    order = _as_fraction(order)
    for s in (a, b):
        if s.trunc < order:
            raise TruncationError(f"series known below q^{s.trunc} compared to q^{order}")
    lead, step, (ia, ca), (ib, cb) = _aligned(a, b)
    top = min(_grid_points(lead, step, order), max(ia + len(ca), ib + len(cb)))
    for k in range(top):
        x = ca[k - ia] if 0 <= k - ia < len(ca) else 0
        y = cb[k - ib] if 0 <= k - ib < len(cb) else 0
        if x != y:
            return (lead + k * step, x, y)
    return None


class CheckReport(NamedTuple):
    """What a check compared: how many items, and the first that differed."""
    name: str
    compared: int
    first_mismatch: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        """Something was compared and nothing differed."""
        return self.compared > 0 and self.first_mismatch is None


# -- classical oracles ---------------------------------------------------

def euler_phi_int_coeffs(n_terms: int) -> list:
    """prod_{n>=1} (1 - q^n) via the pentagonal number theorem; integer list."""
    out = [0] * n_terms
    k = 0
    while True:
        done = True
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e < n_terms:
                out[e] += -1 if kk % 2 else 1
                done = False
        if done:
            break
        k += 1
    return out


def _phi_cube_int_coeffs(n_terms: int) -> list:
    """prod_{n>=1} (1 - q^n)^3 via Jacobi's identity,
    sum_{k>=0} (-1)^k (2k + 1) q^(k(k+1)/2); integer list."""
    out = [0] * n_terms
    k = 0
    while (e := k * (k + 1) // 2) < n_terms:
        out[e] = -2 * k - 1 if k % 2 else 2 * k + 1
        k += 1
    return out


def eta(trunc: Rat) -> "QSeries":
    """Dedekind eta: q^(1/24) prod (1-q^n), expanded by the pentagonal theorem."""
    trunc = _as_fraction(trunc)
    if trunc <= Fraction(1, 24):
        raise ValueError("trunc must exceed 1/24")
    n_terms = _grid_points(Fraction(1, 24), 1, trunc)
    return QSeries(Fraction(1, 24), 1, euler_phi_int_coeffs(n_terms), trunc)


def _sigma_list(power: int, n_max: int) -> list:
    """sigma_power(n) for n = 0..n_max (index 0 unused)."""
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dp = d ** power
        for m in range(d, n_max + 1, d):
            out[m] += dp
    return out


def _eisenstein_int_coeffs(power: int, scale: int, n_terms: int) -> list:
    """The first n_terms coefficients of 1 + scale sum sigma_power(n) q^n."""
    sig = _sigma_list(power, n_terms)
    return [scale * sig[n] if n else 1 for n in range(n_terms)]


def _e4_int_coeffs(n_terms: int) -> list:
    """The first n_terms coefficients of E4 = 1 + 240 sum sigma_3(n) q^n."""
    return _eisenstein_int_coeffs(3, 240, n_terms)


def _e8_int_coeffs(n_terms: int) -> list:
    """The first n_terms coefficients of E8 = E4^2 = 1 + 480 sum sigma_7(n) q^n:
    M_8(SL_2(Z)) has dimension 1, so E4^2 is the Eisenstein series E8."""
    return _eisenstein_int_coeffs(7, 480, n_terms)


def eisenstein_e4(trunc: Rat) -> "QSeries":
    """E4 = 1 + 240 sum sigma_3(n) q^n."""
    return QSeries(0, 1, _e4_int_coeffs(_grid_points(0, 1, trunc)), trunc)


def delta_int_coeffs(n_terms: int) -> list:
    """tau(1..n_terms): Delta = q prod (1-q^n)^24, integer coefficients."""
    return _phi_power_table({24: n_terms})[24]


# Shorter operand length from which one packed big-int product replaces the
# loop on int lists.  The loop is faster below 20 to 30 terms on dense
# operands.  Sparse ones pack too: phi(q) times itself is as fast packed as
# on the loop at 40 terms, faster up to 1000, and 20 % slower at 3000.
_KRONECKER_MIN_LEN = 40


def _int_conv(a: list, b: list, n_out: int) -> list:
    """First n_out coefficients of the Cauchy product of a and b.

    The one truncated product of the package.  Entries keep the operands'
    type: ints stay ints and Fractions stay Fractions (never floats).  Int
    lists whose shorter operand has at least _KRONECKER_MIN_LEN terms go
    through Kronecker substitution; everything else runs the schoolbook loop.
    A square (a is b) scans its operand once, stays one object when cut to
    n_out, and is packed once.  Every operand is scanned once, for its type
    and its largest entry together (_int_top).
    """
    square = a is b
    a = a[:n_out]
    b = a if square else b[:n_out]
    if min(len(a), len(b)) >= _KRONECKER_MIN_LEN:
        try:
            top = _int_top(a, b)
        except TypeError:  # an entry that is not an int keeps the loop
            pass
        else:
            return _kronecker_conv(a, b, n_out, top)
    return _schoolbook_conv(a, b, n_out)


def _int_top(a: list, b: list) -> int:
    """max|a| max|b| for nonempty int lists, in one scan of each operand (of
    one, for a square b is a): operator.index reads each entry as an int,
    and raises TypeError on any entry that is not one, a Fraction among them."""
    top = max(map(abs, map(index, a)))
    return top * (top if b is a else max(map(abs, map(index, b))))


def _schoolbook_conv(a: list, b: list, n_out: int) -> list:
    """The truncated product by the double loop over nonzero entries."""
    out = [a[0] - a[0] if a else 0] * n_out
    nonzero_b = [(j, y) for j, y in enumerate(b[:n_out]) if y]
    for i, x in enumerate(a[:n_out]):
        if x:
            hi = n_out - i
            for j, y in nonzero_b:
                if j >= hi:
                    break
                out[i + j] += x * y
    return out


# Bits per packed operand (slot bits times the shorter length) from which
# the product goes through decimal, whose number-theoretic transform beats
# CPython's Karatsuba int product: the two break even near 1.8e5 bits.
_DECIMAL_MIN_BITS = 200_000


def _kronecker_conv(a: list, b: list, n_out: int, top: Optional[int] = None) -> list:
    """The truncated product of two nonempty int lists by one big-int product.

    Each list is packed into a number with one slot per coefficient,
    A = sum a_i R^i.  Every product coefficient is bounded by
    max|a| max|b| min(len), which fixes the slot: w bytes such that it fits
    in (-2^(8w-1), 2^(8w-1)), or W decimal digits.  Slots wider than 8 bytes
    go through decimal (_decimal_slot_product) when the shorter operand packs
    to at least _DECIMAL_MIN_BITS bits and a slot has fewer digits than the
    int/str conversion limit allows; every other slot is two's complement
    bytes (_binary_slot_product).  Either packer packs a square (b is a) once.
    ``top`` is max|a| max|b| when the caller has scanned for it (_int_top).
    """
    if top is None:
        top = _int_top(a, b)
    if not top:
        return [0] * n_out
    short = min(len(a), len(b))
    bound = top * short
    width = bound.bit_length() // 8 + 1
    k = min(len(a) + len(b) - 1, n_out)
    if width > 8 and 8 * width * short >= _DECIMAL_MIN_BITS and (
            digits := _decimal_digits(bound)):
        out = _decimal_slot_product(a, b, digits, k)
    else:
        out = _binary_slot_product(a, b, width, k)
    return out + [0] * (n_out - k)


def _decimal_digits(bound: int) -> int:
    """The digit count W of 2 bound, so that 10^W / 2 > bound, or 0 when a
    slot of W digits is not below the int/str conversion limit (0 is none).

    W is read off the bit length (30103/100000 > log10 2, so it never
    undercounts) and then corrected; no int is converted to a string.
    """
    twice = 2 * bound
    digits = twice.bit_length() * 30103 // 100000 + 1
    while digits > 1 and 10 ** (digits - 1) > twice:
        digits -= 1
    limit = sys.get_int_max_str_digits()
    return digits if not limit or digits < limit else 0


def _packed_product(pack, multiply, a: list, b: list):
    """multiply(pack(a), pack(b)), where a square (b is a) is packed once and
    multiplied by itself, so the number type's squaring can run."""
    pa = pack(a)
    return multiply(pa, pa if b is a else pack(b))


# byte -> 0xFF if its top bit is set, else 0: the sign fill of a slot's top byte
_SIGN_FILL = bytes(0xFF if i & 0x80 else 0 for i in range(256))


def _binary_slot_product(a: list, b: list, width: int, k: int) -> list:
    """The first k coefficients of a*b, packed in two's complement slots of
    ``width`` bytes.

    A slot of at most 8 bytes is the low ``width`` bytes of a 64-bit word of
    array('q'), copied by strided slices; a wider one is x.to_bytes(width,
    signed=True).  With S the top bit of every slot and U the unsigned read
    of the slots, the signed packing is A = U - ((U & S) << 1).  Adding S to
    the product A*B makes every slot nonnegative, and XOR with S turns each
    back into its two's complement.  A narrow slot's top byte, translated to
    0x00 or 0xFF, fills its word; a wide one reads back by int.from_bytes.
    """
    m = len(a) + len(b) - 1
    sign = int.from_bytes((bytes(width - 1) + b"\x80") * m, "little")

    def packed(xs: list) -> int:
        if width > 8:
            slots = b"".join([x.to_bytes(width, "little", signed=True) for x in xs])
        else:
            words = array("q", xs)
            if _BIG_ENDIAN:
                words.byteswap()
            raw = words.tobytes()
            slots = bytearray(width * len(xs))
            for j in range(width):
                slots[j::width] = raw[j::8]
        u = int.from_bytes(slots, "little")
        return u - ((u & sign) << 1)

    raw = ((_packed_product(packed, mul, a, b) + sign) ^ sign).to_bytes(width * m, "little")
    if width > 8:
        return [int.from_bytes(raw[i:i + width], "little", signed=True)
                for i in range(0, width * k, width)]
    words = bytearray(8 * k)
    for j in range(width):
        words[j::8] = raw[j:width * k:width]
    fill = raw[width - 1:width * k:width].translate(_SIGN_FILL)
    for j in range(width, 8):
        words[j::8] = fill
    out = array("q", words)
    if _BIG_ENDIAN:
        out.byteswap()
    return out.tolist()


def _decimal_slot_product(a: list, b: list, digits: int, k: int) -> list:
    """The first k coefficients of a*b, packed in decimal slots of ``digits``
    digits, A = sum a_i 10^(digits i).

    Adding H = 10^digits / 2 to every slot makes it a nonnegative number of
    at most ``digits`` digits, so each operand is its zero-padded entries
    x + H joined (the last entry first) less the joined offsets.  The product
    runs in a local context at the largest precision, where integer sums and
    products are exact; the global context and the int/str digit limit are
    never touched.  The slots read back by slicing the product's digits.
    """
    half = 5 * 10 ** (digits - 1)
    halves = "5" + "0" * (digits - 1)
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

    def packed(xs: list) -> Decimal:
        text = "".join([str(x + half).zfill(digits) for x in reversed(xs)])
        return ctx.subtract(Decimal(text), Decimal(halves * len(xs)))

    m = len(a) + len(b) - 1
    prod = ctx.add(_packed_product(packed, ctx.multiply, a, b), Decimal(halves * m))
    text = str(prod).zfill(digits * m)
    del prod
    return [int(text[i - digits:i]) - half
            for i in range(digits * m, digits * (m - k), -digits)]


def _int_power(a: list, e: int, n_out: int) -> list:
    """First n_out coefficients of a^e, e >= 1, by repeated squaring."""
    result = None
    while True:
        if e & 1:
            result = a[:n_out] if result is None else _int_conv(result, a, n_out)
        e >>= 1
        if not e:
            return result + [0] * (n_out - len(result))
        a = _int_conv(a, a, n_out)


def _miller_power(h: list, e: int, n_out: int) -> list:
    """First n_out coefficients of h^e for an int list with h[0] = 1, any int e.

    J.C.P. Miller's power recurrence (Knuth, TAOCP Vol. 2, 4.7): u = h^e
    satisfies h u' = e h' u, which in coefficients reads
    m u_m = sum_{k >= 1, h_k != 0} ((e + 1) k - m) h_k u_{m-k}.
    Only h's nonzero entries enter the sums, so a sparse h such as phi(q)
    costs its own density per coefficient, and a negative e needs no series
    inverse.  The division by m is exact for integral h; a remainder raises
    ArithmeticError instead of being rounded away.
    """
    if h[0] != 1:
        raise ValueError("Miller's recurrence needs h[0] = 1")
    if n_out <= 0:
        return []
    terms = [(k, x, (e + 1) * k * x) for k, x in enumerate(h[1:n_out], 1) if x]
    u = [0] * n_out
    u[0] = 1
    for m in range(1, n_out):
        s = 0
        for k, x, ek in terms:
            if k > m:
                break
            s += (ek - m * x) * u[m - k]
        q, r = divmod(s, m)
        if r:
            raise ArithmeticError(f"Miller's recurrence left remainder {r} at index {m}")
        u[m] = q
    return u


def _phi_power_table(sizes: dict) -> dict:
    """exponent c -> the first sizes[c] coefficients of phi^c, for ints
    c != 0, phi = prod_{n>=1} (1 - q^n); each power is computed once.

    An even c > 0 is the square of phi^(c/2), which joins the table at the
    longest length any power above it needs; so phi^24 is phi^3 squared three
    times.  An odd c > 0 is a power of Jacobi's phi^3 when 3 divides it and
    of phi otherwise, by repeated squaring; a c < 0 is Miller's recurrence
    on phi's sparse list.
    """
    need = dict(sizes)
    for c, size in sizes.items():
        while c > 0 and c % 2 == 0:
            c //= 2
            need[c] = max(need.get(c, 0), size)
    table = {}
    for c in sorted(need):
        n = need[c]
        if c < 0:
            table[c] = _miller_power(euler_phi_int_coeffs(n), c, n)
        elif c % 2 == 0:
            half = table[c // 2]
            table[c] = _int_conv(half, half, n)
        elif c % 3 == 0:
            table[c] = _int_power(_phi_cube_int_coeffs(n), c // 3, n)
        else:
            table[c] = _int_power(euler_phi_int_coeffs(n), c, n)
    return table


def _int_series_inverse(a: list, n_out: int) -> list:
    """First n_out coefficients of 1/a for a power series with a[0] != 0.

    The one series-inverse recurrence of the package; it stays in ints when a
    is integral with a[0] = +-1, and otherwise works in Fractions.  Only a's
    nonzero entries enter the sums, so a sparse a costs its own density.
    """
    inv0 = a[0] if a[0] in (1, -1) else 1 / Fraction(a[0])
    inv = [inv0] * n_out
    nonzero_a = [(j, x) for j, x in enumerate(a[1:n_out], 1) if x]
    for k in range(1, n_out):
        s = 0
        for j, x in nonzero_a:
            if j > k:
                break
            s += x * inv[k - j]
        inv[k] = -s * inv0
    return inv


def delta(trunc: Rat) -> "QSeries":
    """Modular discriminant Delta = eta^24."""
    return QSeries(1, 1, delta_int_coeffs(_grid_points(1, 1, trunc)), trunc)


def j_int_coeffs(n_terms: int) -> list:
    """[c(-1), c(0), c(1), ...] of J = E4^3/Delta - 744, n_terms entries past c(0)."""
    n = n_terms + 2
    e12 = _int_conv(_e8_int_coeffs(n), _e4_int_coeffs(n), n)
    inv = _miller_power(euler_phi_int_coeffs(n), -24, n)  # q / Delta
    j = _int_conv(e12, inv, n)                            # q * (J + 744)
    j[1] -= 744
    return j[: n_terms + 2]


def j_oracle(trunc: Rat) -> "QSeries":
    """Normalized J = E4^3/Delta - 744 = q^-1 + 196884 q + ..."""
    return QSeries(-1, 1, j_int_coeffs(_grid_points(1, 1, trunc)), trunc)

