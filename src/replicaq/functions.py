"""Named function specifications and their realization as exact q-series.

A FunctionSpec pins down one normalized function: J, an eta quotient plus a
constant shift, a modular fiction 1/q + c q, or an explicit coefficient list.
The string grammar used by the command line lives here too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional, Union

from .qseries import QSeries, Rat, _as_fraction, j_oracle
from .frames import FrameShape, FrameShapeError, eta_product, parse_frame_shape
from .replicable import ReplicationFamily


class SpecError(ValueError):
    pass


class _FunctionSpecFields(NamedTuple):
    variant: str
    shape: Optional[FrameShape]
    shift: Fraction
    c: int
    coefficients: tuple


class FunctionSpec(_FunctionSpecFields):
    """variant is one of 'j', 'eta', 'fiction', 'explicit'."""

    __slots__ = ()

    def __new__(cls, variant: str, shape: Optional[FrameShape] = None,
                shift: Fraction = Fraction(0), c: int = 0, coefficients: tuple = ()):
        if variant not in ("j", "eta", "fiction", "explicit"):
            raise SpecError(f"unknown variant {variant!r}")
        if variant == "eta" and shape is None:
            raise SpecError("eta variant needs a frame shape")
        if variant == "fiction" and c not in (-1, 0, 1):
            raise SpecError("fiction parameter c must be -1, 0 or 1")
        return super().__new__(cls, variant, shape, shift, c, coefficients)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __str__(self) -> str:
        if self.variant == "j":
            return "j"
        if self.variant == "fiction":
            return f"fiction:c={self.c}"
        if self.variant == "eta":
            s = self.shift
            sign = "+" if s >= 0 else "-"
            return f"eta:{self.shape}{sign}{abs(s)}"
        return "explicit:" + ",".join(str(c) for c in self.coefficients)


def fiction_series(c: int, trunc: Rat) -> QSeries:
    return QSeries(-1, 1, [1, 0, c], trunc)


def realize(spec: FunctionSpec, trunc: Rat) -> QSeries:
    """Expand the spec to a QSeries with the given truncation order.  An eta
    spec must give q^-1 + O(q): a nonzero constant term raises SpecError,
    which names the shift that would cancel it."""
    trunc = _as_fraction(trunc)
    if spec.variant == "j":
        return j_oracle(trunc)
    if spec.variant == "fiction":
        return fiction_series(spec.c, trunc)
    if spec.variant == "explicit":
        return QSeries(-1, 1, [1, 0, *spec.coefficients], trunc)
    f = eta_product(spec.shape, trunc) + spec.shift
    if f.lead_exp != -1:
        raise SpecError(f"eta quotient {spec.shape} has lead exponent "
                        f"{f.lead_exp}, not the required simple pole")
    if f.trunc > 0 and f.coeff(0) != 0:
        fixed = FunctionSpec("eta", shape=spec.shape, shift=spec.shift - f.coeff(0))
        raise SpecError(f"{spec} has constant term {f.coeff(0)}, not 0; "
                        f"the normalized function is {fixed}")
    return f


def parse_function_spec(text: str) -> FunctionSpec:
    """Grammar: `j` | `fiction:c=C` | `eta:SHAPE[+SHIFT|-SHIFT]` | `explicit:a1,a2,...`."""
    text = text.strip()
    if text == "j":
        return FunctionSpec("j")
    head, sep, rest = text.partition(":")
    if not sep:
        raise SpecError(f"unrecognized function spec {text!r}")
    if head == "fiction":
        if not rest.startswith("c="):
            raise SpecError(f"fiction spec must look like fiction:c=1, got {text!r}")
        try:
            c = int(rest[2:])
        except ValueError:
            raise SpecError(f"bad fiction parameter in {text!r}") from None
        return FunctionSpec("fiction", c=c)
    if head == "eta":
        body, shift = rest, Fraction(0)
        # the shift sign is the last +/- not inside the shape tokens
        for i in range(len(rest) - 1, -1, -1):
            if rest[i] in "+-" and "^" not in rest[i:]:
                body, shift_text = rest[:i], rest[i:]
                try:
                    shift = Fraction(shift_text)
                except (ValueError, ZeroDivisionError):
                    raise SpecError(f"bad shift in {text!r}") from None
                break
        try:
            shape = parse_frame_shape(body)
        except FrameShapeError as exc:
            raise SpecError(str(exc)) from None
        return FunctionSpec("eta", shape=shape, shift=shift)
    if head == "explicit":
        try:
            coeffs = tuple(Fraction(tok) for tok in rest.split(",")) if rest else ()
        except (ValueError, ZeroDivisionError):
            raise SpecError(f"bad coefficient list in {text!r}") from None
        return FunctionSpec("explicit", coefficients=coeffs)
    raise SpecError(f"unrecognized function spec {text!r}")


# -- families ------------------------------------------------------------

# The hauptmoduln of seven Monster classes, by payload short name: (power
# map, spec).  The map names the class of g^d for each divisor d > 1 of the
# class order N, the largest key.  Norton's replication is the power map,
# T_g^(a) = T_(g^a), and g^a is the class of g^gcd(a, N).
HAUPTMODULN = {
    "j": ({}, FunctionSpec("j")),
    "2b": ({2: "j"}, parse_function_spec("eta:1^24/2^24+24")),
    "3b": ({3: "j"}, parse_function_spec("eta:1^12/3^12+12")),
    "4c": ({2: "2b", 4: "j"}, parse_function_spec("eta:1^8/4^8+8")),
    "5b": ({5: "j"}, parse_function_spec("eta:1^6/5^6+6")),
    "7b": ({7: "j"}, parse_function_spec("eta:1^4/7^4+4")),
    "13b": ({13: "j"}, parse_function_spec("eta:1^2/13^2+2")),
}


def j_family(trunc: Rat) -> ReplicationFamily:
    """J is its own replicate at every index."""
    return replication_family("j", trunc)


def tb2_family(trunc: Rat) -> ReplicationFamily:
    """The 2B hauptmodul: even-index replicates are J, odd-index are itself."""
    return replication_family("2b", trunc)


def fiction_family(c: int, trunc: Rat) -> ReplicationFamily:
    """Replicates of 1/q + c q are 1/q + c^a q."""
    return ReplicationFamily(fiction_series(c, trunc),
                             {a: fiction_series(c ** a, trunc) for a in range(2, 13)})


def replication_family(function: Union[FunctionSpec, str], trunc: Rat) -> ReplicationFamily:
    """The replication family of a function of ``HAUPTMODULN`` or a fiction
    1/q + c q, known to q^trunc.  ``function`` is a FunctionSpec or a short
    name of the check payloads: a key of ``HAUPTMODULN`` or "c=C"; any other
    function raises SpecError.  f^(a) is the row the power map names at
    gcd(a, N), each row realized once."""
    name = function
    if isinstance(function, str) and function not in HAUPTMODULN:
        function = parse_function_spec("fiction:" + function)
    if isinstance(function, FunctionSpec):
        if function.variant == "fiction":
            return fiction_family(function.c, trunc)
        name = next((n for n, (_, spec) in HAUPTMODULN.items() if spec == function), None)
        if name is None:
            raise SpecError(f"no replication family known for spec {function}; "
                            "the 'recurrence' method needs one")
    classes = {1: name, **HAUPTMODULN[name][0]}
    order = max(classes)
    rows = {a: classes[gcd(a, order)] for a in range(1, 13)}
    series = {row: realize(HAUPTMODULN[row][1], trunc) for row in dict.fromkeys(rows.values())}
    return ReplicationFamily(series[name], {a: series[rows[a]] for a in range(2, 13)})
