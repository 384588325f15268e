"""Named function specifications and their realization as exact q-series.

A FunctionSpec pins down one normalized function: J, an eta quotient plus a
constant shift, a modular fiction 1/q + c q, or an explicit coefficient list.
The string grammar used by the command line lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .qseries import QSeries, Rat, _as_fraction, j_oracle
from .frames import FrameShape, FrameShapeError, eta_product, parse_frame_shape
from .replicable import ReplicationFamily


class SpecError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionSpec:
    """variant is one of 'j', 'eta', 'fiction', 'explicit'."""

    variant: str
    shape: Optional[FrameShape] = None
    shift: Fraction = Fraction(0)
    c: int = 0
    coefficients: tuple = ()

    def __post_init__(self):
        if self.variant not in ("j", "eta", "fiction", "explicit"):
            raise SpecError(f"unknown variant {self.variant!r}")
        if self.variant == "eta" and self.shape is None:
            raise SpecError("eta variant needs a frame shape")
        if self.variant == "fiction" and self.c not in (-1, 0, 1):
            raise SpecError("fiction parameter c must be -1, 0 or 1")

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
    """Expand the spec to a QSeries with the given truncation order."""
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

def j_family(trunc: Rat) -> ReplicationFamily:
    """J is its own replicate at every index."""
    J = j_oracle(trunc)
    return ReplicationFamily(J, {a: J for a in range(2, 13)})


def fiction_family(c: int, trunc: Rat) -> ReplicationFamily:
    """Replicates of 1/q + c q are 1/q + c^a q."""
    return ReplicationFamily(fiction_series(c, trunc),
                             {a: fiction_series(c ** a, trunc) for a in range(2, 13)})


TB2_SPEC = FunctionSpec("eta", shape=parse_frame_shape("1^24/2^24"), shift=Fraction(24))


def tb2_family(trunc: Rat) -> ReplicationFamily:
    """The 2B hauptmodul: even-index replicates are J, odd-index are itself."""
    f = realize(TB2_SPEC, trunc)
    J = j_oracle(trunc)
    return ReplicationFamily(f, {a: (J if a % 2 == 0 else f) for a in range(2, 13)})


def replication_family(function: Union[FunctionSpec, str], trunc: Rat) -> ReplicationFamily:
    """The replication family of J, the 2B hauptmodul or a fiction 1/q + c q,
    known to q^trunc.  ``function`` is a FunctionSpec or a short name of the
    check payloads: "j", "2b" or "c=C"; any other function raises SpecError."""
    if isinstance(function, str):
        function = TB2_SPEC if function == "2b" else parse_function_spec(
            function if function == "j" else "fiction:" + function)
    if function.variant == "j":
        return j_family(trunc)
    if function.variant == "fiction":
        return fiction_family(function.c, trunc)
    if function == TB2_SPEC:
        return tb2_family(trunc)
    raise SpecError(f"no replication family known for spec {function}; "
                    "methods beyond 'oracle' need one")
