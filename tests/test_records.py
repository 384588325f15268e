"""The library's records: immutable NamedTuples that compare by value.

Every record but ``ReplicationFamily`` (which holds series and a mapping) also
hashes by value.  ``GrunskyTable``, the one mutable record, compares by value
and has no hash.  The validating records check their fields on every path
that builds one: the constructor, ``_replace``, copies and pickles.
"""

import copy
import pickle
from fractions import Fraction

import pytest

import replicaq.replicable as replicable
from replicaq.faber import FaberPolynomial, faber_by_recursion
from replicaq.frames import (FrameShape, FrameShapeError, MultiplicativityReport,
                             parse_frame_shape)
from replicaq.functions import FunctionSpec, SpecError, parse_function_spec
from replicaq.grunsky import GrunskyTable
from replicaq.hecke import HeckeFaberReport
from replicaq.qseries import CheckReport, j_oracle
from replicaq.replicable import (DescentError, ReducingPair, ReplicabilityReport,
                                 ReplicationFamily, find_reducing_pair)

J = j_oracle(12)

# each builder makes a fresh record equal to the last one it made
RECORDS = {
    "CheckReport": lambda: CheckReport("faber", 3, ("F_2", Fraction(1), 2)),
    "MultiplicativityReport": lambda: MultiplicativityReport(False, 30, (2, 3, 1, 1, 2)),
    "ReplicabilityReport": lambda: ReplicabilityReport(True, 24, 17),
    "HeckeFaberReport": lambda: HeckeFaberReport(2, False, 9, (3, 1, 2)),
    "ReducingPair": lambda: ReducingPair(16, (1, 15), (3, 5)),
    "FrameShape": lambda: FrameShape([4, 4, 1, 2, 4], [1]),
    "FaberPolynomial": lambda: faber_by_recursion([0, 196884], 2),
    "FunctionSpec": lambda: parse_function_spec("eta:1^24/2^24+24"),
    "ReplicationFamily": lambda: ReplicationFamily(J, {2: J.truncate(6)}),
}
UNHASHABLE = {"ReplicationFamily"}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_and_hashed_by_value(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b and a == b and not a != b
    assert a == tuple(b) and type(a).__name__ == name
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    r = RECORDS[name]()
    for field in type(r)._fields:
        with pytest.raises(AttributeError):
            setattr(r, field, None)
    with pytest.raises(AttributeError):
        r.extra = None
    assert r == RECORDS[name]()


@pytest.mark.parametrize("name", RECORDS)
def test_copies_and_pickles_are_equal(name):
    r = RECORDS[name]()
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin) is type(r) and twin == r


def test_a_changed_field_is_a_different_record():
    assert ReducingPair(16, (1, 15), (3, 5)) != ReducingPair(16, (1, 15), (1, 1))
    assert FrameShape([1, 1]) != FrameShape([1])
    assert parse_function_spec("fiction:c=1") != parse_function_spec("fiction:c=-1")
    assert CheckReport("a", 1) != CheckReport("a", 2)
    assert ReplicationFamily(J) != ReplicationFamily(J, {2: J})


INVALID = [
    (lambda: FaberPolynomial(2, (Fraction(1), Fraction(0))), ValueError,
     "degree 2 needs 3 coefficients, got 2"),
    (lambda: FaberPolynomial(1, (Fraction(2), Fraction(0))), ValueError,
     "Faber polynomial must be monic, leads with 2"),
    (lambda: FunctionSpec("theta"), SpecError, "unknown variant 'theta'"),
    (lambda: FunctionSpec("eta"), SpecError, "eta variant needs a frame shape"),
    (lambda: FunctionSpec("fiction", c=2), SpecError, "fiction parameter c must be -1, 0 or 1"),
    (lambda: ReplicationFamily(J * J), ValueError, "family base must be normalized"),
    (lambda: ReplicationFamily(J, {3: J + 1}), ValueError,
     r"replicate f\^\(3\) must be normalized"),
    (lambda: FrameShape([2], [2]), FrameShapeError, "numerator cancels away entirely"),
    (lambda: FrameShape([1], [0]), FrameShapeError, "a part must be an int >= 1, not 0"),
    # _replace goes through the same checks as the constructor
    (lambda: faber_by_recursion([0], 1)._replace(n=3), ValueError,
     "degree 3 needs 4 coefficients, got 2"),
    (lambda: FunctionSpec("fiction", c=1)._replace(c=2), SpecError,
     "fiction parameter c must be -1, 0 or 1"),
    (lambda: ReplicationFamily(J)._replace(base=J * J), ValueError,
     "family base must be normalized"),
    (lambda: parse_frame_shape("1^24")._replace(net=((1, -24),)), FrameShapeError,
     "numerator cancels away entirely"),
]


@pytest.mark.parametrize("make, error, message", INVALID)
def test_validation_errors(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()


def test_keyword_construction_and_defaults():
    assert FunctionSpec("j") == FunctionSpec(variant="j", shape=None, shift=Fraction(0), c=0,
                                             coefficients=())
    assert FaberPolynomial(coeffs=(1,), n=0) == (0, (1,))
    assert CheckReport("a", 1).first_mismatch is None
    assert FrameShape(denominator=[2], numerator=[1, 1]) == parse_frame_shape("1^2/2^1")


def test_family_powers_default_to_a_new_dict():
    first, second = ReplicationFamily(J), ReplicationFamily(J)
    assert first.powers == {} and first.powers is not second.powers
    assert ReplicationFamily(J, None) == first


def test_family_powers_are_a_read_only_copy():
    given = {2: J}
    fam = ReplicationFamily(J, given)
    given[3] = J * J
    assert 3 not in fam.powers and fam.powers == {2: J}
    for twin in (fam, copy.deepcopy(fam), pickle.loads(pickle.dumps(fam))):
        with pytest.raises(TypeError):
            twin.powers[5] = J + 1
        assert twin.powers == {2: J}


def test_reducing_pair_repr_is_what_a_descent_error_prints(monkeypatch):
    pair = ReducingPair(16, (1, 15), (1, 1))
    assert repr(pair) == str(pair) == "ReducingPair(grade=16, from_pair=(1, 15), to_pair=(1, 1))"
    monkeypatch.setattr(replicable, "_case_reducing_pair", lambda N: pair)
    with pytest.raises(DescentError) as caught:
        find_reducing_pair(16)
    assert str(caught.value) == f"case analysis gave an invalid pair {pair!r}"


def test_grunsky_table_is_mutable_compared_by_value_and_unhashable():
    t, u = GrunskyTable(4), GrunskyTable(4, {})
    assert t == u and t.entries is not GrunskyTable(4).entries
    t.set(2, 1, 3)
    assert t != u and t.get(1, 2) == 3 and t == GrunskyTable(4, {(1, 2): Fraction(3)})
    assert t != (4, {(1, 2): Fraction(3)})
    assert repr(t) == "GrunskyTable(grade_bound=4, entries={(1, 2): Fraction(3, 1)})"
    with pytest.raises(TypeError):
        hash(t)
