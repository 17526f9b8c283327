"""Value semantics of the record types: construction by position and by
keyword, normalisation, immutability, equality and hashing, and no mutable
state shared between instances."""
from fractions import Fraction

import pytest

from ulrichcert.cohomology import CheckRecord, UlrichCertificate
from ulrichcert.enriques import DescentInference
from ulrichcert.fields import PrimeField
from ulrichcert.groebner import GroebnerBasis
from ulrichcert.kummer import Genus2Curve, NodeVerification
from ulrichcert.lattices import LatticeGram
from ulrichcert.picard import DEFAULT_TWELVE, HALF_EVEN_EIGHT, BundleRecipe, PolarizedSurfaceParams
from ulrichcert.polynomials import PolyRing

RING = PolyRing(("x", "y"), PrimeField(7))

# one valid argument tuple per immutable record, in field order
IMMUTABLE = {
    PolyRing: (("x", "y"), PrimeField(7)),
    Genus2Curve: (tuple(Fraction(r, 2) for r in (1, -1, 2, -2, 3, -3)),),
    NodeVerification: (False, True, {(0,): False}, 3, 16, (0,), {(0,): "point"}),
    LatticeGram: (((0, 1), (1, 0)),),
    PolarizedSurfaceParams: (4,),
    BundleRecipe: (HALF_EVEN_EIGHT, ((1, 2), (3, 4))),
    GroebnerBasis: ((RING.variable(0),),),
    DescentInference: ("p", "c", "summand-ulrich"),
    CheckRecord: ("n", "doubling+lattice-arithmetic", {"degree": 2}, {"h0": 0}, True),
}
# records with a dict field are unhashable, as before
HASHABLE = set(IMMUTABLE) - {NodeVerification, GroebnerBasis, CheckRecord}


@pytest.mark.parametrize("cls", IMMUTABLE, ids=lambda cls: cls.__name__)
def test_immutable_record_values(cls):
    args = IMMUTABLE[cls]
    record = cls(*args)
    assert cls(**dict(zip(cls._fields, args))) == record == cls(*args)
    assert [getattr(record, name) for name in cls._fields] == list(args)
    assert repr(record) == "{}({})".format(
        cls.__name__, ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, args)))
    if cls in HASHABLE:
        assert hash(record) == hash(cls(*args))
    for name in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_records_normalise_on_every_construction():
    curve = Genus2Curve(roots=("1/2", 1, 2, 3, 4, 5))
    assert curve.roots == (Fraction(1, 2), 1, 2, 3, 4, 5)
    assert all(type(r) is Fraction for r in curve.roots)
    gram = LatticeGram(gram=[[Fraction(2), 1.0], [True, -2]]).gram
    assert gram == ((2, 1), (1, -2)) and all(type(x) is int for row in gram for x in row)
    assert BundleRecipe(labels=((2, 1), (0,))).labels == ((1, 2), (0,))


def test_equal_records_are_equal_dict_keys():
    table = {PolyRing(("X", "Y"), PrimeField(5)): "ring",
             BundleRecipe(labels=tuple(label[::-1] for label in DEFAULT_TWELVE)): "recipe"}
    assert table[PolyRing(("X", "Y"), PrimeField(5))] == "ring"
    assert table[BundleRecipe()] == "recipe"
    assert PolyRing(("X", "Y"), PrimeField(7)) not in table


def test_records_share_no_mutable_state():
    first, second = (NodeVerification(True, True, {}, 3, 16) for _ in range(2))
    with pytest.raises(TypeError):
        first.points[(0,)] = "point"
    assert not second.points
    first, second = (UlrichCertificate(None, (), "", BundleRecipe(), 4, {}) for _ in range(2))
    first.checks.append("record")
    assert second.checks == []


def test_mutable_records_construction():
    cert = UlrichCertificate(5, ("1",), "X^4", BundleRecipe(), 4, {"passed": True})
    assert vars(cert) == vars(UlrichCertificate(**vars(cert))) == {
        "prime": 5, "roots": ("1",), "quartic_text": "X^4", "recipe": BundleRecipe(), "s": 4,
        "node_summary": {"passed": True}, "checks": [], "verdict": "refuted",
        "refutation_reason": None, "refutation_witness": None}
    cert.verdict = "certified"
    assert cert.verdict == "certified"


# per record that validates in __new__: a field and a value that it rejects
REJECTED = {
    Genus2Curve: ("roots", (1,) * 6),
    LatticeGram: ("gram", ((0, 1), (2, 0))),
    PolarizedSurfaceParams: ("s", 0),
    BundleRecipe: ("kind", "bogus"),
    GroebnerBasis: ("generators", ()),
    DescentInference: ("justification", "bogus"),
    CheckRecord: ("justification", "bogus"),
}


@pytest.mark.parametrize("cls", REJECTED, ids=lambda cls: cls.__name__)
def test_make_and_replace_validate(cls):
    args = IMMUTABLE[cls]
    record = cls._make(iter(args))
    assert type(record) is cls and record == cls(*args) == record._replace()
    field, bad = REJECTED[cls]
    with pytest.raises(ValueError):
        record._replace(**{field: bad})
    with pytest.raises(ValueError):
        cls._make(bad if name == field else value for name, value in zip(cls._fields, args))
    with pytest.raises(TypeError):
        cls._make(args + (None,))
