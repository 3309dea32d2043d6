"""Behaviour of omlab's value types and result records, pinned class by class.

For each of the 21 classes: ``str()`` of a sample, equality within the class,
``hash(x) == hash(tuple of its fields)`` (set and dict iteration orders, and
with them the recorded outputs, rest on it), immutability, keyword
construction and defaults, pickling, and the exact text of every validation.
The CLI's ``Caps``, ``CheckEntry`` and ``CheckReport`` are exempt from the
hash and immutability checks.
"""

import pickle

import pytest

from omlab.cli import Caps, CheckEntry, CheckReport
from omlab.digraphs import Digraph, FarkasCertificate
from omlab.errors import DomainError, GroundMismatchError, UnknownElementError
from omlab.lines import Line, LineSet
from omlab.matroid import CircuitViolation, MinorSpec
from omlab.oriented import (
    CEViolation,
    DecomposeFailure,
    DeriveFailure,
    EliminationInstance,
    FAViolation,
    FourPartition,
    FourPViolation,
    FPViolation,
    OrthViolation,
    Verdict,
)
from omlab.signed_sets import GroundSet, SignedSubset

G = GroundSet(("a", "b", "c"))
C = SignedSubset(G, 0b011, 0)  # ++0
C0 = SignedSubset(G, 0b100, 0b001)  # -0+
INST = EliminationInstance.of(C, {0: C0}, 1)
PART = FourPartition.from_masks(G, 0b001, 0b010, 0b100, 0)
FP = FPViolation(2, "both")
SPEC = MinorSpec.of(contract=[0], delete=[2])

# class -> (fields, sample, a sample that differs, str of the sample)
CASES = {
    GroundSet: (("labels",), G, GroundSet(("a", "b")), "GroundSet(labels=('a', 'b', 'c'))"),
    SignedSubset: (("ground", "pos", "neg"), C, SignedSubset(G, 0b011, 0b100), "++0"),
    CircuitViolation: (
        ("axiom", "witness", "message"),
        CircuitViolation("C3", (1, 2), "no circuit"),
        CircuitViolation("C2", (1, 2), "no circuit"),
        "(C3) no circuit",
    ),
    MinorSpec: (
        ("contract", "delete"),
        SPEC,
        MinorSpec.of(contract=[0]),
        "MinorSpec(contract=frozenset({0}), delete=frozenset({2}))",
    ),
    FourPartition: (
        ("ground", "black", "white", "green", "red"),
        PART,
        FourPartition.from_masks(G, 0b010, 0b001, 0b100, 0),
        "FourPartition(ground=GroundSet(labels=('a', 'b', 'c')), black=frozenset({0}), "
        "white=frozenset({1}), green=frozenset({2}), red=frozenset())",
    ),
    EliminationInstance: (
        ("circuit", "members", "retained"),
        INST,
        EliminationInstance.of(-C, {0: -C0}, 1),
        "EliminationInstance(circuit=SignedSubset(ground=GroundSet(labels=('a', 'b', 'c')), pos=3, neg=0), "
        "members=((0, SignedSubset(ground=GroundSet(labels=('a', 'b', 'c')), pos=4, neg=1)),), retained=1)",
    ),
    Verdict: (
        ("ok", "witness", "detail"),
        Verdict(False, (1, 2), "sampled"),
        Verdict(False, (1, 2)),
        "Verdict(ok=False, witness=(1, 2), detail='sampled')",
    ),
    OrthViolation: (
        ("circuit", "cocircuit"),
        OrthViolation(C, C0),
        OrthViolation(C0, C),
        "circuit ++0 not orthogonal to cocircuit -0+",
    ),
    FPViolation: (("element", "kind"), FP, FPViolation(2, "neither"), "element 2: both side has a positive member through it"),
    FourPViolation: (
        ("partition", "element"),
        FourPViolation(PART, 1),
        FourPViolation(PART, 0),
        "element b under painting B=['a'] W=['b'] G=['c'] R=[]",
    ),
    CEViolation: (
        ("instance",),
        CEViolation(INST),
        CEViolation(EliminationInstance.of(-C, {0: -C0}, 1)),
        "no admissible circuit through 1 when eliminating [0] from ++0",
    ),
    FAViolation: (
        ("spec", "reorient", "fp"),
        FAViolation(SPEC, frozenset({1}), FP),
        FAViolation(SPEC, frozenset(), FP),
        "minor contract=[0] delete=[2] reorient=[1]: element 2: both side has a positive member through it",
    ),
    DeriveFailure: (
        ("circuit", "cocircuit"),
        DeriveFailure(C, C0),
        DeriveFailure(C0, C),
        "derived cocircuit -0+ conflicts with circuit ++0",
    ),
    DecomposeFailure: (("element",), DecomposeFailure(3), DecomposeFailure(4), "no conforming circuit through element 3"),
    Line: (("x", "y", "z"), Line(0, 2, -3), Line(0, 2, 3), "0 2 -3"),
    LineSet: (
        ("lines",),
        LineSet((Line(1, 0, 0), Line(0, 1, 0))),
        LineSet((Line(0, 1, 0), Line(1, 0, 0))),
        "LineSet(lines=(Line(x=1, y=0, z=0), Line(x=0, y=1, z=0)))",
    ),
    Digraph: (
        ("vertices", "arcs", "labels"),
        Digraph.of(["u", "v"], [("u", "v"), ("v", "u")]),
        Digraph.of(["u", "v"], [("u", "v")]),
        "Digraph(vertices=('u', 'v'), arcs=(('u', 'v'), ('v', 'u')), labels=('e1', 'e2'))",
    ),
    FarkasCertificate: (
        ("kind", "arcs", "orientation"),
        FarkasCertificate("directed-cycle", frozenset({"a"}), C),
        FarkasCertificate("directed-bond", frozenset({"a"}), C),
        "FarkasCertificate(kind='directed-cycle', arcs=frozenset({'a'}), "
        "orientation=SignedSubset(ground=GroundSet(labels=('a', 'b', 'c')), pos=3, neg=0))",
    ),
    Caps: (("four_p", "ce", "fa"), Caps(4, 5, 6), Caps(4, 5, 7), "Caps(four_p=4, ce=5, fa=6)"),
    CheckEntry: (
        ("name", "ok", "witness", "elapsed", "detail"),
        CheckEntry("O", False, "w", 0.5, "d"),
        CheckEntry("O", False, "w", 0.5),
        "CheckEntry(name='O', ok=False, witness='w', elapsed=0.5, detail='d')",
    ),
    CheckReport: (
        ("subject", "entries"),
        CheckReport("f.om", [CheckEntry("O", True, "", 0.0)]),
        CheckReport("f.om", []),
        "CheckReport(subject='f.om', entries=[CheckEntry(name='O', ok=True, witness='', elapsed=0.0, detail='')])",
    ),
}
MUTABLE = {Caps, CheckEntry, CheckReport}
VALIDATED = [GroundSet, SignedSubset, MinorSpec, FourPartition, EliminationInstance, Line, LineSet, Digraph]
IDS = [cls.__name__ for cls in CASES]


def values(x, fields):
    return tuple(getattr(x, f) for f in fields)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_str_and_equality(cls):
    fields, sample, other, text = CASES[cls]
    assert type(sample) is cls and type(other) is cls
    assert str(sample) == text
    copy = cls(*values(sample, fields))
    assert copy == sample and not copy != sample and copy is not sample
    assert sample != other and not sample == other
    assert cls(**dict(zip(fields, values(sample, fields)))) == sample


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_hash_is_the_field_tuple_hash(cls):
    if cls in MUTABLE:
        return
    fields, sample, other, _ = CASES[cls]
    for x in (sample, other):
        assert hash(x) == hash(values(x, fields))
    assert hash(cls(*values(sample, fields))) == hash(sample)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_fields_cannot_be_assigned(cls):
    if cls in MUTABLE:
        return
    fields, sample, _, _ = CASES[cls]
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(sample, f, getattr(sample, f))
        with pytest.raises(AttributeError):
            delattr(sample, f)
    assert str(sample) == CASES[cls][3]


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_pickle_round_trip(cls):
    fields, sample, _, _ = CASES[cls]
    back = pickle.loads(pickle.dumps(sample))
    assert type(back) is cls and back == sample and values(back, fields) == values(sample, fields)


@pytest.mark.parametrize("cls", VALIDATED, ids=[c.__name__ for c in VALIDATED])
def test_validated_types_compare_only_within_their_class(cls):
    fields, sample, _, _ = CASES[cls]
    sub = type("Sub" + cls.__name__, (cls,), {})(*values(sample, fields))
    assert sub != sample and sample != sub
    assert sample.__eq__(object()) is NotImplemented
    assert sample != values(sample, fields)


def test_defaults():
    v = Verdict(True)
    assert v.ok is True and v.witness is None and v.detail == ""
    assert bool(v) and not Verdict(ok=False, detail="x") and Verdict(ok=False, detail="x").detail == "x"
    assert CheckEntry("O", True, "", 0.0).detail == ""
    caps = Caps()
    assert (caps.four_p, caps.ce, caps.fa) == (10, 10, 10)
    assert MinorSpec.of() == MinorSpec(frozenset(), frozenset())
    assert SignedSubset.zero(G) == SignedSubset(ground=G, pos=0, neg=0)
    assert CheckReport("s", [CheckEntry("O", True, "", 0.0)]).ok
    assert not CheckReport("s", [CheckEntry("O", False, "w", 0.0)]).ok


def test_ground_set_validation():
    with pytest.raises(DomainError, match=r"^ground-set labels not distinct: \('a', 'b', 'a'\)$"):
        GroundSet(("a", "b", "a"))


def test_signed_subset_validation():
    with pytest.raises(DomainError, match="^positive and negative parts overlap$"):
        SignedSubset(G, 0b011, 0b010)
    with pytest.raises(UnknownElementError, match=r"^element indices \[3\] outside ground set$"):
        SignedSubset(G, 0b1000, 0)
    with pytest.raises(UnknownElementError, match="^negative mask -1 names no elements of the ground set$"):
        SignedSubset(G, 0, -1)


def test_minor_spec_validation():
    with pytest.raises(DomainError, match="^contract and delete sets overlap$"):
        MinorSpec(frozenset({1, 2}), frozenset({2}))


def test_line_validation():
    with pytest.raises(DomainError, match="^a line needs a nonzero direction$"):
        Line(0, 0, 0)
    with pytest.raises(DomainError, match=r"^direction \(2, 4, -6\) is not scaled to coprime integers$"):
        Line(2, 4, -6)
    with pytest.raises(DomainError, match=r"^direction \(0, -1, 2\) is not lexicographically positive$"):
        Line(0, -1, 2)


def test_line_set_validation():
    with pytest.raises(DomainError, match=r"^line set contains parallel \(identical\) lines$"):
        LineSet((Line(1, 2, 3), Line(0, 0, 1), Line(1, 2, 3)))


def test_digraph_validation():
    arc = (("u", "v"),)
    with pytest.raises(DomainError, match="^vertex names not distinct$"):
        Digraph(("u", "v", "u"), arc, ("e1",))
    with pytest.raises(DomainError, match="^need one label per arc$"):
        Digraph(("u", "v"), arc, ("e1", "e2"))
    with pytest.raises(DomainError, match="^arc labels not distinct$"):
        Digraph(("u", "v"), (("u", "v"), ("v", "u")), ("e1", "e1"))
    with pytest.raises(DomainError, match="^arc x has an unknown endpoint$"):
        Digraph(("u", "v"), (("u", "w"),), ("x",))
    with pytest.raises(DomainError, match="^arc x is a loop; loops are rejected$"):
        Digraph(("u", "v"), (("v", "v"),), ("x",))


def test_four_partition_validation():
    with pytest.raises(DomainError, match="^4-partition classes overlap$"):
        FourPartition(G, frozenset({0}), frozenset({0, 1}), frozenset({2}), frozenset())
    with pytest.raises(DomainError, match="^4-partition does not cover the ground set$"):
        FourPartition(G, frozenset({0}), frozenset({1}), frozenset(), frozenset())


def test_elimination_instance_validation():
    other = SignedSubset(GroundSet(("x", "y", "z")), 0b100, 0b001)
    with pytest.raises(GroundMismatchError, match="^elimination family mixes ground sets$"):
        EliminationInstance(C, ((0, other),), 1)
    with pytest.raises(DomainError, match="^2 is not in the support of the eliminated circuit$"):
        EliminationInstance(C, ((2, SignedSubset(G, 0b100, 0b001)),), 1)
    with pytest.raises(DomainError, match=r"^family member for 0 must meet X exactly in \{0\}$"):
        EliminationInstance(C, ((0, SignedSubset(G, 0b100, 0b011)), (1, SignedSubset(G, 0, 0b010))), 1)
    with pytest.raises(DomainError, match="^0 must be a separating element of C and C_0$"):
        EliminationInstance(C, ((0, SignedSubset(G, 0b101, 0)),), 1)
    with pytest.raises(DomainError, match="^retained element must lie in C's support outside every separator$"):
        EliminationInstance(C, ((0, C0),), 0)
    with pytest.raises(DomainError, match="^retained element must lie in C's support outside every separator$"):
        EliminationInstance(C, ((0, C0),), 2)
    assert INST.eliminated == frozenset({0}) and INST.x_mask == 1 and INST.family == {0: C0}
