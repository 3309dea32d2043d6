import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlab.errors import DomainError, GroundMismatchError, UnknownElementError
from omlab.signed_sets import GroundSet, SignedSubset, compose, compose_pair

G3 = GroundSet.range(3)
G4 = GroundSet.range(4)
G6 = GroundSet.range(6)


def ss(ground, s):
    return SignedSubset.from_string(ground, s)


def signed_subsets(ground):
    n = ground.size
    return st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)).map(
        lambda t: SignedSubset(ground, t[0] & ~t[1], t[1] & ~t[0])
    )


def test_ground_set_rejects_duplicates():
    with pytest.raises(DomainError):
        GroundSet(("a", "a"))


def test_restrict_definition():
    assert ss(G3, "+-+").restrict([0, 2]) == ss(G3, "+0+")


def test_restrict_full_support_is_identity():
    x = ss(G3, "+-0")
    assert x.restrict(x.support) == x


def test_restrict_partial_support_row():
    # C_{1,3,4} restricted to the first two elements
    c134 = ss(G4, "+0-+")
    assert c134.restrict([0, 1]) == ss(G4, "+000")


def test_restrict_unknown_element():
    with pytest.raises(UnknownElementError):
        ss(G3, "+-+").restrict([5])


@pytest.mark.parametrize(
    "call",
    [
        lambda: SignedSubset(G3, -1, 0),
        lambda: ss(G3, "+-+").restrict(-1),
        lambda: ss(G3, "+-+").reorient(-1),
    ],
)
def test_negative_mask_is_unknown_element(call):
    # a negative int has infinitely many set bits; it names no elements
    with pytest.raises(UnknownElementError):
        call()


def test_conforms():
    assert ss(G3, "0-+").conforms_to(ss(G3, "+-+"))
    assert not ss(G3, "0+0").conforms_to(ss(G3, "+-+"))
    x = ss(G3, "+-0")
    assert x.conforms_to(x)


def test_conforms_ground_mismatch():
    with pytest.raises(GroundMismatchError):
        ss(G3, "+-+").conforms_to(ss(G4, "+-+0"))


def test_orthogonal_alternating_row():
    # C_{1,2,3} against the first leg cocircuit at truncation 6
    c = ss(G6, "+-+000")
    u1 = ss(G6, "0-----")
    assert c.orthogonal(u1)


def test_orthogonal_disjoint_supports():
    assert ss(G6, "+-+000").orthogonal(ss(G6, "000-0+"))


def test_orthogonal_equal_restrictions_fail():
    assert not ss(G4, "++00").orthogonal(ss(G4, "++00"))


def test_separator():
    assert ss(G6, "+-+000").separator(ss(G6, "000-0+")) == frozenset()
    assert ss(G3, "+-+").separator(ss(G3, "++0")) == frozenset({1})


def test_opposite_and_reorient():
    x = ss(G3, "+-+")
    assert -x == ss(G3, "-+-")
    assert x.reorient([1]) == ss(G3, "+++")
    assert x.reorient([]) == x
    assert x.reorient([0, 2]).reorient([0, 2]) == x


def test_compose_examples():
    assert compose(G3, [ss(G3, "+0-"), ss(G3, "-++")]) == ss(G3, "++-")
    x = ss(G3, "+-0")
    assert compose(G3, [x, x]) == x
    assert compose(G3, []) == SignedSubset.zero(G3)


def test_compose_legs_to_positive_covector():
    u1 = ss(G6, "0-----")
    u2 = ss(G6, "+0----")
    assert compose(G6, [-u1, u2]) == ss(G6, "++++++")


def test_compose_ground_mismatch():
    with pytest.raises(GroundMismatchError):
        compose(G3, [ss(G4, "+000")])


def test_sign_string_roundtrip():
    for s in ("+-+0", "0000", "++++", "-0-0"):
        assert ss(G4, s).to_string() == s
    with pytest.raises(DomainError):
        ss(G4, "+-")
    with pytest.raises(DomainError):
        ss(G4, "+-x0")


@settings(max_examples=150, deadline=None)
@given(signed_subsets(G4), st.integers(0, 15))
def test_reorient_preserves_support(x, a):
    assert x.reorient(a).support == x.support


@settings(max_examples=150, deadline=None)
@given(signed_subsets(G4), signed_subsets(G4), st.integers(0, 15))
def test_orthogonality_symmetric_and_reorientation_invariant(x, y, a):
    assert x.orthogonal(y) == y.orthogonal(x)
    assert x.orthogonal(y) == (-x).orthogonal(y)
    assert x.orthogonal(y) == x.reorient(a).orthogonal(y.reorient(a))


@settings(max_examples=150, deadline=None)
@given(signed_subsets(G4), st.integers(0, 15))
def test_restriction_conforms(x, a):
    assert x.restrict(a).conforms_to(x)


@settings(max_examples=100, deadline=None)
@given(st.lists(signed_subsets(G4), max_size=5), st.lists(signed_subsets(G4), max_size=5))
def test_compose_flattening_associative(xs, ys):
    flat = compose(G4, xs + ys)
    nested = compose_pair(compose(G4, xs), compose(G4, ys)) if xs or ys else compose(G4, [])
    assert flat == nested


@settings(max_examples=100, deadline=None)
@given(st.lists(signed_subsets(G4), max_size=4), signed_subsets(G4))
def test_orthogonal_to_all_implies_orthogonal_to_composition(vs, u):
    # random sampling of the composition-orthogonality statement
    if all(v.orthogonal(u) for v in vs):
        assert compose(G4, vs).orthogonal(u)


def test_first_writer_wins_per_element():
    for perm in itertools.permutations([ss(G3, "+00"), ss(G3, "-00"), ss(G3, "0+0")]):
        w = compose(G3, list(perm))
        first = next(x for x in perm if x.support & 1)
        assert (w.pos & 1) == (first.pos & 1) and (w.neg & 1) == (first.neg & 1)


def test_canonical_rep():
    x = ss(G3, "-+0")
    assert x.canonical_rep() == ss(G3, "+-0")
    assert (-x).canonical_rep() == ss(G3, "+-0")


def test_positive_requires_nonempty_support():
    assert not SignedSubset.zero(G3).is_positive()
    assert ss(G3, "++0").is_positive()
    assert not ss(G3, "+-0").is_positive()
