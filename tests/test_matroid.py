import itertools

import pytest

from conftest import fig4_digraph
from omlab import graphic_om
from omlab.errors import CapExceededError, DomainError, UnknownElementError, ValidationError
from omlab.formats import emit_oriented, parse_oriented
from omlab.matroid import CircuitViolation, Matroid, MinorSpec, _canonical, validate_circuits
from omlab.oriented import alternating_rank2
from omlab.signed_sets import GroundSet, bits, mask_of

G3 = GroundSet.range(3)
G4 = GroundSet.range(4)


def u24() -> Matroid:
    got = validate_circuits(G4, list(itertools.combinations(range(4), 3)))
    assert isinstance(got, Matroid)
    return got


def graphic_triangle() -> Matroid:
    return Matroid.from_circuits(G3, [[0, 1, 2]])


# -- brute-force oracles ---------------------------------------------------------


def bases(m: Matroid) -> tuple[int, ...]:
    """All maximal circuit-free sets, as masks in canonical order: C(n, r) independence tests."""
    r = m.rank()
    found = [mask_of(c) for c in itertools.combinations(range(m.ground.size), r) if m.is_independent(mask_of(c))]
    return _canonical(found)


def brute_bases(m: Matroid) -> set[int]:
    independent = [
        s
        for s in range(1 << m.ground.size)
        if all(c & ~s for c in m.circuit_masks)
    ]
    top = max(s.bit_count() for s in independent)
    return {s for s in independent if s.bit_count() == top}


def brute_cocircuits(m: Matroid) -> set[int]:
    """Minimal sets meeting every basis, via complements of bases."""
    cobases = {m.ground.full_mask & ~b for b in brute_bases(m)}
    dependent = [
        s
        for s in range(1, 1 << m.ground.size)
        if not any(s & ~cb == 0 for cb in cobases)
    ]
    return {s for s in dependent if not any(t != s and t & ~s == 0 for t in dependent)}


def brute_contraction_circuits(m: Matroid, f: int) -> set[int]:
    """Contraction circuits from the independent-set definition."""
    rank_f = m.rank(f)

    def independent_in_contraction(s: int) -> bool:
        return m.rank(s | f) - rank_f == s.bit_count()

    rest = m.ground.full_mask & ~f
    dependent = [
        s
        for s in range(1, 1 << m.ground.size)
        if s & ~rest == 0 and not independent_in_contraction(s)
    ]
    return {s for s in dependent if not any(t != s and t & ~s == 0 for t in dependent)}


# -- validation --------------------------------------------------------------------


def test_single_circuit_valid():
    got = validate_circuits(G3, [[0, 1, 2]])
    assert isinstance(got, Matroid)


def test_containment_violation():
    got = validate_circuits(G3, [[0, 1], [0, 1, 2]])
    assert isinstance(got, CircuitViolation)
    assert got.axiom == "C2"
    assert got.witness == (frozenset({0, 1}), frozenset({0, 1, 2}))


def test_empty_circuit_violation():
    got = validate_circuits(G3, [[]])
    assert isinstance(got, CircuitViolation)
    assert got.axiom == "C1"


def test_u24_valid_by_exhaustive_elimination():
    u24()


def test_c3_violation_two_overlapping_pairs():
    # {1,2} and {1,3} without {2,3}: eliminating 1 strands element 2
    got = validate_circuits(G3, [[0, 1], [0, 2]])
    assert isinstance(got, CircuitViolation)
    assert got.axiom == "C3"
    circuit, x, family, f = got.witness
    assert x and f not in x


def test_c3_cap_refusal_and_trusted_skip():
    # the cap is the fixed C3_CAP_DEFAULT = 12: U(2, 12) validates, U(2, 13) is refused
    assert isinstance(validate_circuits(GroundSet.range(12), itertools.combinations(range(12), 3)), Matroid)
    big = GroundSet.range(13)
    family = [list(c) for c in itertools.combinations(range(13), 3)]
    refusal = "(C3) validation needs ground size <= 12 (got 13); pass trusted=True to skip"
    with pytest.raises(CapExceededError) as exc:
        validate_circuits(big, family)
    assert str(exc.value) == refusal
    got = validate_circuits(big, family, trusted=True)
    assert isinstance(got, Matroid)
    # trusted=True skips (C3) itself, not only the cap
    assert isinstance(validate_circuits(G3, [[0, 1], [0, 2]], trusted=True), Matroid)
    # parse_oriented validates through the same path; test_cli pins the CLI's exit 2 on it
    assert parse_oriented(emit_oriented(alternating_rank2(12))) == alternating_rank2(12)
    text = emit_oriented(alternating_rank2(13))
    with pytest.raises(CapExceededError) as exc:
        parse_oriented(text)
    assert str(exc.value) == refusal
    assert parse_oriented(text, trusted=True) == alternating_rank2(13)


@pytest.mark.parametrize(
    "labels, family, shown",
    [
        ("123456", [[0, 3, 4], [1, 4], [2], [5]], "the empty set"),
        ("12345", [[1, 3], [1, 4]], "{1} inside {1,3}"),
    ],
)
def test_trusted_non_matroid_dual_that_is_no_clutter_is_refused(labels, family, shown):
    # both families fail (C3); the hyperplane dual would not be a clutter
    m = validate_circuits(GroundSet(tuple(labels)), family, trusted=True)
    with pytest.raises(DomainError) as exc:
        m.dual()
    assert str(exc.value) == f"the circuits fail (C3): their hyperplane dual has {shown} among its cocircuits"


def test_from_circuits_raises():
    with pytest.raises(ValidationError):
        Matroid.from_circuits(G3, [[0, 1], [0, 1, 2]])


# -- bases, dual, cocircuits ----------------------------------------------------------


def test_u24_bases_and_cocircuits_match_oracle():
    m = u24()
    assert set(bases(m)) == brute_bases(m)
    assert set(m.cocircuit_masks) == brute_cocircuits(m)
    # frozen: cocircuits of U_{2,4} are all 3-subsets
    assert sorted(sorted(c) for c in m.cocircuits) == [
        [0, 1, 2],
        [0, 1, 3],
        [0, 2, 3],
        [1, 2, 3],
    ]


def test_triangle_cocircuits():
    m = graphic_triangle()
    assert set(m.cocircuit_masks) == brute_cocircuits(m)
    assert sorted(sorted(c) for c in m.cocircuits) == [[0, 1], [0, 2], [1, 2]]


def test_u3_cocircuits_are_complements_of_pairs():
    n = 6
    ground = GroundSet.range(n)
    m = Matroid.from_circuits(ground, itertools.combinations(range(n), 4))
    expected = {ground.full_mask & ~mask_of(p) for p in itertools.combinations(range(n), 2)}
    assert set(m.cocircuit_masks) == expected


def test_dual_involution():
    for m in (u24(), graphic_triangle(), graphic_om(fig4_digraph()).matroid):
        assert m.dual().dual() == m


def test_circuit_cocircuit_intersection_never_one():
    for m in (u24(), graphic_om(fig4_digraph()).matroid):
        for c in m.circuit_masks:
            for u in m.cocircuit_masks:
                assert (c & u).bit_count() != 1


# -- minors ------------------------------------------------------------------------


def test_contract_u24():
    m = u24()
    n = m.minor(MinorSpec.of(contract=[3]))
    assert sorted(sorted(c) for c in n.circuits) == [[0, 1], [0, 2], [1, 2]]


def test_contraction_matches_independence_oracle():
    for m in (u24(), graphic_om(fig4_digraph()).matroid):
        for f_iter in itertools.chain.from_iterable(
            itertools.combinations(range(m.ground.size), k) for k in range(m.ground.size)
        ):
            f = mask_of(f_iter)
            n, kept = m.minor_with_map(MinorSpec.of(contract=f_iter))
            remap = {new: old for new, old in enumerate(kept)}
            got = {mask_of(remap[i] for i in bits(c)) for c in n.circuit_masks}
            assert got == brute_contraction_circuits(m, f)


def test_delete_only_minor_is_restriction():
    m = u24()
    n = m.minor(MinorSpec.of(delete=[3]))
    assert sorted(sorted(c) for c in n.circuits) == [[0, 1, 2]]


def test_empty_spec_identity():
    m = u24()
    assert m.minor(MinorSpec.of()) == m


def test_overlapping_spec_rejected():
    with pytest.raises(DomainError):
        MinorSpec.of(contract=[1], delete=[1])


def test_minor_commutation():
    m = graphic_om(fig4_digraph()).matroid
    a = m.minor(MinorSpec.of(contract=[0])).minor(MinorSpec.of(delete=[3]))
    # indices shift after the first minor: element 4 of the original is index 3 there
    b = m.minor(MinorSpec.of(contract=[0], delete=[4]))
    assert a == b


def test_minor_circuits_lift():
    m = graphic_om(fig4_digraph()).matroid
    f_iter, g_iter = (1, 5), (2,)
    n, kept = m.minor_with_map(MinorSpec.of(contract=f_iter, delete=g_iter))
    f = mask_of(f_iter)
    remap = {new: old for new, old in enumerate(kept)}
    for c_new in n.circuit_masks:
        old = mask_of(remap[i] for i in bits(c_new))
        assert any(
            old & ~c == 0 and c & ~(old | f) == 0 for c in m.circuit_masks
        ), "no lift with C' <= C <= C' + contracted"


# -- scrawls -----------------------------------------------------------------------


def test_is_scrawl():
    m = graphic_triangle()
    assert m.is_scrawl([0, 1, 2])
    assert not m.is_scrawl([0, 1])
    assert m.is_scrawl([])


def test_scrawl_equals_union_of_circuits():
    m = graphic_om(fig4_digraph()).matroid
    for v in range(1 << m.ground.size):
        union_of_circuits = all(
            any(c & ~v == 0 and c >> e & 1 for c in m.circuit_masks) for e in bits(v)
        )
        assert m.is_scrawl(v) == union_of_circuits


# -- circuit/cocircuit access ops -----------------------------------------------------


def test_cocircuit_through_pair_u24():
    m = u24()
    got = m.cocircuit_through_pair([0, 1, 2], 0, 1)
    # oracle: exhaustive over cocircuits
    assert [u for u in m.cocircuits if u & {0, 1, 2} == {0, 1}] == [got]
    assert got == frozenset({0, 1, 3})


def test_cocircuit_through_pair_triangle():
    m = graphic_triangle()
    assert m.cocircuit_through_pair([0, 1, 2], 0, 2) == frozenset({0, 2})


def test_cocircuit_through_pair_rank1():
    ground = GroundSet.range(2)
    m = Matroid.from_circuits(ground, [[0, 1]])
    assert m.cocircuit_through_pair([0, 1], 0, 1) == frozenset({0, 1})


def test_cocircuit_through_pair_validates():
    m = u24()
    with pytest.raises(DomainError):
        m.cocircuit_through_pair([0, 1], 0, 1)
    with pytest.raises(DomainError):
        m.cocircuit_through_pair([0, 1, 2], 0, 0)


def test_fundamental_circuit_fig4():
    m = graphic_om(fig4_digraph()).matroid
    # basis {e4,e5,e6}, adding e2 closes the outer 4-cycle's complement
    got = m.fundamental_circuit([3, 4, 5], 1)
    assert got == frozenset({1, 3, 4, 5})


def test_fundamental_circuit_u24():
    m = u24()
    assert m.fundamental_circuit([0, 1], 2) == frozenset({0, 1, 2})


def test_fundamental_circuit_triangle():
    m = graphic_triangle()
    assert m.fundamental_circuit([0, 1], 2) == frozenset({0, 1, 2})


def test_fundamental_circuit_loop():
    ground = GroundSet.range(3)
    m = Matroid.from_circuits(ground, [[0]])
    basis = next(b for b in bases(m))
    assert m.fundamental_circuit(basis, 0) == frozenset({0})


def test_fundamental_circuit_validates():
    m = u24()
    with pytest.raises(DomainError):
        m.fundamental_circuit([0, 1, 2], 3)  # not a basis
    with pytest.raises(DomainError, match="not a basis"):
        m.fundamental_circuit([0], 3)  # independent but too small
    with pytest.raises(DomainError):
        m.fundamental_circuit([0, 1], 1)  # already inside


# -- cross-validation fuzz ------------------------------------------------------------


def test_random_cycle_families_pass_exhaustive_validation():
    import random

    from conftest import random_digraph

    rng = random.Random(99)
    for _ in range(15):
        d = random_digraph(rng, 7)
        m = graphic_om(d).matroid
        got = validate_circuits(m.ground, [list(bits(c)) for c in m.circuit_masks])
        assert isinstance(got, Matroid)
        assert got == m


def test_uniform_duality_degrees():
    for n in range(2, 8):
        for r in range(1, n):
            ground = GroundSet.range(n)
            family = [list(c) for c in itertools.combinations(range(n), r + 1)]
            m = Matroid.from_circuits(ground, family)
            assert m.rank() == r
            assert all(u.bit_count() == n - r + 1 for u in m.cocircuit_masks)
            assert m.dual().rank() == n - r


@pytest.mark.parametrize("query", ["rank", "is_independent"])
def test_negative_mask_is_unknown_element(query):
    m = Matroid.from_circuits(GroundSet.range(3), [[0, 1, 2]])
    with pytest.raises(UnknownElementError):
        getattr(m, query)(-1)
