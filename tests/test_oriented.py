import itertools
import random

import pytest

from conftest import corrupt_pair, fig4_digraph, random_free_lineset, triangle
from omlab import Digraph, graphic_om, oriented, u3_signature
from omlab.errors import CapExceededError, DomainError, GroundMismatchError, UnknownElementError, ValidationError
from omlab.lines import lex_canonical
from omlab.matroid import Matroid, MinorSpec
from omlab.oriented import (
    CircuitSignature,
    DecomposeFailure,
    DeriveFailure,
    EliminationInstance,
    SignaturePair,
    alternating_rank2,
    check_4P,
    check_CE,
    check_FA,
    check_FP,
    check_orthogonality,
    check_signature_uniqueness,
    conformal_decompose,
    derive_cocircuit_signature,
    eliminate_avoiding,
    fp_report,
    induced_sets,
    induced_signature,
    special_eliminate,
    vectors,
)
from omlab.signed_sets import GroundSet, SignedSubset, bits, compose, compose_pair, mask_of
from test_checker_oracles import check_orthogonality_sep, restrict_induced_sets


def ss(ground, s):
    return SignedSubset.from_string(ground, s)


def loop_plus_coloop() -> SignaturePair:
    ground = GroundSet.range(2)
    m = Matroid.from_circuits(ground, [[0]])
    csig = CircuitSignature.from_representatives(m, [ss(ground, "+0")])
    cosig = CircuitSignature.from_representatives(m.dual(), [ss(ground, "0+")])
    return SignaturePair(m, csig, cosig)


# -- orthogonality ------------------------------------------------------------------


def test_orthogonality_alternating():
    assert check_orthogonality(alternating_rank2(6))


def test_orthogonality_flipped_cocircuit_sign():
    pair = alternating_rank2(6)
    rng = random.Random(3)
    mut = corrupt_pair(pair, rng)
    verdict = check_orthogonality(mut)
    assert not verdict and verdict.witness is not None


def test_orthogonality_disjoint_supports():
    assert check_orthogonality(loop_plus_coloop())


def test_o_equivalent_to_o_prime(instance_pool):
    # every instance: pristine pairs and failing mutants alike
    for inst in instance_pool:
        assert bool(check_orthogonality(inst.pair)) == bool(check_orthogonality_sep(inst.pair))


# -- derivation and uniqueness ---------------------------------------------------------


def test_derive_matches_bond_signing():
    pair = graphic_om(fig4_digraph())
    got = derive_cocircuit_signature(pair.matroid, pair.circuit_sig)
    assert isinstance(got, CircuitSignature)
    assert got.signed == pair.cocircuit_sig.signed


def test_derive_matches_leg_signing():
    pair = alternating_rank2(6)
    got = derive_cocircuit_signature(pair.matroid, pair.circuit_sig)
    assert isinstance(got, CircuitSignature)
    assert got.signed == pair.cocircuit_sig.signed


def test_derive_fails_on_corrupted_signature():
    pair = alternating_rank2(4)
    reps = list(pair.circuit_sig.representatives())
    r = reps[0]
    flip = 1 << next(bits(r.support))
    reps[0] = SignedSubset(r.ground, (r.pos & ~flip) | (r.neg & flip), (r.neg & ~flip) | (r.pos & flip))
    bad = CircuitSignature.from_representatives(pair.matroid, reps)
    got = derive_cocircuit_signature(pair.matroid, bad)
    assert isinstance(got, DeriveFailure)


def test_uniqueness_generator_vs_derivation():
    pair = alternating_rank2(5)
    derived = derive_cocircuit_signature(pair.matroid, pair.circuit_sig)
    assert check_signature_uniqueness(pair.matroid, pair.circuit_sig, derived, pair.cocircuit_sig)


def test_uniqueness_rejects_non_orthogonal_candidate():
    pair = alternating_rank2(4)
    rng = random.Random(11)
    while True:
        mut = corrupt_pair(pair, rng)
        if mut.circuit_sig == pair.circuit_sig:
            break
    with pytest.raises(DomainError):
        check_signature_uniqueness(pair.matroid, pair.circuit_sig, mut.cocircuit_sig, pair.cocircuit_sig)


# -- induced signatures -----------------------------------------------------------------


def test_restriction_signature_is_literal_subset():
    pair = alternating_rank2(5)
    ind = induced_signature(pair, MinorSpec.of(delete=[4]))
    kept_strings = {
        c.to_string()[:4] for c in pair.circuit_sig.signed if not c.support >> 4 & 1
    }
    assert {c.to_string() for c in ind.circuit_sig.signed} == kept_strings


def test_deleting_middle_element_gives_smaller_chain():
    pair = alternating_rank2(6)
    ind = induced_signature(pair, MinorSpec.of(delete=[2]))
    direct = alternating_rank2(5)
    assert {c.to_string() for c in ind.circuit_sig.signed} == {
        c.to_string() for c in direct.circuit_sig.signed
    }
    assert {u.to_string() for u in ind.cocircuit_sig.signed} == {
        u.to_string() for u in direct.cocircuit_sig.signed
    }


def test_contracted_line_matches_projection_oracle():
    q = random_free_lineset(random.Random(5), 7)
    pair = u3_signature(q)
    t = 0
    ind = induced_signature(pair, MinorSpec.of(contract=[t]))
    ground = ind.ground
    oracle_reps = []
    kept = [i for i in range(7) if i != t]
    for new_b, b in enumerate(kept):
        normal = lex_canonical(
            tuple(
                q.lines[t].vec[1] * q.lines[b].vec[2] - q.lines[t].vec[2] * q.lines[b].vec[1]
                if axis == 0
                else q.lines[t].vec[2] * q.lines[b].vec[0] - q.lines[t].vec[0] * q.lines[b].vec[2]
                if axis == 1
                else q.lines[t].vec[0] * q.lines[b].vec[1] - q.lines[t].vec[1] * q.lines[b].vec[0]
                for axis in range(3)
            )
        ).vec
        pos = neg = 0
        for new_c, c in enumerate(kept):
            if c == b:
                continue
            d = sum(normal[k] * q.lines[c].vec[k] for k in range(3))
            assert d != 0
            if d > 0:
                pos |= 1 << new_c
            else:
                neg |= 1 << new_c
        oracle_reps.append(SignedSubset(ground, pos, neg))
    oracle = CircuitSignature.from_representatives(ind.matroid.dual(), oracle_reps)
    assert oracle.signed == ind.cocircuit_sig.signed


def test_induced_signature_satisfies_orthogonality_everywhere():
    pair = graphic_om(fig4_digraph())
    n = pair.ground.size
    for states in itertools.product(range(3), repeat=n):
        spec = MinorSpec.of(
            contract=[i for i, s in enumerate(states) if s == 1],
            delete=[i for i, s in enumerate(states) if s == 2],
        )
        assert check_orthogonality(induced_signature(pair, spec))


def test_induced_signature_reports_lift_dependence():
    # a triangle with one doubled arc: contracting both parallel arcs gives a
    # minor circuit with two lifts, which disagree after a sign corruption
    d = Digraph.of(["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1"), ("2", "3")])
    pair = graphic_om(d)
    ground = pair.ground
    reps = []
    for r in pair.circuit_sig.representatives():
        if r.support == mask_of([0, 1, 2]):
            flip = 1
            r = SignedSubset(ground, (r.pos & ~flip) | (r.neg & flip), (r.neg & ~flip) | (r.pos & flip))
        reps.append(r)
    mut = SignaturePair(
        pair.matroid,
        CircuitSignature.from_representatives(pair.matroid, reps),
        pair.cocircuit_sig,
    )
    with pytest.raises(ValidationError):
        induced_signature(mut, MinorSpec.of(contract=[1, 3]))


# -- induced sets ----------------------------------------------------------------------


def test_induced_sets_empty_spec():
    pair = alternating_rank2(4)
    got = induced_sets(pair, MinorSpec.of())
    assert got.circuits_side == pair.circuit_sig.signed
    assert got.cocircuits_side == pair.cocircuit_sig.signed


def test_induced_sets_contraction_collapses_cocircuits():
    pair = alternating_rank2(5)
    i = 2
    got = induced_sets(pair, MinorSpec.of(contract=[i]))
    u_i = next(u for u in pair.cocircuit_sig.signed if not u.support >> i & 1 and u.pos)
    expect = {u_i.to_string().replace("0", "", 0)}
    strings = {u.to_string() for u in got.cocircuits_side}
    # exactly the restrictions of +-U_i survive
    assert len(got.cocircuits_side) == 2
    assert strings == {
        "".join(ch for k, ch in enumerate(u.to_string()) if k != i)
        for u in (u_i, -u_i)
    }


def test_induced_sets_deletion_u24():
    ground = GroundSet.range(4)
    m = Matroid.from_circuits(ground, itertools.combinations(range(4), 3))
    reps = [
        SignedSubset(ground, (1 << i) | (1 << k), 1 << j)
        for i, j, k in itertools.combinations(range(4), 3)
    ]
    csig = CircuitSignature.from_representatives(m, reps)
    cosig = derive_cocircuit_signature(m, csig)
    pair = SignaturePair(m, csig, cosig)
    got = induced_sets(pair, MinorSpec.of(delete=[3]))
    assert {c.to_string() for c in got.circuits_side} == {"+-+", "-+-"}


def test_induced_sets_modes():
    # the tilde and vectors notions are the restriction oracle's
    pair = alternating_rank2(4)
    spec = MinorSpec.of(contract=[0])
    plain = induced_sets(pair, spec)
    tilde = restrict_induced_sets(pair, spec, "tilde")
    vecs = restrict_induced_sets(pair, spec, "vectors")
    assert plain.circuits_side <= tilde.circuits_side
    assert plain.circuits_side <= vecs.circuits_side


def test_induced_sets_need_not_be_a_signature():
    # without (O), two lifts of one minor circuit can restrict to
    # non-opposite signings, so the induced set exceeds a signature
    d = Digraph.of(["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1"), ("2", "3")])
    pair = graphic_om(d)
    ground = pair.ground
    reps = []
    for r in pair.circuit_sig.representatives():
        if r.support == mask_of([0, 1, 2]):
            flip = 1
            r = SignedSubset(ground, (r.pos & ~flip) | (r.neg & flip), (r.neg & ~flip) | (r.pos & flip))
        reps.append(r)
    mut = SignaturePair(
        pair.matroid,
        CircuitSignature.from_representatives(pair.matroid, reps),
        pair.cocircuit_sig,
    )
    got = induced_sets(mut, MinorSpec.of(contract=[1, 3]))
    by_support = {}
    for c in got.circuits_side:
        by_support.setdefault(c.support, set()).add(c)
    assert any(len(v) > 2 for v in by_support.values())


# -- Farkas property ---------------------------------------------------------------------


def test_fp_alternating_with_leg_witness():
    pair = alternating_rank2(5)
    assert check_FP(pair.circuit_sig.signed, pair.cocircuit_sig.signed, pair.ground)
    report = fp_report(pair.circuit_sig.signed, pair.cocircuit_sig.signed, pair.ground)
    side, witness = report[0]
    assert side == "T"
    assert witness.to_string() == "++++0"  # U_5: empty right leg at the truncation


def test_fp_directed_triangle():
    pair = graphic_om(triangle())
    assert check_FP(pair.circuit_sig.signed, pair.cocircuit_sig.signed, pair.ground)
    report = fp_report(pair.circuit_sig.signed, pair.cocircuit_sig.signed, pair.ground)
    assert all(entry is not None and entry[0] == "S" for entry in report.values())


def test_fp_empty_sides_violation():
    ground = GroundSet.range(2)
    verdict = check_FP([], [], ground)
    assert not verdict
    assert verdict.witness.kind == "neither"
    assert verdict.witness.element == 0


# -- 4-painting ---------------------------------------------------------------------------


def test_4p_graphic_fig4():
    assert check_4P(graphic_om(fig4_digraph()))


def test_4p_alternating():
    assert check_4P(alternating_rank2(5))


def test_4p_corrupted_has_witness():
    mut = corrupt_pair(alternating_rank2(5), random.Random(1))
    verdict = check_4P(mut)
    assert not verdict
    part = verdict.witness.partition
    assert part.black | part.white | part.green | part.red == frozenset(range(5))


def test_4p_cap_and_sampling():
    pair = alternating_rank2(5)
    with pytest.raises(CapExceededError):
        check_4P(pair, cap=4)
    verdict = check_4P(pair, cap=4, sample=200, seed=9)
    assert verdict and "200" in verdict.detail and "seed=9" in verdict.detail


# -- strong elimination ---------------------------------------------------------------------


def test_ce_alternating_both_sides():
    pair = alternating_rank2(6)
    assert check_CE(pair.circuit_sig)
    assert check_CE(pair.cocircuit_sig)


def test_ce_two_circuit_instance_fig4():
    pair = graphic_om(fig4_digraph())
    assert check_CE(pair.circuit_sig)
    ground = pair.ground
    c = ss(ground, "++++00")
    ce1 = ss(ground, "-0+0++")
    x = 1  # eliminating e1, keeping f = e2
    allowed_pos = (c.pos | ce1.pos) & ~x
    allowed_neg = (c.neg | ce1.neg) & ~x
    found = [
        d
        for d in pair.circuit_sig.signed
        if d.support >> 1 & 1 and not (d.pos & ~allowed_pos or d.neg & ~allowed_neg)
    ]
    assert ss(ground, "0++0+0") in found
    # the weaker-guarantee circuit from the worked example is not sign-admissible
    assert ss(ground, "0+0-+-") not in found


def test_ce_corrupted_fails():
    mut = corrupt_pair(alternating_rank2(5), random.Random(5))
    ok_circ = check_CE(mut.circuit_sig)
    ok_cocirc = check_CE(mut.cocircuit_sig)
    assert not (ok_circ and ok_cocirc)
    bad = ok_cocirc if ok_circ else ok_circ
    inst = bad.witness.instance
    assert inst.retained not in inst.eliminated


def test_signature_requires_symmetry():
    pair = alternating_rank2(4)
    members = set(pair.circuit_sig.signed)
    members.discard(next(iter(members)))
    with pytest.raises(ValidationError):
        CircuitSignature(pair.matroid, members)


def test_ce_cap_and_sampling():
    pair = alternating_rank2(5)
    with pytest.raises(CapExceededError):
        check_CE(pair.circuit_sig, cap=4)
    verdict = check_CE(pair.circuit_sig, cap=4, sample=300, seed=4)
    assert verdict and "300" in verdict.detail


# -- Farkas axiom ------------------------------------------------------------------------------


def test_fa_triangle_and_alternating():
    assert check_FA(graphic_om(triangle()))
    assert check_FA(alternating_rank2(5))


def test_fa_fails_for_non_orthogonal_pair():
    mut = corrupt_pair(alternating_rank2(4), random.Random(8))
    assert not check_orthogonality(mut)
    verdict = check_FA(mut)
    assert not verdict
    w = verdict.witness
    assert w.fp.kind in ("both", "neither")


def test_fa_cap_and_sampling():
    pair = alternating_rank2(4)
    with pytest.raises(CapExceededError):
        check_FA(pair, cap=3)
    verdict = check_FA(pair, cap=3, sample=100, seed=2)
    assert verdict and "seed=2" in verdict.detail


@pytest.mark.parametrize("sample", [0, -3])
def test_sampling_needs_a_trial(sample):
    pair = alternating_rank2(4)
    with pytest.raises(DomainError):
        check_4P(pair, sample=sample)
    with pytest.raises(DomainError):
        check_CE(pair.circuit_sig, sample=sample)
    with pytest.raises(DomainError):
        check_FA(pair, sample=sample)


@pytest.mark.parametrize(
    "axiom, check",
    [("4P", check_4P), ("CE", lambda pair, **kw: check_CE(pair.circuit_sig, **kw)), ("FA", check_FA)],
)
def test_exhaust_or_sample_contract(axiom, check):
    with pytest.raises(CapExceededError) as info:
        check(alternating_rank2(5), cap=4)
    assert str(info.value) == f"exhaustive ({axiom}) needs ground size <= 4 (got 5); use sampling instead"
    # the trial count is checked first, before CE's empty-family pass
    forest = graphic_om(Digraph.of(["1", "2", "3"], [("1", "2"), ("2", "3")]))
    with pytest.raises(DomainError):
        check(forest, sample=0)


def test_fa_cap_comes_before_its_tables():
    # exhaustive alt-40 would run 4^32 blocks of 4^8 paintings: the cap refuses it first
    with pytest.raises(CapExceededError) as info:
        check_FA(alternating_rank2(40))
    assert str(info.value) == "exhaustive (FA) needs ground size <= 10 (got 40); use sampling instead"


def test_fa_memo_is_bypassed_by_sampling_and_the_cap():
    # a minor of the whole alt-5 keeps all of it, so its content is memoised with the root's
    pair = alternating_rank2(5)
    minor = induced_signature(pair, MinorSpec.of())
    assert check_FA(pair) and check_FA(minor).detail == ""
    mutant = corrupt_pair(pair, random.Random(3))
    for p in (minor, mutant, minor, mutant):  # each sampled call both before and after an exhaustive one
        fresh = SignaturePair(p.matroid, p.circuit_sig, p.cocircuit_sig)
        got = check_FA(p, sample=7, seed=4)
        assert got == check_FA(fresh, sample=7, seed=4)
        assert got.detail == "sampled 7 minor/reorientation pairs, seed=4"
        with pytest.raises(CapExceededError) as info:
            check_FA(p, cap=4)
        assert str(info.value) == "exhaustive (FA) needs ground size <= 4 (got 5); use sampling instead"
        assert check_FA(p) == check_FA(fresh) and check_FA(p).detail == ""


def test_fa_memo_is_shared_by_minors_and_not_by_roots(monkeypatch):
    runs = []
    paint_bad = oriented._paint_bad
    monkeypatch.setattr(oriented, "_paint_bad", lambda *args: runs.append(1) or paint_bad(*args))
    for _ in range(2):  # two roots built separately from the same input
        root = graphic_om(fig4_digraph())
        runs.clear()
        assert check_FA(root)
        assert runs  # a root's first call runs the kernel
        runs.clear()
        assert check_FA(root) and check_FA(induced_signature(root, MinorSpec.of()))
        assert not runs  # a repeat, and a minor with the root's content, read the memo


def test_ce_sampling_on_circuit_free_matroid():
    tree = graphic_om(Digraph.of(["1", "2", "3"], [("1", "2"), ("2", "3")]))
    assert not tree.matroid.circuit_masks
    verdict = check_CE(tree.circuit_sig, sample=5)
    assert verdict and "empty family" in verdict.detail
    # the cocircuits are singletons: every draw has an empty range of f
    verdict = check_CE(tree.cocircuit_sig, sample=5)
    assert verdict and verdict.detail == "sampled 5 instances, seed=0, 0 admissible tested"


def test_fa_agrees_with_public_induced_sets():
    # the fast path inside check_FA must match induced_sets + check_FP
    rng = random.Random(12)
    pair = graphic_om(fig4_digraph())
    for _ in range(40):
        states = [rng.randrange(3) for _ in range(pair.ground.size)]
        spec = MinorSpec.of(
            contract=[i for i, s in enumerate(states) if s == 1],
            delete=[i for i, s in enumerate(states) if s == 2],
        )
        got = induced_sets(pair, spec)
        n = got.minor
        a = [i for i in range(n.ground.size) if rng.randrange(2)]
        s_side = {x.reorient(mask_of(a)) for x in got.circuits_side}
        t_side = {x.reorient(mask_of(a)) for x in got.cocircuits_side}
        assert check_FP(s_side, t_side, n.ground)


# -- special elimination -----------------------------------------------------------------------


def fig4_instance():
    pair = graphic_om(fig4_digraph())
    ground = pair.ground
    c = ss(ground, "++++00")
    ce1 = ss(ground, "-0+0++")
    return pair, EliminationInstance.of(c, {0: ce1}, 1)


def test_special_eliminate_fig4_values():
    pair, inst = fig4_instance()
    d = special_eliminate(pair, inst)
    assert d.to_string() == "0+0-+-"
    assert d.support == mask_of([1, 3, 4, 5])
    # the conformity failure: D has a negative part although the allowed negative part is empty
    allowed_neg = (inst.circuit.neg | inst.family[0].neg) & ~1
    assert allowed_neg == 0 and d.neg != 0 and (-d).neg != 0


def test_special_eliminate_empty_x():
    pair = graphic_om(fig4_digraph())
    c = ss(pair.ground, "++++00")
    inst = EliminationInstance.of(c, {}, 1)
    assert special_eliminate(pair, inst) == c


def test_eliminate_avoiding_offending_element():
    pair, inst = fig4_instance()
    d2 = eliminate_avoiding(pair, inst, 3)
    assert d2.support & ((1 << 0) | (1 << 3)) == 0
    assert d2.support >> 1 & 1
    assert d2.to_string() == "0++0+0"


def test_eliminate_avoiding_validates_offender():
    pair, inst = fig4_instance()
    with pytest.raises(DomainError):
        eliminate_avoiding(pair, inst, 4)  # e5 is in D+ and allowed positive: not offending


def test_elimination_instance_validation():
    pair = graphic_om(fig4_digraph())
    ground = pair.ground
    c = ss(ground, "++++00")
    ce1 = ss(ground, "-0+0++")
    with pytest.raises(DomainError):
        EliminationInstance.of(c, {0: ce1}, 0)  # retained element inside a separator
    with pytest.raises(DomainError):
        EliminationInstance.of(c, {4: ce1}, 1)  # 4 not in sep, support meets X wrongly


# -- vectors -------------------------------------------------------------------------------------


def brute_vectors(sig: CircuitSignature) -> frozenset[SignedSubset]:
    """All orderings of all subsets of signed circuits, composed left to right.

    Members that add no new support never change a composition, so sequences
    are pruned to support-growing ones; distinct prefixes with the same
    composition have identical futures, so states are memoized on the value.
    """
    members = sorted(sig.signed, key=lambda s: s.sort_key())
    seen: set[SignedSubset] = set()

    def rec(current: SignedSubset):
        if current in seen:
            return
        seen.add(current)
        for m in members:
            if m.support & ~current.support:
                rec(compose_pair(current, m))

    for m in members:
        rec(m)
    return frozenset(seen)


def test_vectors_single_circuit():
    pair = graphic_om(triangle())
    got = vectors(pair.circuit_sig)
    assert got == pair.circuit_sig.signed


def test_vectors_contain_positive_covector():
    pair = alternating_rank2(4)
    covectors = vectors(pair.cocircuit_sig)
    assert ss(pair.ground, "++++") in covectors


def test_vectors_fixpoint_equals_ordering_bruteforce():
    for pair in (alternating_rank2(4), alternating_rank2(5), graphic_om(fig4_digraph())):
        assert vectors(pair.circuit_sig) == brute_vectors(pair.circuit_sig)
        assert vectors(pair.cocircuit_sig) == brute_vectors(pair.cocircuit_sig)


def test_vectors_support_cap():
    pair = alternating_rank2(5)
    capped = vectors(pair.circuit_sig, support_cap=3)
    assert capped == frozenset(v for v in vectors(pair.circuit_sig) if v.support.bit_count() <= 3)


# -- conformal decomposition ------------------------------------------------------------------------


def test_decompose_single_circuit():
    pair = graphic_om(fig4_digraph())
    c = ss(pair.ground, "++++00")
    assert conformal_decompose(pair, c) == [c]


def test_decompose_composed_vector():
    pair = graphic_om(fig4_digraph())
    c = ss(pair.ground, "++++00")
    ce1 = ss(pair.ground, "-0+0++")
    target = compose_pair(c, ce1)
    got = conformal_decompose(pair, target)
    assert not isinstance(got, DecomposeFailure)
    for piece in got:
        assert piece.conforms_to(target)
    for perm in itertools.permutations(got):
        assert compose(pair.ground, list(perm)) == target


def test_decompose_rejects_non_vector():
    pair = graphic_om(triangle())
    bad = ss(pair.ground, "+-0")  # not orthogonal to all cocircuits
    with pytest.raises(DomainError):
        conformal_decompose(pair, bad)


def test_decompose_failure_witness_on_broken_pair():
    pair = alternating_rank2(4)
    mut = corrupt_pair(pair, random.Random(21))
    # find some target orthogonal to all mutated cocircuits yet not decomposable
    found_failure = False
    for v in vectors(pair.circuit_sig):
        if v.is_empty():
            continue
        if all(v.orthogonal(u) for u in mut.cocircuit_sig.representatives()):
            got = conformal_decompose(mut, v, trust_4p=True)
            if isinstance(got, DecomposeFailure):
                found_failure = True
                break
    assert found_failure


# -- reorientation covariance ------------------------------------------------------------------------


def test_globally_negated_representatives_give_equal_signature():
    pair = alternating_rank2(4)
    negated = CircuitSignature.from_representatives(
        pair.matroid.dual(), [-u for u in pair.cocircuit_sig.representatives()]
    )
    assert negated == pair.cocircuit_sig
    assert check_signature_uniqueness(pair.matroid, pair.circuit_sig, negated, pair.cocircuit_sig)


def test_derivation_independent_of_anchor_choice():
    # re-derive with the largest element as anchor and the last suitable
    # circuit: the resulting signature must be the same set
    pair = alternating_rank2(5)
    m = pair.matroid
    ground = m.ground
    reps = []
    for u_mask in m.dual().circuit_masks:
        e_u = 1 << max(bits(u_mask))
        pos, neg = e_u, 0
        for e in bits(u_mask ^ e_u):
            want = e_u | (1 << e)
            chosen = [c for c in m.circuit_masks if c & u_mask == want][-1]
            c = pair.circuit_sig.by_support(chosen)
            anchor = 1 if c.pos & e_u else -1
            here = 1 if c.pos & (1 << e) else -1
            if -anchor * here > 0:
                pos |= 1 << e
            else:
                neg |= 1 << e
        reps.append(SignedSubset(ground, pos, neg))
    alt = CircuitSignature.from_representatives(m.dual(), reps)
    std = derive_cocircuit_signature(m, pair.circuit_sig)
    assert alt.signed == std.signed


def test_fa_gap_harness_finds_nothing_on_finite_oms():
    from omlab.oriented import fa_gap_witness

    for pair in (alternating_rank2(5), graphic_om(fig4_digraph())):
        assert fa_gap_witness(pair) is None


def test_check_4p_at_single_partition():
    from omlab.oriented import FourPartition, check_4P_at

    pair = alternating_rank2(4)
    ground = pair.ground
    part = FourPartition(
        ground, frozenset({0, 1}), frozenset({2}), frozenset({3}), frozenset()
    )
    assert check_4P_at(pair, part, 0)
    with pytest.raises(DomainError):
        check_4P_at(pair, part, 3)  # painted green, not a valid focus
    for focus in (-1, 4):
        with pytest.raises(DomainError, match="outside the ground set"):
            check_4P_at(pair, part, focus)


def test_contraction_of_alternating_matches_direct_construction():
    # contracting one element of the 6-chain leaves a rank-1 minor whose
    # signing is forced: pairs signed by the alternating pattern, the single
    # cocircuit by the legs of the contracted element
    pair = alternating_rank2(6)
    i = 2
    got = induced_signature(pair, MinorSpec.of(contract=[i]))
    kept = [j for j in range(6) if j != i]
    ground = got.ground
    circuit_reps = []
    for a, b in itertools.combinations(range(5), 2):
        signs = sorted([kept[a], kept[b], i])
        plus = [signs[0], signs[2]]
        rep_pos = sum(1 << x for x in (a, b) if kept[x] in plus)
        rep_neg = sum(1 << x for x in (a, b) if kept[x] not in plus)
        circuit_reps.append(SignedSubset(ground, rep_pos, rep_neg))
    direct_csig = CircuitSignature.from_representatives(got.matroid, circuit_reps)
    legs = SignedSubset(
        ground,
        sum(1 << a for a, j in enumerate(kept) if j < i),
        sum(1 << a for a, j in enumerate(kept) if j > i),
    )
    direct_cosig = CircuitSignature.from_representatives(got.matroid.dual(), [legs])
    assert got.circuit_sig.signed == direct_csig.signed
    assert got.cocircuit_sig.signed == direct_cosig.signed


def test_checkers_invariant_under_reorientation():
    pair = alternating_rank2(5)
    rng = random.Random(17)
    for _ in range(3):
        a = rng.randrange(1 << 5)
        re = pair.reorient(a)
        assert bool(check_orthogonality(re)) == bool(check_orthogonality(pair))
        assert bool(check_CE(re.circuit_sig)) == bool(check_CE(pair.circuit_sig))
        assert bool(check_4P(re)) == bool(check_4P(pair))
        assert bool(check_FA(re)) == bool(check_FA(pair))


ALT4 = alternating_rank2(4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: induced_signature(ALT4, MinorSpec.of(contract=[-1])),
        lambda: ALT4.matroid.fundamental_circuit(0b11, -1),
        lambda: ALT4.circuit_sig.by_support([-1, 0]),
        lambda: ALT4.matroid.rank([-2]),
        lambda: ALT4.circuit_sig.reorient([-1]),
        lambda: ALT4.matroid.cocircuit_through_pair(0b111, -1, 0),
        lambda: ALT4.circuit_sig.representatives()[0].sign(-1),
        lambda: EliminationInstance.of(fig4_instance()[1].circuit, {}, -1),
        lambda: EliminationInstance.of(fig4_instance()[1].circuit, {-1: fig4_instance()[1].members[0][1]}, 0),
        lambda: eliminate_avoiding(*fig4_instance(), -1),
    ],
    ids=[
        "minor",
        "fundamental_circuit",
        "by_support",
        "rank",
        "reorient",
        "cocircuit_through_pair",
        "sign",
        "retained",
        "eliminated",
        "offending",
    ],
)
def test_negative_element_index_is_unknown_element(call):
    # 1 << -1 is a ValueError in Python; a negative index names no element
    with pytest.raises(UnknownElementError):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: fp_report(alternating_rank2(5).circuit_sig.signed, [], ALT4.ground), GroundMismatchError),
    ],
    ids=["fp_report_ground"],
)
def test_unknown_mode_and_foreign_members_are_rejected(call, error):
    with pytest.raises(error):
        call()
