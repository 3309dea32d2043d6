"""Naive reference implementations pitted against the optimized checkers.

The production checkers use bitmask scans, representative-only loops, and
union deduplication; each shortcut is validated here against a direct
transcription of the definitions on small instances, including corrupted
ones where violations must be found.
"""

import contextlib
import functools
import gc
import itertools
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupt_pair, fig4_digraph, minor_specs, triangle
from omlab.digraphs import Digraph, graphic_om
from omlab.errors import CapExceededError, DomainError, InvariantError, UnknownElementError, ValidationError
from omlab import matroid, oriented, u3_signature
from omlab.formats import emit_oriented
from omlab.lines import neat_prefix
from omlab.matroid import (
    CircuitViolation,
    Matroid,
    MinorSpec,
    _canonical,
    _find_c3_violation,
    contraction_circuit_masks,
    validate_circuits,
)
from omlab.oriented import (
    CE_CAP_DEFAULT,
    FA_CAP_DEFAULT,
    FOUR_P_CAP_DEFAULT,
    _exhaustive_paintings,
    _fa_blocks,
    _fa_members,
    _Inside,
    _live_planes,
    _sampled_paintings,
    _spread,
    CEViolation,
    CircuitSignature,
    EliminationInstance,
    FAViolation,
    FourPartition,
    FourPViolation,
    FPViolation,
    InducedSets,
    OrthViolation,
    SignaturePair,
    Verdict,
    alternating_rank2,
    check_4P,
    check_4P_at,
    check_CE,
    check_FA,
    check_FP,
    check_orthogonality,
    derive_cocircuit_signature,
    induced_sets,
    induced_signature,
    vectors,
)
from omlab.signed_sets import GroundSet, SignedSubset, bits, indices, mask_of


def small_instances():
    rng = random.Random(4242)
    base = [
        alternating_rank2(4),
        graphic_om(triangle()),
        graphic_om(fig4_digraph()).reorient(0b101),
    ]
    out = [(f"base-{i}", p) for i, p in enumerate(base)]
    for k in range(6):
        out.append((f"mutant-{k}", corrupt_pair(base[k % len(base)], rng)))
    return out


# -- (O) and (O') on signed subsets: one pair of representatives at a time


def first_nonorthogonal(pair: SignaturePair, bad) -> Verdict:
    """The first pair of representatives C, U, circuits outermost, with ``bad(C, U)``."""
    for c in pair.circuit_sig.representatives():
        for u in pair.cocircuit_sig.representatives():
            if bad(c, u):
                return Verdict(False, OrthViolation(c, u))
    return Verdict(True)


def scalar_check_orthogonality(pair: SignaturePair) -> Verdict:
    """(O) by :meth:`SignedSubset.orthogonal`."""
    return first_nonorthogonal(pair, lambda c, u: not c.orthogonal(u))


def check_orthogonality_sep(pair: SignaturePair) -> Verdict:
    """(O'): sep(C, U) is nonempty iff sep(C, -U) is, for all pairs."""
    return first_nonorthogonal(pair, lambda c, u: bool(c.sep_mask(u)) != bool(c.sep_mask(-u)))


def test_orthogonality_witness_matches_scalar_on_pool(instance_pool, pool_minors):
    # every pool pair, then every induced pool minor: the verdict and its first witness
    pairs = [inst.pair for inst in instance_pool]
    pairs += [entry.induced for entry in pool_minors if isinstance(entry.induced, SignaturePair)]
    failing = 0
    for pair in pairs:
        got = check_orthogonality(pair)
        assert got == scalar_check_orthogonality(pair), pair
        failing += not got
    assert failing


# -- naive (CE) -----------------------------------------------------------------


def naive_check_ce(sig: CircuitSignature) -> bool:
    members = sorted(sig.signed, key=lambda s: s.sort_key())
    for c in members:  # both orientations, unlike the fast path
        support = list(bits(c.support))
        for size in range(1, len(support) + 1):
            for x_combo in itertools.combinations(support, size):
                x_set = frozenset(x_combo)
                options = []
                for xi in x_combo:
                    opts = [
                        d
                        for d in members
                        if indices(d.support) & x_set == {xi} and xi in indices(c.sep_mask(d))
                    ]
                    options.append(opts)
                if any(not o for o in options):
                    continue
                for family in itertools.product(*options):
                    sep_union = frozenset()
                    for d in family:
                        sep_union |= indices(c.sep_mask(d))
                    for f in indices(c.support) - sep_union:
                        allowed_pos = indices(c.pos)
                        allowed_neg = indices(c.neg)
                        for d in family:
                            allowed_pos |= indices(d.pos)
                            allowed_neg |= indices(d.neg)
                        allowed_pos -= x_set
                        allowed_neg -= x_set
                        hit = any(
                            f in indices(d.support)
                            and indices(d.pos) <= allowed_pos
                            and indices(d.neg) <= allowed_neg
                            for d in members
                        )
                        if not hit:
                            return False
    return True


def test_ce_matches_naive():
    for name, pair in small_instances():
        for sig in (pair.circuit_sig, pair.cocircuit_sig):
            assert bool(check_CE(sig)) == naive_check_ce(sig), name


# -- depth-first (C3) and (CE): the union searches the level-set search replaced
#
# Both searches deduplicate families by the union of their members.  (C3) pops
# a stack, so it meets options in reverse order, and then reports the first
# family in forward order with the union it found; (CE) recurses in forward
# order.  The level-set search must reproduce both witnesses exactly.


def dfs_find_c3_violation(masks):
    cover_memo = {}

    def cover(allowed):
        got = cover_memo.get(allowed)
        if got is None:
            got = 0
            for d in masks:
                if d & ~allowed == 0:
                    got |= d
            cover_memo[allowed] = got
        return got

    for c in masks:
        xs = list(bits(c))
        for size in range(1, len(xs) + 1):
            for x_combo in itertools.combinations(xs, size):
                x = mask_of(x_combo)
                cand = [[d for d in masks if d & x == (1 << xi)] for xi in x_combo]
                if not all(cand):
                    continue
                bad_u = dfs_scan_unions(c, x, cand, cover)
                if bad_u is not None:
                    u, f = bad_u
                    return c, x, dfs_family_for_union(cand, u), f
    return None


def dfs_scan_unions(c, x, cand, cover):
    seen = set()
    stack = [(0, 0)]
    while stack:
        depth, u = stack.pop()
        if (depth, u) in seen:
            continue
        seen.add((depth, u))
        if depth == len(cand):
            allowed = (c | u) & ~x
            for f in bits(c & ~u):
                if not ((cover(allowed) >> f) & 1):
                    return u, f
            continue
        for d in cand[depth]:
            stack.append((depth + 1, u | d))
    return None


def dfs_family_for_union(cand, target):
    def rec(depth, u, picked):
        if depth == len(cand):
            return picked if u == target else None
        for d in cand[depth]:
            if (u | d) & ~target:
                continue
            got = rec(depth + 1, u | d, picked + (d,))
            if got is not None:
                return got
        return None

    got = rec(0, 0, ())
    if got is None:
        raise InvariantError("failed to reconstruct elimination family")
    return got


def dfs_c3_verdict(ground, masks):
    """What validate_circuits returns when (C1) and (C2) hold."""
    bad = dfs_find_c3_violation(masks)
    if bad is None:
        return Matroid._from_valid(ground, masks)
    c, x, fam, f = bad
    return CircuitViolation(
        "C3",
        (indices(c), indices(x), tuple(indices(d) for d in fam), f),
        f"no circuit through {f} inside the allowed union for C={sorted(bits(c))}, "
        f"X={sorted(bits(x))}",
    )


def dfs_check_ce(sig: CircuitSignature, *, cap=CE_CAP_DEFAULT) -> Verdict:
    n = sig.ground.size
    if n > cap:
        raise CapExceededError(f"exhaustive (CE) needs ground size <= {cap} (got {n})")
    members = sig.member_masks()
    cover_memo = {}

    def cover(ap, an):
        got = cover_memo.get((ap, an))
        if got is None:
            got = 0
            for p, m, s in members:
                if not (p & ~ap or m & ~an):
                    got |= s
            cover_memo[(ap, an)] = got
        return got

    for c in sig.representatives():
        cp, cm, cs = c.pos, c.neg, c.support
        xs = list(bits(cs))
        for size in range(1, len(xs) + 1):
            for x_combo in itertools.combinations(xs, size):
                x = mask_of(x_combo)
                cand = []
                for xi in x_combo:
                    xb = 1 << xi
                    cand.append(
                        [(p, m) for p, m, s in members if s & x == xb and ((p & xb) if cm & xb else (m & xb))]
                    )
                if not all(cand):
                    continue
                bad = dfs_ce_scan(cp, cm, cs, x, cand, cover)
                if bad is not None:
                    upos, uneg, f = bad
                    fam = dfs_ce_family_for_union(cand, upos, uneg)
                    family = {xi: SignedSubset(sig.ground, p, m) for xi, (p, m) in zip(x_combo, fam)}
                    return Verdict(False, CEViolation(EliminationInstance.of(c, family, f)))
    return Verdict(True)


def dfs_ce_scan(cp, cm, cs, x, cand, cover):
    seen = set()

    def rec(depth, upos, uneg):
        if (depth, upos, uneg) in seen:
            return None
        seen.add((depth, upos, uneg))
        if depth == len(cand):
            frange = cs & ~((cp & uneg) | (cm & upos))
            if not frange:
                return None
            bad = frange & ~cover((cp | upos) & ~x, (cm | uneg) & ~x)
            return (upos, uneg, (bad & -bad).bit_length() - 1) if bad else None
        for p, m in cand[depth]:
            got = rec(depth + 1, upos | p, uneg | m)
            if got is not None:
                return got
        return None

    return rec(0, 0, 0)


def dfs_ce_family_for_union(cand, target_pos, target_neg):
    def rec(depth, upos, uneg, picked):
        if depth == len(cand):
            return picked if (upos, uneg) == (target_pos, target_neg) else None
        for p, m in cand[depth]:
            if (upos | p) & ~target_pos or (uneg | m) & ~target_neg:
                continue
            got = rec(depth + 1, upos | p, uneg | m, picked + ((p, m),))
            if got is not None:
                return got
        return None

    got = rec(0, 0, 0, ())
    if got is None:
        raise InvariantError("failed to reconstruct elimination family")
    return got


def scalar_check_ce_sampled(sig: CircuitSignature, trials: int, seed: int) -> tuple[Verdict, int]:
    """The sampled (CE) scan with a per-member cover loop, and its admissible draws: a draw
    without an instance is redrawn, until ``trials`` are tested or 20 draws per trial are spent."""
    reps = sig.representatives()
    rng = random.Random(seed)
    members = sig.member_masks()
    tested = 0
    for _ in range(20 * trials):
        if tested == trials:
            break
        c = reps[rng.randrange(len(reps))]
        support = list(bits(c.support))
        x_combo = tuple(sorted(rng.sample(support, rng.randrange(1, len(support) + 1))))
        x = mask_of(x_combo)
        family = {}
        upos = uneg = 0
        for xi in x_combo:
            xb = 1 << xi
            options = [
                (p, m) for p, m, s in members if s & x == xb and ((p & xb) if c.neg & xb else (m & xb))
            ]
            if not options:
                break
            p, m = options[rng.randrange(len(options))]
            family[xi] = SignedSubset(sig.ground, p, m)
            upos |= p
            uneg |= m
        else:
            frange = list(bits(c.support & ~((c.pos & uneg) | (c.neg & upos))))
            if not frange:
                continue
            f = frange[rng.randrange(len(frange))]
            tested += 1
            ap = (c.pos | upos) & ~x
            an = (c.neg | uneg) & ~x
            if not any((s >> f) & 1 and not (p & ~ap or m & ~an) for p, m, s in members):
                return Verdict(False, CEViolation(EliminationInstance.of(c, family, f))), tested
    return Verdict(True), tested


def random_clutter(rng: random.Random) -> tuple[GroundSet, tuple[int, ...]]:
    """An antichain of nonempty sets, so (C1) and (C2) hold and (C3) is decisive."""
    n = rng.randint(3, 7)
    sets = {mask_of(rng.sample(range(n), rng.randint(1, min(n, 4)))) for _ in range(rng.randint(2, 9))}
    masks = [m for m in sets if not any(o != m and o & ~m == 0 for o in sets)]
    return GroundSet.range(n), tuple(sorted(masks, key=lambda m: tuple(bits(m))))


def test_c3_search_matches_dfs_on_random_clutters():
    failing = 0
    for seed in range(400):
        ground, masks = random_clutter(random.Random(seed))
        want = dfs_c3_verdict(ground, masks)
        assert validate_circuits(ground, masks) == want, seed
        failing += isinstance(want, CircuitViolation)
    assert failing > 50


def test_c3_search_matches_dfs_on_pool(instance_pool):
    seen = set()
    for inst in instance_pool:
        m = inst.pair.matroid
        for side in (m, m.dual()):
            if side not in seen:
                seen.add(side)
                assert validate_circuits(side.ground, side.circuit_masks) == dfs_c3_verdict(
                    side.ground, side.circuit_masks
                ), inst.name


def test_c3_witness_follows_reverse_order_union():
    # Eliminating X = {0, 2} from C = {0, 1, 2, 3} with options {014}, {034}
    # for 0 and {124}, {234} for 2: every family is bad.  The first in
    # forward order is ({014}, {124}), stranding 3; the depth-first search
    # pops options in reverse and blames the union {0, 2, 3, 4} instead.
    ground = GroundSet.range(5)
    masks = tuple(mask_of(c) for c in ([0, 1, 2, 3], [0, 1, 4], [0, 3, 4], [1, 2, 4], [2, 3, 4]))
    want = (mask_of([0, 1, 2, 3]), mask_of([0, 2]), (mask_of([0, 3, 4]), mask_of([2, 3, 4])), 1)
    assert dfs_find_c3_violation(masks) == want
    assert _find_c3_violation(masks) == want
    assert validate_circuits(ground, masks) == dfs_c3_verdict(ground, masks)


def test_ce_search_matches_dfs_on_pool(instance_pool):
    failing = 0
    for inst in instance_pool:
        for sig in (inst.pair.circuit_sig, inst.pair.cocircuit_sig):
            got = check_CE(sig)
            assert got == dfs_check_ce(sig), inst.name
            failing += not got.ok
    assert failing == 57  # sides the sign corruption breaks, so witnesses are compared


CE_BASES = [
    alternating_rank2(6),
    alternating_rank2(7),
    alternating_rank2(8),
    graphic_om(fig4_digraph()),
    graphic_om(fig4_digraph()).reorient(0b101),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CE_BASES), st.integers(0, 2**32 - 1))
def test_ce_search_matches_dfs_on_mutants(base, seed):
    mutant = corrupt_pair(base, random.Random(seed))
    for sig in (mutant.circuit_sig, mutant.cocircuit_sig):
        assert check_CE(sig) == dfs_check_ce(sig)


@pytest.mark.parametrize("sample, seed", [(1, 0), (40, 3), (300, 11)])
def test_ce_sampled_matches_scalar(sample, seed):
    rng = random.Random(sample + seed)
    alt7 = alternating_rank2(7)
    for pair in (alt7, corrupt_pair(alt7, rng), corrupt_pair(graphic_om(fig4_digraph()), rng)):
        for sig in (pair.circuit_sig, pair.cocircuit_sig):
            want, tested = scalar_check_ce_sampled(sig, sample, seed)
            got = check_CE(sig, cap=3, sample=sample, seed=seed)
            assert (got.ok, got.witness) == (want.ok, want.witness)
            assert got.detail == f"sampled {sample} instances, seed={seed}, {tested} admissible tested"


def test_ce_sampled_matches_scalar_on_pool(instance_pool):
    # small graphic and line instances have eliminated elements without
    # options, where the draws for the levels before them must still be made
    failing = 0
    for index, inst in enumerate(instance_pool):
        for sig in (inst.pair.circuit_sig, inst.pair.cocircuit_sig):
            if not sig.representatives():
                continue
            want, tested = scalar_check_ce_sampled(sig, 40, index)
            got = check_CE(sig, cap=3, sample=40, seed=index)
            assert (got.ok, got.witness) == (want.ok, want.witness), inst.name
            assert got.detail == f"sampled 40 instances, seed={index}, {tested} admissible tested"
            failing += not got.ok
    assert failing > 20


# -- the weak-elimination decision: a scan searches families only when weak
# elimination fails.  Whole verdicts cannot show a pre-test that is too
# strict, since it falls back to the same search, so the decision itself is
# recorded and compared with the depth-first scans' pass or fail.


@contextlib.contextmanager
def recorded_decisions():
    """Per elimination scan run inside the block: did it search the instances?"""
    real = matroid._elimination_scan
    decided = []

    def spy(supports, instance, weak):
        scan = list(real(supports, instance, weak))
        decided.append(bool(scan))
        return scan

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matroid, "_elimination_scan", spy)
        mp.setattr(oriented, "_elimination_scan", spy)
        yield decided


def single_fails(check, *args) -> bool:
    """Whether the one elimination scan of ``check(*args)`` failed an |X| = 1 instance."""
    with recorded_decisions() as decided:
        check(*args)
    (fails,) = decided
    return fails


@functools.cache
def dfs_ce_fails(sig: CircuitSignature) -> bool:
    return not dfs_check_ce(sig).ok


def test_single_element_c3_decision_is_exact_on_random_clutters():
    failing = 0
    for seed in range(600):
        ground, masks = random_clutter(random.Random(seed))
        fails = isinstance(dfs_c3_verdict(ground, masks), CircuitViolation)
        assert single_fails(validate_circuits, ground, masks) == fails, seed
        failing += fails
    assert 100 < failing < 500


def test_single_element_decisions_are_exact_on_pool(instance_pool):
    seen = set()
    failing = {"C3": 0, "CE": 0}
    for inst in instance_pool:
        m = inst.pair.matroid
        for side in (m, m.dual()):
            if side not in seen:
                seen.add(side)
                fails = isinstance(dfs_c3_verdict(side.ground, side.circuit_masks), CircuitViolation)
                assert single_fails(validate_circuits, side.ground, side.circuit_masks) == fails, inst.name
                failing["C3"] += fails
        for sig in (inst.pair.circuit_sig, inst.pair.cocircuit_sig):
            fails = dfs_ce_fails(sig)
            assert single_fails(check_CE, sig) == fails, inst.name
            failing["CE"] += fails
    assert failing == {"C3": 0, "CE": 57}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CE_BASES), st.integers(0, 2**32 - 1))
def test_single_element_ce_decision_is_exact_on_mutants(base, seed):
    mutant = corrupt_pair(base, random.Random(seed))
    for sig in (mutant.circuit_sig, mutant.cocircuit_sig):
        assert single_fails(check_CE, sig) == dfs_ce_fails(sig)


# rank 3, where families with |X| >= 2 occur: circuits have four elements
RANK3_BASES = [u3_signature(neat_prefix(n, s)) for n in (7, 8) for s in (0, 1)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RANK3_BASES), st.integers(0, 2**32 - 1))
def test_single_element_ce_decision_is_exact_on_rank3_multi_flips(base, seed):
    rng = random.Random(seed)
    mutant = base
    for _ in range(rng.randint(2, 4)):
        mutant = corrupt_pair(mutant, rng)
    for sig in (mutant.circuit_sig, mutant.cocircuit_sig):
        assert single_fails(check_CE, sig) == dfs_ce_fails(sig)


# -- the retired decision: a scan searched families only after some |X| = 1
# instance failed strong elimination.  Run as the only instances a checker
# sees, it fails the checker exactly when that decision searched, so the weak
# decision is compared with it in both directions.


def single_element_scan(supports, instance, weak):
    """Every |X| = 1 instance, in canonical order, whatever weak elimination says."""
    for i, s in enumerate(supports):
        for x in bits(s):
            yield instance(i, (x,))


def retired_fails(check, *args) -> bool:
    """Whether ``check(*args)`` fails an |X| = 1 instance."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matroid, "_elimination_scan", single_element_scan)
        mp.setattr(oriented, "_elimination_scan", single_element_scan)
        got = check(*args)
    return isinstance(got, CircuitViolation) if check is validate_circuits else not got.ok


def assert_weak_matches_retired(check, *args, label=None) -> bool:
    fails = retired_fails(check, *args)
    assert single_fails(check, *args) == fails, label
    return fails


def test_weak_decision_matches_retired_on_random_clutters():
    failing = 0
    for seed in range(600, 1600):
        ground, masks = random_clutter(random.Random(seed))
        failing += assert_weak_matches_retired(validate_circuits, ground, masks, label=seed)
    assert 200 < failing < 800


def test_weak_decision_matches_retired_on_random_signings():
    # the pool carries only 42 matroids; random signings of random (C3)-valid
    # clutters and paving matroids reach many more (164 of these 1020 fail)
    rng = random.Random(23)
    failing = total = 0
    for k, m in enumerate(random_matroids(150) + [random_paving_matroid(rng.randint(5, 7), rng) for _ in range(20)]):
        for side in (m, m.dual()):
            for _ in range(3):
                failing += assert_weak_matches_retired(check_CE, random_signing(side, rng), label=k)
                total += 1
    assert 100 < failing < total - 100


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CE_BASES), st.integers(0, 2**32 - 1))
def test_weak_decision_matches_retired_on_mutants(base, seed):
    mutant = corrupt_pair(base, random.Random(seed))
    for sig in (mutant.circuit_sig, mutant.cocircuit_sig):
        assert_weak_matches_retired(check_CE, sig)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RANK3_BASES), st.integers(0, 2**32 - 1))
def test_weak_decision_matches_retired_on_rank3_multi_flips(base, seed):
    rng = random.Random(seed)
    mutant = base
    for _ in range(rng.randint(2, 4)):
        mutant = corrupt_pair(mutant, rng)
    for sig in (mutant.circuit_sig, mutant.cocircuit_sig):
        assert_weak_matches_retired(check_CE, sig)


def test_weak_decision_needs_a_clutter():
    # supports that are not a clutter, as a trusted non-matroid's hyperplane
    # dual can have: weak elimination holds (eliminating 1 from +{1} and
    # -{0, 1, 2} leaves -{2}, and likewise for 2), yet +{0, 1, 2} and -{1}
    # have no witness through 0, so the scan must search
    ground = GroundSet.range(3)
    m = Matroid._from_valid(ground, [mask_of([0, 1, 2]), mask_of([1]), mask_of([2])])
    sig = CircuitSignature.from_representatives(
        m, [SignedSubset(ground, 0b111, 0), SignedSubset(ground, 0b10, 0), SignedSubset(ground, 0b100, 0)]
    )
    assert retired_fails(check_CE, sig)
    assert single_fails(check_CE, sig)
    assert check_CE(sig) == dfs_check_ce(sig) and not check_CE(sig).ok


# -- (C2): the all-pairs loop the plane search replaced


def all_pairs_c2(ground, family):
    """What validate_circuits returned for (C1) and (C2), or None where both hold."""
    masks = _canonical(c if isinstance(c, int) else mask_of(c) for c in family)
    if any(m == 0 for m in masks):
        return CircuitViolation("C1", ((),), "the empty set is listed as a circuit")
    for a, b in itertools.combinations(masks, 2):
        if a & ~b == 0 or b & ~a == 0:
            small, big = (a, b) if a & ~b == 0 else (b, a)
            return CircuitViolation(
                "C2",
                (indices(small), indices(big)),
                f"circuit {sorted(bits(small))} is contained in circuit {sorted(bits(big))}",
            )
    return None


def test_c2_first_pair_matches_all_pairs_on_mixed_sizes():
    nested = 0
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        family = [mask_of(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 14))]
        ground = GroundSet.range(n)
        want = all_pairs_c2(ground, family)
        got = validate_circuits(ground, family, trusted=True)
        if want is None:
            assert isinstance(got, Matroid), seed
        else:
            assert got == want and str(got) == str(want), seed
            nested += want.axiom == "C2"
    assert nested > 1000
    # one size: distinct masks never nest, so U(3, 13) needs no comparison
    u313 = [mask_of(c) for c in itertools.combinations(range(13), 4)]
    assert isinstance(validate_circuits(GroundSet.range(13), u313, trusted=True), Matroid)


# -- subset-scan dual: the cocircuit search the hyperplane dual replaced


def subset_scan_cocircuits(m: Matroid) -> tuple[int, ...]:
    """Minimal sets whose complement has lower rank, by increasing size."""
    full = m.ground.full_mask
    r = m.rank()
    n = m.ground.size
    cocircuits = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            s = mask_of(combo)
            if any(u & ~s == 0 for u in cocircuits):
                continue
            if m.rank(full & ~s) != r:
                cocircuits.append(s)
    return Matroid._from_valid(m.ground, cocircuits).circuit_masks


def test_dual_matches_subset_scan_on_pool_minors(instance_pool, pool_minors):
    minors = {inst.pair.matroid for inst in instance_pool if inst.pair.ground.size > 6}
    for entry in pool_minors:
        induced = entry.induced
        minors.add(entry.inst.pair.matroid.minor_with_map(entry.spec)[0] if isinstance(induced, Exception) else induced.matroid)
    for m in minors:
        assert m.dual().circuit_masks == subset_scan_cocircuits(m), m


@pytest.mark.parametrize(
    "n, circuits, cocircuits",
    [
        (0, [], []),  # empty ground set
        (3, [], [[0], [1], [2]]),  # free: every element is a coloop
        (3, [[0], [1], [2]], []),  # all loops: rank 0 has no hyperplane
        (3, [[0, 1]], [[0, 1], [2]]),  # 2 is a coloop
        (4, [[0], [1, 2]], [[1, 2], [3]]),  # a loop, a parallel pair and a coloop
    ],
)
def test_dual_edge_cases(n, circuits, cocircuits):
    m = Matroid.from_circuits(GroundSet.range(n), circuits)
    want = Matroid._from_valid(m.ground, [mask_of(u) for u in cocircuits]).circuit_masks
    assert m.dual().circuit_masks == want == subset_scan_cocircuits(m)


# -- naive (4P) -----------------------------------------------------------------


def naive_check_4p(pair: SignaturePair) -> bool:
    n = pair.ground.size
    circuits = list(pair.circuit_sig.signed)
    cocircuits = list(pair.cocircuit_sig.signed)
    for colors in itertools.product("BWGR", repeat=n):
        b = {i for i in range(n) if colors[i] == "B"}
        w = {i for i in range(n) if colors[i] == "W"}
        g = {i for i in range(n) if colors[i] == "G"}
        r = {i for i in range(n) if colors[i] == "R"}
        for e in b | w:
            alt1 = any(
                e in indices(x.support)
                and indices(x.support) <= b | w | g
                and indices(x.support) & b <= indices(x.pos)
                and indices(x.support) & w <= indices(x.neg)
                for x in circuits
            )
            alt2 = any(
                e in indices(y.support)
                and indices(y.support) <= b | w | r
                and indices(y.support) & b <= indices(y.pos)
                and indices(y.support) & w <= indices(y.neg)
                for y in cocircuits
            )
            if alt1 == alt2:
                return False
    return True


def test_4p_matches_naive():
    for name, pair in small_instances():
        assert bool(check_4P(pair)) == naive_check_4p(pair), name


# -- scalar (4P): one partition at a time ------------------------------------------
#
# The per-partition scan the bit-sliced kernel replaced.  It must agree with
# the kernel on the verdict and on the witness: the first violating partition
# in product (or draw) order, focused on its least failing element.


def scalar_paint_scan(circ_pairs, cocirc_pairs, b, w, g, r) -> int:
    """Elements of B|W failing the exactly-one alternative; 0 means OK."""
    us = 0
    for p, m, s in circ_pairs:
        if not s & r:
            if not ((m & b) | (p & w)) or not ((p & b) | (m & w)):
                us |= s
    ut = 0
    for p, m, s in cocirc_pairs:
        if not s & g:
            if not ((m & b) | (p & w)) or not ((p & b) | (m & w)):
                ut |= s
    return (b | w) & ~(us ^ ut)


def scalar_check_4p(pair: SignaturePair, *, cap=FOUR_P_CAP_DEFAULT, sample=None, seed=0) -> Verdict:
    ground = pair.ground
    n = ground.size
    circ_pairs = pair.circuit_sig.pair_masks()
    cocirc_pairs = pair.cocircuit_sig.pair_masks()

    def run(assignments, detail) -> Verdict:
        for colors in assignments:
            masks = [0, 0, 0, 0]
            for i, col in enumerate(colors):
                masks[col] |= 1 << i
            bad = scalar_paint_scan(circ_pairs, cocirc_pairs, *masks)
            if bad:
                e = (bad & -bad).bit_length() - 1
                part = FourPartition.from_masks(ground, *masks)
                return Verdict(False, FourPViolation(part, e), detail)
        return Verdict(True, detail=detail)

    if sample is not None:
        rng = random.Random(seed)
        draws = (tuple(rng.randrange(4) for _ in range(n)) for _ in range(sample))
        return run(draws, f"sampled {sample} partitions, seed={seed}")
    if n > cap:
        raise CapExceededError(f"exhaustive (4P) needs ground size <= {cap} (got {n})")
    return run(itertools.product(range(4), repeat=n), "")


def test_4p_kernel_matches_scalar_on_pool(instance_pool):
    failing = 0
    for inst in instance_pool:
        got = check_4P(inst.pair)
        assert got == scalar_check_4p(inst.pair), inst.name
        failing += not got.ok
    assert failing == 80  # the sign-corrupted mutants, so witnesses are compared


MUTANT_BASES = [
    alternating_rank2(5),
    alternating_rank2(6),
    alternating_rank2(9),  # two-level enumeration: a one-element prefix over 4^8-painting blocks
    graphic_om(fig4_digraph()),
    graphic_om(fig4_digraph()).reorient(0b101),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MUTANT_BASES), st.integers(0, 2**32 - 1))
def test_4p_kernel_matches_scalar_on_mutants(base, seed):
    mutant = corrupt_pair(base, random.Random(seed))
    assert check_4P(mutant) == scalar_check_4p(mutant)


@pytest.mark.parametrize("sample", [1, 37, 2500])
@pytest.mark.parametrize("seed", [0, 5, 91])
def test_4p_sampled_kernel_matches_scalar(sample, seed):
    # 2500 spans several kernel batches; the mutants fail at varying draws
    rng = random.Random(sample * 1000 + seed)
    alt7 = alternating_rank2(7)
    pairs = [alt7, corrupt_pair(alt7, rng), corrupt_pair(graphic_om(fig4_digraph()), rng)]
    for pair in pairs:
        got = check_4P(pair, cap=3, sample=sample, seed=seed)
        assert got == scalar_check_4p(pair, cap=3, sample=sample, seed=seed)


def test_4p_sampled_witness_past_first_batch():
    mutant = corrupt_pair(alternating_rank2(10), random.Random(0))
    assert check_4P(mutant, sample=1024, seed=0)  # the first violating draw comes later
    got = check_4P(mutant, sample=2500, seed=0)
    assert not got
    assert got == scalar_check_4p(mutant, sample=2500, seed=0)


def test_exhaustive_batches_follow_product_order():
    # mutants' first witnesses all fall in the first block, so check the later
    # blocks' planes and decoding against itertools.product directly
    n = 9
    batches = list(_exhaustive_paintings(n))
    assert len(batches) == 4
    for index, colors in enumerate(itertools.product(range(4), repeat=n)):
        if index % 97:
            continue
        planes, full, colors_of = batches[index >> 16]
        j = index & 0xFFFF
        assert full == (1 << 4**8) - 1
        assert colors_of(j) == colors
        for e, col in enumerate(colors):
            assert [plane >> j & 1 for plane in planes[e]] == [int(c == col) for c in range(4)]


def test_4p_at_matches_scalar_on_every_painting():
    for name, pair in small_instances():
        n = pair.ground.size
        circ_pairs = pair.circuit_sig.pair_masks()
        cocirc_pairs = pair.cocircuit_sig.pair_masks()
        for colors in itertools.product(range(4), repeat=n):
            masks = [0, 0, 0, 0]
            for i, col in enumerate(colors):
                masks[col] |= 1 << i
            bad = scalar_paint_scan(circ_pairs, cocirc_pairs, *masks)
            part = FourPartition.from_masks(pair.ground, *masks)
            for focus in range(n):
                if colors[focus] < 2:
                    want = not bad >> focus & 1
                    assert check_4P_at(pair, part, focus) == want, (name, colors, focus)


# -- naive (FA) -----------------------------------------------------------------


def naive_check_fa(pair: SignaturePair) -> bool:
    n = pair.ground.size
    for states in itertools.product(range(3), repeat=n):
        spec = MinorSpec.of(
            contract=[i for i, s in enumerate(states) if s == 1],
            delete=[i for i, s in enumerate(states) if s == 2],
        )
        got = induced_sets(pair, spec)
        k = got.minor.ground.size
        for a in range(1 << k):
            s_side = [x.reorient(a) for x in got.circuits_side]
            t_side = [x.reorient(a) for x in got.cocircuits_side]
            if not check_FP(s_side, t_side, got.minor.ground):
                return False
    return True


def test_fa_matches_naive():
    for name, pair in small_instances():
        assert bool(check_FA(pair)) == naive_check_fa(pair), name


# -- scalar (FA): its own cap, sampling and reorientation loops --------------------------
#
# The (FA) scan from before check_FA shared its cap test, sampling and batch
# loop with (4P) and (CE).  check_FA must reproduce its whole verdict: minor
# spec, reorientation, FP element and kind, and detail.


def scalar_check_fa(pair: SignaturePair, *, cap=FA_CAP_DEFAULT, sample=None, seed=0) -> Verdict:
    ground = pair.ground
    n = ground.size
    if sample is not None:
        if sample < 1:
            raise DomainError(f"sampling needs at least one trial (got {sample})")
    elif n > cap:
        raise CapExceededError(f"exhaustive (FA) needs ground size <= {cap} (got {n}); use sampling instead")
    full = ground.full_mask
    circ_signed = pair.circuit_sig.member_masks()
    cocirc_signed = pair.cocircuit_sig.member_masks()
    circuit_masks = pair.matroid.circuit_masks
    cocircuit_masks = pair.matroid.dual().circuit_masks

    contract_cache = {}
    dual_contract_cache = {}

    def minor_members(f, g):
        en = full & ~(f | g)
        circ_n = contract_cache.get(f)
        if circ_n is None:
            circ_n = contraction_circuit_masks(circuit_masks, f)
            contract_cache[f] = circ_n
        circ_here = frozenset(c for c in circ_n if not c & g)
        cocirc_n = dual_contract_cache.get(g)
        if cocirc_n is None:
            cocirc_n = contraction_circuit_masks(cocircuit_masks, g)
            dual_contract_cache[g] = cocirc_n
        cocirc_here = frozenset(u for u in cocirc_n if not u & f)
        s_members = [(p & en, m & en) for p, m, s in circ_signed if not s & g and (s & en) in circ_here]
        t_members = [(p & en, m & en) for p, m, s in cocirc_signed if not s & f and (s & en) in cocirc_here]
        return en, s_members, t_members

    def fp_fail(en, s_members, t_members, a):
        cover_s = 0
        for p, m in s_members:
            if not ((m & ~a) | (p & a)):
                cover_s |= p | m
        cover_t = 0
        for p, m in t_members:
            if not ((m & ~a) | (p & a)):
                cover_t |= p | m
        both = cover_s & cover_t
        if both:
            return (both & -both).bit_length() - 1, "both"
        neither = en & ~(cover_s | cover_t)
        if neither:
            return (neither & -neither).bit_length() - 1, "neither"
        return None

    def violation(f, g, a, hit, detail):
        spec = MinorSpec(indices(f), indices(g))
        return Verdict(False, FAViolation(spec, indices(a), FPViolation(*hit)), detail)

    if sample is not None:
        rng = random.Random(seed)
        detail = f"sampled {sample} minor/reorientation pairs, seed={seed}"
        for _ in range(sample):
            f = g = 0
            for i in range(n):
                state = rng.randrange(3)
                if state == 1:
                    f |= 1 << i
                elif state == 2:
                    g |= 1 << i
            en, s_members, t_members = minor_members(f, g)
            a = 0
            for i in bits(en):
                if rng.randrange(2):
                    a |= 1 << i
            hit = fp_fail(en, s_members, t_members, a)
            if hit is not None:
                return violation(f, g, a, hit, detail)
        return Verdict(True, detail=detail)

    for states in itertools.product(range(3), repeat=n):
        f = g = 0
        for i, st in enumerate(states):
            if st == 1:
                f |= 1 << i
            elif st == 2:
                g |= 1 << i
        en, s_members, t_members = minor_members(f, g)
        positions = list(bits(en))
        for k in range(1 << len(positions)):
            a = 0
            kk = k
            while kk:  # deposit the bits of k onto the kept positions
                low = kk & -kk
                a |= 1 << positions[low.bit_length() - 1]
                kk ^= low
            hit = fp_fail(en, s_members, t_members, a)
            if hit is not None:
                return violation(f, g, a, hit, "")
    return Verdict(True)


def test_fa_matches_scalar_on_pool(instance_pool):
    failing = 0
    for inst in instance_pool:
        got = check_FA(inst.pair)
        assert got == scalar_check_fa(inst.pair), inst.name
        failing += not got.ok
    assert failing == 80  # the sign-corrupted mutants, so witnesses are compared


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([alternating_rank2(5), graphic_om(fig4_digraph()), graphic_om(fig4_digraph()).reorient(0b101)]),
    st.integers(0, 2**32 - 1),
)
def test_fa_matches_scalar_on_mutants(base, seed):
    mutant = corrupt_pair(base, random.Random(seed))
    assert check_FA(mutant) == scalar_check_fa(mutant)


@pytest.mark.parametrize("sample", [1, 37, 400])
@pytest.mark.parametrize("seed", [0, 5, 91])
def test_fa_sampled_matches_scalar(sample, seed):
    rng = random.Random(sample * 1000 + seed)
    alt6 = alternating_rank2(6)
    pairs = [alt6, corrupt_pair(alt6, rng), corrupt_pair(graphic_om(fig4_digraph()), rng)]
    for pair in pairs:
        got = check_FA(pair, cap=3, sample=sample, seed=seed)
        assert got == scalar_check_fa(pair, cap=3, sample=sample, seed=seed)


# -- bit-sliced (FA): liveness, several blocks, edge cases -----------------------------


def subset_planes(n: int) -> list[int]:
    """Per element e, the plane of the 2^n sets f (bit f) that contain e."""
    return [sum(1 << f for f in range(1 << n) if f >> e & 1) for e in range(n)]


def assert_liveness_matches_contraction(n: int, masks) -> None:
    masks = list(masks)
    live = _live_planes(masks, _Inside(subset_planes(n), (1 << (1 << n)) - 1))
    for f in range(1 << n):
        circuits = set(contraction_circuit_masks(masks, f))
        assert [x >> f & 1 for x in live] == [int((s & ~f) in circuits) for s in masks], (masks, f)


def test_liveness_matches_contraction_on_pool(instance_pool):
    seen = set()
    for inst in instance_pool:
        m = inst.pair.matroid
        for side in (m, m.dual()):
            if side not in seen:
                seen.add(side)
                assert_liveness_matches_contraction(side.ground.size, side.circuit_masks)
    assert len(seen) == 75  # the 42 distinct pool matroids and their duals, 75 distinct in all


def test_liveness_matches_contraction_on_random_clutters():
    # clutters that fail (C3) reach cases the pool's 42 distinct matroids do not
    non_matroids = 0
    for seed in range(300):
        ground, masks = random_clutter(random.Random(seed))
        assert_liveness_matches_contraction(ground.size, masks)
        non_matroids += isinstance(validate_circuits(ground, masks), CircuitViolation)
    assert non_matroids > 50


def random_paving_matroid(n: int, rng: random.Random) -> Matroid:
    """A random sparse paving matroid of rank 3: some triples meeting pairwise in at most one
    element, and every 4-set that holds none of them.  A (C3)-valid clutter whose circuits interact."""
    triples = list(itertools.combinations(range(n), 3))
    rng.shuffle(triples)
    lines, want = [], rng.randint(3, 8)
    for t in triples:
        if len(lines) < want and all(len(set(t) & set(u)) <= 1 for u in lines):
            lines.append(t)
    quads = [q for q in itertools.combinations(range(n), 4) if not any(set(t) <= set(q) for t in lines)]
    got = validate_circuits(GroundSet.range(n), [mask_of(c) for c in lines + quads])
    assert isinstance(got, Matroid)
    return got


# -- exhaustive (FA) liveness against the per-block path
#
# The oracle runs ``_live_planes`` on each block's own 4^k-bit contract (delete)
# planes.  ``_fa_blocks`` runs it once per contracted (deleted) set of a block's
# prefix and spreads each member's table over the block; every block's members
# must agree.


def replaced_block_members(n: int, circ_pairs, cocirc_pairs) -> list:
    """Per exhaustive block, its members per side from ``_live_planes`` on the block's own planes."""
    out = []
    for planes, full, _ in _exhaustive_paintings(n):
        sides = []
        for reps, color in ((circ_pairs, 2), (cocirc_pairs, 3)):
            live = _live_planes([s for *_, s in reps], _Inside([col[color] for col in planes], full))
            sides.append([(*x, alive) for x, alive in zip(reps, live)])
        out.append(sides)
    return out


def assert_blocks_match_replaced_path(n: int, circ_pairs, cocirc_pairs, tables=None) -> list:
    blocks = _fa_blocks(n, circ_pairs, cocirc_pairs, {} if tables is None else tables)
    assert [block[:3] for block in blocks] == list(_exhaustive_paintings(n))
    assert [list(block[3]) for block in blocks] == replaced_block_members(n, circ_pairs, cocirc_pairs), n
    return blocks


def test_spread_reads_each_painting_at_its_set():
    # bit j of the spread is the table's bit at the set of j's base-4 digits equal to the color
    rng = random.Random(5)
    for k in range(6):
        for color in (2, 3):
            for table in [0, (1 << 2**k) - 1] + [rng.getrandbits(2**k) for _ in range(6)]:
                digit_sets = [mask_of(q for q in range(k) if j >> 2 * q & 3 == color) for j in range(4**k)]
                assert _spread(table, k, color) == mask_of(j for j, f in enumerate(digit_sets) if table >> f & 1)


@pytest.mark.parametrize("case", ["alt9", "paving9"])
def test_fa_members_liveness_matches_contraction_in_every_block(case):
    # each block's live bits come from its own prefix's contracted (deleted) set, so
    # where the prefix contracts or deletes element 0 the members must see it
    rng = random.Random(7)
    if case == "alt9":
        pair = alternating_rank2(9)
        circ_pairs, cocirc_pairs = pair.circuit_sig.pair_masks(), pair.cocircuit_sig.pair_masks()
        m = pair.matroid
    else:
        m = random_paving_matroid(9, rng)  # (FA) liveness ignores signs: any signing serves
        circ_pairs, cocirc_pairs = ([(s, 0, s) for s in side.circuit_masks] for side in (m, m.dual()))
    prefixes = []
    for _, full, colors_of, (circ, cocirc) in assert_blocks_match_replaced_path(9, circ_pairs, cocirc_pairs):
        assert [x[:3] for x in circ] == circ_pairs and [x[:3] for x in cocirc] == cocirc_pairs
        for j in rng.sample(range(full.bit_length()), 300):
            colors = colors_of(j)
            for members, side, color in ((circ, m, 2), (cocirc, m.dual(), 3)):
                f = mask_of(e for e, c in enumerate(colors) if c == color)
                minor = set(contraction_circuit_masks(side.circuit_masks, f))
                want = [int((s & ~f) in minor) for _, _, s, _ in members]
                assert [live >> j & 1 for *_, live in members] == want, (j, f)
        prefixes.append(colors_of(0)[0])
    assert prefixes == [0, 1, 2, 3]  # element 0 kept, reversed, contracted, deleted


def test_fa_blocks_match_replaced_path_on_pool_and_its_minors(instance_pool, pool_minors):
    # the pool's pairs (n <= 7) and their 3^n minors (n <= 6), down to the
    # single painting of n = 0 and the four of n = 1; one comparison per content
    # one liveness memo for all of them: its key (n, prefix set, supports) must tell
    # apart every side whose tables differ, across signs, colors, pairs and minors
    pairs = [inst.pair for inst in instance_pool]
    pairs += [entry.induced for entry in pool_minors if isinstance(entry.induced, SignaturePair)]
    seen, tables = set(), {}
    for pair in pairs:
        n, circ_pairs, cocirc_pairs = pair.ground.size, pair.circuit_sig.pair_masks(), pair.cocircuit_sig.pair_masks()
        key = n, tuple(circ_pairs), tuple(cocirc_pairs)
        if key not in seen:
            seen.add(key)
            assert_blocks_match_replaced_path(n, circ_pairs, cocirc_pairs, tables)
    assert {n for n, *_ in seen} == set(range(8))
    assert len(tables) < len(seen)  # signed sides that share supports share their tables


def test_fa_blocks_match_replaced_path_on_random_clutters():
    tables = {}  # shared, as by the minors of one root
    for seed in range(300):
        ground, masks = random_clutter(random.Random(seed))
        members = [(s, 0, s) for s in masks]
        assert_blocks_match_replaced_path(ground.size, members, members[::-1], tables)


def test_fa_blocks_match_replaced_path_on_a_corrupted_alt10():
    # sixteen blocks, four prefix sets per side: blocks share the tables of their set
    mutant = corrupt_pair(alternating_rank2(10), random.Random(10))
    tables = {}
    blocks = assert_blocks_match_replaced_path(
        10, mutant.circuit_sig.pair_masks(), mutant.cocircuit_sig.pair_masks(), tables
    )
    assert len(blocks) == 16 and len(tables) == 8


def test_fa_matches_scalar_on_alt9():
    alt9 = alternating_rank2(9)  # n = 9: four 4^8 blocks
    assert check_FA(alt9, cap=9) == scalar_check_fa(alt9, cap=9) == Verdict(True)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fa_matches_scalar_on_alt9_mutants(seed):
    mutant = corrupt_pair(alternating_rank2(9), random.Random(seed))
    assert check_FA(mutant, cap=9) == scalar_check_fa(mutant, cap=9)


def test_fa_witness_outside_the_first_failing_block():
    # blocks run over element 0's color (keep, keep reversed, contract, delete);
    # here the first block fails too, but the (FA)-order first witness reverses
    # element 0, so it lies in the second block
    mutant = corrupt_pair(alternating_rank2(9), random.Random(1))
    got = check_FA(mutant, cap=9)
    assert got == scalar_check_fa(mutant, cap=9)
    assert not got.witness.spec.contract and not got.witness.spec.delete and 0 in got.witness.reorient
    in_first_block = mutant.reorient(1 << 8)  # every element kept, element 0 not reversed
    assert not check_FP(in_first_block.circuit_sig.signed, in_first_block.cocircuit_sig.signed, mutant.ground)


def with_loop(pair: SignaturePair) -> SignaturePair:
    """``pair`` with a loop put in front: a circuit of its own, in no cocircuit."""
    ground = GroundSet.range(pair.ground.size + 1)

    def lift(xs):
        return [SignedSubset(ground, x.pos << 1, x.neg << 1) for x in xs]

    m = Matroid.from_circuits(ground, [[0]] + [[e + 1 for e in bits(c)] for c in pair.matroid.circuit_masks])
    return SignaturePair(
        m,
        CircuitSignature.from_representatives(m, lift(pair.circuit_sig.representatives()) + [SignedSubset(ground, 1, 0)]),
        CircuitSignature.from_representatives(m.dual(), lift(pair.cocircuit_sig.representatives())),
    )


@pytest.mark.parametrize(
    "arcs",
    [
        # parallel 1->2 arcs, an antiparallel 2->1 arc, a triangle and the bridge 3->4: n = 7
        [("1", "2"), ("1", "2"), ("2", "1"), ("2", "3"), ("3", "1"), ("3", "4")],
        # with a second parallel class 4<->5 and the bridge 5->6: n = 9, four blocks
        [("1", "2"), ("1", "2"), ("2", "3"), ("3", "1"), ("3", "4"), ("4", "5"), ("5", "4"), ("5", "6")],
    ],
)
def test_fa_matches_scalar_with_loop_bridge_and_parallel_arcs(arcs):
    vertices = sorted({v for arc in arcs for v in arc})
    pair = with_loop(graphic_om(Digraph.of(vertices, arcs)))
    assert check_FA(pair, cap=9) == scalar_check_fa(pair, cap=9) == Verdict(True)
    for seed in range(6):
        mutant = corrupt_pair(pair, random.Random(seed))
        assert check_FA(mutant, cap=9) == scalar_check_fa(mutant, cap=9)


# -- lifted induced signature: the per-circuit lift search induced_signature replaced
#
# For every minor (co)circuit the old induced_signature searched all
# representatives for lifts, restricted each lift to the minor (co)circuit and
# demanded a single opposite pair among the results.  induced_sets applied the
# same restriction again, with its own relabelling.  Now the induced signature
# is the induced sets after a one-pair-per-support check, and it must give the
# same pair, output bytes and minor dual, or the same error.


def restrict_map(kept: tuple[int, ...], new_ground: GroundSet):
    remap = {old: new for new, old in enumerate(kept)}

    def down(x: SignedSubset, support_mask: int) -> SignedSubset:
        pos = mask_of(remap[i] for i in bits(x.pos & support_mask))
        neg = mask_of(remap[i] for i in bits(x.neg & support_mask))
        return SignedSubset(new_ground, pos, neg)

    return down


def lift_induced_signature(pair: SignaturePair, spec: MinorSpec) -> SignaturePair:
    m = pair.matroid
    f_mask = m.ground.check_mask(spec.contract_mask)
    g_mask = m.ground.check_mask(spec.delete_mask)
    n, kept = m.minor_with_map(spec)
    down = restrict_map(kept, n.ground)
    up = {new: old for new, old in enumerate(kept)}

    def lift_side(sig: CircuitSignature, minor_matroid: Matroid, extra_mask: int) -> CircuitSignature:
        reps = []
        for c_new in minor_matroid.circuit_masks:
            old_support = mask_of(up[i] for i in bits(c_new))
            classes = set()
            witness = None
            for lift in sig.representatives():
                s = lift.support
                if old_support & ~s == 0 and s & ~(old_support | extra_mask) == 0:
                    restricted = down(lift, old_support)
                    classes.add(restricted.canonical_rep())
                    if witness is None:
                        witness = restricted
            if not classes:
                raise InvariantError(
                    f"minor circuit {sorted(bits(c_new))} has no lift: the minor machinery is broken"
                )
            if len(classes) > 1:
                raise ValidationError(
                    "induced signing depends on the choice of lift; the signature pair violates (O)"
                )
            reps.append(witness)
        return CircuitSignature.from_representatives(minor_matroid, reps)

    csig_n = lift_side(pair.circuit_sig, n, f_mask)
    cosig_n = lift_side(pair.cocircuit_sig, n.dual(), g_mask)
    return SignaturePair(n, csig_n, cosig_n)


def restrict_induced_sets(pair: SignaturePair, spec: MinorSpec, mode: str = "circuits") -> InducedSets:
    """A minor's induced sets in three notions: ``"circuits"`` keeps the restrictions of signed
    (co)circuits whose restricted support is a (co)circuit of the minor, as induced_sets does;
    ``"tilde"`` drops that support condition; ``"vectors"`` restricts whole (co)vectors."""
    m = pair.matroid
    f_mask = m.ground.check_mask(spec.contract_mask)
    g_mask = m.ground.check_mask(spec.delete_mask)
    n, kept = m.minor_with_map(spec)
    en_mask = m.ground.full_mask & ~(f_mask | g_mask)
    down = restrict_map(kept, n.ground)
    remap = {old: new for new, old in enumerate(kept)}

    def new_mask(old_mask: int) -> int:
        return mask_of(remap[i] for i in bits(old_mask))

    if mode == "vectors":
        src_s, src_t = vectors(pair.circuit_sig), vectors(pair.cocircuit_sig)
    else:
        src_s, src_t = pair.circuit_sig.signed, pair.cocircuit_sig.signed

    def side(members, avoid_mask: int, minor_circuits: frozenset[int]) -> frozenset[SignedSubset]:
        out = set()
        for x in members:
            if x.support & avoid_mask:
                continue
            if mode == "circuits" and new_mask(x.support & en_mask) not in minor_circuits:
                continue
            out.add(down(x, x.support & en_mask))
        return frozenset(out)

    circ_n = frozenset(n.circuit_masks)
    cocirc_n = frozenset(n.dual().circuit_masks)
    return InducedSets(side(src_s, g_mask, circ_n), side(src_t, f_mask, cocirc_n), n)


def induced_outcome(induce, pair: SignaturePair, spec: MinorSpec):
    """The induced pair with its output bytes and minor dual, or the error raised."""
    try:
        got = induce(pair, spec)
    except Exception as err:  # compared by class and message
        return type(err), str(err)
    return got, emit_oriented(got), got.matroid.dual().circuit_masks


def assert_induced_signature_matches_lifts(pair: SignaturePair, specs, label) -> int:
    """Compare on every spec; returns how many specs raised."""
    raised = 0
    for spec in specs:
        want = induced_outcome(lift_induced_signature, pair, spec)
        assert induced_outcome(induced_signature, pair, spec) == want, (label, spec)
        raised += isinstance(want[0], type)
    return raised


def stored(entry):
    """A ``pool_minors`` entry as an ``induce`` function: its induced pair, or its error raised."""

    def induce(pair: SignaturePair, spec: MinorSpec) -> SignaturePair:
        assert pair is entry.inst.pair and spec is entry.spec
        if isinstance(entry.induced, Exception):
            raise entry.induced.with_traceback(None)
        return entry.induced

    return induce


def test_induced_signature_matches_lifts_on_pool_minors(pool_minors):
    raised = {False: 0, True: 0}
    for entry in pool_minors:
        pair, spec = entry.inst.pair, entry.spec
        want = induced_outcome(lift_induced_signature, pair, spec)
        assert induced_outcome(stored(entry), pair, spec) == want, (entry.inst.name, spec)
        raised[entry.inst.corrupted] += isinstance(want[0], type)
    assert raised == {False: 0, True: 3}  # the (O) message on three mutant minors


@pytest.mark.parametrize(
    "arcs, sample",
    [
        ([("1", "2"), ("1", "2"), ("2", "1"), ("2", "3"), ("3", "1"), ("3", "4")], None),
        ([("1", "2"), ("1", "2"), ("2", "3"), ("3", "1"), ("3", "4"), ("4", "5"), ("5", "4"), ("5", "6")], 400),
    ],
)
def test_induced_signature_matches_lifts_with_loop_bridge_and_parallel_arcs(arcs, sample):
    # the pool has only 42 distinct matroids and none with a loop; the n = 9
    # pair has 3^9 minors, so it is compared on a seeded sample of them
    vertices = sorted({v for arc in arcs for v in arc})
    pair = with_loop(graphic_om(Digraph.of(vertices, arcs)))
    specs = list(minor_specs(pair.ground.size))
    if sample is not None:
        specs = random.Random(sample).sample(specs, sample)
    assert assert_induced_signature_matches_lifts(pair, specs, "pristine") == 0
    raised = 0
    for seed in range(6):
        raised += assert_induced_signature_matches_lifts(corrupt_pair(pair, random.Random(seed)), specs, seed)
    assert raised


@pytest.mark.parametrize("mode", ["circuits", "tilde", "vectors"])
def test_induced_sets_match_restriction_on_small_instances(mode, monkeypatch):
    # induced_sets keeps the circuits notion; the tilde and vectors notions live
    # only here, in the oracle, and each side of those holds the circuits one
    cached = functools.lru_cache(maxsize=None)(vectors)  # a pair's (co)vectors, built once
    monkeypatch.setitem(globals(), "vectors", cached)
    for name, pair in small_instances():
        for spec in minor_specs(pair.ground.size):
            got, want = induced_sets(pair, spec), restrict_induced_sets(pair, spec, mode)
            if mode == "circuits":
                assert got == want, (name, spec)
            else:
                assert got.minor == want.minor, (name, spec)
                assert got.circuits_side <= want.circuits_side and got.cocircuits_side <= want.cocircuits_side


# -- memoised, packed minors: each fast path against a fresh construction
#
# Minors reuse their matroid's memoised contractions, skip the canonical
# re-sort, take their dual from the dual's memo and hold their signatures as
# packed pairs behind a constructor that does not validate.  Each shortcut is
# compared here with the construction it replaced, on the pool and on seeded
# random (C3)-valid clutters, since the pool has only 42 distinct matroids.


def random_matroids(count: int) -> list[Matroid]:
    """The first ``count`` random clutters, seed by seed, that pass (C3)."""
    out = []
    for seed in itertools.count():
        got = validate_circuits(*random_clutter(random.Random(seed)))
        if isinstance(got, Matroid):
            out.append(got)
            if len(out) == count:
                return out


def pool_and_random_matroids(instance_pool, count: int) -> list[Matroid]:
    pool = {inst.pair.matroid for inst in instance_pool if inst.pair.ground.size <= 6}
    return [*pool, *random_matroids(count)]


def random_signing(m: Matroid, rng: random.Random) -> CircuitSignature:
    """Any symmetric signing, not one that satisfies an axiom; the representatives given
    are not always positive on their least element."""
    reps = []
    for s in m.circuit_masks:
        pos = mask_of(e for e in bits(s) if rng.random() < 0.5)
        reps.append(SignedSubset(m.ground, pos, s & ~pos))
    return CircuitSignature.from_representatives(m, reps)


def test_contraction_memo_matches_contraction(instance_pool):
    for m in pool_and_random_matroids(instance_pool, 200):
        for side in (m, m.dual()):
            for f in range(1 << side.ground.size):
                got = side._contraction(f)
                assert got == contraction_circuit_masks(side.circuit_masks, f), (side, f)
                assert side._contraction(f) is got


# -- the one-pass restriction against the contraction-based one it replaced


def contraction_restriction(sig: CircuitSignature, f: int) -> tuple[tuple[int, int], ...]:
    """The replaced restriction: each circuit c of ``contraction_circuit_masks`` by f, in canonical
    order, with each distinct signing, positive on c's least element, that a pair with s \\ f = c
    restricts to, in pair order."""
    signings = {c: [] for c in contraction_circuit_masks(sig.matroid.circuit_masks, f)}
    for p, _, s in sig.pair_masks():
        c = s & ~f
        pos = p & c if p & c & -c else c & ~p
        if c in signings and pos not in signings[c]:
            signings[c].append(pos)
    return tuple((c, pos) for c, seen in signings.items() for pos in seen)


def assert_restricted_matches_contraction(sig: CircuitSignature, label) -> int:
    """Every f's one-pass restriction equals the oracle's and is memoised; returns how many f
    give some circuit two signings."""
    several, n = 0, sig.ground.size
    for f in range(1 << n):
        keys, single = got = sig._restricted(f)
        want = contraction_restriction(sig, f)
        assert [(k & (1 << n) - 1, k >> n) for k in keys] == list(want), (label, f)
        assert single == (len({c for c, _ in want}) == len(want)), (label, f)
        assert sig._restricted(f) is got
        several += not single
    return several


def test_restricted_matches_contraction_on_pool_and_its_minors(instance_pool, pool_minors):
    pairs = [inst.pair for inst in instance_pool]
    pairs += [entry.induced for entry in pool_minors if isinstance(entry.induced, SignaturePair)]
    seen, several = set(), 0
    for sig in (sig for pair in pairs for sig in (pair.circuit_sig, pair.cocircuit_sig)):
        key = sig.ground.size, sig._pairs  # all a restriction reads
        if key not in seen:
            seen.add(key)
            several += assert_restricted_matches_contraction(sig, key)
    assert several  # the mutants violate (O), so some restriction has two signings


def test_restricted_matches_contraction_on_random_clutters():
    # trusted families that fail (C3) too, with signings that satisfy no axiom
    non_matroids = several = 0
    for seed in range(300):
        rng = random.Random(seed)
        ground, masks = random_clutter(rng)
        m = validate_circuits(ground, masks, trusted=True)
        several += assert_restricted_matches_contraction(random_signing(m, rng), seed)
        non_matroids += isinstance(validate_circuits(ground, masks), CircuitViolation)
    assert non_matroids > 50 and several


def test_order_key_sorts_as_bit_tuples():
    # every mask on up to 10 elements, the empty mask first
    masks = range(1 << 10)
    assert matroid._order(0) == "" and len(set(map(matroid._order, masks))) == len(masks)
    assert sorted(masks, key=matroid._order) == sorted(masks, key=lambda m: tuple(bits(m)))
    for n in range(10):
        assert _canonical(reversed(range(1 << n))) == tuple(sorted(range(1 << n), key=lambda m: tuple(bits(m))))


def test_slotted_classes_keep_equality_hash_pickling_and_weakrefs():
    root = graphic_om(fig4_digraph())
    minor = induced_signature(root, MinorSpec.of(contract=[0], delete=[2]))
    check_FA(minor)
    for pair in (root, minor):
        for obj in (pair.matroid, pair.matroid.dual(), pair.circuit_sig, pair.cocircuit_sig, pair):
            assert not hasattr(obj, "__dict__") and weakref.ref(obj)() is obj
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copy = pickle.loads(pickle.dumps(obj, protocol))
                assert copy is not obj and copy == obj and hash(copy) == hash(obj), (obj, protocol)
        copy = pickle.loads(pickle.dumps(pair))
        assert copy.matroid.dual().dual() is copy.matroid and copy._fa_memo == pair._fa_memo
    assert pickle.loads(pickle.dumps(root)) != root.reorient(1)  # equality still reads the signs


def assert_canonical_with_fresh_linked_dual(minors: list[Matroid], label) -> None:
    """Equal minors, each in canonical order and linked to a dual equal to a freshly computed one."""
    fresh = Matroid._from_valid(minors[0].ground, minors[0].circuit_masks).dual()
    for minor in minors:
        assert minor == minors[0] and minor.circuit_masks == _canonical(minor.circuit_masks), label
        linked = minor._dual
        assert linked is not None and minor.dual() is linked and linked.dual() is minor
        assert (linked.ground, linked.circuit_masks) == (fresh.ground, fresh.circuit_masks), label


def test_minors_are_canonical_and_their_linked_duals_fresh(pool_minors):
    # each distinct pool matroid's minors, built by minor_with_map() and by induced_signature
    first = {}
    for entry in pool_minors:
        m = entry.inst.pair.matroid
        if first.setdefault(m, entry.inst) is entry.inst:
            induced = [] if isinstance(entry.induced, Exception) else [entry.induced.matroid]
            assert_canonical_with_fresh_linked_dual([m.minor_with_map(entry.spec)[0], *induced], (m, entry.spec))
    for m in random_matroids(60):
        m.dual()  # cached, so every minor's dual is linked
        for spec in minor_specs(m.ground.size):
            assert_canonical_with_fresh_linked_dual([m.minor_with_map(spec)[0]], (m, spec))


def assert_packed_signatures_match_eager(pair: SignaturePair, specs, label, induce=induced_signature) -> int:
    """On every spec whose induction is defined, the packed induced signatures equal eagerly
    validated ones built from the restriction oracle's members; returns how many were compared."""
    compared = 0
    for spec in specs:
        try:
            got = induce(pair, spec)
        except ValidationError:
            continue
        circuits, cocircuits, minor = restrict_induced_sets(pair, spec)
        eager = SignaturePair(minor, CircuitSignature(minor, circuits), CircuitSignature(minor.dual(), cocircuits))
        for packed, want in ((got.circuit_sig, eager.circuit_sig), (got.cocircuit_sig, eager.cocircuit_sig)):
            assert packed == want and hash(packed) == hash(want), (label, spec)
            assert packed.signed == want.signed, (label, spec)
            assert packed.representatives() == want.representatives(), (label, spec)
            supports = packed.matroid.circuit_masks
            assert [packed.by_support(s) for s in supports] == [want.by_support(s) for s in supports], (label, spec)
            assert (packed.pair_masks(), packed.member_masks()) == (want.pair_masks(), want.member_masks())
        assert emit_oriented(got) == emit_oriented(eager), (label, spec)
        compared += 1
    return compared


def test_packed_signatures_match_eager_on_pool_minors(pool_minors):
    compared = 0
    for entry in pool_minors:
        if entry.inst.pair.ground.size <= 4:
            compared += assert_packed_signatures_match_eager(entry.inst.pair, [entry.spec], entry.inst.name, stored(entry))
    assert compared > 5000


def test_packed_signatures_match_eager_on_random_signings():
    # the whole pair, the empty minor, always induces, so every signing is
    # compared at least once; the lift oracle covers the minors that raise
    rng = random.Random(11)
    compared = raised = 0
    for k, m in enumerate(random_matroids(60) + [random_paving_matroid(rng.randint(5, 7), rng) for _ in range(20)]):
        pair = SignaturePair(m, random_signing(m, rng), random_signing(m.dual(), rng))
        specs = list(minor_specs(m.ground.size))
        specs = [MinorSpec.of()] + rng.sample(specs, min(40, len(specs)))
        compared += assert_packed_signatures_match_eager(pair, specs, k)
        raised += assert_induced_signature_matches_lifts(pair, specs, k)
    assert compared > 1000 and raised  # the paving matroids' signings reach the (O) message


@pytest.mark.parametrize("sample", [1, 5, 30])
def test_fa_members_per_draw_liveness_matches_planes(sample):
    # a sampled batch with fewer draws than a side has members reads each draw's
    # contraction from the matroid's memo; it must give the planes' liveness
    rng = random.Random(sample)
    alt9 = alternating_rank2(9)  # 84 circuits, 9 cocircuits
    cases = [(alt9.circuit_sig.pair_masks(), alt9.cocircuit_sig.pair_masks(), alt9.matroid, alt9.matroid.dual())]
    for m in [random_paving_matroid(8, rng) for _ in range(3)] + random_matroids(20):
        cases.append(([(s, 0, s) for s in m.circuit_masks], [(s, 0, s) for s in m.dual().circuit_masks], m, m.dual()))
    per_draw = 0
    for circ, cocirc, m, dual in cases:
        n = m.ground.size
        for batch in _sampled_paintings(n, sample, lambda: [rng.randrange(4) for _ in range(n)]):
            planes, full, _ = batch
            insides = (_Inside([col[color] for col in planes], full) for color in (2, 3))
            want = [[(*x, live) for x, live in zip(reps, _live_planes([s for *_, s in reps], inside))]
                    for reps, inside in zip((circ, cocirc), insides)]
            assert list(_fa_members(circ, cocirc, batch, (m, dual))) == want, (m, sample)
            per_draw += sample < max(len(circ), len(cocirc))
    assert per_draw


# -- restriction memo: the per-minor loop it replaced
#
# Each signature memoises, per contracted set f, the signings its pairs restrict
# to on the circuits of M/f, and a minor keeps those circuits that avoid the
# deleted set.  Before, every minor walked all pairs, kept those avoiding the
# deleted set whose restricted support is a circuit of the minor, and relabelled
# them; that loop is the oracle here for induced_signature and induced_sets,
# next to the lift search above.


def loop_restrictions(pair: SignaturePair, spec: MinorSpec) -> tuple[Matroid, list[set[tuple[int, int]]]]:
    """The minor, and per side the (pos, support) of its induced pairs, positive on the least element."""
    f, g = spec.contract_mask, spec.delete_mask
    n, kept = pair.matroid.minor_with_map(spec)
    remap = {old: new for new, old in enumerate(kept)}

    def down(mask: int) -> int:  # drops f and g
        return mask_of(remap[i] for i in bits(mask) if i in remap)

    sides = []
    for sig, minor, avoid in ((pair.circuit_sig, n, g), (pair.cocircuit_sig, n.dual(), f)):
        circuits = frozenset(minor.circuit_masks)
        out = set()
        for p, _, s in sig.pair_masks():
            if not s & avoid and down(s) in circuits:
                support, pos = down(s), down(p)
                out.add((pos if pos & support & -support else support & ~pos, support))
        sides.append(out)
    return n, sides


def loop_induced_signature(n: Matroid, sides) -> SignaturePair:
    """The induced signature pair from ``loop_restrictions``, or the (O) error."""
    sigs = []
    for matroid, side in zip((n, n.dual()), sides):
        if len(side) > len(matroid.circuit_masks):
            raise ValidationError("induced signing depends on the choice of lift; the signature pair violates (O)")
        pos = {s: p for p, s in side}
        sigs.append(CircuitSignature._trusted(matroid, tuple((pos[s], s & ~pos[s], s) for s in matroid.circuit_masks)))
    return SignaturePair(n, *sigs)


def assert_memo_matches_loop(pair: SignaturePair, specs, label, induce=induced_signature, lifts=False) -> int:
    """The memo-built induced signature (from ``induce``) and induced sets against the loop, and
    against the lift search when ``lifts``; returns how many specs raised.  Where the signature
    raises, the induced sets must still hold both pairs of the support in conflict."""

    def outcome(induce, pair, spec):  # induced_outcome without the output bytes, which equal pairs share
        try:
            got = induce(pair, spec)
        except Exception as err:  # compared by class and message
            return type(err), str(err)
        return got, got.matroid.dual().circuit_masks

    raised = 0
    for spec in specs:
        n, sides = loop_restrictions(pair, spec)
        want = outcome(lambda *_: loop_induced_signature(n, sides), pair, spec)
        assert outcome(induce, pair, spec) == want, (label, spec)
        if lifts:
            assert induced_outcome(lift_induced_signature, pair, spec) == induced_outcome(induce, pair, spec)
        got = induced_sets(pair, spec)
        assert got.minor == n and got.minor.dual().circuit_masks == n.dual().circuit_masks, (label, spec)
        for members, side in zip(got[:2], sides):
            assert all(x.ground == n.ground for x in members), (label, spec)
            want_members = {y for p, s in side for y in ((p, s & ~p), (s & ~p, p))}
            assert {(x.pos, x.neg) for x in members} == want_members, (label, spec)
        conflict = any(len(side) > len(m.circuit_masks) for side, m in zip(sides, (n, n.dual())))
        assert conflict == isinstance(want[0], type), (label, spec)
        raised += conflict
    return raised


def test_memo_induction_matches_loop_on_pool_minors(pool_minors):
    raised = {False: 0, True: 0}
    for entry in pool_minors:
        pair, spec = entry.inst.pair, entry.spec
        raised[entry.inst.corrupted] += assert_memo_matches_loop(pair, [spec], entry.inst.name, stored(entry))
    assert raised == {False: 0, True: 3}


def test_memo_induction_matches_loop_and_lifts_on_random_clutters():
    # (C3)-valid random clutters reach matroids the pool's 42 do not; their
    # derived orientations are compared where derivation succeeds, and random
    # signings on both sides reach the (O) message on many minors
    rng = random.Random(5)
    pairs = raised = 0
    for k, m in enumerate(random_matroids(60) + [random_paving_matroid(rng.randint(5, 7), rng) for _ in range(20)]):
        specs = list(minor_specs(m.ground.size))
        specs = rng.sample(specs, min(60, len(specs)))
        signings = [SignaturePair(m, random_signing(m, rng), random_signing(m.dual(), rng))]
        derived = derive_cocircuit_signature(m, signings[0].circuit_sig)
        if isinstance(derived, CircuitSignature):
            signings.append(SignaturePair(m, signings[0].circuit_sig, derived))
        for pair in signings:
            raised += assert_memo_matches_loop(pair, specs, k, lifts=True)
            pairs += 1
    assert pairs > 80 and raised >= 10


@pytest.mark.parametrize(
    "arcs, sample",
    [
        ([("1", "2"), ("1", "2"), ("2", "1"), ("2", "3"), ("3", "1"), ("3", "4")], None),
        ([("1", "2"), ("1", "2"), ("2", "3"), ("3", "1"), ("3", "4"), ("4", "5"), ("5", "4"), ("5", "6")], 400),
    ],
)
def test_memo_induction_matches_loop_with_loop_bridge_and_parallel_arcs(arcs, sample):
    # the lift search is compared on the same minors by
    # test_induced_signature_matches_lifts_with_loop_bridge_and_parallel_arcs
    vertices = sorted({v for arc in arcs for v in arc})
    pair = with_loop(graphic_om(Digraph.of(vertices, arcs)))
    specs = list(minor_specs(pair.ground.size))
    if sample is not None:
        specs = random.Random(sample).sample(specs, sample)
    assert assert_memo_matches_loop(pair, specs, "pristine") == 0
    raised = 0
    for seed in range(6):
        raised += assert_memo_matches_loop(corrupt_pair(pair, random.Random(seed)), specs, seed)
    assert raised


def test_minor_ground_set_matches_a_validated_one():
    # a minor's ground set skips the distinctness check and builds its label
    # index on the first index() call; it must behave as GroundSet(labels) does
    pair = graphic_om(fig4_digraph())
    labels = pair.ground.labels
    for spec in minor_specs(pair.ground.size):
        for minor in (pair.matroid.minor_with_map(spec)[0], induced_signature(pair, spec).matroid):
            ground = minor.ground
            fresh = GroundSet(ground.labels)
            assert ground == fresh and hash(ground) == hash(fresh) and fresh == ground
            assert ground.labels == tuple(x for i, x in enumerate(labels) if i not in spec.contract | spec.delete)
            assert "_index" not in vars(ground)
            assert [ground.index(x) for x in ground.labels] == list(range(ground.size))
            for x in (*(labels[i] for i in spec.contract | spec.delete), "nope"):
                with pytest.raises(UnknownElementError):
                    ground.index(x)
    with pytest.raises(DomainError):
        GroundSet(("a", "b", "a"))


# -- uniqueness by exhaustive enumeration ------------------------------------------


def all_cocircuit_signatures(pair: SignaturePair):
    """Every possible symmetric signing of the cocircuit family."""
    dual = pair.matroid.dual()
    per_support = []
    for u in dual.circuit_masks:
        elems = list(bits(u))
        anchor = elems[0]
        signings = []
        for signs in itertools.product((1, -1), repeat=len(elems) - 1):
            pos = 1 << anchor
            neg = 0
            for e, s in zip(elems[1:], signs):
                if s > 0:
                    pos |= 1 << e
                else:
                    neg |= 1 << e
            signings.append(SignedSubset(pair.ground, pos, neg))
        per_support.append(signings)
    for combo in itertools.product(*per_support):
        yield CircuitSignature.from_representatives(dual, combo)


@pytest.mark.parametrize("pair", [alternating_rank2(4), graphic_om(triangle())])
def test_exactly_one_orthogonal_cocircuit_signature(pair):
    compatible = [
        cand
        for cand in all_cocircuit_signatures(pair)
        if check_orthogonality(SignaturePair(pair.matroid, pair.circuit_sig, cand))
    ]
    assert len(compatible) == 1
    assert compatible[0].signed == pair.cocircuit_sig.signed
    derived = derive_cocircuit_signature(pair.matroid, pair.circuit_sig)
    assert compatible[0].signed == derived.signed


# -- the per-pair (FA) verdict memo --------------------------------------------------------


def flat_fa_key(pair: SignaturePair) -> tuple:
    """The (FA) memo key before it was nested: one flat tuple of n, the circuit count and both
    sides' (pos, neg) masks."""
    circ, cocirc = pair.circuit_sig._pairs, pair.cocircuit_sig._pairs
    return pair.ground.size, len(circ), *(x for side in (circ, cocirc) for p, m, _ in side for x in (p, m))


def assert_memo_matches_fresh_pairs(minors, label) -> tuple[int, int]:
    """check_FA on each (spec, induced pair), in sweep order, against check_FA on a fresh pair of
    the same content, which has its own empty memo; every memo hit is compared so.  The memo's
    key, n with both sides' packed pairs, holds each verdict and must group the minors as the flat
    key did.  Returns the memo hits, and those that failed."""
    hits = failing_hits = 0
    flat_of, nested_of = {}, {}
    for spec, minor in minors:
        nested, flat = (minor.ground.size, minor.circuit_sig._pairs, minor.cocircuit_sig._pairs), flat_fa_key(minor)
        assert flat_of.setdefault(nested, flat) == flat and nested_of.setdefault(flat, nested) == nested, (label, spec)
        verdicts = minor._fa_memo[0]
        before = len(verdicts)
        got = check_FA(minor)
        assert got == check_FA(SignaturePair(minor.matroid, minor.circuit_sig, minor.cocircuit_sig)), (label, spec)
        assert verdicts[nested] is got, (label, spec)
        hit = len(verdicts) == before
        hits += hit
        failing_hits += hit and not got.ok
    assert len(flat_of) == len(nested_of)
    return hits, failing_hits


def test_fa_memo_matches_fresh_pairs_on_pool_minors(pool_minors):
    minors = [(entry.spec, entry.induced) for entry in pool_minors if isinstance(entry.induced, SignaturePair)]
    hits, failing_hits = assert_memo_matches_fresh_pairs(minors, "pool")
    assert hits > 0.8 * len(minors) and failing_hits > 100


def test_fa_memo_matches_fresh_pairs_on_random_signings():
    # the pool carries only 42 matroids; random signings of (C3)-valid random
    # clutters fail (FA) on many minors that repeat within one sweep, so hits
    # return stored witnesses
    rng = random.Random(31)
    failing_hits = 0
    for k, m in enumerate(random_matroids(30)):
        pair = SignaturePair(m, random_signing(m, rng), random_signing(m.dual(), rng))
        minors = []
        for spec in minor_specs(m.ground.size):
            with contextlib.suppress(ValidationError):
                minors.append((spec, induced_signature(pair, spec)))
        failing_hits += assert_memo_matches_fresh_pairs(minors, k)[1]
    assert failing_hits > 100


# -- the lifetimes and bounds of the minor caches


def test_per_root_caches_die_with_the_root_and_its_minors():
    # the (FA) verdict and liveness memos, the restriction and contraction memos and
    # the kept labels belong to the root; a probe stored in each dies only with its cache
    class Probe:
        pass

    root = graphic_om(fig4_digraph())
    minors = [induced_signature(root, spec) for spec in minor_specs(root.ground.size)]
    for minor in minors:
        check_FA(minor)
    assert root.matroid._contractions is None  # a sweep asks the restriction memos only
    for spec in minor_specs(root.ground.size):
        root.matroid.minor_with_map(spec)
    caches = [
        *root._fa_memo, root.ground._kept, root.matroid._contractions, root.matroid.dual()._contractions,
        root.circuit_sig._restriction_memo, root.cocircuit_sig._restriction_memo,
    ]
    assert len(caches) == 7 and all(caches)
    probes = [Probe() for _ in caches]
    for cache, probe in zip(caches, probes):
        cache[("probe",)] = probe
    refs = [weakref.ref(x) for x in (root, root.ground, *probes)]
    del root, minors, minor, caches, cache, probes, probe
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_relabel_cache_is_bounded_and_evictions_keep_minors_exact():
    info = matroid._relabelled.cache_info()
    assert isinstance(info.maxsize, int) and info.maxsize > 0
    pairs = [alternating_rank2(5), graphic_om(fig4_digraph())]
    pairs += [corrupt_pair(pair, random.Random(seed)) for seed, pair in enumerate(pairs * 2)]
    raised = 0
    for flood in range(2):  # first with the tables of the sweeps' dropped sets cached, then evicted
        for label, pair in enumerate(pairs):
            raised += assert_induced_signature_matches_lifts(pair, list(minor_specs(pair.ground.size)), (flood, label))
        for d in range(info.maxsize):  # dropped sets no sweep asks for
            matroid._relabelled(1 << 40 | d, 41)
        misses = matroid._relabelled.cache_info().misses
        matroid._relabelled(0b101, 3)
        assert matroid._relabelled.cache_info().misses == misses + 1  # evicted
        assert matroid._relabelled.cache_info().currsize == info.maxsize
    assert raised
