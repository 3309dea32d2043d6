"""Naive reference implementations pitted against the optimized checkers.

The production checkers use bitmask scans, representative-only loops, and
union deduplication; each shortcut is validated here against a direct
transcription of the definitions on small instances, including corrupted
ones where violations must be found.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupt_pair, fig4_digraph, triangle
from omlab.digraphs import Digraph, graphic_om
from omlab.errors import CapExceededError, DomainError, InvariantError, ValidationError
from omlab import oriented
from omlab.formats import emit_oriented
from omlab.matroid import (
    CircuitViolation,
    Matroid,
    MinorSpec,
    _find_c3_violation,
    contraction_circuit_masks,
    validate_circuits,
)
from omlab.oriented import (
    CE_CAP_DEFAULT,
    FA_CAP_DEFAULT,
    FOUR_P_CAP_DEFAULT,
    _exhaustive_paintings,
    _fa_members,
    _live_planes,
    CEViolation,
    CircuitSignature,
    EliminationInstance,
    FAViolation,
    FourPartition,
    FourPViolation,
    FPViolation,
    InducedSets,
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
    """The sampled (CE) scan with a per-member cover loop, and its admissible draws."""
    reps = sig.representatives()
    rng = random.Random(seed)
    members = sig.member_masks()
    tested = 0
    for _ in range(trials):
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


def test_dual_matches_subset_scan_on_pool_minors(instance_pool):
    matroids = {inst.pair.matroid for inst in instance_pool}
    minors = set()
    for m in matroids:
        n = m.ground.size
        if n > 6:
            minors.add(m)
            continue
        for states in itertools.product(range(3), repeat=n):
            spec = MinorSpec.of(
                contract=[i for i, s in enumerate(states) if s == 1],
                delete=[i for i, s in enumerate(states) if s == 2],
            )
            minors.add(m.minor(spec))
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
    live = _live_planes(masks, subset_planes(n), (1 << (1 << n)) - 1)
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


@pytest.mark.parametrize("case", ["alt9", "paving9"])
def test_fa_members_liveness_matches_contraction_in_every_block(case):
    # each block's live bits come from that block's own planes, so where its
    # prefix contracts or deletes element 0 the members must see it
    rng = random.Random(7)
    if case == "alt9":
        pair = alternating_rank2(9)
        circ_pairs, cocirc_pairs = pair.circuit_sig.pair_masks(), pair.cocircuit_sig.pair_masks()
        m = pair.matroid
    else:
        m = random_paving_matroid(9, rng)  # (FA) liveness ignores signs: any signing serves
        circ_pairs, cocirc_pairs = ([(s, 0, s) for s in side.circuit_masks] for side in (m, m.dual()))
    prefixes = []
    for batch in _exhaustive_paintings(9):
        _, full, colors_of = batch
        circ, cocirc = _fa_members(circ_pairs, cocirc_pairs, batch)
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


def minor_specs(n: int):
    """All 3^n minors of an n-element ground set: keep, contract or delete each element."""
    for states in itertools.product(range(3), repeat=n):
        yield MinorSpec.of(
            contract=[i for i, s in enumerate(states) if s == 1],
            delete=[i for i, s in enumerate(states) if s == 2],
        )


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


def test_induced_signature_matches_lifts_on_pool_minors(instance_pool):
    raised = {False: 0, True: 0}
    for inst in instance_pool:
        n = inst.pair.ground.size
        if n <= 6:
            raised[inst.corrupted] += assert_induced_signature_matches_lifts(inst.pair, minor_specs(n), inst.name)
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
    # both sides rebuild a pair's (co)vectors on every minor; build them once
    cached = functools.lru_cache(maxsize=None)(vectors)
    monkeypatch.setattr(oriented, "vectors", cached)
    monkeypatch.setitem(globals(), "vectors", cached)
    for name, pair in small_instances():
        for spec in minor_specs(pair.ground.size):
            assert induced_sets(pair, spec, mode) == restrict_induced_sets(pair, spec, mode), (name, spec)


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
