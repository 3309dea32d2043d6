"""Naive reference implementations pitted against the optimized checkers.

The production checkers use bitmask scans, representative-only loops, and
union deduplication; each shortcut is validated here against a direct
transcription of the definitions on small instances, including corrupted
ones where violations must be found.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupt_pair, fig4_digraph, triangle
from omlab.digraphs import graphic_om
from omlab.errors import CapExceededError
from omlab.matroid import MinorSpec
from omlab.oriented import (
    FOUR_P_CAP_DEFAULT,
    _exhaustive_paintings,
    CircuitSignature,
    FourPartition,
    FourPViolation,
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
)
from omlab.signed_sets import SignedSubset, bits, indices, mask_of


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
