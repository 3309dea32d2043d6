"""Acceptance suite: one test per criterion, one PASS line printed each.

Shares one randomized instance pool (uniform-alt truncations, graphic OMs,
line-arrangement OMs, sign-corrupted mutants) across the property criteria;
per-instance checker verdicts are computed once in a session fixture.
"""

import itertools
import random
import time
from dataclasses import dataclass

import pytest

from conftest import fig4_digraph, random_digraph, random_free_lineset
from omlab.digraphs import (
    bond_representatives,
    cycle_representatives,
    graphic_om,
    minty_certificate,
)
from omlab.lines import pair_normal, triple_plane_concurrency, u3_signature
from omlab.oriented import (
    CircuitSignature,
    DecomposeFailure,
    EliminationInstance,
    SignaturePair,
    alternating_rank2,
    check_4P,
    check_CE,
    check_FA,
    check_FP,
    check_orthogonality,
    conformal_decompose,
    derive_cocircuit_signature,
    fp_report,
    special_eliminate,
    vectors,
)
from omlab.signed_sets import SignedSubset, bits, compose, mask_of

from test_lines import frac_rank
from test_oriented import brute_vectors


@dataclass
class Results:
    o: bool
    ce_circ: bool
    ce_cocirc: bool
    four_p: bool
    fa: bool
    derived: object  # CircuitSignature or DeriveFailure


@pytest.fixture(scope="session")
def pool_results(instance_pool):
    start = time.perf_counter()
    out = {}
    for inst in instance_pool:
        pair = inst.pair
        out[inst.name] = Results(
            o=bool(check_orthogonality(pair)),
            ce_circ=bool(check_CE(pair.circuit_sig)),
            ce_cocirc=bool(check_CE(pair.cocircuit_sig)),
            four_p=bool(check_4P(pair)),
            fa=bool(check_FA(pair)),
            derived=derive_cocircuit_signature(pair.matroid, pair.circuit_sig),
        )
    out["__elapsed__"] = time.perf_counter() - start
    return out


def report(n: int, text: str):
    print(f"\nACCEPTANCE criterion-{n}: PASS — {text}")


def test_criterion_1_worked_elimination_example():
    start = time.perf_counter()
    pair = graphic_om(fig4_digraph())
    ground = pair.ground
    strings = {c.to_string() for c in pair.circuit_sig.signed}
    assert {"++++00", "----00", "-0+0++", "+0-0--"} <= strings
    c = SignedSubset.from_string(ground, "++++00")
    ce1 = SignedSubset.from_string(ground, "-0+0++")
    inst = EliminationInstance.of(c, {0: ce1}, 1)
    d = special_eliminate(pair, inst)
    assert d.support == mask_of([1, 3, 4, 5])
    assert d.sign(1) == 1
    assert d.to_string() == "0+0-+-"
    # the negative part is nonempty although the allowed negative part is empty
    allowed_neg = (c.neg | ce1.neg) & ~1
    assert allowed_neg == 0
    assert d.neg != 0 and (-d).neg != 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"worked elimination values reproduced in {elapsed:.2f}s")


def test_criterion_2_alternating_truncations():
    start = time.perf_counter()
    fa_8 = None
    for n in range(4, 9):
        pair = alternating_rank2(n)
        assert check_orthogonality(pair), n
        assert check_CE(pair.circuit_sig), n
        assert check_CE(pair.cocircuit_sig), n
        assert check_4P(pair), n
        assert check_FP(pair.circuit_sig.signed, pair.cocircuit_sig.signed, pair.ground), n
        t0 = time.perf_counter()
        assert check_FA(pair), n
        if n == 8:
            fa_8 = time.perf_counter() - t0
        # the positive witness for the first element is the last cocircuit,
        # whose right leg is empty at the truncation
        rep = fp_report(pair.circuit_sig.signed, pair.cocircuit_sig.signed, pair.ground)
        side, witness = rep[0]
        assert side == "T"
        assert witness.to_string() == "+" * (n - 1) + "0"
        rows = {c.to_string() for c in pair.circuit_sig.signed}
        assert "+-+" + "0" * (n - 3) in rows
        corows = {u.to_string() for u in pair.cocircuit_sig.signed}
        assert "0" + "-" * (n - 1) in corows
        if n >= 5:
            assert "-" * 4 + "0" + "+" * (n - 5) in corows
    assert fa_8 is not None and fa_8 < 60.0
    report(2, f"n=4..8 pass O/CE/4P/FP/FA with the leg witness; FA at n=8 took {fa_8:.1f}s")


def test_criterion_3_implication_chain(instance_pool, pool_results):
    start = time.perf_counter() - pool_results["__elapsed__"]
    assert len(instance_pool) >= 200
    corrupted = [i for i in instance_pool if i.corrupted]
    assert corrupted
    for inst in instance_pool:
        r = pool_results[inst.name]
        if r.fa:
            assert r.four_p, f"{inst.name}: FA without 4P"
        if r.four_p:
            assert r.o, f"{inst.name}: 4P without orthogonality"
            assert r.ce_circ and r.ce_cocirc, f"{inst.name}: 4P without CE"
        if r.ce_circ:
            assert isinstance(r.derived, CircuitSignature), f"{inst.name}: CE but derivation failed"
            derived_pair = SignaturePair(inst.pair.matroid, inst.pair.circuit_sig, r.derived)
            assert check_orthogonality(derived_pair), f"{inst.name}: derived pair fails (O)"
        if inst.corrupted:
            # a single flipped sign always breaks the pair at the base level
            assert not r.o and not r.four_p and not r.fa, f"{inst.name}: mutant slipped through"
        else:
            assert r.fa, f"{inst.name}: finite OM should satisfy FA"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        3,
        f"{len(instance_pool)} instances ({len(corrupted)} mutants): chain holds, "
        f"mutants all fail at the base ({elapsed:.0f}s)",
    )


def test_criterion_4_signature_uniqueness(instance_pool, pool_results):
    compared = 0
    for inst in instance_pool:
        r = pool_results[inst.name]
        if not isinstance(r.derived, CircuitSignature) or not r.o:
            continue
        # two (O)-compatible cocircuit signatures from independent routes
        assert r.derived.signed == inst.pair.cocircuit_sig.signed, inst.name
        compared += 1
    assert compared >= 100
    report(4, f"derived and generator cocircuit signatures set-equal on {compared} instances")


def test_criterion_5_minor_closure(pool_minors, pool_results):
    start = time.perf_counter()
    o_checked = fa_checked = 0
    for entry in pool_minors:
        r = pool_results[entry.inst.name]
        if not r.o:
            continue
        induced = entry.induced
        assert isinstance(induced, SignaturePair), (entry.inst.name, entry.spec)
        assert check_orthogonality(induced), (entry.inst.name, entry.spec)
        o_checked += 1
        if r.fa:
            assert check_FA(induced), (entry.inst.name, entry.spec)
            fa_checked += 1
    assert o_checked and fa_checked
    elapsed = time.perf_counter() - start
    report(
        5,
        f"minor closure exact on {o_checked} induced pairs for (O), {fa_checked} for (FA) "
        f"({elapsed:.0f}s)",
    )


def test_criterion_6_minty_dichotomy():
    rng = random.Random(606)
    digraphs = [random_digraph(rng, rng.randint(4, 10)) for _ in range(100)]
    arcs_checked = 0
    for d in digraphs:
        pair = graphic_om(d)
        assert check_FP(pair.circuit_sig.signed, pair.cocircuit_sig.signed, pair.ground)
        rep = fp_report(pair.circuit_sig.signed, pair.cocircuit_sig.signed, pair.ground)
        all_cycles = cycle_representatives(d)
        all_bonds = bond_representatives(d)
        for arc_idx, arc in enumerate(d.labels):
            cycles = [
                frozenset(bits(c.support))
                for c in all_cycles
                if c.support >> arc_idx & 1 and (c.neg == 0 or c.pos == 0)
            ]
            bonds = [
                frozenset(bits(b.support))
                for b in all_bonds
                if b.support >> arc_idx & 1 and (b.neg == 0 or b.pos == 0)
            ]
            assert (len(cycles) > 0) != (len(bonds) > 0), "dichotomy violated"
            cert = minty_certificate(d, arc)
            members = frozenset(d.arc_index(a) for a in cert.arcs)
            if cert.kind == "directed-cycle":
                assert members in cycles
            else:
                assert members in bonds
            side, _ = rep[arc_idx]
            assert (side == "S") == (cert.kind == "directed-cycle")
            arcs_checked += 1
    report(6, f"dichotomy and FP agreement exact on 100 digraphs ({arcs_checked} arcs)")


def test_criterion_7_geometry_exactness():
    rng = random.Random(707)
    for k in range(50):
        n = rng.choice([5, 6, 7])
        q = random_free_lineset(rng, n)
        pair = u3_signature(q)
        assert check_orthogonality(pair), k
        from omlab.lines import cocircuit_signing

        for a, b in itertools.combinations(range(n), 2):
            assert cocircuit_signing(q, a, b, negative_points=True) == -cocircuit_signing(q, a, b)
        # freeness against an independent rank oracle
        for i, j, l in itertools.combinations(range(n), 3):
            assert frac_rank([q.lines[i].vec, q.lines[j].vec, q.lines[l].vec]) == 3
        # concurrency predicate against the same oracle on sampled six-tuples
        for _ in range(5):
            idx = rng.sample(range(n), min(6, n))
            while len(idx) < 6:
                idx.append(rng.randrange(n))
            a, b, c, d, e, f = (q.lines[i] for i in idx)
            if {a, b} == {c, d} or a == b or c == d or e == f:
                continue
            got = triple_plane_concurrency(a, b, c, d, e, f)
            oracle = (
                frac_rank([pair_normal(a, b).vec, pair_normal(c, d).vec, pair_normal(e, f).vec])
                <= 2
            )
            assert got == oracle
    report(7, "50 free line sets: (O) exhaustive, antipodal identity, oracle agreement exact")


def test_criterion_8_conformal_decomposition(instance_pool, pool_results):
    rng = random.Random(808)
    instances = [
        i
        for i in instance_pool
        if i.pair.ground.size <= 5 and pool_results[i.name].four_p
    ]
    assert instances
    vector_count = 0
    for inst in instances:
        pair = inst.pair
        vecs = vectors(pair.circuit_sig)
        assert vecs == brute_vectors(pair.circuit_sig), inst.name
        for v in vecs:
            got = conformal_decompose(pair, v, trust_4p=True)
            assert not isinstance(got, DecomposeFailure), (inst.name, str(v))
            union = 0
            for piece in got:
                assert piece.conforms_to(v)
                union |= piece.support
            assert union == v.support
            # conformity makes the composition order-independent; spot-check orders
            orders = [got, list(reversed(got))]
            for _ in range(min(4, len(got))):
                shuffled = got[:]
                rng.shuffle(shuffled)
                orders.append(shuffled)
            for order in orders:
                assert compose(pair.ground, order) == v
            vector_count += 1
    report(8, f"{vector_count} vectors over {len(instances)} 4P instances decompose conformally")
