import random
from collections import deque

import pytest

from conftest import fig4_digraph, random_digraph, triangle
from omlab.digraphs import (
    Digraph,
    bond_representatives,
    cycle_representatives,
    decompose_nonneg_flow,
    disjoint_cocircuit_decomposition,
    FarkasCertificate,
    _components,
    graphic_om,
    is_flow,
    minty_certificate,
)
from omlab.errors import DomainError, GroundMismatchError, InvariantError
from omlab.oriented import check_4P, check_CE, check_FA, check_FP, check_orthogonality
from omlab.signed_sets import SignedSubset, bits


def ss(ground, s):
    return SignedSubset.from_string(ground, s)


# -- exhaustive oracles -------------------------------------------------------------------


def directed_cycles_through(d: Digraph, arc_idx: int) -> list[frozenset[int]]:
    out = []
    for c in cycle_representatives(d):
        if c.support >> arc_idx & 1 and (c.neg == 0 or c.pos == 0):
            out.append(frozenset(bits(c.support)))
    return out


def directed_bonds_through(d: Digraph, arc_idx: int) -> list[frozenset[int]]:
    out = []
    for b in bond_representatives(d):
        if b.support >> arc_idx & 1 and (b.neg == 0 or b.pos == 0):
            out.append(frozenset(bits(b.support)))
    return out


# -- construction ------------------------------------------------------------------------


def test_digraph_rejects_loops():
    with pytest.raises(DomainError):
        Digraph.of(["1"], [("1", "1")])


def test_fig4_signed_circuits_match_worked_example():
    pair = graphic_om(fig4_digraph())
    strings = {c.to_string() for c in pair.circuit_sig.signed}
    assert "++++00" in strings
    assert "-0+0++" in strings
    assert len(pair.matroid.circuit_masks) == 7


def test_triangle_om():
    pair = graphic_om(triangle())
    assert [c.to_string() for c in pair.circuit_sig.representatives()] == ["+++"]
    assert len(pair.cocircuit_sig.representatives()) == 3
    assert all(u.support.bit_count() == 2 for u in pair.cocircuit_sig.signed)


def test_two_cycle_and_parallel_arcs():
    two = graphic_om(Digraph.of(["1", "2"], [("1", "2"), ("2", "1")]))
    assert {c.to_string() for c in two.circuit_sig.signed} == {"++", "--"}
    par = graphic_om(Digraph.of(["1", "2"], [("1", "2"), ("1", "2")]))
    assert {c.to_string() for c in par.circuit_sig.signed} == {"+-", "-+"}


def test_graphic_pairs_satisfy_axioms():
    for d in (triangle(), fig4_digraph()):
        pair = graphic_om(d)
        assert check_orthogonality(pair)
        assert check_CE(pair.circuit_sig)
        assert check_CE(pair.cocircuit_sig)
        assert check_4P(pair)
        assert check_FA(pair)


# -- Minty certificates --------------------------------------------------------------------


def test_minty_directed_triangle():
    d = triangle()
    for arc in d.labels:
        cert = minty_certificate(d, arc)
        assert cert.kind == "directed-cycle"
        assert cert.arcs == frozenset(d.labels)


def test_minty_reversed_arc_gives_bond():
    d = Digraph.of(["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")])
    cert = minty_certificate(d, "e3")
    assert cert.kind == "directed-bond"
    assert frozenset(bits(cert.orientation.support)) in directed_bonds_through(d, 2)


def test_minty_fig4_e4_is_a_cycle():
    d = fig4_digraph()
    cert = minty_certificate(d, "e4")
    assert cert.kind == "directed-cycle"
    idx = frozenset(d.arc_index(a) for a in cert.arcs)
    assert idx in directed_cycles_through(d, 3)


def test_minty_dichotomy_small_random():
    rng = random.Random(31)
    for _ in range(25):
        d = random_digraph(rng, 7)
        for arc_idx, arc in enumerate(d.labels):
            cycles = directed_cycles_through(d, arc_idx)
            bonds = directed_bonds_through(d, arc_idx)
            assert (len(cycles) > 0) != (len(bonds) > 0)
            cert = minty_certificate(d, arc)
            members = frozenset(d.arc_index(a) for a in cert.arcs)
            if cert.kind == "directed-cycle":
                assert members in cycles
            else:
                assert members in bonds


def test_minty_agrees_with_fp_witness_sides():
    rng = random.Random(32)
    for _ in range(10):
        d = random_digraph(rng, 6)
        pair = graphic_om(d)
        assert check_FP(pair.circuit_sig.signed, pair.cocircuit_sig.signed, pair.ground)
        for arc_idx, arc in enumerate(d.labels):
            cert = minty_certificate(d, arc)
            positive_circuit = any(
                c.is_positive() and c.pos >> arc_idx & 1 for c in pair.circuit_sig.signed
            )
            assert positive_circuit == (cert.kind == "directed-cycle")


# -- flows -------------------------------------------------------------------------------------


def test_flow_triangle():
    d = triangle()
    assert is_flow(d, {"e1": 1, "e2": 1, "e3": 1})
    assert not is_flow(d, {"e1": 1})
    assert decompose_nonneg_flow(d, {"e1": 1, "e2": 1, "e3": 1}) == [
        (frozenset({"e1", "e2", "e3"}), 1)
    ]
    assert decompose_nonneg_flow(d, {}) == []


def test_flow_matches_cocircuit_sums():
    rng = random.Random(41)
    for _ in range(15):
        d = random_digraph(rng, 6)
        flow = {lbl: rng.randint(-2, 2) for lbl in d.labels}
        by_conservation = is_flow(d, flow)
        vals = [flow[lbl] for lbl in d.labels]
        by_bonds = all(
            sum(vals[i] for i in bits(b.pos)) == sum(vals[i] for i in bits(b.neg)) for b in bond_representatives(d)
        )
        assert by_conservation == by_bonds


def test_decompose_fig4_composite_flow():
    d = fig4_digraph()
    flow = {"e1": 1, "e2": 2, "e3": 2, "e4": 1, "e5": 1}
    assert is_flow(d, flow)
    got = decompose_nonneg_flow(d, flow)
    assert len(got) >= 2
    total = {lbl: 0 for lbl in d.labels}
    for cycle, mult in got:
        # every piece is a directed cycle
        assert frozenset(d.arc_index(a) for a in cycle) in directed_cycles_through(
            d, d.arc_index(next(iter(cycle)))
        )
        for lbl in cycle:
            total[lbl] += mult
    assert total == {"e1": 1, "e2": 2, "e3": 2, "e4": 1, "e5": 1, "e6": 0}


def test_decompose_rejects_negative_and_nonflow():
    d = triangle()
    with pytest.raises(DomainError):
        decompose_nonneg_flow(d, {"e1": -1})
    with pytest.raises(DomainError) as err:
        decompose_nonneg_flow(d, {"e1": 1})
    assert "cocircuit" in str(err.value)


# -- disjoint cocircuit decomposition --------------------------------------------------------------


def test_cocircuit_decomposition_singleton():
    pair = graphic_om(triangle())
    u = pair.cocircuit_sig.representatives()[0]
    assert disjoint_cocircuit_decomposition(pair, u) == [u]


def test_cocircuit_decomposition_bridge_of_two_triangles():
    d = Digraph.of(
        ["1", "2", "3", "4", "5", "6"],
        [("1", "2"), ("2", "3"), ("3", "1"), ("4", "5"), ("5", "6"), ("6", "4"), ("3", "4")],
    )
    pair = graphic_om(d)
    g = ss(pair.ground, "000000+")
    assert disjoint_cocircuit_decomposition(pair, g) == [g]


def test_cocircuit_decomposition_two_disjoint_bonds():
    # path of two arcs: every vertex cut is a bond; the union of both arc
    # singleton cuts splits back into the two cocircuits
    d = Digraph.of(["1", "2", "3"], [("1", "2"), ("2", "3")])
    pair = graphic_om(d)
    g = ss(pair.ground, "+-")
    got = disjoint_cocircuit_decomposition(pair, g)
    assert len(got) == 2
    assert frozenset(x.support for x in got) == {1, 2}
    union = 0
    for x in got:
        assert x.conforms_to(g)
        union |= x.support
    assert union == g.support


def test_cocircuit_decomposition_hypothesis_violation():
    pair = graphic_om(triangle())
    g = ss(pair.ground, "+++")  # the directed triangle circuit sums to 3, not 0
    with pytest.raises(DomainError) as err:
        disjoint_cocircuit_decomposition(pair, g)
    assert "hypothesis" in str(err.value)


def test_cocircuit_decomposition_ground_mismatch():
    pair = graphic_om(triangle())
    other = graphic_om(fig4_digraph())
    with pytest.raises(GroundMismatchError):
        disjoint_cocircuit_decomposition(pair, ss(other.ground, "+00000"))


def test_cocircuit_decomposition_properties_random():
    rng = random.Random(55)
    checked = 0
    for _ in range(20):
        d = random_digraph(rng, 6)
        pair = graphic_om(d)
        bonds = sorted(pair.cocircuit_sig.signed, key=lambda s: s.sort_key())
        # overlay disjoint bonds to build a valid input
        pos = neg = used = 0
        for b in bonds:
            if not b.support & used:
                pos |= b.pos
                neg |= b.neg
                used |= b.support
        if not used:
            continue
        g = SignedSubset(pair.ground, pos, neg)
        got = disjoint_cocircuit_decomposition(pair, g)
        union = 0
        for x in got:
            assert not x.support & union, "returned cocircuits overlap"
            assert x.conforms_to(g)
            union |= x.support
        assert union == g.support
        checked += 1
    assert checked >= 5


# -- the four BFS variants the shared search replaced ------------------------------------


def old_forward_reach(d: Digraph, start: int):
    vid = d._vertex_index()
    succ = [[] for _ in d.vertices]
    for a, (t, h) in enumerate(d.arcs):
        succ[vid[t]].append((a, vid[h]))
    reach = 1 << start
    parents = {}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for a, w in succ[u]:
            if not reach >> w & 1:
                reach |= 1 << w
                parents[w] = (a, u)
                queue.append(w)
    return reach, parents


def old_backward_reach(d: Digraph, start: int) -> int:
    vid = d._vertex_index()
    pred = [[] for _ in d.vertices]
    for a, (t, h) in enumerate(d.arcs):
        pred[vid[h]].append(vid[t])
    reach = 1 << start
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in pred[u]:
            if not reach >> w & 1:
                reach |= 1 << w
                queue.append(w)
    return reach


def old_components(d: Digraph, vertex_mask: int) -> list[int]:
    inc = d._incidence()
    seen = 0
    comps = []
    for v in bits(vertex_mask):
        if seen & (1 << v):
            continue
        comp = 1 << v
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for _, other, _ in inc[u]:
                b = 1 << other
                if vertex_mask & b and not comp & b:
                    comp |= b
                    queue.append(other)
        seen |= comp
        comps.append(comp)
    return comps


def old_directed_cycle_in(d: Digraph, support) -> list[int]:
    vid = d._vertex_index()
    succ = [[] for _ in d.vertices]
    for a in support:
        t, h = d.arcs[a]
        succ[vid[t]].append((a, vid[h]))
    for a0 in sorted(support):
        t, h = d.arcs[a0]
        start, goal = vid[h], vid[t]
        parents = {}
        reach = 1 << start
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for a, w in succ[u]:
                if a == a0 or reach >> w & 1:
                    continue
                reach |= 1 << w
                parents[w] = (a, u)
                queue.append(w)
        if reach >> goal & 1:
            cycle = [a0]
            v = goal
            while v != start:
                a, u = parents[v]
                cycle.append(a)
                v = u
            return cycle
    raise InvariantError("positive circulation support contains no directed cycle")


def old_minty_certificate(d: Digraph, arc: str) -> FarkasCertificate:
    a0 = d.arc_index(arc)
    vid = d._vertex_index()
    tail, head = (vid[v] for v in d.arcs[a0])
    ground = d.ground
    forward, parents = old_forward_reach(d, head)
    backward = old_backward_reach(d, tail)
    if forward & backward:
        arcs_mask = 1 << a0
        v = tail
        while v != head:
            a, u = parents[v]
            arcs_mask |= 1 << a
            v = u
        return FarkasCertificate(
            "directed-cycle", frozenset(ground.labels_of(arcs_mask)), SignedSubset(ground, arcs_mask, 0)
        )
    head_side = next(c for c in old_components(d, forward) if c >> head & 1)
    full = (1 << len(d.vertices)) - 1
    tail_side = next(c for c in old_components(d, full & ~head_side) if c >> tail & 1)
    arcs_mask = 0
    for a, (t, h) in enumerate(d.arcs):
        if tail_side >> vid[t] & 1 and head_side >> vid[h] & 1:
            arcs_mask |= 1 << a
    return FarkasCertificate(
        "directed-bond", frozenset(ground.labels_of(arcs_mask)), SignedSubset(ground, arcs_mask, 0)
    )


def old_decompose_nonneg_flow(d: Digraph, flow) -> list[tuple[frozenset[str], int]]:
    """The peeling loop only: ``flow`` must be a non-negative circulation."""
    vals = [flow.get(label, 0) for label in d.labels]
    out = []
    while True:
        support = [a for a, v in enumerate(vals) if v > 0]
        if not support:
            return out
        cycle = old_directed_cycle_in(d, support)
        mult = min(vals[a] for a in cycle)
        for a in cycle:
            vals[a] -= mult
        out.append((frozenset(d.labels[a] for a in cycle), mult))


def test_shared_bfs_matches_old_variants(instance_pool):
    rng = random.Random(20250810)  # replays conftest.build_pool, whose digraphs come first
    pool = [random_digraph(rng, rng.choice([4, 5, 5, 6, 6, 7])) for _ in range(62)]
    by_name = {inst.name: inst.pair for inst in instance_pool}
    assert [graphic_om(d) for d in pool] == [by_name[f"graphic-{k}"] for k in range(62)]
    kinds = set()
    peeled = 0
    for index, d in enumerate([fig4_digraph(), triangle()] + pool):
        full = (1 << len(d.vertices)) - 1
        for vertex_mask in range(full + 1):
            assert _components(d, vertex_mask) == old_components(d, vertex_mask)
        for label in d.labels:
            got = minty_certificate(d, label)
            assert got == old_minty_certificate(d, label), (index, label)
            kinds.add(got.kind)
        # non-negative circulations: sums of directed cycles with random multiplicities
        directed = [c.support for c in cycle_representatives(d) if not c.neg or not c.pos]
        rng = random.Random(index)
        for mults in [[1] * len(directed)] + [[rng.randint(0, 3) for _ in directed] for _ in range(5)]:
            vals = [0] * len(d.arcs)
            for support, k in zip(directed, mults):
                for a in bits(support):
                    vals[a] += k
            flow = dict(zip(d.labels, vals))
            got = decompose_nonneg_flow(d, flow)
            assert got == old_decompose_nonneg_flow(d, flow), (index, mults)
            peeled += len(got)
    assert kinds == {"directed-cycle", "directed-bond"} and peeled > 300
