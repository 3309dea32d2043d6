"""Digraph-backed oriented matroids and constructive Farkas certificates.

Arcs form the matroid ground set; cycles signed by traversal agreement are
the circuits and directed-crossing-signed bonds the cocircuits.  Parallel
arcs and 2-cycles are allowed, loops are rejected (they would be matroid
loops and add nothing here).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DomainError, GroundMismatchError, InvariantError, UnknownElementError
from .matroid import Matroid
from .oriented import CircuitSignature, SignaturePair
from .signed_sets import GroundSet, SignedSubset, _Frozen, bits, mask_of


class Digraph(_Frozen):
    """Vertices plus an ordered list of (tail, head) arcs with distinct labels.

    Validated: vertex names and arc labels are distinct, one label per arc,
    and every arc joins two distinct known vertices.
    """

    __slots__ = _fields = ("vertices", "arcs", "labels")

    def __init__(self, vertices: tuple[str, ...], arcs: tuple[tuple[str, str], ...], labels: tuple[str, ...]):
        if len(set(vertices)) != len(vertices):
            raise DomainError("vertex names not distinct")
        if len(labels) != len(arcs):
            raise DomainError("need one label per arc")
        if len(set(labels)) != len(labels):
            raise DomainError("arc labels not distinct")
        vset = set(vertices)
        for (t, h), lbl in zip(arcs, labels):
            if t not in vset or h not in vset:
                raise DomainError(f"arc {lbl} has an unknown endpoint")
            if t == h:
                raise DomainError(f"arc {lbl} is a loop; loops are rejected")
        self._fill((vertices, arcs, labels))

    @classmethod
    def of(cls, vertices: Iterable[str], arcs: Iterable[tuple[str, str]]) -> "Digraph":
        arcs = tuple(arcs)
        return cls(tuple(vertices), arcs, tuple(f"e{i + 1}" for i in range(len(arcs))))

    @property
    def ground(self) -> GroundSet:
        return GroundSet(self.labels)

    def arc_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownElementError(f"unknown arc {label!r}") from None

    def _vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def _incidence(self) -> list[list[tuple[int, int, int]]]:
        """Per vertex: (arc index, other endpoint, +1 if leaving / -1 if entering)."""
        vid = self._vertex_index()
        inc: list[list[tuple[int, int, int]]] = [[] for _ in self.vertices]
        for a, (t, h) in enumerate(self.arcs):
            ti, hi = vid[t], vid[h]
            inc[ti].append((a, hi, 1))
            inc[hi].append((a, ti, -1))
        return inc


# -- cycles and bonds ---------------------------------------------------------


def cycle_representatives(d: Digraph) -> list[SignedSubset]:
    """All simple cycles, signed by traversal direction.

    Each cycle is found once, anchored at its smallest arc index, traversed
    starting along that arc's own direction.
    """
    ground = d.ground
    inc = d._incidence()
    vid = d._vertex_index()
    out: list[SignedSubset] = []

    def walk(anchor: int, start: int, pos: int, neg: int, current: int, visited: int):
        for a, other, sign in inc[current]:
            if a <= anchor or (pos | neg) >> a & 1:
                continue
            npos = pos | (1 << a) if sign > 0 else pos
            nneg = neg | (1 << a) if sign < 0 else neg
            if other == start:
                out.append(SignedSubset(ground, npos, nneg))
            elif not visited >> other & 1:
                walk(anchor, start, npos, nneg, other, visited | (1 << other))

    for anchor, (t, h) in enumerate(d.arcs):
        ti, hi = vid[t], vid[h]
        walk(anchor, ti, 1 << anchor, 0, hi, (1 << ti) | (1 << hi))
    return out


def _components(d: Digraph, vertex_mask: int) -> list[int]:
    """Connected components of the underlying graph induced on ``vertex_mask``."""
    adj = [
        [(a, other) for a, other, _ in arcs if vertex_mask >> other & 1] if vertex_mask >> v & 1 else []
        for v, arcs in enumerate(d._incidence())
    ]
    seen = 0
    comps = []
    for v in bits(vertex_mask):
        if not seen >> v & 1:
            comp, _ = _bfs(adj, v)
            seen |= comp
            comps.append(comp)
    return comps


def _arc_adjacency(d: Digraph, arcs: Iterable[int]):
    """Per vertex: (arc, head) for the given arcs leaving it, (arc, tail) for those entering it."""
    vid = d._vertex_index()
    succ: list[list[tuple[int, int]]] = [[] for _ in d.vertices]
    pred: list[list[tuple[int, int]]] = [[] for _ in d.vertices]
    for a in arcs:
        t, h = d.arcs[a]
        succ[vid[t]].append((a, vid[h]))
        pred[vid[h]].append((a, vid[t]))
    return succ, pred


def _bfs(adj: Sequence[Sequence[tuple[int, int]]], start: int) -> tuple[int, dict[int, tuple[int, int]]]:
    """Vertices reachable from ``start`` over (arc, next vertex) lists, with BFS parents.

    ``parents[w]`` is the (arc, vertex) pair through which w was first reached.
    """
    reach = 1 << start
    parents: dict[int, tuple[int, int]] = {}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for a, w in adj[u]:
            if not reach >> w & 1:
                reach |= 1 << w
                parents[w] = (a, u)
                queue.append(w)
    return reach, parents


def _walk_back(parents: dict[int, tuple[int, int]], start: int, goal: int) -> list[int]:
    """The arcs of the BFS path from ``start`` to ``goal`` in :func:`_bfs` ``parents``, from ``goal`` back."""
    arcs = []
    v = goal
    while v != start:
        a, v = parents[v]
        arcs.append(a)
    return arcs


def bond_representatives(d: Digraph) -> list[SignedSubset]:
    """All minimal edge cuts, signed + for arcs leaving the anchored side."""
    ground = d.ground
    vid = d._vertex_index()
    full = (1 << len(d.vertices)) - 1
    out: list[SignedSubset] = []
    seen_supports: set[int] = set()
    for comp in _components(d, full):
        members = list(bits(comp))
        if len(members) < 2:
            continue
        anchor = members[0]
        rest = [v for v in members if v != anchor]
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                side = (1 << anchor) | mask_of(combo)
                other = comp & ~side
                if not other:
                    continue
                if len(_components(d, side)) != 1 or len(_components(d, other)) != 1:
                    continue
                pos = neg = 0
                for a, (t, h) in enumerate(d.arcs):
                    ti, hi = vid[t], vid[h]
                    if side >> ti & 1 and other >> hi & 1:
                        pos |= 1 << a
                    elif side >> hi & 1 and other >> ti & 1:
                        neg |= 1 << a
                if not (pos | neg) or (pos | neg) in seen_supports:
                    continue
                seen_supports.add(pos | neg)
                out.append(SignedSubset(ground, pos, neg))
    return out


def graphic_om(d: Digraph) -> SignaturePair:
    """The oriented cycle matroid of a digraph.

    Circuits are cycles with traversal signs, cocircuits are bonds with
    crossing signs; the signature constructor itself enforces that the bond
    supports are exactly the cocircuits of the cycle matroid.
    """
    cycles = cycle_representatives(d)
    matroid = Matroid._from_valid(d.ground, [c.support for c in cycles])
    csig = CircuitSignature.from_representatives(matroid, cycles)
    cosig = CircuitSignature.from_representatives(matroid.dual(), bond_representatives(d))
    return SignaturePair(matroid, csig, cosig)


# -- Minty certificates -------------------------------------------------------


class FarkasCertificate(NamedTuple):
    """Directed cycle or directed bond through an arc, all-positively oriented (an unvalidated record)."""

    kind: str  # "directed-cycle" | "directed-bond"
    arcs: frozenset[str]
    orientation: SignedSubset


def minty_certificate(d: Digraph, arc: str) -> FarkasCertificate:
    """Exactly one of: a directed cycle or a directed bond through the arc.

    Grows the arborescence reachable from the head and the reverse
    arborescence into the tail.  If they meet, the BFS head-to-tail path plus
    the arc is a directed cycle; otherwise the cut at the head-side vertex
    set splits into minimal directed cuts, one of which contains the arc.
    """
    a0 = d.arc_index(arc)
    vid = d._vertex_index()
    tail, head = (vid[v] for v in d.arcs[a0])
    ground = d.ground
    succ, pred = _arc_adjacency(d, range(len(d.arcs)))
    forward, parents = _bfs(succ, head)
    backward, _ = _bfs(pred, tail)
    if forward & backward:
        if not forward >> tail & 1:
            raise InvariantError("arborescences meet but the tail is unreachable")
        arcs_mask = mask_of([a0, *_walk_back(parents, head, tail)])
        return FarkasCertificate(
            "directed-cycle",
            frozenset(ground.labels_of(arcs_mask)),
            SignedSubset(ground, arcs_mask, 0),
        )
    head_side = next(c for c in _components(d, forward) if c >> head & 1)
    full = (1 << len(d.vertices)) - 1
    tail_side = next(c for c in _components(d, full & ~head_side) if c >> tail & 1)
    arcs_mask = 0
    for a, (t, h) in enumerate(d.arcs):
        ti, hi = vid[t], vid[h]
        if tail_side >> ti & 1 and head_side >> hi & 1:
            arcs_mask |= 1 << a
        elif tail_side >> hi & 1 and head_side >> ti & 1:
            raise InvariantError("cut at a reachability set is not directed")
    return FarkasCertificate(
        "directed-bond",
        frozenset(ground.labels_of(arcs_mask)),
        SignedSubset(ground, arcs_mask, 0),
    )


# -- flows ---------------------------------------------------------------------


def _flow_values(d: Digraph, flow: Mapping[str, int]) -> list[int]:
    vals = [0] * len(d.arcs)
    for label, v in flow.items():
        vals[d.arc_index(label)] = v
    return vals


def is_flow(d: Digraph, flow: Mapping[str, int]) -> bool:
    """Orthogonality to every signed cut, checked as conservation per vertex."""
    vals = _flow_values(d, flow)
    vid = d._vertex_index()
    balance = [0] * len(d.vertices)
    for a, (t, h) in enumerate(d.arcs):
        balance[vid[t]] += vals[a]
        balance[vid[h]] -= vals[a]
    return all(b == 0 for b in balance)


def _violated_bond(d: Digraph, vals: Sequence[int]) -> SignedSubset:
    for bond in bond_representatives(d):
        total = sum(vals[i] for i in bits(bond.pos)) - sum(vals[i] for i in bits(bond.neg))
        if total != 0:
            return bond
    raise InvariantError("conservation failed but every bond sums to zero")


def decompose_nonneg_flow(d: Digraph, flow: Mapping[str, int]) -> list[tuple[frozenset[str], int]]:
    """Peel a non-negative circulation into directed cycles with multiplicities.

    The indicator sum of the result equals the flow exactly.
    """
    vals = _flow_values(d, flow)
    if any(v < 0 for v in vals):
        raise DomainError("flow is not non-negative")
    if not is_flow(d, flow):
        raise DomainError(f"not a flow: cocircuit {_violated_bond(d, vals)} has a nonzero sum")
    out: list[tuple[frozenset[str], int]] = []
    while True:
        support = [a for a, v in enumerate(vals) if v > 0]
        if not support:
            break
        cycle = _directed_cycle_in(d, support)
        mult = min(vals[a] for a in cycle)
        for a in cycle:
            vals[a] -= mult
        out.append((frozenset(d.labels[a] for a in cycle), mult))
    return out


def _directed_cycle_in(d: Digraph, support: Sequence[int]) -> list[int]:
    """Least-anchored directed cycle using only the given arcs."""
    vid = d._vertex_index()
    succ, _ = _arc_adjacency(d, support)
    for a0 in sorted(support):
        t, h = d.arcs[a0]
        start, goal = vid[h], vid[t]
        # a0 itself only leads back to start, so the search never takes it
        reach, parents = _bfs(succ, start)
        if reach >> goal & 1:
            return [a0, *_walk_back(parents, start, goal)]
    raise InvariantError("positive circulation support contains no directed cycle")


# -- disjoint cocircuit decomposition ------------------------------------------


def disjoint_cocircuit_decomposition(pair: SignaturePair, g: SignedSubset) -> list[SignedSubset]:
    """Split ``g`` into disjoint signed cocircuits it restricts to.

    Requires the circuit-sum hypothesis: for every signed circuit C the
    signed overlap with ``g`` sums to zero.  Peels the least matching
    cocircuit inside the remaining support, as in the inductive proof.
    """
    if g.ground != pair.ground:
        raise GroundMismatchError("signed subset lives on a different ground set")
    if g.is_empty():
        return []
    for c in pair.circuit_sig.representatives():
        total = (c.pos & g.pos).bit_count() + (c.neg & g.neg).bit_count() \
            - (c.pos & g.neg).bit_count() - (c.neg & g.pos).bit_count()
        if total != 0:
            raise DomainError(f"hypothesis fails: circuit {c} has signed sum {total} against the input")
    # each representative, then its negative: the members in sort_key order
    members = [x for u in pair.cocircuit_sig.representatives() for x in (u, -u)]
    remaining = g.support
    out: list[SignedSubset] = []
    while remaining:
        e = remaining & -remaining
        hit = next((u for u in members if u.support & e and not u.support & ~remaining and u.conforms_to(g)), None)
        if hit is None:
            raise InvariantError(
                "no matching cocircuit inside the remaining support; "
                "the decomposition guarantee is violated"
            )
        out.append(hit)
        remaining &= ~hit.support
    return out
