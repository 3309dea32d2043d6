"""Shared builders: worked-example fixtures, random generators, mutations."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import pytest

from omlab import Digraph, LineSet, SignaturePair, alternating_rank2, graphic_om, u3_signature
from omlab.errors import ValidationError
from omlab.lines import free_witness
from omlab.matroid import MinorSpec
from omlab.oriented import CircuitSignature, induced_signature
from omlab.signed_sets import SignedSubset, bits


def fig4_digraph() -> Digraph:
    """Two stacked triangles on four vertices: the worked elimination example."""
    return Digraph.of(
        ["1", "2", "3", "4"],
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1"), ("4", "2"), ("1", "3")],
    )


def triangle() -> Digraph:
    return Digraph.of(["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1")])


def random_digraph(rng: random.Random, max_arcs: int = 7, *, min_arcs: int = 3) -> Digraph:
    """A weakly connected digraph without loops; parallel arcs allowed."""
    n_vertices = rng.randint(2, max(2, min(5, max_arcs - 1)))
    names = [str(i + 1) for i in range(n_vertices)]
    arcs: list[tuple[str, str]] = []
    for i in range(1, n_vertices):
        j = rng.randrange(i)
        pair = (names[j], names[i]) if rng.random() < 0.5 else (names[i], names[j])
        arcs.append(pair)
    target = rng.randint(max(min_arcs, n_vertices - 1), max_arcs)
    while len(arcs) < target:
        a, b = rng.sample(range(n_vertices), 2)
        arcs.append((names[a], names[b]))
    return Digraph.of(names, arcs)


def random_free_lineset(rng: random.Random, n: int) -> LineSet:
    while True:
        vecs = []
        for _ in range(n):
            v = (0, 0, 0)
            while v == (0, 0, 0):
                v = tuple(rng.randint(-6, 6) for _ in range(3))
            vecs.append(v)
        try:
            q = LineSet.of(vecs)
        except Exception:
            continue
        if free_witness(q) is None:
            return q


def corrupt_pair(pair: SignaturePair, rng: random.Random) -> SignaturePair:
    """Flip one sign inside one signed circuit or cocircuit (not a reorientation)."""
    side = rng.choice(["circ", "cocirc"])
    sig = pair.circuit_sig if side == "circ" else pair.cocircuit_sig
    reps = list(sig.representatives())
    candidates = [i for i, r in enumerate(reps) if r.support.bit_count() >= 2]
    i = rng.choice(candidates)
    r = reps[i]
    e = rng.choice(list(bits(r.support)))
    b = 1 << e
    reps[i] = SignedSubset(r.ground, (r.pos & ~b) | (r.neg & b), (r.neg & ~b) | (r.pos & b))
    mutated = CircuitSignature.from_representatives(sig.matroid, reps)
    if side == "circ":
        return SignaturePair(pair.matroid, mutated, pair.cocircuit_sig)
    return SignaturePair(pair.matroid, pair.circuit_sig, mutated)


@dataclass
class Instance:
    name: str
    pair: SignaturePair
    corrupted: bool


def build_pool(seed: int = 20250810) -> list[Instance]:
    """The randomized small-instance pool shared by the acceptance criteria.

    Deterministic for a fixed seed: uniform-alt truncations, graphic OMs,
    line-arrangement OMs, plus sign-corrupted mutants of a sample of them.
    """
    rng = random.Random(seed)
    pool: list[Instance] = []
    for n in (4, 5, 6, 7):
        pool.append(Instance(f"uniform-alt-{n}", alternating_rank2(n), False))
    pool.append(Instance("graphic-fig4", graphic_om(fig4_digraph()), False))
    pool.append(Instance("graphic-triangle", graphic_om(triangle()), False))
    for k in range(62):
        max_arcs = rng.choice([4, 5, 5, 6, 6, 7])
        d = random_digraph(rng, max_arcs)
        pool.append(Instance(f"graphic-{k}", graphic_om(d), False))
    for k in range(62):
        n = rng.choice([4, 5, 5, 6, 6, 7])
        q = random_free_lineset(rng, n)
        pool.append(Instance(f"lines-{k}", u3_signature(q), False))
    pristine = list(pool)
    for k in range(80):
        base = pristine[rng.randrange(len(pristine))]
        pool.append(Instance(f"mutant-{k}-of-{base.name}", corrupt_pair(base.pair, rng), True))
    return pool


@pytest.fixture(scope="session")
def instance_pool() -> list[Instance]:
    return build_pool()


def minor_specs(n: int):
    """All 3^n minors of an n-element ground set: keep, contract or delete each element."""
    for states in itertools.product(range(3), repeat=n):
        yield MinorSpec.of(
            contract=[i for i, s in enumerate(states) if s == 1],
            delete=[i for i, s in enumerate(states) if s == 2],
        )


@dataclass
class PoolMinor:
    inst: Instance
    spec: MinorSpec
    induced: object  # the induced SignaturePair, or the ValidationError induced_signature raised


@pytest.fixture(scope="session")
def pool_minors(instance_pool) -> list[PoolMinor]:
    """Every minor of every pool instance on at most 6 elements, in pool then product order,
    with its induced signature pair: built once for all the tests that sweep the pool's minors."""
    out = []
    for inst in instance_pool:
        if inst.pair.ground.size <= 6:
            for spec in minor_specs(inst.pair.ground.size):
                try:
                    induced = induced_signature(inst.pair, spec)
                except ValidationError as err:
                    induced = err
                out.append(PoolMinor(inst, spec, induced))
    return out
