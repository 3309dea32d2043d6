"""Finite matroids given by their circuit families.

Circuits are the primary representation; bases, duals, and minors are derived
and cached.  Validation of the circuit axioms is exhaustive and therefore
refuses ground sets above a configurable cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import CapExceededError, DomainError, InvariantError, ValidationError
from .signed_sets import GroundSet, bits, indices, mask_of

C3_CAP_DEFAULT = 12


@dataclass(frozen=True)
class CircuitViolation:
    """Names the violated circuit axiom and carries a concrete witness."""

    axiom: str
    witness: tuple
    message: str

    def __str__(self) -> str:
        return f"({self.axiom}) {self.message}"


@dataclass(frozen=True)
class MinorSpec:
    """Contract ``contract`` and delete ``delete``; the two must be disjoint."""

    contract: frozenset[int]
    delete: frozenset[int]

    @classmethod
    def of(cls, contract: Iterable[int] = (), delete: Iterable[int] = ()) -> "MinorSpec":
        return cls(frozenset(contract), frozenset(delete))

    def __post_init__(self):
        if self.contract & self.delete:
            raise DomainError("contract and delete sets overlap")

    @property
    def contract_mask(self) -> int:
        return mask_of(self.contract)

    @property
    def delete_mask(self) -> int:
        return mask_of(self.delete)


def _canonical(masks: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(masks), key=lambda m: tuple(bits(m))))


class Matroid:
    """A finite matroid on a :class:`GroundSet`, stored by its circuit masks.

    Instances are immutable after construction; lazy caches (bases, dual,
    ranks) are filled once and then only read.
    """

    def __init__(self, ground: GroundSet, circuit_masks: Iterable[int], _validated: bool = False):
        if not _validated:
            raise DomainError("use validate_circuits() or Matroid.from_circuits()")
        self.ground = ground
        self.circuit_masks = _canonical(circuit_masks)
        self._rank_cache: dict[int, int] = {}
        self._dual: "Matroid | None" = None
        self._bases: tuple[int, ...] | None = None

    @classmethod
    def from_circuits(
        cls,
        ground: GroundSet,
        family: Iterable[Iterable[int]],
        *,
        c3_cap: int = C3_CAP_DEFAULT,
        trusted: bool = False,
    ) -> "Matroid":
        got = validate_circuits(ground, family, c3_cap=c3_cap, trusted=trusted)
        if isinstance(got, CircuitViolation):
            raise ValidationError(str(got))
        return got

    @classmethod
    def _from_valid(cls, ground: GroundSet, masks: Iterable[int]) -> "Matroid":
        return cls(ground, masks, _validated=True)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.ground == other.ground and self.circuit_masks == other.circuit_masks

    def __hash__(self) -> int:
        return hash((self.ground.labels, self.circuit_masks))

    def __repr__(self) -> str:
        fam = ", ".join("{" + ",".join(self.ground.labels_of(m)) + "}" for m in self.circuit_masks)
        return f"Matroid({list(self.ground.labels)}; circuits [{fam}])"

    @property
    def circuits(self) -> tuple[frozenset[int], ...]:
        return tuple(indices(m) for m in self.circuit_masks)

    # -- independence and rank ----------------------------------------------

    def is_independent(self, a: int | Iterable[int]) -> bool:
        m = a if isinstance(a, int) else mask_of(a)
        self.ground.check_mask(m)
        return all(c & ~m for c in self.circuit_masks)

    def rank(self, a: int | Iterable[int] | None = None) -> int:
        m = self.ground.full_mask if a is None else (a if isinstance(a, int) else mask_of(a))
        self.ground.check_mask(m)
        hit = self._rank_cache.get(m)
        if hit is not None:
            return hit
        r = 0
        ind = 0
        circuits = self.circuit_masks
        for i in bits(m):
            cand = ind | (1 << i)
            if all(c & ~cand for c in circuits):
                ind = cand
                r += 1
        self._rank_cache[m] = r
        return r

    @property
    def bases(self) -> tuple[int, ...]:
        """All maximal circuit-free sets, as masks in canonical order."""
        if self._bases is None:
            r = self.rank()
            elems = range(self.ground.size)
            found = [
                mask_of(combo)
                for combo in itertools.combinations(elems, r)
                if self.is_independent(mask_of(combo))
            ]
            self._bases = _canonical(found)
        return self._bases

    # -- duality -------------------------------------------------------------

    def dual(self) -> "Matroid":
        """The dual matroid; its circuits are this matroid's cocircuits.

        Cocircuits are the complements of hyperplanes, and every hyperplane is
        the closure of an independent (r-1)-subset S.  An element e outside S
        lies in that closure exactly when some circuit C has C \\ S = {e}.
        """
        if self._dual is None:
            full = self.ground.full_mask
            r = self.rank()
            hyperplanes: set[int] = set()
            for combo in itertools.combinations(range(self.ground.size), r - 1) if r else ():
                s = mask_of(combo)
                closure = s
                for c in self.circuit_masks:
                    rest = c & ~s
                    if not rest:
                        break  # S is dependent
                    if not rest & (rest - 1):
                        closure |= rest
                else:
                    hyperplanes.add(closure)
            self._dual = Matroid._from_valid(self.ground, (full & ~h for h in hyperplanes))
        return self._dual

    @property
    def cocircuit_masks(self) -> tuple[int, ...]:
        return self.dual().circuit_masks

    @property
    def cocircuits(self) -> tuple[frozenset[int], ...]:
        return self.dual().circuits

    # -- minors ---------------------------------------------------------------

    def minor_with_map(self, spec: MinorSpec) -> tuple["Matroid", tuple[int, ...]]:
        """Minor plus the kept old indices, in the order they become new indices."""
        f = self.ground.check_mask(spec.contract_mask)
        g = self.ground.check_mask(spec.delete_mask)
        kept = tuple(i for i in range(self.ground.size) if not ((f | g) >> i) & 1)
        new_ground = GroundSet(tuple(self.ground.labels[i] for i in kept))
        down = relabel(f | g)
        new_masks = [down(c) for c in contraction_circuit_masks(self.circuit_masks, f) if not c & g]
        return Matroid._from_valid(new_ground, new_masks), kept

    def minor(self, spec: MinorSpec) -> "Matroid":
        return self.minor_with_map(spec)[0]

    # -- circuit/cocircuit structure -------------------------------------------

    def is_scrawl(self, v: int | Iterable[int]) -> bool:
        """True iff ``v`` never meets a cocircuit exactly once (= union of circuits)."""
        m = v if isinstance(v, int) else mask_of(v)
        self.ground.check_mask(m)
        return all((m & u).bit_count() != 1 for u in self.cocircuit_masks)

    def cocircuit_through_pair(self, circuit: int | Iterable[int], e: int, f: int) -> frozenset[int]:
        """The least cocircuit U with circuit ∩ U = {e, f}."""
        c = circuit if isinstance(circuit, int) else mask_of(circuit)
        if c not in self.circuit_masks:
            raise DomainError("not a circuit of this matroid")
        want = mask_of([e, f])
        if e == f or c & want != want:
            raise DomainError("need two distinct elements of the circuit")
        for u in self.cocircuit_masks:
            if c & u == want:
                return indices(u)
        raise InvariantError(f"no cocircuit meets the circuit exactly in {{{e},{f}}}")

    def fundamental_circuit(self, basis: int | Iterable[int], e: int) -> frozenset[int]:
        """The unique circuit inside basis ∪ {e} that contains e."""
        b = basis if isinstance(basis, int) else mask_of(basis)
        self.ground.check_mask(b)
        eb = self.ground.check_mask(mask_of([e]))
        if not (self.is_independent(b) and b.bit_count() == self.rank()):
            raise DomainError("not a basis of this matroid")
        if b & eb:
            raise DomainError("element already in the basis")
        allowed = b | eb
        for c in self.circuit_masks:
            if c & eb and c & ~allowed == 0:
                return indices(c)
        raise InvariantError("basis plus one element contains no circuit")


def relabel(dropped: int) -> Callable[[int], int]:
    """Map a mask to the ground set with ``dropped`` removed, in kept order.

    The bits of ``dropped`` are discarded and the bits above each one move
    down to close its gap, so the j-th element outside ``dropped`` becomes
    element j.
    """
    gaps = [((1 << i) - 1, -1 << i) for i in range(dropped.bit_length() - 1, -1, -1) if dropped >> i & 1]

    def down(mask: int) -> int:
        for low, high in gaps:
            mask = mask & low | mask >> 1 & high
        return mask

    return down


def contraction_circuit_masks(circuit_masks: Iterable[int], f: int) -> tuple[int, ...]:
    """Circuits after contracting ``f``: minimal nonempty sets C \\ f."""
    cands = sorted({c & ~f for c in circuit_masks if c & ~f}, key=lambda m: m.bit_count())
    out: list[int] = []
    for m in cands:
        if all(o & ~m for o in out):
            out.append(m)
    return _canonical(out)


def validate_circuits(
    ground: GroundSet,
    family: Iterable[Iterable[int] | int],
    *,
    c3_cap: int = C3_CAP_DEFAULT,
    trusted: bool = False,
) -> Matroid | CircuitViolation:
    """Check (C1), (C2) and the finite elimination axiom (C3) exhaustively.

    Returns the matroid on success, otherwise the first violation found in
    canonical scan order.  ``trusted=True`` skips (C3); otherwise ground sets
    larger than ``c3_cap`` are refused because the (C3) enumeration is
    exponential.
    """
    masks = _canonical(
        (c if isinstance(c, int) else mask_of(c)) for c in family
    )
    for m in masks:
        ground.check_mask(m)
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
    if not trusted:
        if ground.size > c3_cap:
            raise CapExceededError(
                f"(C3) validation needs ground size <= {c3_cap} (got {ground.size}); "
                "pass trusted=True to skip"
            )
        bad = _find_c3_violation(masks)
        if bad is not None:
            c, x, fam, f = bad
            return CircuitViolation(
                "C3",
                (indices(c), indices(x), tuple(indices(d) for d in fam), f),
                f"no circuit through {f} inside the allowed union for C={sorted(bits(c))}, "
                f"X={sorted(bits(x))}",
            )
    return Matroid._from_valid(ground, masks)


def _find_c3_violation(masks: tuple[int, ...]) -> tuple[int, int, tuple[int, ...], int] | None:
    """First (C, X, family, f) for which strong elimination has no witness.

    Circuits C and subsets X of C go in canonical order.  The union to blame
    is the one met first with each member's options taken in reverse
    canonical order; the family reported is the first, in canonical order,
    with that union.  Both come from :func:`_first_bad_family`, and a
    retained f is covered when :func:`_cover` finds a circuit through f
    inside (C | union) minus X.
    """
    n = max(masks, default=0).bit_length()
    cover = _cover(masks, n)
    through = [[d for d in masks if d >> e & 1] for e in range(n)]
    for c in masks:
        xs = list(bits(c))
        for size in range(1, len(xs) + 1):
            for x_combo in itertools.combinations(xs, size):
                x = mask_of(x_combo)
                cand = [[d for d in through[xi] if not d & x & ~(1 << xi)] for xi in x_combo]
                if not all(cand):
                    continue

                def bad(u: int) -> int:
                    return c & ~u & ~cover((c | u) & ~x)

                found = _first_bad_family([opts[::-1] for opts in cand], bad)
                if found is None:
                    continue
                u = found[1]
                fam, _ = _first_bad_family(cand, lambda v: v == u)
                got = bad(u)
                return c, x, fam, (got & -got).bit_length() - 1
    return None


def _first_bad_family(opts: list[list[int]], bad) -> tuple[tuple[int, ...], int] | None:
    """The lexicographically first family, one option per level, whose union is bad.

    Options are ints and a family's union is their OR, which is all an
    elimination instance's feasibility depends on.  The distinct unions are
    built level by level and ``bad`` is asked once per distinct full union.
    Only when one is bad are the partial unions that still reach a bad one
    marked, backwards, and the first live option taken at each level.
    Returns the family and its union, or None when no union is bad.
    """
    levels = [{0}]
    for level in opts:
        levels.append({u | d for u in levels[-1] for d in level})
    live = {u for u in levels[-1] if bad(u)}
    if not live:
        return None
    lives = [live]
    for k in range(len(opts) - 1, 0, -1):
        level = opts[k]
        live = {u for u in levels[k] if any(u | d in live for d in level)}
        lives.append(live)
    family = []
    u = 0
    for level, live in zip(opts, reversed(lives)):
        d = next(d for d in level if u | d in live)
        family.append(d)
        u |= d
    return tuple(family), u


def _cover(members: Iterable[int], n: int):
    """Memoised map from an allowed set to the elements it covers.

    Members and allowed sets are packed signed masks, ``pos | neg << n``
    (unsigned circuits have an empty negative part).  A member is usable
    when it packs inside the allowed set, and element e is covered when a
    usable member's support contains e.  Bit i of element j's plane says
    that member i contains j; a member is blocked by any plane of a position
    outside the allowed set.
    """
    planes = [0] * (2 * n)
    for i, d in enumerate(members):
        for j in bits(d):
            planes[j] |= 1 << i
    used = [(j, plane) for j, plane in enumerate(planes) if plane]
    supports = [(1 << e, planes[e] | planes[e + n]) for e in range(n)]
    memo: dict[int, int] = {}

    def cover(allowed: int) -> int:
        got = memo.get(allowed)
        if got is None:
            blocked = 0
            for j, plane in used:
                if not allowed >> j & 1:
                    blocked |= plane
            got = 0
            for eb, plane in supports:
                if plane & ~blocked:
                    got |= eb
            memo[allowed] = got
        return got

    return cover
