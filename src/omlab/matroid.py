"""Finite matroids given by their circuit families.

Circuits are the primary representation; duals and minors are derived and
cached.  Validation of the circuit axioms is exhaustive and therefore
refuses ground sets larger than the fixed cap ``C3_CAP_DEFAULT``;
``trusted=True`` skips validation.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CapExceededError, DomainError, ValidationError
from .signed_sets import GroundSet, _Frozen, _setattr, _Slotted, bits, indices, mask_of

C3_CAP_DEFAULT = 12


class CircuitViolation(NamedTuple):
    """Names the violated circuit axiom and carries a concrete witness (an unvalidated record)."""

    axiom: str
    witness: tuple
    message: str

    def __str__(self) -> str:
        return f"({self.axiom}) {self.message}"


class MinorSpec(_Frozen):
    """Contract ``contract`` and delete ``delete``; validated: the two are disjoint."""

    __slots__ = _fields = ("contract", "delete")

    def __init__(self, contract: frozenset[int], delete: frozenset[int]):
        if not contract.isdisjoint(delete):
            raise DomainError("contract and delete sets overlap")
        _setattr(self, "contract", contract)
        _setattr(self, "delete", delete)

    @classmethod
    def of(cls, contract: Iterable[int] = (), delete: Iterable[int] = ()) -> "MinorSpec":
        return cls(frozenset(contract), frozenset(delete))

    @property
    def contract_mask(self) -> int:
        return mask_of(self.contract)

    @property
    def delete_mask(self) -> int:
        return mask_of(self.delete)


_AB = str.maketrans("10", "ab")


def _order(m: int) -> str:
    """Sorts masks as ``tuple(bits(m))`` does: character e is "a" when e is in m, else "b"."""
    return bin(m)[:1:-1].translate(_AB) if m else ""


def _canonical(masks: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(masks), key=_order))


class Matroid(_Slotted):
    """A finite matroid on a :class:`GroundSet`, stored by its circuit masks.

    Instances are immutable after construction; the dual is cached, and the
    contractions are memoised in a dict allocated on the first one.
    """

    __slots__ = ("ground", "circuit_masks", "_dual", "_contractions", "__weakref__")

    def __init__(self, *args, **kwargs):
        raise DomainError("use validate_circuits() or Matroid.from_circuits()")

    @classmethod
    def from_circuits(cls, ground: GroundSet, family: Iterable[Iterable[int]]) -> "Matroid":
        got = validate_circuits(ground, family)
        if isinstance(got, CircuitViolation):
            raise ValidationError(str(got))
        return got

    @classmethod
    def _from_valid(cls, ground: GroundSet, masks: Iterable[int]) -> "Matroid":
        return cls._from_canonical(ground, _canonical(masks))

    @classmethod
    def _from_canonical(cls, ground: GroundSet, masks: tuple[int, ...]) -> "Matroid":
        """A matroid from circuit masks already valid, distinct and in canonical order."""
        m = cls.__new__(cls)
        m.ground = ground
        m.circuit_masks = masks
        m._dual = m._contractions = None
        return m

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.ground == other.ground and self.circuit_masks == other.circuit_masks

    def __hash__(self) -> int:
        return hash((self.ground.labels, self.circuit_masks))

    def __repr__(self) -> str:
        fam = ", ".join("{" + ",".join(self.ground.labels_of(m)) + "}" for m in self.circuit_masks)
        return f"Matroid({list(self.ground.labels)}; circuits [{fam}])"

    # -- rank ------------------------------------------------------------------

    def rank(self, a: int | Iterable[int] | None = None) -> int:
        m = self.ground.full_mask if a is None else (a if isinstance(a, int) else mask_of(a))
        self.ground.check_mask(m)
        r = 0
        ind = 0
        circuits = self.circuit_masks
        for i in bits(m):
            cand = ind | (1 << i)
            if all(c & ~cand for c in circuits):
                ind = cand
                r += 1
        return r

    # -- duality -------------------------------------------------------------

    def dual(self) -> "Matroid":
        """The dual matroid; its circuits are this matroid's cocircuits.

        Cocircuits are the complements of hyperplanes, and every hyperplane is
        the closure of an independent (r-1)-subset S.  An element e outside S
        lies in that closure exactly when some circuit C has C \\ S = {e}.
        A trusted family that fails (C3) can give the empty set or nested sets
        here, and is refused.
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
            masks = _canonical(full & ~h for h in hyperplanes)
            nested = _first_nested(masks)
            if masks[:1] == (0,) or nested is not None:
                what = "the empty set" if masks[:1] == (0,) else " inside ".join(
                    "{" + ",".join(self.ground.labels_of(m)) + "}"
                    for m in sorted((masks[i] for i in nested), key=int.bit_count)
                )
                raise DomainError(f"the circuits fail (C3): their hyperplane dual has {what} among its cocircuits")
            self._dual = Matroid._from_canonical(self.ground, masks)
            self._dual._dual = self
        return self._dual

    @property
    def cocircuit_masks(self) -> tuple[int, ...]:
        return self.dual().circuit_masks

    # -- minors ---------------------------------------------------------------

    def _contraction(self, f: int) -> tuple[int, ...]:
        """``contraction_circuit_masks(self.circuit_masks, f)``, memoised per contracted mask."""
        memo = self._contractions = self._contractions or {}  # made on first use
        got = memo.get(f)
        if got is None:
            got = memo[f] = contraction_circuit_masks(self.circuit_masks, f)
        return got

    def _minor(self, f: int, g: int, circuits, cocircuits, single: bool = True) -> tuple["Matroid", tuple]:
        """The minor M/f\\g, built by the one rule every minor follows.

        ``circuits`` are keys c | pos << n, n the ground size, for the circuits c
        of the contraction by f and a signing pos, and ``cocircuits`` for the
        cocircuits c of the dual's contraction by g, in canonical order of c.  A circuit may come
        with several adjacent signings pos, unless ``single`` says none does.  Each side
        drops the c that meet what it deletes, g for circuits and f for
        cocircuits, and relabels the rest, which keeps them in canonical
        order; the labels and the relabelling come from memos per dropped set
        f | g.  The circuits give the minor and the cocircuits its dual,
        (M/f\\g)* = M*/g\\f, linked to it.  Returns the minor and per side the
        relabelled (pos, neg, support) of each key, in one comprehension per side.
        """
        ground, down = self.ground._without(f | g), _relabelled(f | g, self.ground.size)
        circ = tuple([down[key] for key in circuits if not key & g])
        cocirc = tuple([down[key] for key in cocircuits if not key & f])
        # the signings of a circuit share its support, which the minor lists once
        distinct = tuple if single else lambda supports: tuple(dict.fromkeys(supports))
        masks, comasks = distinct(map(_SUPPORT, circ)), distinct(map(_SUPPORT, cocirc))
        # built as _from_canonical builds them, inline on this hot path, and linked
        n, dual = object.__new__(Matroid), object.__new__(Matroid)
        n.ground, n.circuit_masks, n._dual, n._contractions = ground, masks, dual, None
        dual.ground, dual.circuit_masks, dual._dual, dual._contractions = ground, comasks, n, None
        return n, (circ, cocirc)

    def minor_with_map(self, spec: MinorSpec) -> tuple["Matroid", tuple[int, ...]]:
        """Minor plus the kept old indices, in the order they become new indices.

        Built by :meth:`_minor` from the memoised contractions of this
        matroid by f and of its dual by g, so the minor's dual is linked.
        """
        f = self.ground.check_mask(spec.contract_mask)
        g = self.ground.check_mask(spec.delete_mask)
        kept = tuple(i for i in range(self.ground.size) if not ((f | g) >> i) & 1)
        unsigned = ((1 << self.ground.size) | 1).__mul__  # c | c << n: a set is its own positive part
        cs, us = self._contraction(f), self.dual()._contraction(g)
        return self._minor(f, g, map(unsigned, cs), map(unsigned, us))[0], kept


class _Relabelled(dict):
    """Per signed set s | p << n asked so far (support s, positive part p, on n elements), its
    (pos, neg, support) triple moved to the ground set without ``dropped``: one object per set.

    The bits of ``dropped`` are discarded and the bits above each one move down to close its
    gap, so the j-th element outside ``dropped`` becomes element j.
    """

    def __init__(self, dropped: int, n: int):
        self.n = n
        self.gaps = [((1 << i) - 1, -1 << i) for i in range(dropped.bit_length() - 1, -1, -1) if dropped >> i & 1]

    def __missing__(self, key: int) -> tuple[int, int, int]:
        s, p = key & (1 << self.n) - 1, key >> self.n
        for low, high in self.gaps:
            s, p = s & low | s >> 1 & high, p & low | p >> 1 & high
        got = self[key] = p, s & ~p, s
        return got


_SUPPORT = operator.itemgetter(2)  # of a packed (pos, neg, support) triple
# one table per dropped set and n, which 3^n minors share 2^n ways: shared by every matroid and bounded
_relabelled = functools.lru_cache(maxsize=1 << 10)(_Relabelled)


def contraction_circuit_masks(circuit_masks: Iterable[int], f: int) -> tuple[int, ...]:
    """Circuits after contracting ``f``: minimal nonempty sets C \\ f."""
    return _minimal({c & ~f for c in circuit_masks if c & ~f})


def _minimal(masks: Iterable[int]) -> tuple[int, ...]:
    """The minimal ones of distinct nonempty ``masks``, in canonical order."""
    out: list[int] = []
    for m in sorted(masks, key=int.bit_count):
        for o in out:
            if not o & ~m:
                break
        else:
            out.append(m)
    return tuple(sorted(out, key=_order))


def validate_circuits(
    ground: GroundSet,
    family: Iterable[Iterable[int] | int],
    *,
    trusted: bool = False,
) -> Matroid | CircuitViolation:
    """Check (C1), (C2) and the finite elimination axiom (C3).

    (C3) is decided from its single-element instances; families are searched
    only to name the first violation in canonical scan order, which is then
    returned, else the matroid.  ``trusted=True`` skips (C3); otherwise
    ground sets larger than ``C3_CAP_DEFAULT`` are refused because the (C3)
    search is exponential.
    """
    masks = _canonical(
        (c if isinstance(c, int) else mask_of(c)) for c in family
    )
    for m in masks:
        ground.check_mask(m)
    if any(m == 0 for m in masks):
        return CircuitViolation("C1", ((),), "the empty set is listed as a circuit")
    nested = _first_nested(masks)
    if nested is not None:
        a, b = (masks[i] for i in nested)
        small, big = (a, b) if a & ~b == 0 else (b, a)
        return CircuitViolation(
            "C2",
            (indices(small), indices(big)),
            f"circuit {sorted(bits(small))} is contained in circuit {sorted(bits(big))}",
        )
    if not trusted:
        if ground.size > C3_CAP_DEFAULT:
            raise CapExceededError(
                f"(C3) validation needs ground size <= {C3_CAP_DEFAULT} (got {ground.size}); "
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


def _first_nested(masks: Sequence[int]) -> tuple[int, int] | None:
    """The first pair i < j, in ``itertools.combinations`` order, where one of
    the distinct masks i and j contains the other.

    Distinct masks of one size never do.  Bit k of element e's plane says
    that mask k has e: the masks inside mask i are in no plane of an element
    outside it, and those around it are in every plane of its elements.
    """
    if len({m.bit_count() for m in masks}) < 2:
        return None
    planes = [0] * max(masks).bit_length()
    for k, m in enumerate(masks):
        for e in bits(m):
            planes[e] |= 1 << k
    for i, m in enumerate(masks):
        inside = around = (1 << len(masks)) - 1
        for e, plane in enumerate(planes):
            if m >> e & 1:
                around &= plane
            else:
                inside &= ~plane
        later = (inside | around) >> (i + 1)
        if later:
            return i, i + (later & -later).bit_length()
    return None


def _find_c3_violation(masks: tuple[int, ...]) -> tuple[int, int, tuple[int, ...], int] | None:
    """First (C, X, family, f) for which strong elimination has no witness.

    Circuits C and subsets X of C go in canonical order, once
    :func:`_elimination_scan` has found that weak elimination fails.  The
    union to blame is the one met first with each member's options taken in
    reverse canonical order; the family reported is the first, in canonical
    order, with that union.  Both come from :func:`_first_bad_family`, and a
    retained f is covered when :class:`_Cover` finds a circuit through f
    inside (C | union) minus X.  ``masks`` must be a clutter, as (C2) ensures.
    """
    n = max(masks, default=0).bit_length()
    cover = _Cover(masks, n)
    through = [[d for d in masks if d >> e & 1] for e in range(n)]

    def instance(i: int, x_combo: tuple[int, ...]):
        x = mask_of(x_combo)
        return masks[i], x, [[d for d in through[xi] if not d & x & ~(1 << xi)] for xi in x_combo]

    def first_bad(inst) -> tuple[int, int, tuple[int, ...], int] | None:
        c, x, cand = inst

        def bad(u: int) -> int:
            return c & ~u & ~cover((c | u) & ~x)

        found = _first_bad_family([opts[::-1] for opts in cand], bad)
        if found is None:
            return None
        fam, u = _first_bad_family(cand, lambda v: v == found[1])
        got = bad(u)
        return c, x, fam, (got & -got).bit_length() - 1

    scan = _elimination_scan(masks, instance, lambda: cover.weak([(ds, ds) for ds in through]))
    return next(filter(None, map(first_bad, scan)), None)


def _elimination_scan(supports: Sequence[int], instance, weak) -> Iterator:
    """The instances an exhaustive (C3) or (CE) scan visits: all of them, or none.

    ``instance(i, x_combo)`` eliminates ``x_combo`` from support i; instances go by
    support, size of X and X, in canonical order.  None is yielded when
    ``weak()`` says that weak elimination holds (:meth:`_Cover.weak`), which
    callers ask only of a clutter of supports.

    Weak elimination implies strong elimination over a clutter: for unsigned
    circuits (Oxley, *Matroid Theory*, section 1.4), and for symmetric
    signed circuits with one opposite pair per support by Bland and Las
    Vergnas (Bjoerner et al., *Oriented Matroids*, section 3.2).  So every
    instance with |X| = 1 passes, and then all do: eliminate x1, ..., xk
    from C_0 = C in turn; C_j is C_(j-1) if x_j is not in it, else the
    witness through f of (C_(j-1), x_j, D_xj).  D_xj avoids X minus x_j, so
    nothing leaves the signed union of C and the D's minus X, where x_(j+1)
    has C's sign only: C_j still carries it.  f keeps its sign, as no D
    opposes f.  Negating an instance negates its witness.  This is how
    finite matroids satisfy the infinite elimination axiom (Bruhn, Diestel,
    Kriesell, Pendavingh and Wollan, "Axioms for infinite matroids", Adv.
    Math. 2013).  Conversely, when weak elimination fails for C and D at x,
    D has an element f outside C, the supports being a clutter, and the
    |X| = 1 instance (D, x, C) has no witness through f.
    """
    if not weak():
        for i, s in enumerate(supports):
            xs = list(bits(s))
            for size in range(1, len(xs) + 1):
                for x_combo in itertools.combinations(xs, size):
                    yield instance(i, x_combo)


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


class _Inside(dict):
    """Memo of the positions whose set contains all of mask x, from per-element ``planes``."""

    def __init__(self, planes: list[int], full: int):
        super().__init__({0: full})
        self.planes = planes

    def __missing__(self, x: int) -> int:
        low = x & -x
        got = self[x] = self[x ^ low] & self.planes[low.bit_length() - 1]
        return got


class _Cover:
    """Bit-sliced queries on packed members.

    Members and allowed sets are packed signed masks, ``pos | neg << n``
    (unsigned circuits have an empty negative part).  A member is usable
    when it packs inside the allowed set, and element e is covered when a
    usable member's support contains e.  Bit i of position j's plane says
    that member i has j; a member is blocked by any plane of a position
    outside the allowed set.  Calling with an allowed set gives the covered
    elements, memoised per allowed set.
    """

    def __init__(self, members: Sequence[int], n: int):
        self.planes = planes = [0] * (2 * n)
        for i, d in enumerate(members):
            for j in bits(d):
                planes[j] |= 1 << i
        self.n, self.every = n, (1 << len(members)) - 1
        self.used = [(j, plane) for j, plane in enumerate(planes) if plane]
        self.supports = [(1 << e, planes[e] | planes[e + n]) for e in range(n)]
        self.covered: dict[int, int] = {}

    def __call__(self, allowed: int) -> int:
        got = self.covered.get(allowed)
        if got is None:
            blocked = 0
            for j, plane in self.used:
                if not allowed >> j & 1:
                    blocked |= plane
            got = 0
            for eb, plane in self.supports:
                if plane & ~blocked:
                    got |= eb
            self.covered[allowed] = got
        return got

    def weak(self, opposed: list[tuple[list[int], list[int]]]) -> bool:
        """Whether weak elimination holds: for each element x and i < j, some
        member packs inside (N[i] | P[j]) minus x, where ``opposed[x] = (N, P)``
        lists the members with - and with + at x, one per support in the same
        order (for (C3) both list the circuits through x).  j < i asks the
        negated question, which a symmetric family answers alike, and j = i
        pairs a member with its negative (for (C3), itself).  Per sign half, an
        :class:`_Inside` memo over the complemented planes holds the members
        with no position in a set.
        """
        n, every = self.n, self.every
        half, full = (1 << n) - 1, (1 << 2 * n) - 1
        pos, neg = (_Inside([every & ~p for p in side], every) for side in (self.planes[:n], self.planes[n:]))
        usable: dict[int, int] = {}
        # (N[i] | P[j]) minus x leaves out the positions both leave out, and x
        for x, sides in enumerate(opposed):
            xx = 1 << x | 1 << (x + n)
            outs, along = ([full & ~d | xx for d in side] for side in sides)
            for i, c in enumerate(outs, 1):
                for d in along[i:]:
                    out = c & d
                    got = usable.get(out)
                    if got is None:
                        got = usable[out] = pos[out & half] & neg[out >> n]
                    if not got:
                        return False
        return True
