"""Exact-rational line arrangements through the origin of R^3.

Each line is stored as its lexicographically positive direction vector scaled
to coprime integers.  Every predicate here is an integer-determinant decision:
no floating point anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import DomainError, InvariantError, UnknownElementError
from .matroid import Matroid
from .oriented import CircuitSignature, DeriveFailure, SignaturePair, Verdict, derive_cocircuit_signature
from .signed_sets import GroundSet, SignedSubset, _Frozen, mask_of

if TYPE_CHECKING:
    from fractions import Fraction

Vec = tuple[int, int, int]


def _cross(a: Vec, b: Vec) -> Vec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: Vec, b: Vec) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def det3(a: Vec, b: Vec, c: Vec) -> int:
    return _dot(a, _cross(b, c))


class Line(_Frozen):
    """Direction vector; validated: nonzero, coprime integers, first nonzero component positive."""

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        v = (x, y, z)
        if v == (0, 0, 0):
            raise DomainError("a line needs a nonzero direction")
        if math.gcd(math.gcd(abs(x), abs(y)), abs(z)) != 1:
            raise DomainError(f"direction {v} is not scaled to coprime integers")
        first = next(c for c in v if c != 0)
        if first < 0:
            raise DomainError(f"direction {v} is not lexicographically positive")
        self._fill(v)

    @property
    def vec(self) -> Vec:
        return (self.x, self.y, self.z)

    def __str__(self) -> str:
        return f"{self.x} {self.y} {self.z}"


def lex_canonical(v: Sequence[int | Fraction]) -> Line:
    """Canonical representative of the line through ``v``: lex-positive, coprime."""
    if len(v) != 3:
        raise DomainError("expected a 3-vector")
    if all(isinstance(c, int) for c in v):  # generated vectors: no rational arithmetic needed
        ints = list(v)
    else:
        from fractions import Fraction  # imported on first use: most commands parse no rational

        fracs = [Fraction(c) for c in v]
        denom = math.lcm(*(c.denominator for c in fracs))
        ints = [int(c * denom) for c in fracs]
    if not any(ints):
        raise DomainError("the zero vector spans no line")
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    first = next(c for c in ints if c != 0)
    if first < 0:
        ints = [-c for c in ints]
    return Line(*ints)


class LineSet(_Frozen):
    """Ordered lines through the origin; validated: pairwise non-parallel (distinct)."""

    __slots__ = _fields = ("lines",)

    def __init__(self, lines: tuple[Line, ...]):
        if len(set(lines)) != len(lines):
            raise DomainError("line set contains parallel (identical) lines")
        self._fill((lines,))

    @classmethod
    def of(cls, vectors: Iterable[Sequence[int | Fraction]]) -> "LineSet":
        return cls(tuple(lex_canonical(v) for v in vectors))

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[Line]:
        return iter(self.lines)


def free_witness(q: LineSet) -> tuple[int, int, int] | None:
    """First coplanar triple of distinct lines, or None when the set is free."""
    for i, j, k in itertools.combinations(range(len(q.lines)), 3):
        if det3(q.lines[i].vec, q.lines[j].vec, q.lines[k].vec) == 0:
            return (i, j, k)
    return None


def is_free(q: LineSet) -> Verdict:
    """Free: no three lines coplanar.  Witness is the first coplanar triple."""
    w = free_witness(q)
    return Verdict(w is None, w)


def triple_plane_concurrency(a: Line, b: Line, c: Line, d: Line, e: Line, f: Line) -> bool:
    """Do the planes spanned by ab, cd, ef meet in a common line through 0?

    Each pair must span a plane; the three planes share a line exactly when
    their normals are coplanar.
    """
    normals = []
    for u, v in ((a, b), (c, d), (e, f)):
        n = _cross(u.vec, v.vec)
        if n == (0, 0, 0):
            raise DomainError(f"lines {u} and {v} do not span a plane")
        normals.append(n)
    return det3(*normals) == 0


def pair_normal(a: Line, b: Line) -> Line:
    """Canonical normal of the plane spanned by two non-parallel lines."""
    n = _cross(a.vec, b.vec)
    if n == (0, 0, 0):
        raise DomainError(f"lines {a} and {b} do not span a plane")
    return lex_canonical(n)


def cocircuit_signing(q: LineSet, a: int, b: int, *, negative_points: bool = False) -> "SignedSubset":
    """The signed cocircuit omitting lines a and b of a free set.

    Each remaining line gets the sign of the hemisphere (side of the plane
    spanned by a and b) containing its lexicographically positive point; with
    ``negative_points`` the lexicographically negative point is used instead,
    which yields exactly the opposite signing.
    """
    n = len(q.lines)
    if not (0 <= a < n and 0 <= b < n):
        raise UnknownElementError(f"line indices ({a}, {b}) outside 0..{n - 1}")
    ground = GroundSet.range(n)
    normal = pair_normal(q.lines[a], q.lines[b]).vec
    pos = neg = 0
    for c in range(n):
        if c in (a, b):
            continue
        d = _dot(normal, q.lines[c].vec)
        if d == 0:
            raise DomainError(f"line {c + 1} is coplanar with the pair ({a + 1},{b + 1}): the set is not free")
        if negative_points:
            d = -d
        if d > 0:
            pos |= 1 << c
        else:
            neg |= 1 << c
    return SignedSubset(ground, pos, neg)


def u3_matroid(q: LineSet) -> Matroid:
    """Rank-3 uniform matroid on the lines: circuits are all 4-subsets."""
    n = len(q.lines)
    ground = GroundSet.range(n)
    masks = [mask_of(c) for c in itertools.combinations(range(n), 4)]
    return Matroid._from_valid(ground, masks)


def u3_signature(q: LineSet) -> SignaturePair:
    """Oriented rank-3 uniform matroid realized by a free line set.

    Cocircuits carry the hemisphere signing; the circuit signature is the
    unique one orthogonal to it, obtained by the constructive derivation on
    the dual.
    """
    if len(q.lines) < 4:
        raise DomainError("need at least 4 lines for a rank-3 circuit")
    w = free_witness(q)
    if w is not None:
        raise DomainError(f"line set is not free: lines {tuple(i + 1 for i in w)} are coplanar")
    m = u3_matroid(q)
    reps = [cocircuit_signing(q, a, b) for a, b in itertools.combinations(range(len(q.lines)), 2)]
    cosig = CircuitSignature.from_representatives(m.dual(), reps)
    derived = derive_cocircuit_signature(m.dual(), cosig)
    if isinstance(derived, DeriveFailure):
        raise InvariantError(f"free line set failed to orient: {derived}")
    return SignaturePair(m, derived, cosig)  # the dual's dual is m itself, so derived is over m


def _small_int_vectors() -> Iterator[Vec]:
    """Lex-positive coprime integer vectors, smallest coordinates first."""
    for radius in itertools.count(1):
        span = range(-radius, radius + 1)
        for v in itertools.product(span, repeat=3):
            if max(abs(c) for c in v) != radius:
                continue
            if v == (0, 0, 0):
                continue
            first = next(c for c in v if c != 0)
            if first < 0:
                continue
            if math.gcd(math.gcd(abs(v[0]), abs(v[1])), abs(v[2])) != 1:
                continue
            yield v


def _plane_basis(normal: Vec) -> tuple[Vec, Vec]:
    u = next(v for v in _small_int_vectors() if _dot(v, normal) == 0)
    w = _cross(normal, u)
    return u, w


def _distinct_tuples() -> Iterator[tuple[int, int, int, int, int]]:
    """Index 5-tuples of distinct entries, by largest entry, then lexicographically."""
    for top in itertools.count(4):
        for t in itertools.permutations(range(top + 1), 5):
            if top in t:
                yield t


def neat_prefix(n: int, seed: int = 0) -> LineSet:
    """A free line set grown by the plane-completion recursion.

    Step i consults the next 5-tuple (p1,...,p5) of distinct line indices, by
    largest entry and then lexicographically, once that entry is below i.
    Unless an earlier line already completes the tuple's plane triple, the new
    line lies in the plane through line p5 and the meet of the planes (p1 p2)
    and (p3 p4); otherwise in the first generic plane containing no earlier
    line.  Within the plane the direction avoids every plane spanned by two
    earlier lines, so the prefix is free; ``seed`` offsets the scan.

    Tuples whose pairs share a line s are left out, as they never determine a
    plane: (p1 p2), (p3 p4) and (p5 s) all contain s, so their normals are
    coplanar.  With disjoint pairs, admissible means five distinct indices.

    Only the recursion itself is realized: neatness is an asymptotic property
    of infinite dense sets, meaningless for a finite prefix, so the output is
    verified free but certified nothing more.
    """
    if n < 0:
        raise DomainError("size must be non-negative")
    lines: list[Line] = []
    tuples = _distinct_tuples()
    tup = next(tuples)
    for i in range(n):
        plane_normal = None
        if max(tup) < i:
            plane_normal = _determined_normal(lines, tup)
            tup = next(tuples)
        if plane_normal is None:
            plane_normal = _generic_normal(lines)
        lines.append(_pick_in_plane(lines, plane_normal, seed))
    out = LineSet(tuple(lines))
    w = free_witness(out)
    if w is not None:
        raise InvariantError(f"prefix construction produced a coplanar triple {w}")
    return out


def _determined_normal(lines: list[Line], tup: tuple[int, ...]) -> Vec | None:
    p1, p2, p3, p4, p5 = tup
    n12 = _cross(lines[p1].vec, lines[p2].vec)
    n34 = _cross(lines[p3].vec, lines[p4].vec)
    meet = _cross(n12, n34)
    # A zero meet zeroes every det3 below, so the loop returns None at the first line
    # not parallel to p5; a zero normal puts p5 in plane (p1 p2): None at line p1.
    for line in lines:
        n5j = _cross(lines[p5].vec, line.vec)
        if n5j != (0, 0, 0) and det3(n12, n34, n5j) == 0:
            return None
    return _cross(lines[p5].vec, meet)


def _generic_normal(lines: list[Line]) -> Vec:
    spanned = {pair_normal(a, b) for a, b in itertools.combinations(lines, 2)}
    for v in _small_int_vectors():
        if any(_dot(v, l.vec) == 0 for l in lines):
            continue
        if lex_canonical(v) in spanned:
            continue
        return v
    raise InvariantError("ran out of candidate normals")


def _pick_in_plane(lines: list[Line], normal: Vec, seed: int) -> Line:
    u, w = _plane_basis(normal)
    bad = [
        _cross(a.vec, b.vec)
        for a, b in itertools.combinations(lines, 2)
    ]
    existing = set(lines)
    for step in itertools.count():
        t = seed + (step + 1) // 2 * (1 if step % 2 == 0 else -1)
        v = tuple(u[c] + t * w[c] for c in range(3))
        if v == (0, 0, 0):
            continue
        if any(_dot(v, p) == 0 for p in bad):
            continue
        cand = lex_canonical(v)
        if cand in existing:
            continue
        return cand
    raise InvariantError("unreachable")
