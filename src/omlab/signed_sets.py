"""Value-semantic algebra of signed subsets over a finite ordered ground set.

Elements are referred to by index into a :class:`GroundSet`; sets of elements
are stored as integer bitmasks (bit i = element i).  All values are immutable
and safe to share between workers.

Compositions are taken over finite sequences only.  On a finite ground set
this loses nothing; for infinite families the general notion orders the
members by an arbitrary well-ordering, and whether finite sequences capture
every finite-support composition of an infinite family is left undecided.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, GroundMismatchError, UnknownElementError


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        try:
            m |= 1 << i
        except ValueError:  # only a negative shift count: the index names no element
            raise UnknownElementError(f"negative element index {i}") from None
    return m


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def indices(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


@dataclass(frozen=True)
class GroundSet:
    """Ordered list of distinct element labels; iteration order is fixed."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise DomainError(f"ground-set labels not distinct: {self.labels}")

    def _without(self, dropped: int) -> "GroundSet":
        """The ground set minus the elements of mask ``dropped``; its labels need no distinctness check."""
        ground = object.__new__(GroundSet)
        object.__setattr__(ground, "labels", tuple(x for i, x in enumerate(self.labels) if not dropped >> i & 1))
        return ground

    @cached_property
    def _index(self) -> dict[str, int]:  # built on the first index() call
        return {x: i for i, x in enumerate(self.labels)}

    @classmethod
    def range(cls, n: int) -> "GroundSet":
        """Ground set labelled ``"1"`` .. ``str(n)``."""
        return cls(tuple(str(i) for i in range(1, n + 1)))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElementError(f"unknown element {label!r}") from None

    def check_mask(self, mask: int) -> int:
        if mask < 0:
            raise UnknownElementError(f"negative mask {mask} names no elements of the ground set")
        if mask & ~self.full_mask:
            raise UnknownElementError(f"element indices {sorted(bits(mask & ~self.full_mask))} outside ground set")
        return mask

    def mask_of_labels(self, labels: Iterable[str]) -> int:
        return mask_of(self.index(x) for x in labels)

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits(mask))

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class SignedSubset:
    """A subset of the ground set split into positive and negative parts.

    ``pos`` and ``neg`` are disjoint bitmasks; their union is the support.
    """

    ground: GroundSet
    pos: int
    neg: int

    def __post_init__(self):
        if self.pos & self.neg:
            raise DomainError("positive and negative parts overlap")
        self.ground.check_mask(self.pos | self.neg)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_string(cls, ground: GroundSet, s: str) -> "SignedSubset":
        """Parse a sign-vector string, one of ``+-0`` per ground element."""
        if len(s) != ground.size:
            raise DomainError(f"sign vector {s!r} has length {len(s)}, ground has {ground.size}")
        pos = neg = 0
        for i, c in enumerate(s):
            if c == "+":
                pos |= 1 << i
            elif c == "-":
                neg |= 1 << i
            elif c != "0":
                raise DomainError(f"bad sign character {c!r} in {s!r}")
        return cls(ground, pos, neg)

    @classmethod
    def zero(cls, ground: GroundSet) -> "SignedSubset":
        return cls(ground, 0, 0)

    # -- basic views -------------------------------------------------------

    @property
    def support(self) -> int:
        return self.pos | self.neg

    @property
    def positive(self) -> frozenset[int]:
        return indices(self.pos)

    @property
    def negative(self) -> frozenset[int]:
        return indices(self.neg)

    def sign(self, i: int) -> int:
        b = self.ground.check_mask(mask_of([i]))
        if self.pos & b:
            return 1
        if self.neg & b:
            return -1
        return 0

    def is_empty(self) -> bool:
        return not (self.pos | self.neg)

    def is_positive(self) -> bool:
        """Nonempty support, all positive (the empty subset never qualifies)."""
        return self.pos != 0 and self.neg == 0

    def to_string(self) -> str:
        out = []
        for i in range(self.ground.size):
            b = 1 << i
            out.append("+" if self.pos & b else "-" if self.neg & b else "0")
        return "".join(out)

    def __str__(self) -> str:
        return self.to_string()

    def sort_key(self) -> tuple:
        """Deterministic total order used wherever a least witness is reported."""
        return (tuple(bits(self.support)), self.to_string())

    def _require_same_ground(self, other: "SignedSubset") -> None:
        if self.ground != other.ground:
            raise GroundMismatchError("signed subsets live on different ground sets")

    # -- the algebra -------------------------------------------------------

    def restrict(self, a: int | Iterable[int]) -> "SignedSubset":
        """Restriction to the element set ``a`` (mask or index iterable)."""
        m = a if isinstance(a, int) else mask_of(a)
        self.ground.check_mask(m)
        return SignedSubset(self.ground, self.pos & m, self.neg & m)

    def conforms_to(self, x: "SignedSubset") -> bool:
        """True iff self equals the restriction of ``x`` to self's support."""
        self._require_same_ground(x)
        s = self.support
        return self.pos == x.pos & s and self.neg == x.neg & s

    def orthogonal(self, other: "SignedSubset") -> bool:
        """Disjoint supports, or a sign-agreeing and a sign-disagreeing common element."""
        self._require_same_ground(other)
        common = self.support & other.support
        if not common:
            return True
        agree = (self.pos & other.pos) | (self.neg & other.neg)
        disagree = (self.pos & other.neg) | (self.neg & other.pos)
        return bool(agree & common) and bool(disagree & common)

    def separator(self, other: "SignedSubset") -> frozenset[int]:
        return indices(self.sep_mask(other))

    def sep_mask(self, other: "SignedSubset") -> int:
        self._require_same_ground(other)
        return (self.pos & other.neg) | (self.neg & other.pos)

    def __neg__(self) -> "SignedSubset":
        return SignedSubset(self.ground, self.neg, self.pos)

    def reorient(self, a: int | Iterable[int]) -> "SignedSubset":
        """Swap signs on ``a`` only; support is unchanged."""
        m = a if isinstance(a, int) else mask_of(a)
        self.ground.check_mask(m)
        return SignedSubset(
            self.ground,
            (self.pos & ~m) | (self.neg & m),
            (self.neg & ~m) | (self.pos & m),
        )

    def canonical_rep(self) -> "SignedSubset":
        """Of the pair {X, -X}, the one whose lowest support element is positive."""
        s = self.support
        if not s:
            return self
        low = s & -s
        return self if self.pos & low else -self


def compose(ground: GroundSet, items: Sequence[SignedSubset]) -> SignedSubset:
    """First-writer-wins merge of ``items`` in order.

    The empty sequence composes to the empty signed subset.
    """
    pos = neg = 0
    for x in items:
        if x.ground != ground:
            raise GroundMismatchError("composition mixes ground sets")
        covered = pos | neg
        pos |= x.pos & ~covered
        neg |= x.neg & ~covered
    return SignedSubset(ground, pos, neg)


def compose_pair(x: SignedSubset, y: SignedSubset) -> SignedSubset:
    """x then y: y writes only where x has no support."""
    x._require_same_ground(y)
    s = x.support
    return SignedSubset(x.ground, x.pos | (y.pos & ~s), x.neg | (y.neg & ~s))
