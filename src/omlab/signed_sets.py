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


_setattr = object.__setattr__


class _Frozen:
    """Base of the validated value types: ``__init__`` validates its arguments,
    then sets the fields with ``_setattr``.  Equality (same class only), hash
    and repr go by the tuple of the ``_fields``, and no field can be assigned
    or deleted.  Plain classes, generated by nothing at import time, keep
    ``python -m omlab`` start-up short."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _fill(self, values: tuple) -> None:
        for f, v in zip(self._fields, values):
            _setattr(self, f, v)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Slotted:
    """Base of the mutable slotted classes: pickled by their slots under every protocol."""

    __slots__ = ()

    def __getstate__(self):  # copyreg refuses object's own one for protocols 0 and 1
        return object.__getstate__(self)


class GroundSet(_Frozen):
    """Ordered list of distinct element labels; iteration order is fixed.

    Validated: the labels are distinct.  The instance ``__dict__`` holds the
    label index, built on the first :meth:`index` call, and the labels of the
    ground sets :meth:`_without` builds.
    """

    _fields = ("labels",)

    def __init__(self, labels: tuple[str, ...]):
        if len(set(labels)) != len(labels):
            raise DomainError(f"ground-set labels not distinct: {labels}")
        _setattr(self, "labels", labels)

    def __eq__(self, other):
        return self.labels == other.labels if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.labels,))

    def _without(self, dropped: int) -> "GroundSet":
        """A new ground set minus the elements of mask ``dropped``; its labels need no distinctness
        check and are memoised per ``dropped``."""
        labels = self._kept.get(dropped)
        if labels is None:
            labels = self._kept[dropped] = tuple(x for i, x in enumerate(self.labels) if not dropped >> i & 1)
        ground = object.__new__(GroundSet)
        _setattr(ground, "labels", labels)
        return ground

    @cached_property
    def _kept(self) -> dict[int, tuple[str, ...]]:  # _without's labels, per dropped mask
        return {}

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
        if mask >> len(self.labels):
            raise UnknownElementError(f"element indices {sorted(bits(mask & ~self.full_mask))} outside ground set")
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits(mask))

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


class SignedSubset(_Frozen):
    """A subset of the ground set split into positive and negative parts.

    ``pos`` and ``neg`` are disjoint bitmasks; their union is the support.
    Validated: the parts are disjoint and name only elements of ``ground``.
    """

    __slots__ = _fields = ("ground", "pos", "neg")

    def __init__(self, ground: GroundSet, pos: int, neg: int):
        if pos & neg:
            raise DomainError("positive and negative parts overlap")
        ground.check_mask(pos | neg)
        _setattr(self, "ground", ground)
        _setattr(self, "pos", pos)
        _setattr(self, "neg", neg)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ground, self.pos, self.neg) == (other.ground, other.pos, other.neg)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ground, self.pos, self.neg))

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
