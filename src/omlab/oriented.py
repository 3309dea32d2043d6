"""Circuit/cocircuit signature pairs and their axiom checkers.

Implements the orthogonality check, strong signed circuit elimination,
the 4-painting and Farkas properties, the constructive dual-signature
derivation, minor-induced signatures and sets, special elimination,
vectors, and conformal decomposition.

The exhaustive checkers quantify over exponential families, so each one has
a ground-size cap and an optional seeded sampling fallback.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import CapExceededError, DomainError, GroundMismatchError, InvariantError, ValidationError
from .matroid import Matroid, MinorSpec, _cover, _first_bad_family, relabel
from .signed_sets import GroundSet, SignedSubset, bits, indices, mask_of

FOUR_P_CAP_DEFAULT = 10
CE_CAP_DEFAULT = 10
FA_CAP_DEFAULT = 8


# ---------------------------------------------------------------------------
# signatures


class CircuitSignature:
    """A symmetric signing of every circuit of a matroid.

    Exactly one opposite pair {C, -C} per circuit; a cocircuit signature of M
    is a CircuitSignature over M.dual().
    """

    def __init__(self, matroid: Matroid, signed: Iterable[SignedSubset]):
        self.matroid = matroid
        members = frozenset(signed)
        supports: dict[int, list[SignedSubset]] = {}
        for x in members:
            if x.ground != matroid.ground:
                raise GroundMismatchError("signed subset not on the matroid's ground set")
            supports.setdefault(x.support, []).append(x)
        want = set(matroid.circuit_masks)
        if set(supports) != want:
            missing = want - set(supports)
            extra = set(supports) - want
            raise ValidationError(
                f"signature supports do not match the circuit family "
                f"(missing {sorted(map(bin, missing))}, extra {sorted(map(bin, extra))})"
            )
        for s, group in supports.items():
            if len(group) != 2 or -group[0] != group[1]:
                raise ValidationError(
                    f"support {sorted(bits(s))} must carry exactly one opposite pair of signings"
                )
        self.signed = members
        # of an opposite pair, the least by sort_key is positive on its least element
        self._rep_by_support = {s: group[0].canonical_rep() for s, group in supports.items()}

    @classmethod
    def from_representatives(cls, matroid: Matroid, reps: Iterable[SignedSubset]) -> "CircuitSignature":
        closure: set[SignedSubset] = set()
        for x in reps:
            closure.add(x)
            closure.add(-x)
        return cls(matroid, closure)

    @property
    def ground(self) -> GroundSet:
        return self.matroid.ground

    def representatives(self) -> tuple[SignedSubset, ...]:
        return tuple(self._rep_by_support[s] for s in self.matroid.circuit_masks)

    def by_support(self, support: int | Iterable[int]) -> SignedSubset:
        m = support if isinstance(support, int) else mask_of(support)
        try:
            return self._rep_by_support[m]
        except KeyError:
            raise DomainError(f"{sorted(bits(m))} is not a circuit of this matroid") from None

    def __contains__(self, x: SignedSubset) -> bool:
        return x in self.signed

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircuitSignature):
            return NotImplemented
        return self.matroid == other.matroid and self.signed == other.signed

    def __hash__(self) -> int:
        return hash((self.matroid, self.signed))

    def reorient(self, a: int | Iterable[int]) -> "CircuitSignature":
        m = a if isinstance(a, int) else mask_of(a)
        return CircuitSignature(self.matroid, (x.reorient(m) for x in self.signed))

    def __repr__(self) -> str:
        reps = ", ".join(str(x) for x in self.representatives())
        return f"CircuitSignature({reps})"

    def pair_masks(self) -> list[tuple[int, int, int]]:
        """(pos, neg, support) for one representative per opposite pair."""
        return [(x.pos, x.neg, x.support) for x in self.representatives()]

    def member_masks(self) -> list[tuple[int, int, int]]:
        """(pos, neg, support) for every signed member: each representative, then its negative."""
        return [x for p, m, s in self.pair_masks() for x in ((p, m, s), (m, p, s))]


class SignaturePair:
    """A matroid with a circuit signature and a cocircuit signature."""

    def __init__(self, matroid: Matroid, circuit_sig: CircuitSignature, cocircuit_sig: CircuitSignature):
        if circuit_sig.matroid != matroid:
            raise ValidationError("circuit signature does not belong to the matroid")
        if cocircuit_sig.matroid != matroid.dual():
            raise ValidationError("cocircuit signature does not belong to the dual matroid")
        self.matroid = matroid
        self.circuit_sig = circuit_sig
        self.cocircuit_sig = cocircuit_sig

    @property
    def ground(self) -> GroundSet:
        return self.matroid.ground

    def dual(self) -> "SignaturePair":
        return SignaturePair(self.matroid.dual(), self.cocircuit_sig, self.circuit_sig)

    def reorient(self, a: int | Iterable[int]) -> "SignaturePair":
        m = a if isinstance(a, int) else mask_of(a)
        return SignaturePair(self.matroid, self.circuit_sig.reorient(m), self.cocircuit_sig.reorient(m))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignaturePair):
            return NotImplemented
        return (
            self.matroid == other.matroid
            and self.circuit_sig == other.circuit_sig
            and self.cocircuit_sig == other.cocircuit_sig
        )

    def __hash__(self) -> int:
        return hash((self.matroid, self.circuit_sig, self.cocircuit_sig))

    def __repr__(self) -> str:
        return (
            f"SignaturePair(ground={list(self.ground.labels)}, "
            f"{len(self.matroid.circuit_masks)} circuits, "
            f"{len(self.matroid.dual().circuit_masks)} cocircuits)"
        )


@dataclass(frozen=True)
class FourPartition:
    """Disjoint cover of the ground set by black/white/green/red classes."""

    ground: GroundSet
    black: frozenset[int]
    white: frozenset[int]
    green: frozenset[int]
    red: frozenset[int]

    def __post_init__(self):
        masks = [mask_of(self.black), mask_of(self.white), mask_of(self.green), mask_of(self.red)]
        total = 0
        for m in masks:
            if m & total:
                raise DomainError("4-partition classes overlap")
            total |= m
        if total != self.ground.full_mask:
            raise DomainError("4-partition does not cover the ground set")

    @classmethod
    def from_masks(cls, ground: GroundSet, b: int, w: int, g: int, r: int) -> "FourPartition":
        return cls(ground, indices(b), indices(w), indices(g), indices(r))


@dataclass(frozen=True)
class EliminationInstance:
    """Data of one strong-elimination instance: C, X, (C_x | x in X), f."""

    circuit: SignedSubset
    members: tuple[tuple[int, SignedSubset], ...]
    retained: int

    def __post_init__(self):
        c = self.circuit
        sep_union = 0
        for x, cx in self.members:
            if cx.ground != c.ground:
                raise GroundMismatchError("elimination family mixes ground sets")
            xb = 1 << x
            if not c.support & xb:
                raise DomainError(f"{x} is not in the support of the eliminated circuit")
            if cx.support & self.x_mask != xb:
                raise DomainError(f"family member for {x} must meet X exactly in {{{x}}}")
            sep = c.sep_mask(cx)
            if not sep & xb:
                raise DomainError(f"{x} must be a separating element of C and C_{x}")
            sep_union |= sep
        fb = 1 << self.retained
        if not c.support & fb or sep_union & fb:
            raise DomainError("retained element must lie in C's support outside every separator")

    @classmethod
    def of(cls, circuit: SignedSubset, family: dict[int, SignedSubset], retained: int) -> "EliminationInstance":
        return cls(circuit, tuple(sorted(family.items())), retained)

    @property
    def x_mask(self) -> int:
        return mask_of(x for x, _ in self.members)

    @property
    def eliminated(self) -> frozenset[int]:
        return frozenset(x for x, _ in self.members)

    @property
    def family(self) -> dict[int, SignedSubset]:
        return dict(self.members)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Verdict:
    """Outcome of a checker; falsy iff a violation was found."""

    ok: bool
    witness: object = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class OrthViolation:
    circuit: SignedSubset
    cocircuit: SignedSubset

    def __str__(self) -> str:
        return f"circuit {self.circuit} not orthogonal to cocircuit {self.cocircuit}"


@dataclass(frozen=True)
class FPViolation:
    element: int
    kind: str  # "neither" or "both"

    def __str__(self) -> str:
        return f"element {self.element}: {self.kind} side has a positive member through it"


@dataclass(frozen=True)
class FourPViolation:
    partition: FourPartition
    element: int

    def __str__(self) -> str:
        g = self.partition.ground
        return (
            f"element {g.labels[self.element]} under painting "
            f"B={sorted(g.labels[i] for i in self.partition.black)} "
            f"W={sorted(g.labels[i] for i in self.partition.white)} "
            f"G={sorted(g.labels[i] for i in self.partition.green)} "
            f"R={sorted(g.labels[i] for i in self.partition.red)}"
        )


@dataclass(frozen=True)
class CEViolation:
    instance: EliminationInstance

    def __str__(self) -> str:
        inst = self.instance
        return (
            f"no admissible circuit through {inst.retained} when eliminating "
            f"{sorted(inst.eliminated)} from {inst.circuit}"
        )


@dataclass(frozen=True)
class FAViolation:
    spec: MinorSpec
    reorient: frozenset[int]
    fp: FPViolation

    def __str__(self) -> str:
        return (
            f"minor contract={sorted(self.spec.contract)} delete={sorted(self.spec.delete)} "
            f"reorient={sorted(self.reorient)}: {self.fp}"
        )


@dataclass(frozen=True)
class DeriveFailure:
    """A constructed cocircuit not orthogonal to some signed circuit."""

    circuit: SignedSubset
    cocircuit: SignedSubset

    def __str__(self) -> str:
        return f"derived cocircuit {self.cocircuit} conflicts with circuit {self.circuit}"


@dataclass(frozen=True)
class DecomposeFailure:
    """No conforming circuit exists through this support element."""

    element: int

    def __str__(self) -> str:
        return f"no conforming circuit through element {self.element}"


# ---------------------------------------------------------------------------
# orthogonality


def check_orthogonality(pair: SignaturePair) -> Verdict:
    """(O): every signed circuit is orthogonal to every signed cocircuit."""
    for c in pair.circuit_sig.representatives():
        for u in pair.cocircuit_sig.representatives():
            if not c.orthogonal(u):
                return Verdict(False, OrthViolation(c, u))
    return Verdict(True)


def check_orthogonality_sep(pair: SignaturePair) -> Verdict:
    """(O'): sep(C,U) nonempty iff sep(C,-U) nonempty, for all pairs."""
    for c in pair.circuit_sig.representatives():
        for u in pair.cocircuit_sig.representatives():
            if bool(c.sep_mask(u)) != bool(c.sep_mask(-u)):
                return Verdict(False, OrthViolation(c, u))
    return Verdict(True)


# ---------------------------------------------------------------------------
# dual-signature derivation (constructive)


def derive_cocircuit_signature(matroid: Matroid, csig: CircuitSignature) -> CircuitSignature | DeriveFailure:
    """Construct the unique cocircuit signature orthogonal to ``csig``.

    Anchors each cocircuit at its smallest element e_U with sign +, then signs
    every other element through the least circuit meeting the cocircuit in
    exactly those two elements.  Fails (with a witness) when no orthogonal
    completion exists, i.e. when ``csig`` lacks strong elimination.
    """
    if csig.matroid != matroid:
        raise DomainError("signature does not belong to the matroid")
    dual = matroid.dual()
    ground = matroid.ground
    reps = []
    for u_mask in dual.circuit_masks:
        e_u = u_mask & -u_mask
        pos, neg = e_u, 0
        for e in bits(u_mask ^ e_u):
            want = e_u | (1 << e)
            chosen = next((c_mask for c_mask in matroid.circuit_masks if c_mask & u_mask == want), None)
            if chosen is None:
                raise InvariantError(
                    f"no circuit meets cocircuit {sorted(bits(u_mask))} exactly in the anchor pair"
                )
            c = csig.by_support(chosen)
            anchor_sign = 1 if c.pos & e_u else -1
            here_sign = 1 if c.pos & (1 << e) else -1
            if -anchor_sign * here_sign > 0:
                pos |= 1 << e
            else:
                neg |= 1 << e
        reps.append(SignedSubset(ground, pos, neg))
    cosig = CircuitSignature.from_representatives(dual, reps)
    orth = check_orthogonality(SignaturePair(matroid, csig, cosig))
    if not orth:
        return DeriveFailure(orth.witness.circuit, orth.witness.cocircuit)
    return cosig


def check_signature_uniqueness(
    matroid: Matroid, csig: CircuitSignature, candidate_a: CircuitSignature, candidate_b: CircuitSignature
) -> bool:
    """True iff two (O)-compatible cocircuit signatures coincide as sets."""
    for cand in (candidate_a, candidate_b):
        if not check_orthogonality(SignaturePair(matroid, csig, cand)):
            raise DomainError("candidate cocircuit signature is not (O)-compatible with the circuit signature")
    return candidate_a.signed == candidate_b.signed


# ---------------------------------------------------------------------------
# minors


def induced_signature(pair: SignaturePair, spec: MinorSpec) -> SignaturePair:
    """The induced sets of mode ``"circuits"`` as a signature pair on the minor.

    Requires (O) implicitly: if two lifts of the same minor circuit restrict
    to non-opposite signings, the induction is ill-defined and an upstream
    (O) violation is reported.
    """
    got = induced_sets(pair, spec)
    n = got.minor
    sides = ((n, got.circuits_side), (n.dual(), got.cocircuits_side))
    for matroid, members in sides:
        if len(members) > 2 * len(matroid.circuit_masks):
            raise ValidationError(
                "induced signing depends on the choice of lift; the signature pair violates (O)"
            )
    return SignaturePair(n, *(CircuitSignature(matroid, members) for matroid, members in sides))


class InducedSets(NamedTuple):
    circuits_side: frozenset[SignedSubset]
    cocircuits_side: frozenset[SignedSubset]
    minor: Matroid


def induced_sets(pair: SignaturePair, spec: MinorSpec, mode: str = "circuits") -> InducedSets:
    """The sets of restricted signed subsets a minor inherits.

    A side keeps the members whose support avoids what that side drops: the
    deleted elements for circuits, the contracted ones for cocircuits.
    ``mode`` selects the inherited family: ``"circuits"`` keeps restrictions
    of signed (co)circuits whose restricted support is a (co)circuit of the
    minor; ``"tilde"`` drops that support condition; ``"vectors"`` restricts
    whole (co)vectors.  The latter two are experimental alternatives.
    """
    n, _ = pair.matroid.minor_with_map(spec)
    down = relabel(spec.contract_mask | spec.delete_mask)
    sides = []
    for sig, minor, avoid in (
        (pair.circuit_sig, n, spec.delete_mask),
        (pair.cocircuit_sig, n.dual(), spec.contract_mask),
    ):
        # restriction commutes with negation, so a member's negative is added with it and
        # a signature's representatives cover all its members
        members = vectors(sig) if mode == "vectors" else sig.representatives()
        minor_circuits = frozenset(minor.circuit_masks)
        out = set()
        for x in members:
            if x.support & avoid:
                continue
            support = down(x.support)
            if mode == "circuits" and support not in minor_circuits:
                continue
            pos = down(x.pos)
            out.add(SignedSubset(n.ground, pos, support & ~pos))
            out.add(SignedSubset(n.ground, support & ~pos, pos))
        sides.append(frozenset(out))
    return InducedSets(*sides, n)


# ---------------------------------------------------------------------------
# Farkas property


def fp_report(
    s_members: Iterable[SignedSubset], t_members: Iterable[SignedSubset], ground: GroundSet
) -> dict[int, tuple[str, SignedSubset] | None]:
    """Per element: the side and least positive member through it, or None.

    An element mapping to None or to witnesses on both sides violates (FP);
    "positive" requires a nonempty support, so the empty subset never counts.
    """
    s_pos = sorted((x for x in s_members if x.is_positive()), key=lambda x: x.sort_key())
    t_pos = sorted((x for x in t_members if x.is_positive()), key=lambda x: x.sort_key())
    report: dict[int, tuple[str, SignedSubset] | None] = {}
    for e in range(ground.size):
        b = 1 << e
        s_hit = next((x for x in s_pos if x.pos & b), None)
        t_hit = next((x for x in t_pos if x.pos & b), None)
        if s_hit is not None and t_hit is None:
            report[e] = ("S", s_hit)
        elif t_hit is not None and s_hit is None:
            report[e] = ("T", t_hit)
        else:
            report[e] = None
    return report


def check_FP(
    s_members: Iterable[SignedSubset], t_members: Iterable[SignedSubset], ground: GroundSet
) -> Verdict:
    """(FP): each element lies in a positive member of exactly one side."""
    s_cover = t_cover = 0
    for x in s_members:
        if x.ground != ground:
            raise GroundMismatchError("FP sides live on different ground sets")
        if x.is_positive():
            s_cover |= x.pos
    for y in t_members:
        if y.ground != ground:
            raise GroundMismatchError("FP sides live on different ground sets")
        if y.is_positive():
            t_cover |= y.pos
    fp = _fp_violation(s_cover, t_cover, ground.full_mask)
    return Verdict(True) if fp is None else Verdict(False, fp)


def _fp_violation(s_cover: int, t_cover: int, ground_mask: int) -> FPViolation | None:
    """The first element both sides cover, else the first neither side covers."""
    both = s_cover & t_cover
    if both:
        return FPViolation((both & -both).bit_length() - 1, "both")
    neither = ground_mask & ~(s_cover | t_cover)
    if neither:
        return FPViolation((neither & -neither).bit_length() - 1, "neither")
    return None


# ---------------------------------------------------------------------------
# exhaust or sample: the cap, sampling and batch loop shared by (4P), (CE) and (FA)


def _exhaust_or_sample(
    axiom: str, unit: str, n: int, cap: int, sample: int | None, seed: int, exhaustive, sampled, first_bad
) -> Verdict:
    """Run a checker exhaustively up to the cap, or on ``sample`` seeded draws.

    ``exhaustive()`` yields the checker's batches in enumeration order and
    ``sampled(rng)`` draws its batches from one ``random.Random(seed)``;
    ``first_bad(batch)`` returns the batch's first witness or None.  The
    verdict carries the first witness of the first failing batch.
    """
    if sample is not None:
        if sample < 1:
            raise DomainError(f"sampling needs at least one trial (got {sample})")
        batches = sampled(random.Random(seed))
        detail = f"sampled {sample} {unit}, seed={seed}"
    elif n > cap:
        raise CapExceededError(
            f"exhaustive ({axiom}) needs ground size <= {cap} (got {n}); use sampling instead"
        )
    else:
        batches = exhaustive()
        detail = ""
    for batch in batches:
        witness = first_bad(batch)
        if witness is not None:
            return Verdict(False, witness, detail)
    return Verdict(True, detail=detail)


# ---------------------------------------------------------------------------
# 4-painting property
#
# Bit-sliced evaluation (Biham, FSE 1997): every element carries one plane
# per color, a big int whose bit j says that painting j gives the element
# that color, so one pass over the (co)circuits decides a whole batch.

_BLOCK_ELEMENTS = 8  # exhaustive blocks paint the last 8 elements all 4^8 ways
_SAMPLE_BATCH = 1024  # sampled paintings per pass; small, so a witness stops the draws early
_COLOR_DIGITS = tuple(bytes(48 + (i == c) for i in range(256)) for c in range(4))  # color c -> b"1"


def _paint_bad(circ, cocirc, planes: list[tuple[int, ...]]) -> tuple[list[int], list[int], list[int]]:
    """Per element, the paintings in which it fails the exactly-one alternative.

    ``planes[e]`` holds element e's (B, W, G, R) planes; ``circ`` and
    ``cocirc`` hold (pos, neg, support, live).  A circuit (cocircuit) serves
    the paintings of ``live`` where it avoids R (G) and its signs agree, up
    to a global sign, with B positive and W negative.  Also returns, per
    element, where served circuits and served cocircuits pass through it.
    """

    def served(members, avoid: int) -> list[int]:
        out = [0] * len(planes)
        for p, m, s, live in members:
            blocked = plus_bad = minus_bad = 0
            for e in bits(p):
                col = planes[e]
                blocked |= col[avoid]
                minus_bad |= col[0]
                plus_bad |= col[1]
            for e in bits(m):
                col = planes[e]
                blocked |= col[avoid]
                plus_bad |= col[0]
                minus_bad |= col[1]
            hit = live & ~(blocked | (plus_bad & minus_bad))
            if hit:
                for e in bits(s):
                    out[e] |= hit
        return out

    us = served(circ, 3)
    ut = served(cocirc, 2)
    return [(b | w) & ~(x ^ y) for (b, w, _, _), x, y in zip(planes, us, ut)], us, ut


@functools.cache
def _block_suffix(k: int) -> tuple[tuple[int, int, int, int], ...]:
    """The (B, W, G, R) planes of the last k elements over a block's 4^k paintings."""
    ones = (1 << 4**k) - 1
    suffix = []
    for q in range(k - 1, -1, -1):  # element n - k + t is base-4 digit k - 1 - t of j
        run = 4**q
        # digit q of j is 0 (black) on the first run bits of every 4 * run, and
        # ones // (2^(4 run) - 1) has bit 0 of every 4 * run set
        black = ones // ((1 << 4 * run) - 1) * ((1 << run) - 1)
        suffix.append(tuple(black << c * run for c in range(4)))
    return tuple(suffix)


def _exhaustive_paintings(n: int):
    """Batches (planes, full, colors_of) over all 4^n paintings in product order.

    Each block fixes a prefix of the first n - k colors in
    ``itertools.product`` order and paints the last k elements every way, so
    bit j of a block is the block's j-th painting in the same order.
    """
    k = min(n, _BLOCK_ELEMENTS)
    full = (1 << 4**k) - 1
    digits = range(k - 1, -1, -1)
    constant = [(full, 0, 0, 0), (0, full, 0, 0), (0, 0, full, 0), (0, 0, 0, full)]
    for prefix in itertools.product(range(4), repeat=n - k):
        planes = [constant[col] for col in prefix] + [*_block_suffix(k)]
        yield planes, full, lambda j, prefix=prefix: prefix + tuple((j >> 2 * q) & 3 for q in digits)


def _sampled_paintings(n: int, sample: int, paint):
    """Batches (planes, full, colors_of) of ``sample`` paintings, each ``paint()``'s n colors.

    Bit j of a batch is its j-th painting.
    """
    for start in range(0, sample, _SAMPLE_BATCH):
        count = min(_SAMPLE_BATCH, sample - start)
        draws = b"".join(bytes(paint()) for _ in range(count))
        planes = [tuple(int(draws[e::n].translate(d)[::-1], 2) for d in _COLOR_DIGITS) for e in range(n)]
        yield planes, (1 << count) - 1, lambda j, draws=draws: tuple(draws[j * n : (j + 1) * n])


def check_4P_at(pair: SignaturePair, partition: FourPartition, focus: int) -> bool:
    """Exactly-one alternative of the painting property at a single partition."""
    if partition.ground != pair.ground:
        raise GroundMismatchError("partition lives on a different ground set")
    if not 0 <= focus < pair.ground.size:
        raise DomainError(f"focus element {focus} outside the ground set")
    b, w = mask_of(partition.black), mask_of(partition.white)
    g, r = mask_of(partition.green), mask_of(partition.red)
    if not (b | w) >> focus & 1:
        raise DomainError("focus element must be painted black or white")
    planes = [(b >> e & 1, w >> e & 1, g >> e & 1, r >> e & 1) for e in range(pair.ground.size)]
    members = [[(*x, 1) for x in sig.pair_masks()] for sig in (pair.circuit_sig, pair.cocircuit_sig)]
    return not _paint_bad(*members, planes)[0][focus]


def check_4P(
    pair: SignaturePair, *, cap: int = FOUR_P_CAP_DEFAULT, sample: int | None = None, seed: int = 0
) -> Verdict:
    """(4P): for every 4-partition and focus element, exactly one alternative.

    Exhaustive over all 4^n partitions up to the cap; above it a seeded
    random sample of partitions must be requested explicitly.  The witness is
    the first violating partition in enumeration (or draw) order, focused on
    its least failing element.
    """
    ground = pair.ground
    n = ground.size
    circ_pairs = pair.circuit_sig.pair_masks()
    cocirc_pairs = pair.cocircuit_sig.pair_masks()

    def first_bad(batch) -> FourPViolation | None:
        planes, full, colors_of = batch
        bad = _paint_bad([(*x, full) for x in circ_pairs], [(*x, full) for x in cocirc_pairs], planes)[0]
        any_bad = functools.reduce(int.__or__, bad, 0)
        if not any_bad:
            return None
        j = (any_bad & -any_bad).bit_length() - 1
        e = next(e for e, x in enumerate(bad) if x >> j & 1)
        masks = [0, 0, 0, 0]
        for i, col in enumerate(colors_of(j)):
            masks[col] |= 1 << i
        return FourPViolation(FourPartition.from_masks(ground, *masks), e)

    return _exhaust_or_sample(
        "4P", "partitions", n, cap, sample, seed,
        lambda: _exhaustive_paintings(n),
        lambda rng: _sampled_paintings(n, sample, lambda: [rng.randrange(4) for _ in range(n)]),
        first_bad,
    )


# ---------------------------------------------------------------------------
# strong signed circuit elimination


def check_CE(
    sig: CircuitSignature, *, cap: int = CE_CAP_DEFAULT, sample: int | None = None, seed: int = 0
) -> Verdict:
    """(CE): every elimination instance admits a sign-conforming circuit.

    For each representative C and subset X of its support, in canonical
    order, the candidate members for each x in X are packed as
    ``pos | neg << n``.  Admissibility depends on a family only through the
    OR of its members, so ``matroid._first_bad_family`` searches the
    distinct unions and returns the first failing family in enumeration
    order, and the bit-sliced ``matroid._cover`` tells which retained
    elements an admissible member covers.  A sampled draw is one such
    instance with one drawn member per level and one drawn retained element.
    """
    ground = sig.ground
    n = ground.size
    full = ground.full_mask
    reps = sig.representatives()
    packed = [p | m << n for p, m, _ in sig.member_masks()]
    cover = _cover(packed, n)
    # members whose negative / positive part contains e: the options against a
    # positive / negative sign of C at e
    against = [
        ([d for d in packed if d >> (e + n) & 1], [d for d in packed if d >> e & 1]) for e in range(n)
    ]
    tested = 0  # sampled draws with a nonempty range of f, as opposed to skipped ones

    def options(cm: int, x_combo: tuple[int, ...]) -> list[list[int]]:
        x = mask_of(x_combo)
        xx = x | x << n
        cand = []
        for xi in x_combo:
            others = xx & ~(1 << xi | 1 << (xi + n))
            cand.append([d for d in against[xi][cm >> xi & 1] if not d & others])
        return cand

    def exhaustive():
        for c in reps:
            xs = list(bits(c.support))
            for size in range(1, len(xs) + 1):
                for x_combo in itertools.combinations(xs, size):
                    cand = options(c.neg, x_combo)
                    if all(cand):
                        yield c, x_combo, cand, c.support

    def sampled(rng: random.Random):
        nonlocal tested
        if not reps:
            return
        for _ in range(sample):
            c = reps[rng.randrange(len(reps))]
            support = list(bits(c.support))
            x_combo = tuple(sorted(rng.sample(support, rng.randrange(1, len(support) + 1))))
            family = []
            u = 0
            for level in options(c.neg, x_combo):
                if not level:
                    break
                d = level[rng.randrange(len(level))]
                family.append([d])
                u |= d
            else:
                frange = list(bits(c.support & ~((c.pos & u >> n) | (c.neg & u))))
                if frange:
                    tested += 1
                    yield c, x_combo, family, 1 << frange[rng.randrange(len(frange))]

    def first_bad(batch) -> CEViolation | None:
        # ``keep``: the elements C may retain, all of C or the one drawn
        c, x_combo, cand, keep = batch
        cp, cm = c.pos, c.neg
        ck = cp | cm << n
        x = mask_of(x_combo)
        xx = x | x << n

        def bad(u: int) -> int:
            frange = keep & ~((cp & u >> n) | (cm & u))
            return frange and frange & ~cover((ck | u) & ~xx)

        found = _first_bad_family(cand, bad)
        if found is None:
            return None
        fam, u = found
        got = bad(u)
        family = {xi: SignedSubset(ground, d & full, d >> n) for xi, d in zip(x_combo, fam)}
        return CEViolation(EliminationInstance.of(c, family, (got & -got).bit_length() - 1))

    verdict = _exhaust_or_sample("CE", "instances", n, cap, sample, seed, exhaustive, sampled, first_bad)
    if sample is None:
        return verdict
    if not reps:
        return Verdict(True, detail="empty family: no elimination instances")
    return Verdict(verdict.ok, verdict.witness, f"{verdict.detail}, {tested} admissible tested")


# ---------------------------------------------------------------------------
# Farkas axiom (FA)
#
# The (4P) kernel decides (FA) too: read the colors as keep (B), keep
# reversed (W), contract (G) and delete (R), and each painting is one minor
# with one reorientation of its kept elements.


class _Inside(dict):
    """Memo of the positions whose set contains all of mask x; starts as {0: full}, needs ``planes``."""

    def __missing__(self, x: int) -> int:
        low = x & -x
        got = self[x] = self[x ^ low] & self.planes[low.bit_length() - 1]
        return got


def _live_planes(masks: list[int], planes: list[int], full: int) -> list[int]:
    """Per member s of ``masks``, the positions where s \\ f is a circuit of the contraction by f.

    ``planes[e]`` holds the positions whose set f contains e.  s \\ f is a
    minimal nonempty set D \\ f exactly when s is not inside f and no member D
    has D \\ s inside f, D not inside f and s \\ D not inside f.
    """
    inside = _Inside({0: full})
    inside.planes = planes
    out = []
    for s in masks:
        dead = inside[s]
        for d in masks:
            dead |= inside[d & ~s] & ~inside[d] & ~inside[s & ~d]
        out.append(full & ~dead)
    return out


def _fa_members(circ_pairs, cocirc_pairs, batch):
    """A painting batch's (FA) members per side, (pos, neg, support, live) for ``_paint_bad``.

    A circuit is live where its support minus the contracted set (color 2) is
    a circuit of the contraction; cocircuits read the deleted set (color 3).
    ``_live_planes`` decides both from the batch's own planes of that color.
    """
    planes, full, _ = batch

    def members(reps, color):
        live = _live_planes([s for *_, s in reps], [col[color] for col in planes], full)
        return [(*x, alive) for x, alive in zip(reps, live)]

    return members(circ_pairs, 2), members(cocirc_pairs, 3)


def _fa_first(bad: int, planes: list[tuple[int, int, int, int]]) -> int:
    """The position of ``bad`` first in (FA) order: the minor, then the reorientation mask."""
    for b, w, g, r in planes:
        bad &= next(part for part in (b | w, g, r) if bad & part)
    for b, _, _, _ in reversed(planes):
        if bad & b:
            bad &= b
    return bad.bit_length() - 1


def check_FA(
    pair: SignaturePair, *, cap: int = FA_CAP_DEFAULT, sample: int | None = None, seed: int = 0
) -> Verdict:
    """(FA): every minor's induced sets have (FP) under every reorientation.

    Runs the (4P) kernel with the colors read as keep, keep reversed,
    contract and delete, so each painting is one minor/reorientation pair.
    A signed circuit counts where its support avoids the deleted set and
    stays a circuit after contracting f; ``_fa_members`` decides that per
    batch of paintings, from the batch's own planes.  Cocircuits swap
    contraction and deletion.
    The witness is the first failing pair in (FA) order: the minor in product
    order (keep < contract < delete, element 0 first), then the reorientation
    mask as an integer.  A sample draws ``randrange(3)`` per element, then
    ``randrange(2)`` per kept element, and reports the first failing draw.
    """
    n = pair.ground.size
    circ_pairs, cocirc_pairs = pair.circuit_sig.pair_masks(), pair.cocircuit_sig.pair_masks()

    def sampled(rng: random.Random):
        def paint():
            states = [rng.randrange(3) for _ in range(n)]
            return [s + 1 if s else rng.randrange(2) for s in states]  # keep: 0, or 1 when reversed

        return (([batch], False) for batch in _sampled_paintings(n, sample, paint))

    def first_bad(batch) -> FAViolation | None:
        batches, ordered = batch
        found = []
        for paintings in batches:
            planes, _, colors_of = paintings
            bad, us, ut = _paint_bad(*_fa_members(circ_pairs, cocirc_pairs, paintings), planes)
            any_bad = functools.reduce(int.__or__, bad, 0)
            if any_bad:
                j = _fa_first(any_bad, planes) if ordered else (any_bad & -any_bad).bit_length() - 1
                colors = colors_of(j)
                kept = [e for e, c in enumerate(colors) if c < 2]
                fp = _fp_violation(*(mask_of(e for e in kept if u[e] >> j & 1) for u in (us, ut)), mask_of(kept))
                f, g, a = (frozenset(e for e, c in enumerate(colors) if c == color) for color in (2, 3, 1))
                key = [max(c - 1, 0) for c in colors], [c == 1 for c in reversed(colors)]
                found.append((key, FAViolation(MinorSpec(f, g), a, fp)))
        return min(found, key=lambda item: item[0])[1] if found else None

    return _exhaust_or_sample(
        "FA", "minor/reorientation pairs", n, cap, sample, seed,
        lambda: [(_exhaustive_paintings(n), True)],  # one batch: the (FA)-order first witness may lie in any block
        sampled, first_bad,
    )


def fa_gap_witness(
    pair: SignaturePair,
    *,
    cap: int = FA_CAP_DEFAULT,
    sample: int | None = None,
    seed: int = 0,
) -> FAViolation | None:
    """Hunt for a pair with the painting property but without the Farkas axiom.

    Whether (4P) alone implies (FA) is open; this harness reports a
    counterexample when one is found and None otherwise.  Finite ground sets
    cannot settle the question, so None is the expected outcome here.
    """
    if not check_4P(pair, cap=max(cap, FOUR_P_CAP_DEFAULT), sample=sample, seed=seed):
        return None
    verdict = check_FA(pair, cap=cap, sample=sample, seed=seed)
    if verdict:
        return None
    return verdict.witness


# ---------------------------------------------------------------------------
# special elimination (orthogonality refines ordinary elimination)


def special_eliminate(pair: SignaturePair, inst: EliminationInstance) -> SignedSubset:
    """A circuit D with f in its support, D(f) = C(f), avoiding X.

    Follows the constructive route: X + f is coindependent in the restriction
    to the union of supports, extend to a cobasis, take the fundamental
    circuit of f, and orient it to agree with C at f.
    """
    return _eliminate(pair, inst, avoid=0)


def eliminate_avoiding(pair: SignaturePair, inst: EliminationInstance, offending: int) -> SignedSubset:
    """Like special_eliminate but the result also avoids one offending element.

    ``offending`` must witness a failed sign inclusion of the base result:
    it lies in D^- while only the allowed positive part covers it, or
    vice versa.
    """
    base = special_eliminate(pair, inst)
    apos = inst.circuit.pos
    aneg = inst.circuit.neg
    for _, cx in inst.members:
        apos |= cx.pos
        aneg |= cx.neg
    off = 1 << offending
    if not ((base.neg & (apos & ~aneg) & off) or (base.pos & (aneg & ~apos) & off)):
        raise DomainError(f"element {offending} is not an offending element for the derived circuit")
    return _eliminate(pair, inst, avoid=off)


def _eliminate(pair: SignaturePair, inst: EliminationInstance, avoid: int) -> SignedSubset:
    m = pair.matroid
    c = inst.circuit
    if c not in pair.circuit_sig:
        raise DomainError("eliminated circuit is not in the signature")
    for _, cx in inst.members:
        if cx not in pair.circuit_sig:
            raise DomainError("family member is not in the signature")
    g = c.support
    for _, cx in inst.members:
        g |= cx.support
    x = inst.x_mask
    fb = 1 << inst.retained
    blocked = x | fb | avoid
    rank_g = m.rank(g)
    if m.rank(g & ~blocked) != rank_g:
        raise InvariantError(
            "X plus the retained element is not coindependent in the restriction; "
            "this contradicts the special-elimination guarantee"
        )
    cobasis = blocked
    for i in bits(g & ~blocked):
        cand = cobasis | (1 << i)
        if m.rank(g & ~cand) == rank_g:
            cobasis = cand
    basis = g & ~cobasis
    allowed = basis | fb
    support = next((cm for cm in m.circuit_masks if cm & fb and not cm & ~allowed), None)
    if support is None:
        raise InvariantError("no fundamental circuit through the retained element")
    d = pair.circuit_sig.by_support(support)
    c_sign = 1 if c.pos & fb else -1
    d_sign = 1 if d.pos & fb else -1
    return d if c_sign == d_sign else -d


# ---------------------------------------------------------------------------
# vectors and conformal decomposition


def vectors(sig: CircuitSignature, support_cap: int | None = None) -> frozenset[SignedSubset]:
    """All compositions of signed circuits: binary-composition fixpoint.

    ``support_cap`` prunes to vectors with support size at most the cap;
    pruning is safe because composition only grows supports.
    """
    ground = sig.ground

    def keep(p: int, n: int) -> bool:
        return support_cap is None or (p | n).bit_count() <= support_cap

    result: set[tuple[int, int]] = set()
    queue: deque[tuple[int, int]] = deque()
    for s in sig.signed:
        key = (s.pos, s.neg)
        if keep(*key) and key not in result:
            result.add(key)
            queue.append(key)
    while queue:
        xp, xn = queue.popleft()
        xs = xp | xn
        for yp, yn in list(result):
            ys = yp | yn
            for key in (
                (xp | (yp & ~xs), xn | (yn & ~xs)),
                (yp | (xp & ~ys), yn | (xn & ~ys)),
            ):
                if keep(*key) and key not in result:
                    result.add(key)
                    queue.append(key)
    return frozenset(SignedSubset(ground, p, n) for p, n in result)


def conformal_decompose(
    pair: SignaturePair,
    target: SignedSubset,
    *,
    trust_4p: bool = False,
    cap_4p: int = FOUR_P_CAP_DEFAULT,
) -> list[SignedSubset] | DecomposeFailure:
    """Signed circuits conforming to ``target`` whose composition is ``target``.

    Greedy cover: for every support element pick the least conforming circuit
    through it.  Preconditions: the pair satisfies (4P) (checked unless
    trusted) and ``target`` is orthogonal to every signed cocircuit.
    """
    if target.ground != pair.ground:
        raise GroundMismatchError("target lives on a different ground set")
    if not trust_4p:
        verdict = check_4P(pair, cap=cap_4p)
        if not verdict:
            raise DomainError(f"pair fails (4P): {verdict.witness}")
    for u in pair.cocircuit_sig.representatives():
        if not target.orthogonal(u):
            raise DomainError(f"target is not orthogonal to cocircuit {u}")
    chosen: list[SignedSubset] = []
    seen: set[SignedSubset] = set()
    reps = sorted(pair.circuit_sig.signed, key=lambda s: s.sort_key())
    for e in bits(target.support):
        b = 1 << e
        hit = next((c for c in reps if c.support & b and c.conforms_to(target)), None)
        if hit is None:
            return DecomposeFailure(e)
        if hit not in seen:
            seen.add(hit)
            chosen.append(hit)
    return chosen


# ---------------------------------------------------------------------------
# canonical example generator


def alternating_rank2(n: int) -> SignaturePair:
    """Rank-2 uniform matroid on n elements with the alternating signing.

    Circuits are all triples signed (+,-,+) in ground order; each cocircuit
    omits one element i and carries opposite signs on the two legs around i:
    plus before it, minus after it.
    """
    if n < 3:
        raise DomainError("the alternating truncation needs at least 3 elements")
    ground = GroundSet.range(n)
    triples = [mask_of(c) for c in itertools.combinations(range(n), 3)]
    m = Matroid._from_valid(ground, triples)
    circ_reps = []
    for combo in itertools.combinations(range(n), 3):
        i, j, k = combo
        circ_reps.append(SignedSubset(ground, (1 << i) | (1 << k), 1 << j))
    cocirc_reps = []
    for i in range(n):
        before = (1 << i) - 1
        after = ground.full_mask & ~((1 << (i + 1)) - 1)
        cocirc_reps.append(SignedSubset(ground, before, after))
    csig = CircuitSignature.from_representatives(m, circ_reps)
    cosig = CircuitSignature.from_representatives(m.dual(), cocirc_reps)
    return SignaturePair(m, csig, cosig)
