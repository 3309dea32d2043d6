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
from typing import Iterable, NamedTuple

from .errors import CapExceededError, DomainError, GroundMismatchError, InvariantError, ValidationError
from .matroid import Matroid, MinorSpec, _Cover, _elimination_scan, _first_bad_family, _first_nested, _Inside
from .signed_sets import GroundSet, SignedSubset, _Frozen, bits, indices, mask_of

FOUR_P_CAP_DEFAULT = 10
CE_CAP_DEFAULT = 10
FA_CAP_DEFAULT = 10


# ---------------------------------------------------------------------------
# signatures


class CircuitSignature:
    """A symmetric signing of every circuit of a matroid.

    Exactly one opposite pair {C, -C} per circuit; a cocircuit signature of M
    is a CircuitSignature over M.dual().  The pairs are held packed, as
    (pos, neg, support) of the representative positive on its least element,
    in canonical circuit order; signed members are built only when asked for,
    and restrictions to contractions are memoised per contracted set.
    """

    def __init__(self, matroid: Matroid, signed: Iterable[SignedSubset]):
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
        reps = tuple(supports[s][0].canonical_rep() for s in matroid.circuit_masks)
        self._set(matroid, tuple((x.pos, x.neg, x.support) for x in reps))
        self._signed, self._reps = members, reps

    @classmethod
    def _trusted(cls, matroid: Matroid, pairs: tuple[tuple[int, int, int], ...]) -> "CircuitSignature":
        """A signature from packed pairs already valid: one per circuit of ``matroid``, in its
        order, each positive on its least element.  Only the minor machinery builds these."""
        sig = cls.__new__(cls)
        sig._set(matroid, pairs)
        return sig

    # the signed members, built only when first asked for
    _signed: frozenset[SignedSubset] | None = None
    _reps: tuple[SignedSubset, ...] | None = None
    _rep_by_support: dict[int, SignedSubset] | None = None

    def _set(self, matroid: Matroid, pairs: tuple[tuple[int, int, int], ...]) -> None:
        self.matroid = matroid
        self._pairs = pairs
        self._restriction_memo: dict[int, tuple[int, ...]] = {}

    def _restricted(self, f: int) -> tuple[int, ...]:
        """Memoised per f: (c, pos, c, pos, ...) for each circuit c of the contraction by f, in
        canonical order, and each distinct signing of c that a pair with support s \\ f = c
        restricts to, positive on c's least element."""
        got = self._restriction_memo.get(f)
        if got is None:
            signings: dict[int, list[int]] = {c: [] for c in self.matroid._contraction(f)}
            for p, _, s in self._pairs:
                c = s & ~f
                seen = signings.get(c)
                if seen is not None:
                    pos = p & c if p & c & -c else c & ~p
                    if pos not in seen:
                        seen.append(pos)
            got = self._restriction_memo[f] = tuple(x for c, seen in signings.items() for p in seen for x in (c, p))
        return got

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

    @property
    def signed(self) -> frozenset[SignedSubset]:
        if self._signed is None:
            self._signed = frozenset(y for x in self.representatives() for y in (x, -x))
        return self._signed

    def representatives(self) -> tuple[SignedSubset, ...]:
        if self._reps is None:
            ground = self.ground
            self._reps = tuple(SignedSubset(ground, p, m) for p, m, _ in self._pairs)
        return self._reps

    def by_support(self, support: int | Iterable[int]) -> SignedSubset:
        m = support if isinstance(support, int) else mask_of(support)
        if self._rep_by_support is None:
            self._rep_by_support = {x.support: x for x in self.representatives()}
        try:
            return self._rep_by_support[m]
        except KeyError:
            raise DomainError(f"{sorted(bits(m))} is not a circuit of this matroid") from None

    def __contains__(self, x: SignedSubset) -> bool:
        return x in self.signed

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircuitSignature):
            return NotImplemented
        return self.matroid == other.matroid and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash((self.matroid, self._pairs))

    def reorient(self, a: int | Iterable[int]) -> "CircuitSignature":
        m = a if isinstance(a, int) else mask_of(a)
        return CircuitSignature(self.matroid, (x.reorient(m) for x in self.signed))

    def __repr__(self) -> str:
        reps = ", ".join(str(x) for x in self.representatives())
        return f"CircuitSignature({reps})"

    def pair_masks(self) -> list[tuple[int, int, int]]:
        """(pos, neg, support) for one representative per opposite pair."""
        return list(self._pairs)

    def member_masks(self) -> list[tuple[int, int, int]]:
        """(pos, neg, support) for every signed member: each representative, then its negative."""
        return [x for p, m, s in self._pairs for x in ((p, m, s), (m, p, s))]


class SignaturePair:
    """A matroid with a circuit signature and a cocircuit signature.

    Owns an (FA) verdict memo, shared with every minor induced from it and freed with them."""

    def __init__(self, matroid: Matroid, circuit_sig: CircuitSignature, cocircuit_sig: CircuitSignature):
        if circuit_sig.matroid != matroid:
            raise ValidationError("circuit signature does not belong to the matroid")
        if cocircuit_sig.matroid != matroid.dual():
            raise ValidationError("cocircuit signature does not belong to the dual matroid")
        self.matroid, self.circuit_sig, self.cocircuit_sig = matroid, circuit_sig, cocircuit_sig
        self._fa_memo: dict[tuple, Verdict] = {}

    @classmethod
    def _trusted(cls, matroid: Matroid, circuit_sig, cocircuit_sig, fa_memo: dict) -> "SignaturePair":
        """A pair whose signatures already belong to ``matroid`` and its linked dual, sharing the
        (FA) memo ``fa_memo``.  Only the minor machinery builds these."""
        pair = cls.__new__(cls)
        pair.matroid, pair.circuit_sig, pair.cocircuit_sig, pair._fa_memo = matroid, circuit_sig, cocircuit_sig, fa_memo
        return pair

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


class FourPartition(_Frozen):
    """Disjoint cover of the ground set by black/white/green/red classes.

    Validated: the four classes are pairwise disjoint and cover ``ground``.
    """

    __slots__ = _fields = ("ground", "black", "white", "green", "red")

    def __init__(
        self, ground: GroundSet, black: frozenset[int], white: frozenset[int], green: frozenset[int], red: frozenset[int]
    ):
        total = 0
        for m in map(mask_of, (black, white, green, red)):
            if m & total:
                raise DomainError("4-partition classes overlap")
            total |= m
        if total != ground.full_mask:
            raise DomainError("4-partition does not cover the ground set")
        self._fill((ground, black, white, green, red))

    @classmethod
    def from_masks(cls, ground: GroundSet, b: int, w: int, g: int, r: int) -> "FourPartition":
        return cls(ground, indices(b), indices(w), indices(g), indices(r))


class EliminationInstance(_Frozen):
    """Data of one strong-elimination instance: C, X, (C_x | x in X), f.

    Validated: every C_x shares C's ground set, each x lies in C's support
    and separates C from C_x, C_x meets X exactly in x, and f lies in C's
    support outside every separator.
    """

    __slots__ = _fields = ("circuit", "members", "retained")

    def __init__(self, circuit: SignedSubset, members: tuple[tuple[int, SignedSubset], ...], retained: int):
        x_mask = mask_of(x for x, _ in members)
        sep_union = 0
        for x, cx in members:
            if cx.ground != circuit.ground:
                raise GroundMismatchError("elimination family mixes ground sets")
            xb = mask_of([x])
            if not circuit.support & xb:
                raise DomainError(f"{x} is not in the support of the eliminated circuit")
            if cx.support & x_mask != xb:
                raise DomainError(f"family member for {x} must meet X exactly in {{{x}}}")
            sep = circuit.sep_mask(cx)
            if not sep & xb:
                raise DomainError(f"{x} must be a separating element of C and C_{x}")
            sep_union |= sep
        fb = mask_of([retained])
        if not circuit.support & fb or sep_union & fb:
            raise DomainError("retained element must lie in C's support outside every separator")
        self._fill((circuit, members, retained))

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
# verdicts and witnesses: unvalidated records, NamedTuples equal to any tuple of the same values


class Verdict(NamedTuple):
    """Outcome of a checker; falsy iff a violation was found."""

    ok: bool
    witness: object = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


class OrthViolation(NamedTuple):
    circuit: SignedSubset
    cocircuit: SignedSubset

    def __str__(self) -> str:
        return f"circuit {self.circuit} not orthogonal to cocircuit {self.cocircuit}"


class FPViolation(NamedTuple):
    element: int
    kind: str  # "neither" or "both"

    def __str__(self) -> str:
        return f"element {self.element}: {self.kind} side has a positive member through it"


class FourPViolation(NamedTuple):
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


class CEViolation(NamedTuple):
    instance: EliminationInstance

    def __str__(self) -> str:
        inst = self.instance
        return (
            f"no admissible circuit through {inst.retained} when eliminating "
            f"{sorted(inst.eliminated)} from {inst.circuit}"
        )


class FAViolation(NamedTuple):
    spec: MinorSpec
    reorient: frozenset[int]
    fp: FPViolation

    def __str__(self) -> str:
        return (
            f"minor contract={sorted(self.spec.contract)} delete={sorted(self.spec.delete)} "
            f"reorient={sorted(self.reorient)}: {self.fp}"
        )


class DeriveFailure(NamedTuple):
    """A constructed cocircuit not orthogonal to some signed circuit."""

    circuit: SignedSubset
    cocircuit: SignedSubset

    def __str__(self) -> str:
        return f"derived cocircuit {self.cocircuit} conflicts with circuit {self.circuit}"


class DecomposeFailure(NamedTuple):
    """No conforming circuit exists through this support element."""

    element: int

    def __str__(self) -> str:
        return f"no conforming circuit through element {self.element}"


# ---------------------------------------------------------------------------
# orthogonality


def check_orthogonality(pair: SignaturePair) -> Verdict:
    """(O): every signed circuit is orthogonal to every signed cocircuit.

    The witness is the first pair of representatives C, U, circuits
    outermost, whose supports meet without an element of equal signs and
    one of opposite signs.
    """
    cocircuits = pair.cocircuit_sig._pairs
    for cp, cn, cs in pair.circuit_sig._pairs:
        for up, un, us in cocircuits:
            if cs & us and not (cp & up | cn & un and cp & un | cn & up):
                c, u = SignedSubset(pair.ground, cp, cn), SignedSubset(pair.ground, up, un)
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
    """The induced sets as a signature pair on the minor.

    Requires (O) implicitly: if two lifts of the same minor circuit restrict
    to non-opposite signings, the induction is ill-defined and an upstream
    (O) violation is reported.
    """
    n, sides = _induced(pair, spec)
    sigs = []
    for matroid, side in zip((n, n.dual()), sides):
        # every minor (co)circuit has a lift, so a second pair on a support shows as one too many
        if len(side) > len(matroid.circuit_masks):
            raise ValidationError(
                "induced signing depends on the choice of lift; the signature pair violates (O)"
            )
        sigs.append(CircuitSignature._trusted(matroid, tuple(side)))
    return SignaturePair._trusted(n, *sigs, pair._fa_memo)


class InducedSets(NamedTuple):
    circuits_side: frozenset[SignedSubset]
    cocircuits_side: frozenset[SignedSubset]
    minor: Matroid


def induced_sets(pair: SignaturePair, spec: MinorSpec) -> InducedSets:
    """The sets of restricted signed subsets a minor inherits.

    A side keeps the members whose support avoids what that side deletes,
    g for circuits and f for cocircuits, and whose support, restricted to
    the minor, is a (co)circuit of the minor.
    """
    n, sides = _induced(pair, spec)

    def members(side: list[tuple[int, int, int]]) -> frozenset[SignedSubset]:
        signed = (SignedSubset(n.ground, p, m) for p, m, _ in side)
        return frozenset(y for x in signed for y in (x, -x))

    return InducedSets(*map(members, sides), n)


def _induced(pair: SignaturePair, spec: MinorSpec) -> tuple[Matroid, list[list[tuple[int, int, int]]]]:
    """The minor M/f\\g linked to its dual, and per side the packed (pos, neg, support) of each
    distinct induced signing, positive on its least element, in canonical support order.

    Restriction commutes with negation, so one member of each opposite pair
    stands for both.  :meth:`Matroid._minor` reads each side's restriction
    memo, f for circuits and g for cocircuits, and drops the (co)circuits
    meeting what that side deletes.  This is exact: a lift s of a minor
    circuit c, a signed circuit with s \\ f = c, lies inside c | f, and f
    and g are disjoint, so when c avoids g, s does too.
    """
    m = pair.matroid
    f = m.ground.check_mask(spec.contract_mask)
    g = m.ground.check_mask(spec.delete_mask)
    c, u = iter(pair.circuit_sig._restricted(f)), iter(pair.cocircuit_sig._restricted(g))
    return m._minor(f, g, zip(c, c), zip(u, u))


# ---------------------------------------------------------------------------
# Farkas property


def _positive_sides(
    s_members: Iterable[SignedSubset], t_members: Iterable[SignedSubset], ground: GroundSet
) -> tuple[list[SignedSubset], list[SignedSubset]]:
    """The positive members of each (FP) side; every member must live on ``ground``."""
    sides = ([], [])
    for side, members in zip(sides, (s_members, t_members)):
        for x in members:
            if x.ground != ground:
                raise GroundMismatchError("FP sides live on different ground sets")
            if x.is_positive():
                side.append(x)
    return sides


def fp_report(
    s_members: Iterable[SignedSubset], t_members: Iterable[SignedSubset], ground: GroundSet
) -> dict[int, tuple[str, SignedSubset] | None]:
    """Per element: the side and least positive member through it, or None.

    An element mapping to None or to witnesses on both sides violates (FP);
    "positive" requires a nonempty support, so the empty subset never counts.
    """
    sides = _positive_sides(s_members, t_members, ground)
    s_pos, t_pos = (sorted(side, key=lambda x: x.sort_key()) for side in sides)
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
    sides = _positive_sides(s_members, t_members, ground)
    s_cover, t_cover = (functools.reduce(int.__or__, (x.pos for x in side), 0) for side in sides)
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


@functools.cache
def _exhaustive_paintings(n: int) -> tuple:
    """Batches (planes, full, colors_of) over all 4^n paintings in product order.  A constant of n.

    Each block fixes a prefix of the first n - k colors in
    ``itertools.product`` order and paints the last k elements every way, so
    bit j of a block is the block's j-th painting in the same order.
    """
    k = min(n, _BLOCK_ELEMENTS)
    full = (1 << 4**k) - 1
    digits = range(k - 1, -1, -1)
    constant = [(full, 0, 0, 0), (0, full, 0, 0), (0, 0, full, 0), (0, 0, 0, full)]

    def block(prefix: tuple[int, ...]):
        planes = (*(constant[col] for col in prefix), *_block_suffix(k))
        return planes, full, lambda j: prefix + tuple((j >> 2 * q) & 3 for q in digits)

    return tuple(map(block, itertools.product(range(4), repeat=n - k)))


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
    order, and the bit-sliced ``matroid._Cover`` tells which retained
    elements an admissible member covers, once ``matroid._elimination_scan``
    has found that weak elimination fails; a pass needs no family.  A sampled
    draw is one instance with one drawn member per level and one retained f;
    a draw with no member for some level or no f is redrawn, until ``sample``
    instances are tested or 20 draws per instance are spent.
    """
    ground = sig.ground
    n = ground.size
    full = ground.full_mask
    reps = sig.representatives()
    packed = [p | m << n for p, m, _ in sig.member_masks()]
    cover = _Cover(packed, n)
    # members whose negative / positive part contains e: the options against a
    # positive / negative sign of C at e, one per support, in support order
    against = [
        ([d for d in packed if d >> (e + n) & 1], [d for d in packed if d >> e & 1]) for e in range(n)
    ]
    tested = 0  # sampled draws with a nonempty range of f, as opposed to redrawn ones

    def options(cm: int, x_combo: tuple[int, ...]) -> list[list[int]]:
        x = mask_of(x_combo)
        xx = x | x << n
        cand = []
        for xi in x_combo:
            others = xx & ~(1 << xi | 1 << (xi + n))
            cand.append([d for d in against[xi][cm >> xi & 1] if not d & others])
        return cand

    def instance(i: int, x_combo: tuple[int, ...]):
        return reps[i], x_combo, options(reps[i].neg, x_combo), reps[i].support

    def sampled(rng: random.Random):
        nonlocal tested
        if not reps:
            return
        for _ in range(20 * sample):
            if tested == sample:
                return
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

    # supports built without validation need not be a clutter, where weak elimination decides nothing
    supports = [c.support for c in reps]
    exhaustive = functools.partial(
        _elimination_scan, supports, instance, lambda: _first_nested(supports) is None and cover.weak(against)
    )
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


def _live_planes(masks: list[int], inside: _Inside) -> list[int]:
    """Per member s of ``masks``, the positions where s \\ f is a circuit of the contraction by f.

    ``inside[x]`` holds the positions whose set f contains all of mask x.
    s \\ f is a minimal nonempty set D \\ f exactly when s is not inside f
    and no member D has D \\ s inside f, D not inside f and s \\ D not
    inside f.
    """
    full = inside[0]  # every position's set contains the empty mask
    out = []
    for s in masks:
        dead = inside[s]
        for d in masks:
            dead |= inside[d & ~s] & ~inside[d] & ~inside[s & ~d]
        out.append(full & ~dead)
    return out


@functools.cache
def _subset_inside(n: int, f: int) -> _Inside:
    """The :class:`_Inside` memo over the 2^k sets of an exhaustive block whose prefix set is f.

    Position i is f plus element n - 1 - q for each bit q of i.  A constant of n and f.
    """
    k = min(n, _BLOCK_ELEMENTS)
    full = (1 << 2**k) - 1
    # element n - 1 - q is in the sets of bit q: runs of 2^q positions without and with it
    suffix = [full // ((1 << 2 ** (q + 1)) - 1) * ((1 << 2**q) - 1) << 2**q for q in range(k - 1, -1, -1)]
    return _Inside([full * (f >> e & 1) for e in range(n - k)] + suffix, full)


@functools.cache
def _spread_keys(k: int, color: int) -> bytes:
    """Per byte m of a 4^k-painting plane, the key 2 S + h of its paintings 8m .. 8m + 7.

    They share the base-4 digits q >= 2, and S has bit q - 2 where such a
    digit equals ``color``; h is the high bit of digit 1.
    """
    keys = b"\0\1"[: 4**k + 7 >> 3]
    for q in range(2, k):  # prepend digit q: four copies, the color's with bit q - 1 set
        keys = keys * color + keys.translate(bytes(x | 1 << q - 1 for x in range(256))) + keys * (3 - color)
    return keys


@functools.cache
def _spread_bytes(color: int) -> tuple[bytes, ...]:
    """Per key offset 2 half + h, the painting byte given by each byte of a liveness table.

    Painting 8m + low of key 2 S + h reads table bit 4 S + b, where b has bit 0
    when digit 0 (low & 3) equals ``color`` and bit 1 when digit 1 (low >> 2 | 2 h)
    does: one nibble of the table, half ``S & 1`` of its byte ``S >> 1``.
    """
    out = []
    for half, h in itertools.product((0, 1), repeat=2):
        reads = [0] * 4  # per table bit b, the paintings low that read it
        for low in range(8):
            reads[(low & 3 == color) | (low >> 2 | h << 1 == color) << 1] |= 1 << low
        nibbles = [sum(r for b, r in enumerate(reads) if v >> b & 1) for v in range(16)]
        out.append(bytes(nibbles[v >> 4 * half & 15] for v in range(256)))
    return tuple(out)


@functools.lru_cache(maxsize=1 << 10)
def _spread(table: int, k: int, color: int) -> int:
    """A 2^k-bit liveness table read at a block's 4^k paintings.

    Bit j of the result is bit S of ``table``, S having bit q where digit q
    of j equals ``color``: ``_spread_keys`` translated through a lookup built
    from the table.  Memoised, as the minors of a sweep repeat few tables.
    """
    size = 2**k + 7 >> 3
    table_bytes = table.to_bytes(size, "little")
    lookup = bytearray(256)
    for offset, part in enumerate(_spread_bytes(color)):
        lookup[offset : 4 * size : 4] = table_bytes.translate(part)
    plane = int.from_bytes(_spread_keys(k, color).translate(lookup), "little")
    return plane if k > 1 else plane & (1 << 4**k) - 1  # n <= 1: part of one byte


def _fa_blocks(n: int, circ_pairs, cocirc_pairs) -> list:
    """The exhaustive (FA) batches: each block of ``_exhaustive_paintings`` with its members per side.

    A member is live where the contracted set (color 2; for cocircuits the
    deleted set, color 3) leaves it a circuit, so its liveness depends on
    that set alone, which a block's prefix fixes on the first n - k elements.
    ``_live_planes`` therefore runs on the 2^k suffix subsets, once per
    distinct prefix set and side, and ``_spread`` reads each member's table
    at the block's 4^k paintings.  Members are (pos, neg, support, live).
    """
    k = min(n, _BLOCK_ELEMENTS)
    memo: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
    out = []
    for planes, full, colors_of in _exhaustive_paintings(n):
        sides = []
        for reps, color in ((circ_pairs, 2), (cocirc_pairs, 3)):
            f = 0  # the prefix elements painted the color, whose planes are full
            for e in range(n - k):
                f |= (planes[e][color] & 1) << e
            got = memo.get((color, f))
            if got is None:
                tables = _live_planes([s for *_, s in reps], _subset_inside(n, f))
                got = memo[color, f] = [(*x, _spread(t, k, color)) for x, t in zip(reps, tables)]
            sides.append(got)
        out.append((planes, full, colors_of, sides))
    return out


def _fa_members(circ_pairs, cocirc_pairs, batch, matroids):
    """A sampled (FA) batch's members per side, (pos, neg, support, live) for ``_paint_bad``.

    Liveness reads the contracted set (color 2) for circuits and the deleted
    set (color 3) for cocircuits, as in ``_fa_blocks``.  ``_live_planes``
    decides it from memos of the batch's own planes of that color, at a cost
    quadratic in the members.  A batch with fewer paintings than a side has
    members decides each painting's set from the contraction memo of that
    side's matroid in ``matroids`` instead.
    """
    planes, full, colors_of = batch
    count = full.bit_length()

    def members(reps, color, matroid):
        supports = [s for *_, s in reps]
        if count >= len(reps):
            live = _live_planes(supports, _Inside([col[color] for col in planes], full))
        else:
            live = [0] * len(reps)
            for j in range(count):
                f = mask_of(e for e, c in enumerate(colors_of(j)) if c == color)
                circuits = set(matroid._contraction(f))
                for i, s in enumerate(supports):
                    if (s & ~f) in circuits:
                        live[i] |= 1 << j
        return [(*x, alive) for x, alive in zip(reps, live)]

    return members(circ_pairs, 2, matroids[0]), members(cocirc_pairs, 3, matroids[1])


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
    stays a circuit after contracting f; ``_fa_blocks`` decides that once
    per contracted set and spreads it over an exhaustive block, and
    ``_fa_members`` per sampled batch.  Cocircuits swap contraction and
    deletion.
    The witness is the first failing pair in (FA) order: the minor in product
    order (keep < contract < delete, element 0 first), then the reorientation
    mask as an integer.  A sample draws ``randrange(3)`` per element, then
    ``randrange(2)`` per kept element, and reports the first failing draw.
    Exhaustive verdicts go in the memo shared by a root pair and every minor induced from it,
    keyed by n and both sides' packed (pos, neg, support) pairs: all the kernel reads, and
    witnesses name elements by index.  Sampled and over-cap calls bypass it, so a sweep over a
    pair's minors runs the kernel once per distinct minor.
    """
    n = pair.ground.size
    circ_pairs, cocirc_pairs = pair.circuit_sig._pairs, pair.cocircuit_sig._pairs
    memoised = sample is None and n <= cap
    if memoised:
        memo_key = n, circ_pairs, cocirc_pairs
        verdict = pair._fa_memo.get(memo_key)
        if verdict is not None:
            return verdict
    matroids = pair.circuit_sig.matroid, pair.cocircuit_sig.matroid

    def sampled(rng: random.Random):
        def paint():
            states = [rng.randrange(3) for _ in range(n)]
            return [s + 1 if s else rng.randrange(2) for s in states]  # keep: 0, or 1 when reversed

        for batch in _sampled_paintings(n, sample, paint):
            yield [(*batch, _fa_members(circ_pairs, cocirc_pairs, batch, matroids))], False

    def first_bad(batch) -> FAViolation | None:
        batches, ordered = batch
        found = []
        for paintings in batches:
            planes, _, colors_of, members = paintings
            bad, us, ut = _paint_bad(*members, planes)
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

    verdict = _exhaust_or_sample(
        "FA", "minor/reorientation pairs", n, cap, sample, seed,
        # one batch: the (FA)-order first witness may lie in any block
        lambda: [(_fa_blocks(n, circ_pairs, cocirc_pairs), True)],
        sampled, first_bad,
    )
    if memoised:
        pair._fa_memo[memo_key] = verdict
    return verdict


def fa_gap_witness(pair: SignaturePair) -> FAViolation | None:
    """Hunt for a pair with the painting property but without the Farkas axiom.

    Whether (4P) alone implies (FA) is open; this harness reports a
    counterexample when one is found and None otherwise.  Finite ground sets
    cannot settle the question, so None is the expected outcome here.
    """
    if not check_4P(pair):
        return None
    verdict = check_FA(pair)
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
    off = mask_of([offending])
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
    """All compositions of signed circuits, as a fixpoint of right composition.

    Every composition is a left fold c1∘c2∘…∘ck of signed members, and a member
    that adds no support changes nothing, so each vector found is composed on
    the right with each member that adds support.  ``support_cap`` prunes to
    vectors with support size at most the cap; pruning is safe because
    composition only grows supports.
    """
    members = sig.member_masks()
    result: set[tuple[int, int]] = set()
    queue: deque[tuple[int, int]] = deque()

    def add(p: int, n: int) -> None:
        if (support_cap is None or (p | n).bit_count() <= support_cap) and (p, n) not in result:
            result.add((p, n))
            queue.append((p, n))

    for p, n, _ in members:
        add(p, n)
    while queue:
        xp, xn = queue.popleft()
        xs = xp | xn
        for p, n, s in members:
            if s & ~xs:
                add(xp | (p & ~xs), xn | (n & ~xs))
    return frozenset(SignedSubset(sig.ground, p, n) for p, n in result)


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
    # each representative, then its negative: the members in sort_key order
    reps = [c for r in pair.circuit_sig.representatives() for c in (r, -r)]
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
