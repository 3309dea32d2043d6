"""Line-oriented textual formats for matroids, oriented matroids, digraphs,
line sets, and certificates.

Every emitter is deterministic (canonical object order, trailing newline), and
``parse(emit(x))`` returns an equal object for each format.
"""

from __future__ import annotations

from .digraphs import Digraph, FarkasCertificate
from .errors import FormatError, OmlabError
from .lines import LineSet
from .matroid import CircuitViolation, Matroid, validate_circuits
from .oriented import CircuitSignature, SignaturePair
from .signed_sets import GroundSet, SignedSubset

# -- matroid -------------------------------------------------------------------


def emit_matroid(m: Matroid) -> str:
    lines = [",".join(m.ground.labels)]
    for mask in m.circuit_masks:
        lines.append(",".join(m.ground.labels_of(mask)))
    return "\n".join(lines) + "\n"


def _parse_matroid_block(block: list[tuple[int, str]], *, trusted: bool) -> Matroid:
    if not block:
        raise FormatError("missing ground-set line")
    lineno, head = block[0]
    labels = [x.strip() for x in head.split(",") if x.strip()]
    if not labels:
        raise FormatError("empty ground-set line", lineno)
    try:
        ground = GroundSet(tuple(labels))
    except OmlabError as exc:
        raise FormatError(str(exc), lineno) from None
    family = []
    for lineno, line in block[1:]:
        names = [x.strip() for x in line.split(",") if x.strip()]
        try:
            family.append([ground.index(x) for x in names])
        except OmlabError as exc:
            raise FormatError(str(exc), lineno) from None
    got = validate_circuits(ground, family, trusted=trusted)
    if isinstance(got, CircuitViolation):
        raise FormatError(f"not a matroid: {got}", block[0][0])
    return got


def parse_matroid(text: str) -> Matroid:
    block = [(i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    return _parse_matroid_block(block, trusted=False)


# -- oriented matroid ------------------------------------------------------------


def emit_oriented(pair: SignaturePair) -> str:
    out = [emit_matroid(pair.matroid).rstrip("\n"), ""]
    for c in pair.circuit_sig.representatives():
        out.append(c.to_string())
    out.append("")
    for u in pair.cocircuit_sig.representatives():
        out.append(u.to_string())
    return "\n".join(out) + "\n"


def parse_oriented(text: str, *, trusted: bool = False) -> SignaturePair:
    blocks: list[list[tuple[int, str]]] = [[]]
    for i, ln in enumerate(text.splitlines()):
        if ln.strip():
            blocks[-1].append((i + 1, ln.strip()))
        else:
            blocks.append([])
    while len(blocks) > 3 and not blocks[-1]:
        blocks.pop()
    if len(blocks) != 3:
        raise FormatError(
            f"expected matroid, signed-circuit, and signed-cocircuit blocks "
            f"separated by blank lines (got {len(blocks)} blocks)"
        )
    matroid = _parse_matroid_block(blocks[0], trusted=trusted)

    def parse_signed(block: list[tuple[int, str]], owner: Matroid) -> CircuitSignature:
        reps = []
        for lineno, line in block:
            try:
                reps.append(SignedSubset.from_string(owner.ground, line))
            except OmlabError as exc:
                raise FormatError(str(exc), lineno) from None
        try:
            return CircuitSignature.from_representatives(owner, reps)
        except OmlabError as exc:
            first = block[0][0] if block else None
            raise FormatError(str(exc), first) from None

    csig = parse_signed(blocks[1], matroid)
    cosig = parse_signed(blocks[2], matroid.dual())
    return SignaturePair(matroid, csig, cosig)


# -- digraph ---------------------------------------------------------------------


def emit_digraph(d: Digraph) -> str:
    lines = [str(len(d.vertices))]
    for (t, h), lbl in zip(d.arcs, d.labels):
        lines.append(f"{t} {h} {lbl}")
    return "\n".join(lines) + "\n"


_MAX_VERTICES = 1000  # a digraph file's vertex count; each vertex is named before any arc is read


def parse_digraph(text: str) -> Digraph:
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not rows:
        raise FormatError("empty digraph file")
    lineno, head = rows[0]
    try:
        count = int(head)
    except ValueError:
        raise FormatError(f"expected a vertex count, got {head!r}", lineno) from None
    if count < 0:
        raise FormatError("negative vertex count", lineno)
    if count > _MAX_VERTICES:
        raise FormatError(f"vertex count above {_MAX_VERTICES}", lineno)
    vertices = tuple(str(i) for i in range(1, count + 1))
    arcs = []
    labels = []
    for lineno, row in rows[1:]:
        parts = row.split()
        if len(parts) == 2:
            parts.append(f"e{len(arcs) + 1}")
        if len(parts) != 3:
            raise FormatError(f"expected 'tail head label', got {row!r}", lineno)
        arcs.append((parts[0], parts[1]))
        labels.append(parts[2])
    try:
        return Digraph(vertices, tuple(arcs), tuple(labels))
    except OmlabError as exc:
        raise FormatError(str(exc)) from None


# -- line sets ---------------------------------------------------------------------


def emit_lines(q: LineSet) -> str:
    return "\n".join(str(l) for l in q.lines) + "\n"


_COORD_DIGITS = 1000  # a line-file coordinate written out in full has at most this many digits


def parse_lines(text: str) -> LineSet:
    """Three rational coordinates per nonblank line, each bounded before ``Fraction`` computes 10**exp."""
    from fractions import Fraction  # imported on first use: most commands parse no rational

    out = []
    for i, ln in enumerate(text.splitlines()):
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise FormatError(f"expected three rational coordinates, got {ln!r}", i + 1)
        try:
            for p in parts:
                mantissa, _, exponent = p.lower().partition("e")
                exponent = exponent.lstrip("+-").replace("_", "").lstrip("0")
                if len(exponent) > 4 or sum(map(str.isdigit, mantissa)) + int(exponent or 0) > _COORD_DIGITS:
                    raise FormatError(f"coordinate longer than {_COORD_DIGITS} digits written out", i + 1)
            vec = [Fraction(p) for p in parts]
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"bad coordinate in {ln!r}", i + 1) from None
        out.append(vec)
    try:
        return LineSet.of(out)
    except OmlabError as exc:
        raise FormatError(str(exc)) from None


# -- certificates -------------------------------------------------------------------


def emit_certificate(cert: FarkasCertificate) -> str:
    ground = cert.orientation.ground
    ordered = [lbl for lbl in ground.labels if lbl in cert.arcs]
    return (
        f"kind: {cert.kind}\n"
        f"arcs: {','.join(ordered)}\n"
        f"orientation: {cert.orientation.to_string()}\n"
    )
