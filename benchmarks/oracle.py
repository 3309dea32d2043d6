"""Answers known independently of omlab, for the benchmark's correctness gate.

Everything here is plain Python over integers: a sign vector is a pair of
bitmasks ``(pos, neg)`` (bit i = ground element i).  Nothing imports omlab, so a
defect in the program cannot hide in the code that judges it.
"""

from __future__ import annotations

import itertools
import random


# -- sign vectors ----------------------------------------------------------------


def from_string(s: str) -> tuple[int, int]:
    pos = neg = 0
    for i, c in enumerate(s):
        if c == "+":
            pos |= 1 << i
        elif c == "-":
            neg |= 1 << i
        elif c != "0":
            raise ValueError(f"bad sign character {c!r} in {s!r}")
    return pos, neg


def to_string(x: tuple[int, int], n: int) -> str:
    pos, neg = x
    return "".join("+" if pos >> i & 1 else "-" if neg >> i & 1 else "0" for i in range(n))


def canonical(x: tuple[int, int]) -> tuple[int, int]:
    """Of {X, -X}, the one whose lowest support element is positive."""
    pos, neg = x
    s = pos | neg
    return x if not s or pos & s & -s else (neg, pos)


def signing(reps) -> frozenset[tuple[int, int]]:
    """A family of sign vectors as a set of opposite pairs (one canonical each)."""
    return frozenset(canonical(x) for x in reps)


def orthogonal(x: tuple[int, int], y: tuple[int, int]) -> bool:
    common = (x[0] | x[1]) & (y[0] | y[1])
    if not common:
        return True
    agree = (x[0] & y[0]) | (x[1] & y[1])
    disagree = (x[0] & y[1]) | (x[1] & y[0])
    return bool(agree & common) and bool(disagree & common)


def conforms(x: tuple[int, int], target: tuple[int, int]) -> bool:
    s = x[0] | x[1]
    return x[0] == target[0] & s and x[1] == target[1] & s


def compose(items) -> tuple[int, int]:
    """First writer wins, element by element."""
    pos = neg = 0
    for p, m in items:
        covered = pos | neg
        pos |= p & ~covered
        neg |= m & ~covered
    return pos, neg


def vectors(circuits) -> frozenset[tuple[int, int]]:
    """All compositions of the signed circuits (both signs of every circuit)."""
    result = set()
    for p, m in circuits:
        result.add((p, m))
        result.add((m, p))
    frontier = list(result)
    while frontier:
        fresh = []
        for x in frontier:
            for y in list(result):
                for z in (compose((x, y)), compose((y, x))):
                    if z not in result:
                        result.add(z)
                        fresh.append(z)
        frontier = fresh
    return frozenset(result)


# -- the oriented-matroid text format ------------------------------------------


def parse_om(text: str) -> dict:
    """The three blocks of an ``.om`` file: labels, supports, signed circuits, cocircuits."""
    blocks: list[list[str]] = [[]]
    for line in text.splitlines():
        if line.strip():
            blocks[-1].append(line.strip())
        else:
            blocks.append([])
    blocks = [b for b in blocks if b]
    if len(blocks) != 3:
        raise ValueError(f"expected 3 blocks, got {len(blocks)}")
    labels = blocks[0][0].split(",")
    index = {x: i for i, x in enumerate(labels)}
    supports = [sum(1 << index[x] for x in row.split(",")) for row in blocks[0][1:]]
    return {
        "labels": labels,
        "supports": supports,
        "circuits": [from_string(s) for s in blocks[1]],
        "cocircuits": [from_string(s) for s in blocks[2]],
    }


def pass_report(subject: str, names) -> str:
    """The exact default ``omlab check`` output when every named check passes."""
    return "".join(
        [f"subject: {subject}\n"] + [f"check {x}: pass\n" for x in names] + ["verdict: pass\n"]
    )


def mutate_om(text: str, rng: random.Random) -> str:
    """Flip one nonzero sign of one signed circuit or cocircuit line.

    A single flipped sign in a (co)circuit of support >= 2 always breaks
    orthogonality, so the result fails (O), and with it (4P) and (FA).
    """
    lines = text.split("\n")
    blank = [i for i, ln in enumerate(lines) if not ln.strip()]
    first, second = blank[0], blank[1]
    rows = [i for i in range(first + 1, len(lines)) if i != second and lines[i].strip()]
    rows = [i for i in rows if sum(c != "0" for c in lines[i]) >= 2]
    i = rng.choice(rows)
    row = lines[i]
    j = rng.choice([k for k, c in enumerate(row) if c != "0"])
    lines[i] = row[:j] + ("-" if row[j] == "+" else "+") + row[j + 1 :]
    return "\n".join(lines)


# -- digraphs --------------------------------------------------------------------


def relabel(rng: random.Random, n_vertices: int, arcs) -> list[tuple[int, int]]:
    """A seeded copy of a multigraph: vertex names, arc order and orientations drawn."""
    perm = rng.sample(range(n_vertices), n_vertices)
    return [(perm[t], perm[h]) if rng.random() < 0.5 else (perm[h], perm[t]) for t, h in rng.sample(arcs, len(arcs))]


def emit_digraph(n_vertices: int, arcs) -> str:
    return f"{n_vertices}\n" + "".join(f"{t + 1} {h + 1} e{k + 1}\n" for k, (t, h) in enumerate(arcs))


def _connected(arcs, vertex_mask: int, arc_mask: int | None = None) -> bool:
    verts = [v for v in range(vertex_mask.bit_length()) if vertex_mask >> v & 1]
    if not verts:
        return False
    seen = 1 << verts[0]
    grew = True
    while grew:
        grew = False
        for k, (t, h) in enumerate(arcs):
            if arc_mask is not None and not arc_mask >> k & 1:
                continue
            if not (vertex_mask >> t & 1 and vertex_mask >> h & 1):
                continue
            if (seen >> t & 1) != (seen >> h & 1):
                seen |= (1 << t) | (1 << h)
                grew = True
    return seen == vertex_mask


def cycles(arcs) -> frozenset[tuple[int, int]]:
    """Every simple cycle of the underlying multigraph, signed by traversal.

    Brute force over arc subsets: a subset is a cycle when it is connected
    and every vertex it touches has degree two.
    """
    out = set()
    for mask in range(1, 1 << len(arcs)):
        deg: dict[int, int] = {}
        for k, (t, h) in enumerate(arcs):
            if mask >> k & 1:
                deg[t] = deg.get(t, 0) + 1
                deg[h] = deg.get(h, 0) + 1
        if any(d != 2 for d in deg.values()):
            continue
        vmask = sum(1 << v for v in deg)
        if not _connected(arcs, vmask, mask):
            continue
        # walk the cycle from the lowest arc's tail along that arc
        a0 = (mask & -mask).bit_length() - 1
        pos, neg = 1 << a0, 0
        at, used = arcs[a0][1], 1 << a0
        while used != mask:
            k = next(k for k in range(len(arcs)) if mask >> k & 1 and not used >> k & 1 and at in arcs[k])
            t, h = arcs[k]
            if t == at:
                pos |= 1 << k
                at = h
            else:
                neg |= 1 << k
                at = t
            used |= 1 << k
        out.add(canonical((pos, neg)))
    return frozenset(out)


def bonds(arcs, n_vertices: int) -> frozenset[tuple[int, int]]:
    """Every minimal cut of a connected multigraph, + on arcs leaving the side of vertex 0."""
    full = (1 << n_vertices) - 1
    out = set()
    for rest in range(0, 1 << (n_vertices - 1)):
        side = 1 | (rest << 1)
        other = full & ~side
        if not other or not _connected(arcs, side) or not _connected(arcs, other):
            continue
        pos = neg = 0
        for k, (t, h) in enumerate(arcs):
            if side >> t & 1 and other >> h & 1:
                pos |= 1 << k
            elif side >> h & 1 and other >> t & 1:
                neg |= 1 << k
        if pos | neg:
            out.add(canonical((pos, neg)))
    return frozenset(out)


def directed_through(family, arc: int) -> set[int]:
    """Supports of the directed (single-signed) members that contain ``arc``."""
    return {p | m for p, m in family if (p | m) >> arc & 1 and not (p and m)}


# -- line arrangements -------------------------------------------------------------


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _det(a, b, c) -> int:
    x = _cross(b, c)
    return a[0] * x[0] + a[1] * x[1] + a[2] * x[2]


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def parse_lines(text: str) -> list[tuple[int, int, int]]:
    return [tuple(int(c) for c in ln.split()) for ln in text.splitlines() if ln.strip()]


def is_free(vecs) -> bool:
    return all(_det(*(vecs[i] for i in t)) != 0 for t in itertools.combinations(range(len(vecs)), 3))


def rank3_signatures(vecs) -> tuple[frozenset, frozenset]:
    """(signed circuits, signed cocircuits) of the rank-3 OM realized by the vectors.

    Circuits are the signs of the linear dependency on every 4-subset;
    cocircuits the side of the plane through each pair, with the plane's
    normal taken lexicographically positive.
    """
    n = len(vecs)
    circ = set()
    for quad in itertools.combinations(range(n), 4):
        pos = neg = 0
        for k, i in enumerate(quad):
            others = [vecs[j] for j in quad if j != i]
            s = _sign(_det(*others)) * (-1) ** k
            if s > 0:
                pos |= 1 << i
            elif s < 0:
                neg |= 1 << i
        circ.add(canonical((pos, neg)))
    cocirc = set()
    for a, b in itertools.combinations(range(n), 2):
        normal = _cross(vecs[a], vecs[b])
        if next(c for c in normal if c) < 0:
            normal = tuple(-c for c in normal)
        pos = neg = 0
        for c in range(n):
            if c in (a, b):
                continue
            d = sum(x * y for x, y in zip(normal, vecs[c]))
            if d > 0:
                pos |= 1 << c
            else:
                neg |= 1 << c
        cocirc.add(canonical((pos, neg)))
    return frozenset(circ), frozenset(cocirc)


def parse_digraph(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(vertex count, arcs as 0-based (tail, head)) of a ``.dg`` file with labels e1, e2, ..."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    return int(rows[0][0]), [(int(t) - 1, int(h) - 1) for t, h, *_ in rows[1:]]
