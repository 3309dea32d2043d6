"""Fixtures, operation lists and correctness checks of the three workloads.

``cli_setup`` returns a CLI workload's input files and operation list, and
``check_cli`` judges each operation's outcome; ``build_pool``,
``sweep_instance`` and ``check_instance`` do the same for the ``pool-sweep``
instances, which run in-process.  Only the set-up and pool functions import
omlab; the checks compare against ``oracle`` answers.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field

import oracle

CHECKS = ["O", "CE", "4P", "FP", "FA"]

# The acceptance pool's shape mix (tests/conftest.build_pool at its default
# seed): the underlying multigraph of each random digraph, as 0-based
# (tail, head) arcs; lines per random line set; and the pristine instance each
# mutant corrupts.  Every benchmark seed reuses these shapes and draws vertex
# names, arc order, orientations, line directions and sign flips afresh, so all
# seeds do the same amount of work and only the inputs differ.
GRAPHIC_ARCS = [
    [(1,0),(1,0),(1,0),(1,0)], [(1,0),(2,1),(0,2)], [(0,1),(2,1),(0,2),(2,1)], [(0,1),(0,1),(1,0)],
    [(1,0),(1,0),(1,0),(1,0),(1,0),(1,0)], [(0,1),(0,1),(0,1),(1,0)], [(1,0),(1,2),(0,1),(1,0)],
    [(1,0),(1,2),(1,3),(3,0)], [(0,1),(1,2),(2,1),(2,0),(1,0),(2,1),(0,1)], [(0,1),(1,2),(2,1)],
    [(0,1),(0,1),(0,1)], [(1,0),(2,0),(0,2),(0,1)], [(0,1),(0,2),(1,3),(1,4),(0,2),(4,0)],
    [(1,0),(2,1),(3,2),(2,3),(2,1)], [(0,1),(1,0),(1,0),(1,0),(1,0)], [(0,1),(0,1),(1,0),(0,1)],
    [(1,0),(0,2),(2,3),(0,2)], [(0,1),(0,1),(1,0),(1,0),(0,1),(0,1)],
    [(0,1),(0,2),(0,1),(2,0),(0,2)], [(0,1),(2,1),(0,2),(0,2),(1,0)],
    [(0,1),(0,2),(0,1),(2,1),(1,2)], [(0,1),(2,1),(1,0)], [(1,0),(1,0),(0,1)],
    [(1,0),(0,2),(0,3),(3,0),(1,2),(0,2)], [(1,0),(2,0),(1,0)], [(1,0),(0,1),(0,1),(1,0)],
    [(0,1),(2,1),(3,2),(4,2),(2,0)], [(1,0),(0,2),(2,0),(1,2)], [(0,1),(0,2),(2,0),(2,0),(2,1)],
    [(1,0),(0,1),(0,1)], [(1,0),(2,0),(1,2),(0,1)], [(1,0),(0,2),(3,1),(2,4),(2,0),(2,3)],
    [(0,1),(2,1),(1,3),(1,0)], [(0,1),(2,0),(3,0),(3,1),(0,1)], [(0,1),(2,0),(1,3)],
    [(1,0),(2,1),(2,1),(0,1)], [(1,0),(2,0),(0,2),(2,0)], [(0,1),(1,2),(2,3),(1,3),(2,1)],
    [(1,0),(2,0),(1,0)], [(0,1),(1,0),(1,0)], [(0,1),(0,2),(1,2)], [(1,0),(2,0),(2,3),(3,2),(3,0)],
    [(0,1),(1,2),(2,1)], [(0,1),(0,2),(0,2)], [(1,0),(1,0),(1,0),(1,0)],
    [(0,1),(1,0),(0,1),(1,0),(0,1)], [(1,0),(0,1),(0,1),(0,1),(0,1)], [(0,1),(0,1),(0,1)],
    [(0,1),(1,2),(3,0),(0,3)], [(1,0),(1,0),(1,0)], [(0,1),(1,2),(3,1),(3,0),(3,0)],
    [(1,0),(1,0),(1,0),(0,1)], [(0,1),(2,0),(3,1),(3,4)], [(0,1),(1,0),(0,1)], [(0,1),(0,1),(0,1)],
    [(0,1),(1,0),(0,1)], [(1,0),(0,1),(1,0),(1,0)], [(1,0),(0,2),(2,0),(1,0)],
    [(0,1),(2,0),(3,0),(2,0)], [(1,0),(2,1),(1,2)], [(1,0),(1,2),(2,0)],
    [(0,1),(1,0),(1,0),(1,0),(0,1),(1,0)],
]
LINE_SIZES = [
    6, 5, 7, 7, 5, 4, 5, 5, 5, 4, 6, 5, 6, 6, 6, 5, 6, 7, 5, 6, 5, 5, 4, 6, 5, 6, 5, 6, 5, 7, 5,
    6, 7, 6, 5, 5, 6, 7, 7, 4, 6, 6, 6, 4, 4, 6, 5, 5, 6, 6, 5, 5, 4, 5, 5, 7, 4, 5, 5, 6, 5, 6,
]
MUTANT_BASES = [
    24, 21, 19, 97, 102, 117, 85, 104, 115, 53, 126, 114, 17, 28, 51, 121, 22, 19, 46, 10, 103,
    122, 124, 26, 99, 99, 124, 64, 125, 113, 47, 45, 22, 67, 119, 31, 39, 73, 60, 66, 47, 62,
    116, 120, 2, 79, 108, 121, 71, 9, 11, 92, 112, 6, 11, 108, 50, 114, 91, 108, 121, 42, 81, 1,
    112, 95, 114, 120, 21, 21, 20, 11, 31, 87, 77, 128, 0, 15, 57, 97,
]
FIG4_ARCS = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 1), (0, 2)]
TRIANGLE_ARCS = [(0, 1), (1, 2), (2, 0)]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:10]


# -- CLI workloads -------------------------------------------------------------------


def _op(argv, writes=(), **expect):
    return {"id": " ".join(argv), "argv": argv, "writes": list(writes), "expect": expect}


def cli_setup(workload: str, seed: int) -> tuple[dict[str, str], list[dict]]:
    """Input files (name -> text) and the fixed operation list of a CLI workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "check-large":
        from omlab.formats import emit_oriented
        from omlab.oriented import alternating_rank2

        files = {f"alt{n}.om": emit_oriented(alternating_rank2(n)) for n in (6, 7, 8, 9)}
        files["mutant8.om"] = oracle.mutate_om(files["alt8.om"], rng)
        # one underlying graph, K5 minus an edge, so that every seed's 9-element
        # 4P precondition in decompose scans the same 22 circuits and 14
        # cocircuits; the seed draws vertex names, arc order and orientations
        arcs = oracle.relabel(rng, 5, [e for e in itertools.combinations(range(5), 2) if e != (3, 4)])
        files["digraph9.dg"] = oracle.emit_digraph(5, arcs)
        picks = rng.sample(sorted(oracle.cycles(arcs)), 3)
        # canonical (first nonzero sign +): argparse would read a leading "-" as an option
        target = oracle.canonical(oracle.compose([x if rng.random() < 0.5 else (x[1], x[0]) for x in picks]))
        arc = rng.randrange(len(arcs))
        ops = [_op(["check", f"alt{n}.om"], kind="pass", names=CHECKS) for n in (6, 7, 8)]
        ops.append(_op(["check", "alt9.om", "--which", "O,CE,4P,FP"], kind="pass", names=CHECKS[:4]))
        ops.append(_op(["check", "mutant8.om"], kind="mutant"))
        ops.append(_op(["gen", "graphic", "digraph9.dg", "-o", "graphic9.om"], writes=["graphic9.om"], kind="graphic", out="graphic9.om"))
        ops.append(_op(["decompose", "graphic9.om", oracle.to_string(target, 9)], kind="decompose", om="graphic9.om"))
        ops.append(_op(["farkas", "digraph9.dg", f"e{arc + 1}"], kind="farkas", arc=arc))
        return files, ops
    if workload == "rank3-construct":
        # neat_prefix's seed is a scan offset: above ~6 its coordinates, and
        # with them the generator's time, grow exponentially (offset 20 is 30x
        # slower than 0-5), so offsets stay where every seed costs the same
        neat_seed = str(rng.randrange(6))
        ops = [
            _op(["gen", "neat-prefix", str(n), "--seed", neat_seed, "-o", f"neat{n}.om", "--lines-out", f"neat{n}.lines"],
                writes=[f"neat{n}.om", f"neat{n}.lines"], kind="neat", out=f"neat{n}.om", lines=f"neat{n}.lines")
            for n in (8, 9, 10, 13)
        ]
        ops += [_op(["check", f"neat{n}.om", "--which", "O,CE,FP"], kind="pass", names=["O", "CE", "FP"]) for n in (8, 9)]
        ops.append(_op(["derive", "neat10.om"], kind="derive", src="neat10.om"))
        ops.append(_op(["--trust-input", "dual", "neat13.om"], kind="dual", src="neat13.om"))
        return {}, ops
    raise ValueError(f"unknown CLI workload {workload!r}")


def cli_fingerprint(result: dict) -> str:
    """Exit code, stdout bytes and every file the operation wrote."""
    return digest(result["rc"], result["stdout"], *(f"{k}={v}" for k, v in sorted(result["files"].items())))


def verify_cli(ops: list[dict], results: list[dict], fixtures: dict[str, str]) -> tuple[list, list]:
    """Per-operation error (None if right) and output digest, for one pass."""
    files = dict(fixtures)
    digraph = oracle.parse_digraph(files["digraph9.dg"]) if "digraph9.dg" in files else None
    errors, prints = [], []
    for op, res in zip(ops, results):
        files.update(res["files"])
        try:
            errors.append(check_cli(op, res, files, digraph))
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            errors.append(f"unreadable output ({type(exc).__name__}: {exc})")
        prints.append(cli_fingerprint(res))
    return errors, prints


def check_cli(op: dict, result: dict, files: dict[str, str], digraph: tuple | None) -> str | None:
    """None when the operation's outcome matches the independent answer, else why not.

    ``files`` holds every input and output file of the pass so far;
    ``digraph`` is (vertex count, arcs) of the workload's digraph, if any.
    """
    e = op["expect"]
    rc, out = result["rc"], result["stdout"]
    subject = op["argv"][op["argv"].index("check") + 1] if "check" in op["argv"] else None
    if e["kind"] == "pass":
        want = oracle.pass_report(subject, e["names"])
        return None if (rc, out) == (0, want) else f"expected a clean pass, got rc={rc}"
    if e["kind"] == "mutant":
        lines = out.splitlines()
        if rc != 1 or lines[-1:] != ["verdict: fail"]:
            return f"mutant not rejected (rc={rc})"
        for name in ("O", "4P", "FA"):
            if not any(ln.startswith(f"check {name}: fail") for ln in lines):
                return f"mutant passes ({name})"
        om = oracle.parse_om(files[subject])
        o_line = next(ln for ln in lines if ln.startswith("check O: fail"))
        _, circ, _, _, _, _, cocirc = o_line.split(" witness: ")[1].split(" ")
        c, u = oracle.from_string(circ), oracle.from_string(cocirc)
        if oracle.canonical(c) not in oracle.signing(om["circuits"]) or oracle.canonical(u) not in oracle.signing(
            om["cocircuits"]
        ):
            return "(O) witness is not a signed circuit/cocircuit pair of the input"
        return None if not oracle.orthogonal(c, u) else "(O) witness pair is orthogonal"
    if rc != 0:
        return f"exit code {rc}"
    if e["kind"] == "graphic":
        n_vertices, arcs = digraph
        om = oracle.parse_om(files[e["out"]])
        if om["labels"] != [f"e{k + 1}" for k in range(len(arcs))]:
            return "ground set is not the arc list"
        if oracle.signing(om["circuits"]) != oracle.cycles(arcs):
            return "signed circuits differ from the digraph's signed cycles"
        if oracle.signing(om["cocircuits"]) != oracle.bonds(arcs, n_vertices):
            return "signed cocircuits differ from the digraph's signed bonds"
        return None
    if e["kind"] == "decompose":
        target = oracle.from_string(op["argv"][-1])
        pieces = [oracle.from_string(ln) for ln in out.splitlines()]
        circuits = oracle.signing(oracle.parse_om(files[e["om"]])["circuits"])
        if not all(oracle.canonical(p) in circuits and oracle.conforms(p, target) for p in pieces):
            return "a piece is not a signed circuit conforming to the target"
        return None if oracle.compose(pieces) == target else "pieces do not compose to the target"
    if e["kind"] == "farkas":
        n_vertices, arcs = digraph
        rows = dict(ln.split(": ", 1) for ln in out.splitlines())
        orient = oracle.from_string(rows["orientation"])
        family = oracle.cycles(arcs) if rows["kind"] == "directed-cycle" else oracle.bonds(arcs, n_vertices)
        if orient[1] or orient[0] not in oracle.directed_through(family, e["arc"]):
            return f"certificate is not a {rows['kind']} through the arc"
        labels = {f"e{k + 1}" for k in range(len(arcs)) if orient[0] >> k & 1}
        return None if set(rows["arcs"].split(",")) == labels else "certificate arcs and orientation disagree"
    if e["kind"] == "neat":
        vecs = oracle.parse_lines(files[e["lines"]])
        if len(vecs) != int(op["argv"][2]) or not oracle.is_free(vecs):
            return "line set has the wrong size or is not free"
        om = oracle.parse_om(files[e["out"]])
        circ, cocirc = oracle.rank3_signatures(vecs)
        if oracle.signing(om["circuits"]) != circ or oracle.signing(om["cocircuits"]) != cocirc:
            return "oriented matroid differs from the one the lines realize"
        return None
    if e["kind"] == "derive":
        return None if out == files[e["src"]] else "derived cocircuits differ from the generator's"
    if e["kind"] == "dual":
        src, dual = oracle.parse_om(files[e["src"]]), oracle.parse_om(out)
        same = (
            dual["labels"] == src["labels"]
            and oracle.signing(dual["circuits"]) == oracle.signing(src["cocircuits"])
            and oracle.signing(dual["cocircuits"]) == oracle.signing(src["circuits"])
            and set(dual["supports"]) == {u[0] | u[1] for u in src["cocircuits"]}
        )
        return None if same else "dual does not swap circuits and cocircuits"
    raise ValueError(f"unknown expectation {e['kind']!r}")


# -- pool-sweep -----------------------------------------------------------------------


@dataclass
class Spec:
    """One pool instance as generated: enough to build its pair inside the timed op."""

    name: str
    kind: str  # alt | graphic | lines | mutant
    n: int = 0  # alt-n size
    digraph: object = None  # omlab Digraph
    arcs: list = field(default_factory=list)
    n_vertices: int = 0
    lineset: object = None  # omlab LineSet
    base: "Spec | None" = None
    side: str = ""
    pick: tuple[float, float] = (0.0, 0.0)


def _random_lineset(rng: random.Random, n: int):
    from omlab.errors import DomainError
    from omlab.lines import LineSet, free_witness

    while True:
        vecs = []
        for _ in range(n):
            v = (0, 0, 0)
            while v == (0, 0, 0):
                v = tuple(rng.randint(-6, 6) for _ in range(3))
            vecs.append(v)
        try:
            q = LineSet.of(vecs)
        except DomainError:
            continue
        if free_witness(q) is None:
            return q


def _digraph_spec(name: str, n_vertices: int, arcs) -> Spec:
    from omlab.digraphs import Digraph

    names = [str(i + 1) for i in range(n_vertices)]
    d = Digraph.of(names, [(names[t], names[h]) for t, h in arcs])
    return Spec(name, "graphic", digraph=d, arcs=list(arcs), n_vertices=n_vertices)


def build_pool(seed: int) -> list[Spec]:
    """210 instances after tests/conftest.build_pool: 4 alt-n, 64 graphic, 62 lines, 80 mutants."""
    rng = random.Random(f"pool-sweep:{seed}")
    pool = [Spec(f"uniform-alt-{n}", "alt", n=n) for n in (4, 5, 6, 7)]
    pool.append(_digraph_spec("graphic-fig4", 4, FIG4_ARCS))
    pool.append(_digraph_spec("graphic-triangle", 3, TRIANGLE_ARCS))
    for k, arcs in enumerate(GRAPHIC_ARCS):
        nv = 1 + max(max(arc) for arc in arcs)
        pool.append(_digraph_spec(f"graphic-{k}", nv, oracle.relabel(rng, nv, arcs)))
    for k, n in enumerate(LINE_SIZES):
        pool.append(Spec(f"lines-{k}", "lines", lineset=_random_lineset(rng, n)))
    pristine = list(pool)
    for k, b in enumerate(MUTANT_BASES):
        base = pristine[b]
        side = rng.choice(["circ", "cocirc"])
        pool.append(Spec(f"mutant-{k}-of-{base.name}", "mutant", base=base, side=side,
                         pick=(rng.random(), rng.random())))
    return pool


def _build_pair(spec: Spec):
    from omlab import digraphs, lines, oriented

    if spec.kind == "alt":
        return oriented.alternating_rank2(spec.n)
    if spec.kind == "graphic":
        return digraphs.graphic_om(spec.digraph)
    if spec.kind == "lines":
        return lines.u3_signature(spec.lineset)
    pair = _build_pair(spec.base)
    # flip one sign of one (co)circuit of support >= 2, as conftest.corrupt_pair does
    for side in (spec.side, "cocirc" if spec.side == "circ" else "circ"):
        sig = pair.circuit_sig if side == "circ" else pair.cocircuit_sig
        reps = list(sig.representatives())
        cands = [i for i, r in enumerate(reps) if r.support.bit_count() >= 2]
        if cands:
            break
    i = cands[int(spec.pick[0] * len(cands))]
    r = reps[i]
    support = [e for e in range(r.ground.size) if r.support >> e & 1]
    b = 1 << support[int(spec.pick[1] * len(support))]
    reps[i] = type(r)(r.ground, (r.pos & ~b) | (r.neg & b), (r.neg & ~b) | (r.pos & b))
    mutated = oriented.CircuitSignature.from_representatives(sig.matroid, reps)
    if side == "circ":
        return oriented.SignaturePair(pair.matroid, mutated, pair.cocircuit_sig)
    return oriented.SignaturePair(pair.matroid, pair.circuit_sig, mutated)


def sweep_instance(spec: Spec) -> dict:
    """The timed operation: build the pair, run every checker, derive, sweep minors,
    decompose vectors and certify arcs.  Returns raw outcomes for ``check_instance``."""
    from omlab import digraphs, matroid, oriented, signed_sets

    pair = _build_pair(spec)
    n = pair.ground.size
    out = {
        "O": oriented.check_orthogonality(pair),
        "CE": oriented.check_CE(pair.circuit_sig),
        "CE*": oriented.check_CE(pair.cocircuit_sig),
        "4P": oriented.check_4P(pair),
        "FP": oriented.check_FP(pair.circuit_sig.signed, pair.cocircuit_sig.signed, pair.ground),
        "FA": oriented.check_FA(pair),
        "derived": oriented.derive_cocircuit_signature(pair.matroid, pair.circuit_sig),
    }
    minors = o_bad = fa_bad = 0
    if n <= 6 and out["O"].ok:
        for states in itertools.product(range(3), repeat=n):
            spec_m = matroid.MinorSpec.of(
                contract=[i for i, s in enumerate(states) if s == 1],
                delete=[i for i, s in enumerate(states) if s == 2],
            )
            induced = oriented.induced_signature(pair, spec_m)
            o_bad += not oriented.check_orthogonality(induced).ok
            fa_bad += not oriented.check_FA(induced).ok
            minors += 1
    out["minors"] = (minors, o_bad, fa_bad)
    decomposed = []
    if n <= 5 and out["4P"].ok:
        for v in sorted(oriented.vectors(pair.circuit_sig), key=lambda x: x.sort_key()):
            pieces = oriented.conformal_decompose(pair, v, trust_4p=True)
            decomposed.append((v, pieces, signed_sets.compose(pair.ground, pieces) == v))
    out["decomposed"] = decomposed
    out["minty"] = [digraphs.minty_certificate(spec.digraph, lbl) for lbl in spec.digraph.labels] if spec.kind == "graphic" else []
    out["pair"] = pair
    return out


def _verdict_text(v) -> str:
    return "pass" if v.ok else f"fail {v.witness}"


def _masks(signed) -> list[tuple[int, int]]:
    return sorted(oracle.canonical((x.pos, x.neg)) for x in signed)


def instance_fingerprint(out: dict) -> str:
    derived = out["derived"]
    derived_text = str(derived) if not hasattr(derived, "signed") else _masks(derived.signed)
    return digest(
        *(_verdict_text(out[k]) for k in ("O", "CE", "CE*", "4P", "FP", "FA")),
        derived_text,
        out["minors"],
        [(str(v), [str(p) for p in pieces]) for v, pieces, _ in out["decomposed"]],
        [(c.kind, str(c.orientation)) for c in out["minty"]],
    )


def check_instance(spec: Spec, out: dict) -> str | None:
    """None when the instance's outcomes match the independent answers, else why not."""
    pair = out["pair"]
    if spec.kind == "mutant":
        failed = [k for k in ("O", "4P", "FA") if not out[k].ok]
        return None if len(failed) == 3 else "mutant passes " + ",".join(k for k in ("O", "4P", "FA") if out[k].ok)
    bad = [k for k in ("O", "CE", "CE*", "4P", "FP", "FA") if not out[k].ok]
    if bad:
        return f"oriented matroid fails {','.join(bad)}"
    if not hasattr(out["derived"], "signed") or _masks(out["derived"].signed) != _masks(pair.cocircuit_sig.signed):
        return "derived cocircuit signature differs from the generator's"
    minors, o_bad, fa_bad = out["minors"]
    if pair.ground.size <= 6 and (minors != 3 ** pair.ground.size or o_bad or fa_bad):
        return f"minor closure broken ({o_bad} (O), {fa_bad} (FA) failures in {minors} minors)"
    if pair.ground.size <= 5:
        circuits = [(x.pos, x.neg) for x in pair.circuit_sig.signed]
        if {(v.pos, v.neg) for v, _, _ in out["decomposed"]} != oracle.vectors(circuits):
            return "vectors differ from all compositions of signed circuits"
        members = set(circuits)
        for v, pieces, composed in out["decomposed"]:
            target, got = (v.pos, v.neg), [(p.pos, p.neg) for p in pieces]
            if not composed or not all(p in members and oracle.conforms(p, target) for p in got) or oracle.compose(got) != target:
                return f"decomposition of {v} is not conformal"
    if spec.kind == "graphic":
        cycles, bonds = oracle.cycles(spec.arcs), oracle.bonds(spec.arcs, spec.n_vertices)
        for arc, cert in enumerate(out["minty"]):
            family = cycles if cert.kind == "directed-cycle" else bonds
            if cert.orientation.neg or cert.orientation.pos not in oracle.directed_through(family, arc):
                return f"arc {arc}: certificate is not a {cert.kind} through it"
    return None
