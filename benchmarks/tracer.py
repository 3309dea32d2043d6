"""Per-layer spans around omlab's public functions, installed from outside.

The tracer rebinds each listed function (and every ``from ... import`` copy
of it inside the omlab package) to a wrapper that records call count, self
time (span minus the child spans it covers) and, where defined, a work count
computed from the call's inputs and outputs.  Nothing under ``src/`` changes;
``uninstall`` restores the originals.

Hot inner helpers (``Matroid.rank``, ``_paint_scan``, the ``SignedSubset``
operators) are deliberately not wrapped: their call counts are in the
millions and a wrapper would dominate what it measures.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
from time import perf_counter

# -- work counts, computed by the harness from inputs and outputs ---------------

_COLOR = ("black", "white", "green", "red")
_RAISED = object()


def work_4p(result, pair, *args, **kwargs) -> int:
    """Partitions visited: 4^n on a pass, the witness's product-order index + 1 on a fail."""
    n = pair.ground.size
    if result.ok:
        return 4**n
    part = result.witness.partition
    index = 0
    for i in range(n):
        color = next(c for c, name in enumerate(_COLOR) if i in getattr(part, name))
        index = index * 4 + color
    return index + 1


def work_fa(result, pair, *args, **kwargs) -> int:
    """Minor x reorientation pairs visited: 4^n on a pass, the witness position on a fail."""
    n = pair.ground.size
    if result.ok:
        return 4**n
    w = result.witness
    target = tuple(1 if i in w.spec.contract else 2 if i in w.spec.delete else 0 for i in range(n))
    before = 0
    for states in itertools.product(range(3), repeat=n):
        if states == target:
            break
        before += 1 << states.count(0)
    kept = [i for i in range(n) if target[i] == 0]
    k = sum(1 << j for j, i in enumerate(kept) if i in w.reorient)
    return before + k + 1


def work_ce(result, sig, *args, **kwargs) -> int:
    """(C, X) pairs visited: sum over C of 2^|C| - 1, up to the witness on a fail."""
    reps = sig.representatives()
    sizes = [r.support.bit_count() for r in reps]
    if result.ok:
        return sum((1 << s) - 1 for s in sizes)
    inst = result.witness.instance
    at = next(i for i, r in enumerate(reps) if r.support == inst.circuit.support)
    xs = [i for i in range(inst.circuit.ground.size) if inst.circuit.support >> i & 1]
    x = tuple(sorted(inst.eliminated))
    pos = sum(math.comb(len(xs), s) for s in range(1, len(x)))
    pos += next(j for j, combo in enumerate(itertools.combinations(xs, len(x))) if combo == x)
    return sum((1 << s) - 1 for s in sizes[:at]) + pos + 1


def _fails(result) -> bool:
    return not result.ok


def _text_bytes(result, text, *args, **kwargs) -> int:
    return len(text.encode("utf-8"))


def _out_bytes(result, *args, **kwargs) -> int:
    return len(result.encode("utf-8"))


def _len_result(result, *args, **kwargs) -> int:
    return len(result)


def _circuits_in(result, ground, family, *args, **kwargs) -> int:
    return len(family)


# (metric prefix, module, attribute path, work counter, fails predicate, work unit)
TARGETS = [
    ("oriented.check_4P", "oriented", "check_4P", work_4p, _fails, "partitions"),
    ("oriented.check_FA", "oriented", "check_FA", work_fa, _fails, "minor_reorients"),
    ("oriented.check_CE", "oriented", "check_CE", work_ce, _fails, "CX_pairs"),
    ("oriented.check_orthogonality", "oriented", "check_orthogonality", None, None, None),
    ("oriented.check_FP", "oriented", "check_FP", None, None, None),
    ("oriented.derive_cocircuit_signature", "oriented", "derive_cocircuit_signature", None, None, None),
    ("oriented.induced_signature", "oriented", "induced_signature", None, None, None),
    ("oriented.CircuitSignature", "oriented", "CircuitSignature.__init__", None, None, None),
    ("oriented.SignaturePair", "oriented", "SignaturePair.__init__", None, None, None),
    ("oriented.vectors", "oriented", "vectors", _len_result, None, "vectors"),
    ("oriented.conformal_decompose", "oriented", "conformal_decompose", None, None, None),
    ("matroid.validate_circuits", "matroid", "validate_circuits", _circuits_in, None, "circuits"),
    ("matroid.Matroid.dual", "matroid", "Matroid.dual", "dual", None, "cocircuits"),
    ("matroid.Matroid.minor_with_map", "matroid", "Matroid.minor_with_map", None, None, None),
    ("matroid.contraction_circuit_masks", "matroid", "contraction_circuit_masks", None, None, None),
    ("lines.neat_prefix", "lines", "neat_prefix", None, None, None),
    ("lines.u3_signature", "lines", "u3_signature", None, None, None),
    ("digraphs.graphic_om", "digraphs", "graphic_om", None, None, None),
    ("digraphs.cycle_representatives", "digraphs", "cycle_representatives", None, None, None),
    ("digraphs.bond_representatives", "digraphs", "bond_representatives", None, None, None),
    ("digraphs.minty_certificate", "digraphs", "minty_certificate", None, None, None),
    ("formats.parse_oriented", "formats", "parse_oriented", _text_bytes, None, "bytes"),
    ("formats.emit_oriented", "formats", "emit_oriented", _out_bytes, None, "bytes"),
    ("formats.parse_digraph", "formats", "parse_digraph", _text_bytes, None, "bytes"),
    ("signed_sets.SignedSubset.from_string", "signed_sets", "SignedSubset.from_string", None, None, None),
    ("signed_sets.compose", "signed_sets", "compose", None, None, None),
    ("cli.main", "cli", "main", None, None, None),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the trace emits, with its unit."""
    units = {}
    for prefix, _, _, work, fails, work_unit in TARGETS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        if work is not None:
            units[f"{prefix}.work"] = work_unit
        if fails is not None:
            units[f"{prefix}.fails"] = "count"
    units["cli.import_s"] = "s"
    units["trace.coverage_frac"] = "frac"
    units["trace.overhead_frac"] = "frac"
    return units


class Tracer:
    """Spans kept in memory; ``stats`` holds one counter row per wrapped function."""

    def __init__(self):
        self.stats = {t[0]: {"calls": 0, "self_s": 0.0, "work": 0, "fails": 0} for t in TARGETS}
        self.covered_s = 0.0
        self._stack: list[list[float]] = []
        self._dual_seen: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for row in self.stats.values():
            row.update(calls=0, self_s=0.0, work=0, fails=0)
        self.covered_s = 0.0
        self._dual_seen.clear()

    def _work_dual(self, result, matroid, *args, **kwargs) -> int:
        # count each matroid's cocircuits once: later calls return its cached dual
        if id(matroid) in self._dual_seen:
            return 0
        self._dual_seen[id(matroid)] = matroid
        return len(result.circuit_masks)

    def _wrap(self, name, fn, work, fails):
        row = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            result = _RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                row["calls"] += 1
                row["self_s"] += (end - start) - frame[0]
                if result is not _RAISED:
                    if work is not None:
                        row["work"] += work(result, *args, **kwargs)
                    if fails is not None and fails(result):
                        row["fails"] += 1
                if stack:
                    # the parent's self time excludes this span and its bookkeeping
                    stack[-1][0] += perf_counter() - enter
                else:
                    self.covered_s += end - start

        return wrapper

    def install(self) -> None:
        for _, modname, _, _, _, _ in TARGETS:
            importlib.import_module(f"omlab.{modname}")
        package = [m for k, m in sys.modules.items() if k == "omlab" or k.startswith("omlab.")]
        for name, modname, path, work, fails, _ in TARGETS:
            module = sys.modules[f"omlab.{modname}"]
            if work == "dual":
                work = self._work_dual
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, work, fails))
                else:
                    wrapped = self._wrap(name, raw, work, fails)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, work, fails)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
