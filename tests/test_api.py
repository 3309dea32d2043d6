"""Snapshot of the public surface and of the signatures of the functions that carry options.

A new option, public name or removal fails here until this snapshot is edited
on purpose; record each such edit in CHANGES.md.
"""

import inspect

import omlab
from omlab import cli, digraphs, formats, lines, matroid, oriented, signed_sets

ALL = [
    "CapExceededError", "CircuitSignature", "CircuitViolation", "Digraph", "DomainError",
    "EliminationInstance", "FarkasCertificate", "FormatError", "FourPartition", "GroundMismatchError",
    "GroundSet", "InvariantError", "Line", "LineSet", "Matroid", "MinorSpec", "OmlabError",
    "SignaturePair", "SignedSubset", "UnknownElementError", "ValidationError", "Verdict",
    "alternating_rank2", "check_4P", "check_4P_at", "check_CE", "check_FA", "check_FP",
    "check_orthogonality", "check_signature_uniqueness", "compose", "conformal_decompose",
    "decompose_nonneg_flow", "derive_cocircuit_signature", "disjoint_cocircuit_decomposition",
    "eliminate_avoiding", "fa_gap_witness", "fp_report", "graphic_om", "induced_sets",
    "induced_signature", "is_flow", "is_free", "lex_canonical", "minty_certificate",
    "neat_prefix", "special_eliminate", "triple_plane_concurrency",
    "u3_signature", "validate_circuits", "vectors",
]

ATTRIBUTES = {
    "GroundSet": ["check_mask", "full_mask", "index", "labels", "labels_of", "range", "size"],
    "SignedSubset": [
        "canonical_rep", "conforms_to", "from_string", "ground", "is_empty", "is_positive", "neg",
        "orthogonal", "pos", "reorient", "restrict", "sep_mask", "sign", "sort_key",
        "support", "to_string", "zero",
    ],
    "Matroid": [
        "circuit_masks", "cocircuit_masks", "dual", "from_circuits", "ground", "minor_with_map", "rank",
    ],
    "CircuitSignature": [
        "by_support", "from_representatives", "ground", "matroid", "member_masks", "pair_masks", "reorient",
        "representatives", "signed",
    ],
    "SignaturePair": ["circuit_sig", "cocircuit_sig", "dual", "ground", "matroid", "reorient"],
    "Digraph": ["arc_index", "arcs", "ground", "labels", "of", "vertices"],
}

SIGNATURES = {
    matroid.validate_circuits: "(ground, family, *, trusted=False)",
    matroid.Matroid.from_circuits: "(ground, family)",
    formats.parse_oriented: "(text, *, trusted=False)",
    formats._parse_matroid_block: "(block, *, trusted)",
    digraphs.Digraph.of: "(vertices, arcs)",
    signed_sets.GroundSet.range: "(n)",
    oriented.fa_gap_witness: "(pair)",
    oriented.check_FA: "(pair, *, cap=10, sample=None, seed=0)",
    oriented._fa_blocks: "(n, circ_pairs, cocirc_pairs, tables)",
    oriented._fa_members: "(circ_pairs, cocirc_pairs, batch, matroids)",
    oriented._live_planes: "(masks, inside)",
    lines.u3_signature: "(q)",
    cli._run_checks: "(pair, which, caps, sample, seed)",
}


def bare_signature(fn) -> str:
    """``inspect.signature`` without annotations: names, kinds and defaults only."""
    sig = inspect.signature(fn)
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty))


def test_public_names():
    assert sorted(omlab.__all__) == ALL


def test_public_attributes_of_core_classes():
    ground = omlab.GroundSet.range(2)
    pair = omlab.alternating_rank2(3)
    instances = {
        "GroundSet": ground,
        "SignedSubset": omlab.SignedSubset.zero(ground),
        "Matroid": pair.matroid,
        "CircuitSignature": pair.circuit_sig,
        "SignaturePair": pair,
        "Digraph": omlab.Digraph.of(["1", "2"], [("1", "2")]),
    }
    for name, obj in instances.items():
        assert type(obj).__name__ == name
        assert [a for a in dir(obj) if not a.startswith("_")] == ATTRIBUTES[name], name


def test_signatures():
    for fn, want in SIGNATURES.items():
        assert bare_signature(fn) == want, fn.__qualname__
