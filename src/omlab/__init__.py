"""omlab: a finite-scale laboratory for oriented-matroid axiom systems."""

from types import ModuleType as _ModuleType

from .digraphs import (
    Digraph,
    FarkasCertificate,
    decompose_nonneg_flow,
    disjoint_cocircuit_decomposition,
    graphic_om,
    is_flow,
    minty_certificate,
)
from .errors import (
    CapExceededError,
    DomainError,
    FormatError,
    GroundMismatchError,
    InvariantError,
    OmlabError,
    UnknownElementError,
    ValidationError,
)
from .lines import Line, LineSet, is_free, lex_canonical, neat_prefix, triple_plane_concurrency, u3_signature
from .matroid import CircuitViolation, Matroid, MinorSpec, validate_circuits
from .oriented import (
    CircuitSignature,
    EliminationInstance,
    FourPartition,
    SignaturePair,
    Verdict,
    alternating_rank2,
    check_4P,
    check_4P_at,
    check_CE,
    check_FA,
    check_FP,
    check_orthogonality,
    check_signature_uniqueness,
    conformal_decompose,
    derive_cocircuit_signature,
    eliminate_avoiding,
    fa_gap_witness,
    fp_report,
    induced_sets,
    induced_signature,
    special_eliminate,
    vectors,
)
from .signed_sets import GroundSet, SignedSubset, compose

__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
