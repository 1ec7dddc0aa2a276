"""QOTP-based symmetric quantum homomorphic encryption toolkit."""

from .analysis import (
    ClassifyResult,
    SecurityReport,
    average_over_keys,
    check_appendix_identities,
    classify_key_independent,
    pauli_decompose,
    verify_security,
)
from .circuits import (
    Circuit,
    CircuitFormatError,
    Gate,
    euler_decompose,
    parse_circuit,
    serialize_circuit,
    simulate,
)
from .linalg import (
    DensityState,
    PureState,
    apply_to_wires,
    canonical_angle,
    gate_matrix,
    maximally_mixed,
    trace_distance,
)
from .qotp import QotpKey, decrypt, encrypt, keygen
from .rewrite import (
    OperatorNotPermitted,
    RewriteResult,
    Scheme,
    evaluate,
    rewrite_circuit,
    rewrite_gate,
    scheme_evaluate,
)
from .rng import RandomSource

__all__ = [
    "Circuit",
    "CircuitFormatError",
    "ClassifyResult",
    "DensityState",
    "Gate",
    "OperatorNotPermitted",
    "PureState",
    "QotpKey",
    "RandomSource",
    "RewriteResult",
    "Scheme",
    "SecurityReport",
    "apply_to_wires",
    "average_over_keys",
    "canonical_angle",
    "check_appendix_identities",
    "classify_key_independent",
    "decrypt",
    "encrypt",
    "euler_decompose",
    "evaluate",
    "gate_matrix",
    "keygen",
    "maximally_mixed",
    "parse_circuit",
    "pauli_decompose",
    "rewrite_circuit",
    "rewrite_gate",
    "scheme_evaluate",
    "serialize_circuit",
    "simulate",
    "trace_distance",
    "verify_security",
]
