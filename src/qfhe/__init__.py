"""QOTP-based symmetric quantum homomorphic encryption toolkit."""

from .analysis import (
    average_over_keys,
    check_appendix_identities,
    classify_key_independent,
    verify_security,
)
from .circuits import (
    Circuit,
    CircuitFormatError,
    Gate,
    parse_circuit,
    serialize_circuit,
    simulate,
)
from .linalg import DensityState, PureState, maximally_mixed, trace_distance
from .qotp import QotpKey, decrypt, encrypt, keygen
from .rewrite import OperatorNotPermitted, evaluate, rewrite_circuit
from .rng import RandomSource

__all__ = [
    "Circuit",
    "CircuitFormatError",
    "DensityState",
    "Gate",
    "OperatorNotPermitted",
    "PureState",
    "QotpKey",
    "RandomSource",
    "average_over_keys",
    "check_appendix_identities",
    "classify_key_independent",
    "decrypt",
    "encrypt",
    "evaluate",
    "keygen",
    "maximally_mixed",
    "parse_circuit",
    "rewrite_circuit",
    "serialize_circuit",
    "simulate",
    "trace_distance",
    "verify_security",
]
