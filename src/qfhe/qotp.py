"""Quantum one-time pad: key generation, encryption, decryption.

A key holds one X-exponent bit and one Z-exponent bit per qubit. Encryption
conjugates the state by the Pauli mask X^a Z^b; decryption applies the exact
inverse Z^b X^a. The "hy" variant replaces the mask with H^a Y^b and is only
meaningful for the Ry-family scheme.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .linalg import DensityState, PureState
from .rng import RandomSource

VARIANT_XZ = "xz"
VARIANT_HY = "hy"
VARIANTS = (VARIANT_XZ, VARIANT_HY)


@dataclass(frozen=True)
class QotpKey:
    """Per-qubit X and Z exponent bits, plus the masking variant."""

    n_qubits: int
    x_bits: str
    z_bits: str
    variant: str = VARIANT_XZ

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        for name, bits in (("x_bits", self.x_bits), ("z_bits", self.z_bits)):
            if len(bits) != self.n_qubits or not all(c in "01" for c in bits):
                raise ValueError(f"{name} must be a {self.n_qubits}-bit string, got {bits!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


def keygen(n_qubits: int, rng: RandomSource, variant: str = VARIANT_XZ) -> QotpKey:
    """Draw 2n uniform key bits from the given source."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    return QotpKey(n_qubits, rng.bit_string(n_qubits), rng.bit_string(n_qubits), variant)


#: per variant, the gates applied for a set x bit and a set z bit
_MASK_GATES = {VARIANT_XZ: ("x", "z"), VARIANT_HY: ("h", "y")}


def _conjugate(key: QotpKey, state, inverse: bool):
    if isinstance(state, (PureState, DensityState)) and state.n_qubits != key.n_qubits:
        raise ValueError(f"key is for {key.n_qubits} qubit(s), state has {state.n_qubits}")
    first, second = (linalg.gate_matrix(kind) for kind in _MASK_GATES[key.variant])
    op = linalg.mask_operator(first, second, key.x_bits, key.z_bits, inverse)
    return linalg.apply_to_wires(op, range(key.n_qubits), state)


def encrypt(key: QotpKey, state):
    """Conjugate by the key mask: X^a Z^b (or H^a Y^b) on each qubit."""
    return _conjugate(key, state, inverse=False)


def decrypt(key: QotpKey, state):
    """Exact inverse of encrypt for the same key."""
    return _conjugate(key, state, inverse=True)


def all_keys(n_qubits: int, variant: str = VARIANT_XZ):
    """Every key on n qubits, in lexicographic (x_bits, z_bits) order."""
    bit_strings = linalg.all_bit_strings(n_qubits)
    return [
        QotpKey(n_qubits, a, b, variant)
        for a in bit_strings
        for b in bit_strings
    ]
