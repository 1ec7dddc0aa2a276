"""Quantum one-time pad: key generation, encryption, decryption.

A key holds one X-exponent bit and one Z-exponent bit per qubit. The mask is
a circuit conjugating each qubit by X^a Z^b; decryption runs it reversed, the
exact inverse Z^b X^a since every mask gate is self-inverse. The "hy" variant
masks with H^a Y^b and is only meaningful for the Ry-family scheme.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from . import circuits
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
        n = linalg._as_qubit_count(self.n_qubits)
        for name, bits in (("x_bits", self.x_bits), ("z_bits", self.z_bits)):
            if not isinstance(bits, str) or len(bits) != n or not all(c in "01" for c in bits):
                raise ValueError(f"{name} must be a {n}-bit string, got {bits!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        object.__setattr__(self, "n_qubits", n)


def keygen(n_qubits: int, rng: RandomSource, variant: str = VARIANT_XZ) -> QotpKey:
    """Draw 2n uniform key bits from the given source."""
    n_qubits = linalg._as_qubit_count(n_qubits)
    linalg._require(rng, RandomSource)
    return QotpKey(n_qubits, rng.bit_string(n_qubits), rng.bit_string(n_qubits), variant)


#: per variant, the gates applied for a set x bit and a set z bit
_MASK_GATES = {VARIANT_XZ: ("x", "z"), VARIANT_HY: ("h", "y")}


def _mask(key: QotpKey, state) -> list:
    """The encryption mask as apply-loop pairs, per wire the z-bit gate then the x-bit gate; checked against the state."""
    linalg._require(key, QotpKey)
    if isinstance(state, (PureState, DensityState)) and state.n_qubits != key.n_qubits:
        raise ValueError(f"key is for {key.n_qubits} qubit(s), state has {state.n_qubits}")
    first, second = (spec.pauli or spec.build() for spec in map(linalg.GATE_SPECS.get, _MASK_GATES[key.variant]))
    bits = enumerate(zip(key.x_bits, key.z_bits))
    return [(op, (wire,)) for wire, (a, b) in bits for op, bit in ((second, b), (first, a)) if bit == "1"]


def encrypt(key: QotpKey, state):
    """Conjugate by the key mask: X^a Z^b (or H^a Y^b) on each qubit."""
    ops = _mask(key, state)
    return circuits._apply(key.n_qubits, ops, state)


def decrypt(key: QotpKey, state):
    """Exact inverse of encrypt for the same key: the mask gates in reverse order."""
    ops = _mask(key, state)[::-1]
    return circuits._apply(key.n_qubits, ops, state)
