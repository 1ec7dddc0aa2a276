"""Key-dependent circuit rewriting and homomorphic evaluation.

Each source gate is replaced by a twin chosen from the key bits of the wires
it touches, so that running the rewritten circuit on a QOTP ciphertext equals
encrypting the plaintext result. Single-qubit gates map to exactly one gate;
cnot maps to at most three.

Density-matrix semantics are blind to global phase, but the matrix-level test
oracles are not: every dropped (-1) factor -- the cnot sign and each angle
negation that wraps past zero during canonicalization -- is counted in
RewriteResult.phase_flips so the exact sign can be reconstructed.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from . import circuits, linalg, qotp
from .circuits import Circuit, Gate
from .linalg import DensityState, PureState, canonical_angle
from .qotp import QotpKey


class OperatorNotPermitted(Exception):
    """The operator is outside the scheme's permitted set."""


class Scheme(enum.Enum):
    """Single-gate schemes: which operator family Evaluate accepts."""

    RZ_ONLY = "rz-only"
    RY_ONLY = "ry-only"
    RY_HY = "ry-hy"
    COMBINED = "combined"
    CNOT_ONLY = "cnot-only"


@dataclass(frozen=True)
class RewriteResult:
    """Replacement gates for one source gate, plus dropped (-1) phase count."""

    gates: tuple[Gate, ...]
    phase_flips: int

    def __post_init__(self):
        if not 1 <= len(self.gates) <= 3:
            raise ValueError(f"replacement must hold 1..3 gates, got {len(self.gates)}")


def _negate_if(theta: float, active: int) -> tuple[float, int]:
    """Canonical (-1)^active * theta and whether canonicalization wrapped (one sign flip)."""
    if not active or theta == 0.0:
        return theta, 0
    return canonical_angle(-theta), 1


def rewrite_gate(key: QotpKey, gate: Gate) -> RewriteResult:
    """Rewrite one gate against the key bits of the wires it touches.

    cnot becomes Z^m on the control, X^j on the target, then cnot, and drops
    (-1)^(j*m). A single-qubit gate keeps its kind and negates each angle by
    the parity column of its GateSpec; gates without one lift to u first.
    """
    if key.variant != qotp.VARIANT_XZ:
        raise ValueError(f"circuit rewriting requires the xz key variant, got {key.variant!r}")
    if gate.kind == "cnot":
        control, target = gate.wires
        j = int(key.x_bits[control])
        m = int(key.z_bits[target])
        gates: list[Gate] = []
        if m:
            gates.append(Gate.named("z", control))
        if j:
            gates.append(Gate.named("x", target))
        gates.append(gate)
        return RewriteResult(tuple(gates), j * m)
    wire = gate.wires[0]
    j = int(key.x_bits[wire])
    k = int(key.z_bits[wire])
    kind, params = gate.kind, gate.params
    if not linalg.GATE_SPECS[kind].parity:
        # named gates lift through the ZYZ form; the general rule covers them
        kind, params = "u", circuits.euler_decompose(gate.matrix()).as_tuple()
    angles: list[float] = []
    flips = 0
    for theta, (x_weight, z_weight) in zip(params, linalg.GATE_SPECS[kind].parity):
        theta, flip = _negate_if(theta, (x_weight & j) ^ (z_weight & k))
        angles.append(theta)
        flips += flip
    return RewriteResult((Gate(kind, gate.wires, tuple(angles)),), flips)


def rewrite_circuit(key: QotpKey, circuit: Circuit) -> Circuit:
    """The evaluable twin C' of C under a fixed key; size grows at most 3x."""
    if key.n_qubits != circuit.n_qubits:
        raise ValueError(f"key is for {key.n_qubits} qubit(s), circuit has {circuit.n_qubits}")
    gates: list[Gate] = []
    for gate in circuit.gates:
        gates.extend(rewrite_gate(key, gate).gates)
    return Circuit(circuit.n_qubits, tuple(gates))


def evaluate(key: QotpKey, circuit: Circuit, ciphertext):
    """Run the rewritten circuit on the ciphertext; no decryption happens here."""
    if not isinstance(ciphertext, (PureState, DensityState)):
        raise TypeError(f"expected PureState or DensityState, got {type(ciphertext).__name__}")
    return circuits.simulate(rewrite_circuit(key, circuit), ciphertext)


_PERMITTED = {
    Scheme.RZ_ONLY: {"rz"},
    Scheme.RY_ONLY: {"ry"},
    Scheme.RY_HY: {"ry"},
    Scheme.COMBINED: {"rz", "ry"},
    Scheme.CNOT_ONLY: {"cnot"},
}


def scheme_evaluate(scheme: Scheme, key: QotpKey, op: Gate, ciphertext: DensityState) -> DensityState:
    """Single-gate Evaluate for the restricted schemes; rejects op outside the permitted set."""
    if op.kind not in _PERMITTED[scheme]:
        raise OperatorNotPermitted(
            f"operator {op.kind!r} is not permitted by scheme {scheme.value!r}"
        )
    expected_variant = qotp.VARIANT_HY if scheme is Scheme.RY_HY else qotp.VARIANT_XZ
    if key.variant != expected_variant:
        raise ValueError(f"scheme {scheme.value!r} requires a {expected_variant!r} key")
    if ciphertext.n_qubits != key.n_qubits:
        raise ValueError(f"key is for {key.n_qubits} qubit(s), state has {ciphertext.n_qubits}")
    if scheme is Scheme.RY_HY:
        # moving H^a Y^b past Ry negates the angle by the H bit alone
        wire = op.wires[0]
        twin = (Gate.ry(_negate_if(op.params[0], int(key.x_bits[wire]))[0], wire),)
    else:
        twin = rewrite_gate(key, op).gates
    return circuits.simulate(Circuit(key.n_qubits, twin), ciphertext)
