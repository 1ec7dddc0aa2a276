"""Key-dependent circuit rewriting and homomorphic evaluation.

Each source gate is replaced by a twin, so that running the rewritten circuit
on a QOTP ciphertext equals encrypting the plaintext result. ``twin`` is the
one rule: it reads the mask's x bit on the gate's first wire and its z bit on
the last. Single-qubit gates map to exactly one gate; cnot maps to at most three.
An angle-free gate's twins never change, so ``_fixed_twin`` keeps one per (kind, wires, x, z).

The restricted single-gate schemes are the same rule with fewer gates permitted,
one row of permitted kinds and key variant per ``Scheme``. Under the hy mask
H^a Y^b, Y commutes with Ry and H negates its angle: the twin is ``twin`` with z = 0.

Density-matrix semantics are blind to global phase, but the matrix-level test
oracles are not: every dropped (-1) factor -- the cnot sign, a Pauli's sign
and each angle negation that wraps past zero during canonicalization -- is
counted in RewriteResult.phase_flips so the exact sign can be reconstructed.
"""
from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from . import circuits, linalg, qotp
from .circuits import Circuit, Gate
from .linalg import DensityState
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


class RewriteResult(NamedTuple):
    """Replacement gates for one source gate, plus dropped (-1) phase count."""

    gates: tuple[Gate, ...]
    phase_flips: int


def _negate_if(theta: float, active: int) -> tuple[float, int]:
    """Canonical (-1)^active * theta and the number of 2*pi wraps (each one sign flip).

    A tiny theta negates to an angle that rounds to 0.0 without a wrap.
    """
    if not active or theta == 0.0:
        return theta, 0
    return circuits._canon_with_wraps(-theta)


#: ZYZ angles of h, the one fixed gate that is not its own twin: it rewrites as u
_LIFTED = {"h": circuits.euler_decompose(linalg.gate_matrix("h"))}


def twin(gate: Gate, x: int, z: int) -> RewriteResult:
    """The gate's twin under mask bits x, of its first wire, and z, of its last.

    cnot becomes Z^z on the control, X^x on the target, then cnot, and drops
    (-1)^(x*z). A Pauli is its own twin and drops its sign. Any other
    single-qubit gate keeps its kind, h lifted to u first, and negates each
    angle by the parity column of its GateSpec. Every cache of twins calls it.
    """
    if gate.kind == "cnot":
        control, target = gate.wires
        gates: list[Gate] = []
        if z:
            gates.append(circuits._named("z", control))
        if x:
            gates.append(circuits._named("x", target))
        gates.append(gate)
        return RewriteResult(tuple(gates), x * z)
    pauli = linalg.GATE_SPECS[gate.kind].pauli
    if pauli:
        # moving X^x Z^z past X^p Z^q drops (-1)^(x*q + z*p): the exponents swapped are the weights
        p, q = pauli
        return RewriteResult((gate,), (q & x) ^ (p & z))
    kind, params = ("u", _LIFTED[gate.kind]) if gate.kind in _LIFTED else (gate.kind, gate.params)
    angles: list[float] = []
    flips = 0
    for theta, (x_weight, z_weight) in zip(params, linalg.GATE_SPECS[kind].parity):
        theta, flip = _negate_if(theta, (x_weight & x) ^ (z_weight & z))
        angles.append(theta)
        flips += flip
    if kind == gate.kind and tuple(angles) == gate.params:
        return RewriteResult((gate,), flips)  # no angle negated: the gate is its own twin
    # the wires are the checked gate's, and _negate_if and euler_decompose return canonical angles
    return RewriteResult((Gate._unchecked(kind, gate.wires, tuple(angles)),), flips)


def _require_xz(key: QotpKey) -> None:
    if key.variant != qotp.VARIANT_XZ:
        raise ValueError(f"circuit rewriting requires the xz key variant, got {key.variant!r}")


def _check_wires(key: QotpKey, gate: Gate) -> None:  # a lone gate's; a Circuit checks its own wires
    if max(gate.wires) >= key.n_qubits:
        raise ValueError(f"key is for {key.n_qubits} qubit(s), gate acts on wire {max(gate.wires)}")


def rewrite_gate(key: QotpKey, gate: Gate) -> RewriteResult:
    """The gate's twin under the key: ``twin`` with the key's bits on the gate's wires."""
    linalg._require(key, QotpKey)
    linalg._require(gate, Gate)
    _require_xz(key)
    _check_wires(key, gate)
    return twin(gate, int(key.x_bits[gate.wires[0]]), int(key.z_bits[gate.wires[-1]]))


def _twins(key: QotpKey, circuit: Circuit) -> list[Gate]:
    """Every gate's twin under the key, in order, after checking the circuit against the key; an hy key fails even with no gate."""
    linalg._require(circuit, Circuit)
    linalg._require(key, QotpKey)
    if key.n_qubits != circuit.n_qubits:
        raise ValueError(f"key is for {key.n_qubits} qubit(s), circuit has {circuit.n_qubits}")
    _require_xz(key)  # once per circuit, so ``twin`` takes the bits directly
    x_bits, z_bits = [*map(int, key.x_bits)], [*map(int, key.z_bits)]
    gates: list[Gate] = []
    for gate in circuit.gates:
        x, z = x_bits[gate.wires[0]], z_bits[gate.wires[-1]]
        gates += (twin(gate, x, z) if gate.params else _fixed_twin(gate.kind, gate.wires, x, z)).gates
    return gates


@functools.lru_cache(maxsize=1024)  # every angle-free twin up to n = 14: 16n one-wire and 4n(n - 1) cnot entries
def _fixed_twin(kind: str, wires: tuple[int, ...], x: int, z: int) -> RewriteResult:
    """``twin`` of an angle-free gate (x, y, z, h, cnot), shared: a RewriteResult holds frozen Gates.
    Code that replaces the rule at run time must call its ``cache_clear``."""
    return twin(Gate._unchecked(kind, wires, ()), x, z)


def rewrite_circuit(key: QotpKey, circuit: Circuit) -> Circuit:
    """The evaluable twin C' of C under a fixed key; size grows at most 3x."""
    gates = _twins(key, circuit)
    return Circuit(key.n_qubits, gates)


def evaluate(key: QotpKey, circuit: Circuit, ciphertext):
    """Run the rewritten circuit on the ciphertext; no decryption happens here."""
    gates = _twins(key, circuit)
    return circuits._apply_gates(key.n_qubits, gates, ciphertext)


#: per scheme, the gate kinds Evaluate accepts and the key variant it masks with
_SCHEMES = {
    Scheme.RZ_ONLY: ({"rz"}, qotp.VARIANT_XZ),
    Scheme.RY_ONLY: ({"ry"}, qotp.VARIANT_XZ),
    Scheme.RY_HY: ({"ry"}, qotp.VARIANT_HY),
    Scheme.COMBINED: ({"rz", "ry"}, qotp.VARIANT_XZ),
    Scheme.CNOT_ONLY: ({"cnot"}, qotp.VARIANT_XZ),
}


def scheme_evaluate(scheme: Scheme, key: QotpKey, op: Gate, ciphertext: DensityState) -> DensityState:
    """Single-gate Evaluate for the restricted schemes; rejects op outside the permitted set."""
    linalg._require(scheme, Scheme)
    linalg._require(key, QotpKey)
    linalg._require(op, Gate)
    permitted, variant = _SCHEMES[scheme]
    if op.kind not in permitted:
        raise OperatorNotPermitted(f"operator {op.kind!r} is not permitted by scheme {scheme.value!r}")
    if key.variant != variant:
        raise ValueError(f"scheme {scheme.value!r} requires a {variant!r} key")
    linalg._require(ciphertext, linalg.PureState, DensityState)
    if ciphertext.n_qubits != key.n_qubits:
        raise ValueError(f"key is for {key.n_qubits} qubit(s), state has {ciphertext.n_qubits}")
    _check_wires(key, op)
    z = int(key.z_bits[op.wires[-1]]) if variant == qotp.VARIANT_XZ else 0  # an hy key's z bit is Y's
    twins = twin(op, int(key.x_bits[op.wires[0]]), z).gates
    return circuits._apply_gates(key.n_qubits, twins, ciphertext)
