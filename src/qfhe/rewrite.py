"""Key-dependent circuit rewriting and homomorphic evaluation.

Each source gate is replaced by a twin, so that running the rewritten circuit
on a QOTP ciphertext equals encrypting the plaintext result. ``_rule`` is the
one rule: it reads the mask's x bit on the gate's first wire and its z bit on
the last. Single-qubit gates map to exactly one gate; cnot maps to at most three.
Two readers package its parts: ``twin`` as Gates, ``_pairs`` as the apply
loop's (operator, wires) pairs, which ``evaluate`` and the key stack run. An
angle-free gate's twins never change, so ``_fixed`` keeps its table of four per (kind, wires).

The restricted single-gate schemes are ``evaluate`` with fewer gates permitted,
one row of permitted kinds and key variant per ``Scheme``. Under the hy mask
H^a Y^b, Y commutes with Ry and H negates its angle: the twin is the rule's with z = 0.

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


def _rule(kind: str, wires: tuple[int, ...], params: tuple[float, ...], x: int, z: int) -> tuple:
    """The twin of the gate (kind, wires, params) under mask bits x, of its first wire, and z, of its last.

    Returns (parts, flips), each part a (kind, wires, params) triple. cnot
    becomes Z^z on the control, X^x on the target, then cnot, and drops
    (-1)^(x*z). A Pauli is its own twin and drops its sign. Any other
    single-qubit gate keeps its kind, h lifted to u first, and negates each
    angle by the parity column of its GateSpec. Every reader of twins calls it.
    """
    if kind == "cnot":
        parts = (("z", wires[:1], ()),) * z + (("x", wires[1:], ()),) * x
        return (*parts, (kind, wires, params)), x * z
    pauli = linalg.GATE_SPECS[kind].pauli
    if pauli:
        # moving X^x Z^z past X^p Z^q drops (-1)^(x*q + z*p): the exponents swapped are the weights
        p, q = pauli
        return ((kind, wires, params),), (q & x) ^ (p & z)
    kind, params = ("u", _LIFTED[kind]) if kind in _LIFTED else (kind, params)
    angles: list[float] = []
    flips = 0
    for theta, (x_weight, z_weight) in zip(params, linalg.GATE_SPECS[kind].parity):
        theta, flip = _negate_if(theta, (x_weight & x) ^ (z_weight & z))
        angles.append(theta)
        flips += flip
    return ((kind, wires, tuple(angles)),), flips


def twin(gate: Gate, x: int, z: int) -> RewriteResult:
    """``_rule``'s twin of the gate under mask bits x and z as Gates, a part equal to the gate the gate itself."""
    parts, flips = _rule(gate.kind, gate.wires, gate.params, x, z)
    own = (gate.kind, gate.wires, gate.params)
    # the wires are the checked gate's, and _negate_if and euler_decompose return canonical angles
    return RewriteResult(tuple([gate if part == own else Gate._unchecked(*part) for part in parts]), flips)


def _pairs(kind: str, wires: tuple[int, ...], params: tuple[float, ...], x: int, z: int) -> list:
    """``_rule``'s twin as apply-loop (operator, wires) pairs: a Pauli part as its exponents, any other as its build."""
    specs = linalg.GATE_SPECS
    return [(specs[k].pauli or specs[k].build(*p), w) for k, w, p in _rule(kind, wires, params, x, z)[0]]


def _four(kind: str, wires: tuple[int, ...], params: tuple[float, ...]) -> tuple:
    """The gate's four twins as ``_pairs``, key bits (x, z) at row 2x + z."""
    return tuple(_pairs(kind, wires, params, x, z) for x in (0, 1) for z in (0, 1))


@functools.lru_cache(maxsize=256)  # 4n one-wire and n(n - 1) cnot entries: 238, every angle-free gate, at n = 14
def _fixed(kind: str, wires: tuple[int, ...]):
    """An angle-free gate's (x, y, z, h, cnot) ``linalg._key_table`` of its ``_four`` twins, which ``evaluate``
    and the key stack read. Code that replaces the rule at run time must call its ``cache_clear``."""
    return linalg._key_table(_four(kind, wires, ()))


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


def _bits(key: QotpKey, circuit: Circuit) -> list:
    """Each gate and the key bits its twin reads, (gate, x, z), once the circuit passes the key's checks."""
    linalg._require(circuit, Circuit)
    linalg._require(key, QotpKey)
    if key.n_qubits != circuit.n_qubits:
        raise ValueError(f"key is for {key.n_qubits} qubit(s), circuit has {circuit.n_qubits}")
    _require_xz(key)  # once per circuit, so the readers take the bits directly; an hy key fails even with no gate
    x_bits, z_bits = [*map(int, key.x_bits)], [*map(int, key.z_bits)]
    return [(gate, x_bits[gate.wires[0]], z_bits[gate.wires[-1]]) for gate in circuit.gates]


def rewrite_circuit(key: QotpKey, circuit: Circuit) -> Circuit:
    """The evaluable twin C' of C under a fixed key; size grows at most 3x."""
    gates = [g for gate, x, z in _bits(key, circuit) for g in twin(gate, x, z).gates]
    return Circuit(key.n_qubits, gates)


def evaluate(key: QotpKey, circuit: Circuit, ciphertext):
    """Run the rewritten circuit on the ciphertext; no decryption happens here."""
    ops: list = []
    for gate, x, z in _bits(key, circuit):
        kind, wires, params = gate.kind, gate.wires, gate.params
        ops += _pairs(kind, wires, params, x, z) if params else [(_fixed(kind, wires)[2 * x + z], wires)]
    return circuits._apply(key.n_qubits, ops, ciphertext)


#: per scheme, the gate kinds Evaluate accepts and the key variant it masks with
_SCHEMES = {
    Scheme.RZ_ONLY: ({"rz"}, qotp.VARIANT_XZ),
    Scheme.RY_ONLY: ({"ry"}, qotp.VARIANT_XZ),
    Scheme.RY_HY: ({"ry"}, qotp.VARIANT_HY),
    Scheme.COMBINED: ({"rz", "ry"}, qotp.VARIANT_XZ),
    Scheme.CNOT_ONLY: ({"cnot"}, qotp.VARIANT_XZ),
}


def scheme_evaluate(scheme: Scheme, key: QotpKey, op: Gate, ciphertext: DensityState) -> DensityState:
    """Single-gate Evaluate for the restricted schemes: ``evaluate`` of op, unless op is outside the permitted set."""
    linalg._require(scheme, Scheme)
    linalg._require(key, QotpKey)
    linalg._require(op, Gate)
    permitted, variant = _SCHEMES[scheme]
    if op.kind not in permitted:
        raise OperatorNotPermitted(f"operator {op.kind!r} is not permitted by scheme {scheme.value!r}")
    if key.variant != variant:
        raise ValueError(f"scheme {scheme.value!r} requires a {variant!r} key")
    linalg._require(ciphertext, linalg.PureState, DensityState)
    n = key.n_qubits
    if ciphertext.n_qubits != n:
        raise ValueError(f"key is for {n} qubit(s), state has {ciphertext.n_qubits}")
    _check_wires(key, op)
    xz = key if variant == qotp.VARIANT_XZ else QotpKey(n, key.x_bits, "0" * n)  # an hy key's z bit is Y's: z = 0
    return evaluate(xz, Circuit(n, (op,)), ciphertext)
