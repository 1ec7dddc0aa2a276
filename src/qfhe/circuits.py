"""Circuit IR, JSON (de)serialization, reference simulation, ZYZ decomposition.

The gate vocabulary is closed: x/y/z/h, rz/ry, the general single-qubit gate
u(alpha, beta, gamma, delta) = exp(i*alpha) Rz(beta) Ry(gamma) Rz(delta), and
cnot. Raw 2x2 matrices are accepted on input only and converted to u gates.
Circuits are purely unitary: no measurement, reset, or classical control.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import TAU, canonical_angle

class CircuitFormatError(ValueError):
    """Raised when a circuit document fails to parse or validate."""


def _as_angle(value) -> float:
    """value as a canonical angle; ValueError for strings, bools, complex numbers and other non-reals."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return canonical_angle(float(value))
    raise ValueError(f"gate parameters must be real numbers, got {value!r}")


@dataclass(frozen=True)
class Gate:
    """One circuit element; wires are (control, target) for cnot."""

    kind: str
    wires: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        spec = linalg.GATE_SPECS.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        wires = tuple(linalg._as_index(w, "wire") for w in self.wires)
        if len(wires) != len(spec.wires):
            raise ValueError(f"gate {self.kind!r} takes {len(spec.wires)} wire(s), got {wires}")
        if any(w < 0 for w in wires):
            raise ValueError(f"negative wire index in {wires}")
        if len(set(wires)) != len(wires):
            raise ValueError(f"gate {self.kind!r} needs distinct wires, got {wires}")
        params = tuple(_as_angle(p) for p in self.params)
        if len(params) != len(spec.params):
            raise ValueError(f"gate {self.kind!r} takes {len(spec.params)} parameter(s), got {len(params)}")
        object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "params", params)

    @classmethod
    def _unchecked(cls, kind: str, wires: tuple[int, ...], params: tuple[float, ...]) -> "Gate":
        """A Gate from fields already in checked form, validating nothing.

        For gates derived inside the package only: the kind is known, the
        wires come from a checked gate and every angle is already canonical.
        """
        gate = object.__new__(cls)
        gate.__dict__.update(kind=kind, wires=wires, params=params)  # bypasses the frozen __setattr__
        return gate

    @classmethod
    def named(cls, kind: str, wire: int) -> "Gate":
        return cls(kind, (wire,))

    @classmethod
    def rz(cls, theta: float, wire: int) -> "Gate":
        return cls("rz", (wire,), (theta,))

    @classmethod
    def ry(cls, theta: float, wire: int) -> "Gate":
        return cls("ry", (wire,), (theta,))

    @classmethod
    def u(cls, alpha: float, beta: float, gamma: float, delta: float, wire: int) -> "Gate":
        return cls("u", (wire,), (alpha, beta, gamma, delta))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        return cls("cnot", (control, target))

    def matrix(self) -> np.ndarray:
        return linalg.gate_matrix(self.kind, self.params)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over n named wires, applied left to right."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        n = linalg._as_qubit_count(self.n_qubits)
        gates = tuple(self.gates)
        for i, g in enumerate(gates):
            if not isinstance(g, Gate):
                raise TypeError(f"gate {i} must be a Gate, got {type(g).__name__}")
            if any(w >= n for w in g.wires):
                raise ValueError(f"gate {i} ({g.kind}) uses wire out of range for {n} qubits")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "gates", gates)

    def __len__(self) -> int:
        return len(self.gates)


#: |u[1, 0]| or |u[0, 0]| at or below this counts as 0 in euler_decompose: that moves no entry by more than
#: about 1e-12, far below ATOL_STATE, while so small an entry's phase is off by about 1e-16 / |entry| >= 1e-4 rad
_DEGENERATE_EPS = 1e-12


def _canon_with_wraps(theta: float) -> tuple[float, int]:
    """Canonical angle plus the number of 2*pi turns added (each flips an Rz/Ry sign)."""
    r = canonical_angle(theta)
    return r, round((r - theta) / TAU)


def euler_decompose(u: np.ndarray) -> tuple[float, float, float, float]:
    """ZYZ angles (alpha, beta, gamma, delta) of a 2x2 unitary, global phase included.

    alpha, beta and delta are canonical in [0, 2*pi) and gamma lands in
    [0, pi]; when the matrix is diagonal or antidiagonal within 1e-12 only one
    of beta+delta / beta-delta is determined, and the tie is broken by
    delta := 0 with the residual z-rotation folded into beta.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    linalg._check_unitary(u)
    a00, a01 = u[0, 0], u[0, 1]
    a10, a11 = u[1, 0], u[1, 1]
    c, s = abs(a00), abs(a10)
    gamma = 2.0 * math.atan2(s, c)
    if s <= _DEGENERATE_EPS:
        gamma, delta = 0.0, 0.0
        beta = float(np.angle(a11) - np.angle(a00))
        alpha = float(np.angle(a00)) + beta / 2.0
    elif c <= _DEGENERATE_EPS:
        gamma, delta = math.pi, 0.0
        beta = float(np.angle(a10) - np.angle(-a01))
        alpha = float(np.angle(a10)) - beta / 2.0
    else:
        phi_sum = float(np.angle(a11) - np.angle(a00))  # beta + delta
        alpha = float(np.angle(a00)) + phi_sum / 2.0
        phi_diff = 2.0 * (float(np.angle(a10)) - alpha)  # beta - delta
        beta = (phi_sum + phi_diff) / 2.0
        delta = (phi_sum - phi_diff) / 2.0
    # canonicalizing beta/delta by 2*pi flips the sign of its rotation factor;
    # absorb each flip into the global phase
    beta, wraps_b = _canon_with_wraps(beta)
    delta, wraps_d = _canon_with_wraps(delta)
    alpha = canonical_angle(alpha + math.pi * (wraps_b + wraps_d))
    return alpha, beta, gamma, delta


def simulate(circuit: Circuit, state):
    """Apply the circuit's gates left to right to a pure or density state; check only the result."""
    linalg._require(circuit, Circuit)
    return _apply(circuit.n_qubits, _ops(circuit.gates), state)


def _apply(n_qubits: int, ops: list, state):
    """Run (operator, wires) pairs, wires checked against n_qubits, on a state: the apply loop's one checked entry."""
    linalg._require(state, linalg.PureState, linalg.DensityState)
    if state.n_qubits != n_qubits:
        raise ValueError(f"circuit has {n_qubits} qubit(s), state has {state.n_qubits}")
    if not ops:
        return state
    pure = isinstance(state, linalg.PureState)
    out = linalg._run(state.amplitudes if pure else state.matrix, n_qubits, ops, columns=not pure)
    return type(state)(n_qubits, out)  # the one check; the wires were the caller's to check


def _ops(gates) -> list:
    """The gates as apply-loop pairs, as ``rewrite._pairs`` builds a twin's: a Pauli as its exponents, else its build.

    A list, not a generator, so every build runs before the kernel loop: on eval_pure_n8 that
    alone took a job to 0.88-0.91x of the generator's time, with GC on or off (interleaved
    in-process blocks on a 2-core Xeon): keep it a list.
    """
    specs = linalg.GATE_SPECS
    return [(specs[g.kind].pauli or specs[g.kind].build(*g.params), g.wires) for g in gates]


# --- circuit file format -------------------------------------------------

def is_finite_number(value) -> bool:
    """True for a JSON int or float within the finite float range; bools are not numbers."""
    # int-float comparison is exact, so a huge int fails here instead of overflowing
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _gate_from_json(obj, index: int, n_qubits: int) -> Gate:
    def fail(msg: str):
        raise CircuitFormatError(f"gate {index}: {msg}")

    if not isinstance(obj, dict):
        fail(f"expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if not isinstance(kind, str):
        fail("missing or non-string 'kind'")

    def get_wire(field: str) -> int:
        v = obj.get(field)
        if not isinstance(v, int) or isinstance(v, bool):
            fail(f"missing or non-integer {field!r}")
        if not 0 <= v < n_qubits:
            fail(f"{field}={v} out of range for {n_qubits} qubit(s)")
        return v

    def get_angle(field: str) -> float:
        v = obj.get(field)
        if not is_finite_number(v):
            fail(f"{field!r} must be a finite number")
        return float(v)

    def check_fields(*allowed: str):
        extra = set(obj) - {"kind", *allowed}
        if extra:
            fail(f"unexpected field(s) {sorted(extra)} for kind {kind!r}")

    if kind == "mat2":
        check_fields("entries", "wire")
        entries = obj.get("entries")
        if (
            not isinstance(entries, list)
            or len(entries) != 4
            or not all(isinstance(e, list) and len(e) == 2 and all(map(is_finite_number, e)) for e in entries)
        ):
            fail("'entries' must be four finite [re, im] pairs (row-major 2x2)")
        mat = np.array([e[0] + 1j * e[1] for e in entries]).reshape(2, 2)
        try:
            angles = euler_decompose(mat)
        except ValueError as exc:
            fail(str(exc))
        return Gate("u", (get_wire("wire"),), angles)
    spec = linalg.GATE_SPECS.get(kind)
    if spec is None:
        fail(f"unknown gate kind {kind!r}")
    check_fields(*spec.params, *spec.wires)
    wires = tuple(get_wire(f) for f in spec.wires)
    params = tuple(get_angle(f) for f in spec.params)
    try:
        return Gate(kind, wires, params)
    except ValueError as exc:
        fail(str(exc))


def parse_circuit(text) -> Circuit:
    """Parse a circuit document (bytes or str) into a validated Circuit."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # invalid UTF-8, an integer past the digit limit, deep nesting
        raise CircuitFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CircuitFormatError("top-level value must be an object")
    extra = set(doc) - {"qubits", "gates"}
    if extra:
        raise CircuitFormatError(f"unexpected top-level field(s) {sorted(extra)}")
    n = doc.get("qubits")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise CircuitFormatError("'qubits' must be a positive integer")
    gates_json = doc.get("gates")
    if not isinstance(gates_json, list):
        raise CircuitFormatError("'gates' must be an array")
    gates = [_gate_from_json(g, i, n) for i, g in enumerate(gates_json)]
    return Circuit(n, tuple(gates))


def _gate_to_json(gate: Gate) -> dict:
    spec = linalg.GATE_SPECS[gate.kind]
    return {"kind": gate.kind, **dict(zip(spec.params, gate.params)), **dict(zip(spec.wires, gate.wires))}


def canonical_json(doc) -> bytes:
    """The one output format of every document: UTF-8, indent 2, shortest round-trip floats, final newline."""
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def serialize_circuit(circuit: Circuit) -> bytes:
    """Canonical UTF-8 document: fixed key order, shortest round-trip floats."""
    return canonical_json({"qubits": circuit.n_qubits, "gates": [_gate_to_json(g) for g in circuit.gates]})
