"""Dense complex linear algebra for small n-qubit systems.

Conventions used everywhere in this package:
- qubit 0 is the most significant tensor factor (basis index bit),
- operators compose right-to-left, so ``X^a Z^b`` applies Z first,
- all angles are radians; the IR keeps them canonical in [0, 2*pi).

Everything here is dense and double precision. Target scale is n <= 8 for
statevectors and n <= 5 for density matrices; the exhaustive key loops in
the analysis layer cap useful n well below that anyway.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

TAU = 2.0 * math.pi

#: tolerance for construction-time state invariants
ATOL_STATE = 1e-9
#: tolerance for identities between exact matrix products
ATOL_EXACT = 1e-12

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)


def canonical_angle(theta: float) -> float:
    """Reduce an angle to the canonical interval [0, 2*pi)."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    r = math.fmod(theta, TAU)
    if r < 0.0:
        r += TAU
    if r >= TAU:  # fmod rounding can land exactly on 2*pi
        r = 0.0
    return r


def rotation_z(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def rotation_y(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def single_qubit_unitary(alpha: float, beta: float, gamma: float, delta: float) -> np.ndarray:
    """exp(i*alpha) * Rz(beta) * Ry(gamma) * Rz(delta), built from raw angles.

    No canonicalization happens here: Rz/Ry are 4*pi-periodic in sign, and
    callers tracking global phase need the raw product.
    """
    return np.exp(1j * alpha) * (rotation_z(beta) @ rotation_y(gamma) @ rotation_z(delta))


@dataclass(frozen=True)
class GateSpec:
    """One gate kind: its wire and parameter fields, its matrix, its rewrite rule.

    ``parity[i]`` holds the weights (x, z) of the wire's key bits whose parity
    negates parameter i when the mask X^x Z^z moves past the gate. Kinds with
    no parity column (the fixed single-qubit gates) are rewritten as ``u``;
    cnot has its own rule.
    """

    wires: tuple[str, ...]
    params: tuple[str, ...]
    build: Callable[..., np.ndarray]
    parity: tuple[tuple[int, int], ...] = ()


#: the gate vocabulary; its order is the order RandomSource.circuit draws kinds in
GATE_SPECS = {
    "x": GateSpec(("wire",), (), _X.copy),
    "y": GateSpec(("wire",), (), _Y.copy),
    "z": GateSpec(("wire",), (), _Z.copy),
    "h": GateSpec(("wire",), (), _H.copy),
    "rz": GateSpec(("wire",), ("theta",), rotation_z, ((1, 0),)),
    "ry": GateSpec(("wire",), ("theta",), rotation_y, ((1, 1),)),
    "u": GateSpec(
        ("wire",), ("alpha", "beta", "gamma", "delta"), single_qubit_unitary,
        ((0, 0), (1, 0), (1, 1), (1, 0)),
    ),
    "cnot": GateSpec(("control", "target"), (), _CNOT.copy),
}

def gate_matrix(kind: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Matrix of a named gate. Rz/Ry take one angle, u takes four, others none."""
    spec = GATE_SPECS.get(kind)
    if spec is None:
        raise ValueError(f"unknown gate kind {kind!r}")
    if len(params) != len(spec.params):
        raise ValueError(f"gate {kind!r} takes {len(spec.params)} parameter(s), got {len(params)}")
    return spec.build(*params)


def _check_bits(bits: str, name: str) -> None:
    if not all(c in "01" for c in bits):
        raise ValueError(f"{name} must be a string of 0/1, got {bits!r}")


def pauli_operator(x_bits: str, z_bits: str) -> np.ndarray:
    """Tensor product X^a Z^b indexed by equal-length bit strings.

    Qubit 0 is the most significant factor; on each qubit Z applies first.
    """
    _check_bits(x_bits, "x_bits")
    _check_bits(z_bits, "z_bits")
    if len(x_bits) != len(z_bits):
        raise ValueError(f"bit string lengths differ: {len(x_bits)} vs {len(z_bits)}")
    return mask_operator(_X, _Z, x_bits, z_bits)


def mask_operator(first: np.ndarray, second: np.ndarray, x_bits: str, z_bits: str,
                  inverse: bool = False) -> np.ndarray:
    """Kron over qubits of first^a second^b (second applies first), or second^b first^a.

    For self-inverse first and second, ``inverse`` gives the exact inverse.
    Decryption uses it rather than the adjoint of the encryption mask, which
    is equal in value but flips the sign of zero imaginary parts, and
    canonical JSON prints those as -0.0.
    """
    op = np.eye(1, dtype=complex)
    for a, b in zip(x_bits, z_bits):
        steps = ((a, first), (b, second)) if inverse else ((b, second), (a, first))
        factor = _I2
        for bit, mat in steps:
            if bit == "1":
                factor = mat @ factor
        op = np.kron(op, factor)
    return op


def all_bit_strings(n: int):
    """All length-n bit strings in lexicographic order."""
    return [format(i, f"0{n}b") if n else "" for i in range(2 ** n)]


def _check_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("entries must be finite")


@dataclass(frozen=True)
class PureState:
    """Normalized n-qubit statevector."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        vec = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if vec.shape[0] != 2 ** self.n_qubits:
            raise ValueError(
                f"expected {2 ** self.n_qubits} amplitudes for {self.n_qubits} qubits, "
                f"got {vec.shape[0]}"
            )
        _check_finite(vec)
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > ATOL_STATE:
            raise ValueError(f"statevector norm {norm} is not 1 within {ATOL_STATE}")
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @classmethod
    def basis(cls, n_qubits: int, index: int = 0) -> "PureState":
        vec = np.zeros(2 ** n_qubits, dtype=complex)
        vec[index] = 1.0
        return cls(n_qubits, vec)

    def to_density(self) -> "DensityState":
        return DensityState(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityState:
    """n-qubit density matrix: Hermitian, unit trace, positive semidefinite."""

    n_qubits: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** self.n_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        _check_finite(mat)
        if np.max(np.abs(mat - mat.conj().T)) > ATOL_STATE:
            raise ValueError(f"matrix is not Hermitian within {ATOL_STATE}")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > ATOL_STATE:
            raise ValueError(f"trace {tr} is not 1 within {ATOL_STATE}")
        if np.min(np.linalg.eigvalsh(mat)) < -ATOL_STATE:
            raise ValueError(f"matrix has eigenvalues below -{ATOL_STATE}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def is_unitary(mat: np.ndarray, atol: float = ATOL_STATE) -> bool:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    return bool(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))) <= atol)


def apply_to_density(unitary: np.ndarray, rho: DensityState) -> DensityState:
    """Conjugation rho -> U rho U^dagger."""
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != rho.matrix.shape:
        raise ValueError(f"operator shape {unitary.shape} does not match state dim {rho.matrix.shape}")
    return DensityState(rho.n_qubits, unitary @ rho.matrix @ unitary.conj().T)


def embed_on_wires(unitary: np.ndarray, wires: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Tensor-embed a k-qubit operator onto the named wires of an n-qubit register."""
    unitary = np.asarray(unitary, dtype=complex)
    wires = tuple(wires)
    k = len(wires)
    if len(set(wires)) != k:
        raise ValueError(f"duplicate wires in {wires}")
    if any(w < 0 or w >= n_qubits for w in wires):
        raise ValueError(f"wires {wires} out of range for {n_qubits} qubits")
    if unitary.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {unitary.shape} does not match {k} wire(s)")
    if k == n_qubits and wires == tuple(range(n_qubits)):
        return unitary
    others = [q for q in range(n_qubits) if q not in wires]
    full = np.kron(unitary, np.eye(2 ** (n_qubits - k), dtype=complex))
    order = list(wires) + others  # axis position -> qubit label
    perm = [order.index(q) for q in range(n_qubits)]
    tensor = full.reshape((2,) * (2 * n_qubits))
    tensor = tensor.transpose(perm + [n_qubits + p for p in perm])
    return tensor.reshape(2 ** n_qubits, 2 ** n_qubits)


def apply_to_wires(unitary: np.ndarray, wires, state):
    """Apply a 1- or 2-qubit operator to the named wires of a state.

    Accepts a PureState or DensityState and returns the same kind.
    """
    if not isinstance(state, (PureState, DensityState)):
        raise TypeError(f"expected PureState or DensityState, got {type(state).__name__}")
    full = embed_on_wires(unitary, tuple(wires), state.n_qubits)
    if isinstance(state, PureState):
        return PureState(state.n_qubits, full @ state.amplitudes)
    return apply_to_density(full, state)


def trace_distance(rho: DensityState, sigma: DensityState) -> float:
    """(1/2) * sum |eigenvalues(rho - sigma)|."""
    if rho.n_qubits != sigma.n_qubits:
        raise ValueError(f"qubit counts differ: {rho.n_qubits} vs {sigma.n_qubits}")
    eigs = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return 0.5 * float(np.sum(np.abs(eigs)))


def maximally_mixed(n_qubits: int) -> DensityState:
    """The totally mixed state I / 2^n."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    dim = 2 ** n_qubits
    return DensityState(n_qubits, np.eye(dim, dtype=complex) / dim)
