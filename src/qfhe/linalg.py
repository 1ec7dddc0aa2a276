"""Dense complex linear algebra for small n-qubit systems.

Conventions used everywhere in this package:
- qubit 0 is the most significant tensor factor (basis index bit),
- operators compose right-to-left, so ``X^a Z^b`` applies Z first,
- all angles are radians; the IR keeps them canonical in [0, 2*pi).

Everything here is double precision. Gates are contracted with the wire axes
of a state, never embedded into a 2^n x 2^n operator, and a state is checked
once per gate sequence, not per gate. On a 2-core Xeon with one BLAS thread,
200 random gates take about 7 ms on a pure n=12 state and 70 ms on a density
n=7 state. The 4^n key loop of ``analysis.verify_security`` caps useful n
well below that anyway.
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
    if r >= TAU or r == 0.0:  # fmod rounding can land exactly on 2*pi; -0.0 is 0.0
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


def all_bit_strings(n: int):
    """All length-n bit strings in lexicographic order."""
    return [format(i, f"0{n}b") if n else "" for i in range(2 ** n)]


def _check_finite(arr: np.ndarray) -> None:
    # isfinite tests both parts of a complex entry, in any memory layout
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")


@dataclass(frozen=True)
class PureState:
    """Normalized n-qubit statevector."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        vec = np.array(self.amplitudes, dtype=complex).reshape(-1)
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
        mat = np.array(self.matrix, dtype=complex)
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


def _checked_operator(unitary, wires, n_qubits: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The operator as a complex array and the wires as a tuple; ValueError unless they fit."""
    unitary = np.asarray(unitary, dtype=complex)
    wires = tuple(wires)
    k = len(wires)
    if len(set(wires)) != k:
        raise ValueError(f"duplicate wires in {wires}")
    if any(w < 0 or w >= n_qubits for w in wires):
        raise ValueError(f"wires {wires} out of range for {n_qubits} qubits")
    if unitary.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {unitary.shape} does not match {k} wire(s)")
    return unitary, wires


def _apply_on_axes(op: np.ndarray, axes: tuple[int, ...], flat: np.ndarray, m: int) -> np.ndarray:
    """Apply a 2^k x 2^k operator to the given axes of the (2,)*m view of flat.

    Axis axes[i] carries the operator's i-th tensor factor. Returns a new
    C-contiguous array of 2^m entries. Ascending contiguous axes take one
    matmul on a (2^lo, 2^k, rest) reshape, which copies nothing on the way
    in. That matmul issues one gemm per batch entry, so once the batch
    outnumbers the columns each entry covers, and for any other axes, the
    axes are gathered in front, multiplied in one gemm and scattered back.
    """
    k = len(axes)
    lo = axes[0] if axes else 0
    if axes == tuple(range(lo, lo + k)):
        batch, rest = 1 << lo, 1 << (m - lo - k)
        if rest == 1:
            return (flat.reshape(batch, 1 << k) @ op.T).reshape(-1)
        if batch <= rest:
            return np.matmul(op, flat.reshape(batch, 1 << k, rest)).reshape(-1)
    perm = [*axes, *(a for a in range(m) if a not in axes)]
    gathered = flat.reshape((2,) * m).transpose(perm)
    out = (op @ gathered.reshape(1 << k, -1)).reshape(gathered.shape)
    return out.transpose(sorted(range(m), key=perm.__getitem__)).reshape(-1)


def _evolve(state, ops):
    """Apply (operator, wires) pairs in order to a checked state, then check the result.

    The one apply loop. It runs on the raw array and trusts each pair: a
    complex 2^k x 2^k operator on k distinct in-range wires. A density matrix
    gets U on its row axes and U* on its column axes.
    """
    n = state.n_qubits
    if isinstance(state, PureState):
        flat = state.amplitudes
        for op, wires in ops:
            flat = _apply_on_axes(op, wires, flat, n)
        return PureState(n, flat)
    flat = state.matrix.reshape(-1)
    for op, wires in ops:
        flat = _apply_on_axes(op, wires, flat, 2 * n)
        flat = _apply_on_axes(op.conj(), tuple(n + w for w in wires), flat, 2 * n)
    return DensityState(n, flat.reshape(2 ** n, 2 ** n))


def apply_to_wires(unitary: np.ndarray, wires, state):
    """Apply a k-qubit operator to the named wires of a state.

    Accepts a PureState or DensityState and returns the same kind. The
    operator is contracted with the wire axes of the state, never embedded
    into a 2^n x 2^n matrix. This is the checked entry to the apply loop
    that ``circuits.simulate`` runs for whole circuits.
    """
    if not isinstance(state, (PureState, DensityState)):
        raise TypeError(f"expected PureState or DensityState, got {type(state).__name__}")
    return _evolve(state, [_checked_operator(unitary, wires, state.n_qubits)])


def _require_density(state) -> None:
    if not isinstance(state, DensityState):
        raise TypeError(f"expected DensityState, got {type(state).__name__}")


def trace_distance(rho: DensityState, sigma: DensityState) -> float:
    """(1/2) * sum |eigenvalues(rho - sigma)|."""
    _require_density(rho)
    _require_density(sigma)
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
