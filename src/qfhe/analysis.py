"""Exhaustive small-scale verification of the scheme's security claims.

Three families of checks, all numerical at desk scale:
- key averaging: encrypting (or evaluating) under a uniformly random key and
  forgetting the key yields the totally mixed state,
- Pauli-basis decomposition and the key-independence classifier: the only
  operators whose rewritten twin needs no key knowledge are phase-Paulis,
- the commutation identities every rewrite rule rests on.

No Pauli operator is built as a matrix. Column i of X^a Z^b holds
S[b, i] = (-1)^popcount(b & i) in row i ^ a, so decomposing, conjugating and
reconstructing are gathers and scatters with one sign table. Key averaging
runs n one-wire twirls of ``qotp.encrypt``, since the key bits are
independent. Only ``verify_security`` still loops over all 4^n keys. Sizes
are hard-guarded rather than silently slow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, qotp, rewrite
from .circuits import Circuit
from .linalg import DensityState, canonical_angle
from .rng import RandomSource

_MAX_QUBITS_AVERAGE = 4
_MAX_QUBITS_EVALUATE = 3
_MAX_QUBITS_DECOMPOSE = 4
_MAX_QUBITS_CLASSIFY = 3

#: default tolerance separating exact phase-Paulis from everything else
CLASSIFY_TOL = 1e-8


@dataclass(frozen=True)
class PauliCoefficients:
    """Expansion coefficients of an operator in the X^a Z^b basis."""

    n_qubits: int
    table: dict[tuple[str, str], complex]

    def reconstruct(self) -> np.ndarray:
        """Sum of coeff * X^a Z^b in table order; a table may hold any subset of the keys.

        KeyError for a key that is not a pair of n-bit strings.
        """
        bits = linalg.all_bit_strings(self.n_qubits)
        position = {(a, b): (i, j) for i, a in enumerate(bits) for j, b in enumerate(bits)}
        signs, idx = _pauli_signs(self.n_qubits), np.arange(len(bits))
        total = np.zeros((len(bits), len(bits)), dtype=complex)
        for key, coeff in self.table.items():
            a, b = position[key]
            total[idx ^ a, idx] += coeff * signs[b]
        return total

    def weight_sum(self) -> float:
        """Sum of squared magnitudes; 1 for unitary sources."""
        return float(sum(abs(c) ** 2 for c in self.table.values()))


@dataclass(frozen=True)
class ClassifyResult:
    """Outcome of the key-independence decision for one unitary."""

    key_independent: bool
    witness: tuple[str, str, float] | None
    max_deviation: float


@dataclass(frozen=True)
class SecurityReport:
    """Worst-case distances of the key-averaged outputs from totally mixed."""

    n_qubits: int
    states_tested: int
    worst_encrypt_distance: float
    worst_evaluate_distance: float
    tolerance: float
    passed: bool


def _check_tolerance(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")


def _pauli_signs(n: int) -> np.ndarray:
    """S[b, i] = (-1)^popcount(b & i): column i of X^a Z^b holds S[b, i] in row i ^ a."""
    idx = np.arange(1 << n)
    parity = np.zeros((1 << n, 1 << n), dtype=int)
    for q in range(n):
        parity ^= (idx[:, None] & idx) >> q & 1
    return 1 - 2 * parity


def average_over_keys(sigma: DensityState) -> DensityState:
    """Uniform average of X^a Z^b sigma Z^b X^a over all 4^n key pairs.

    The key bits are independent, so the average is n one-wire twirls: each
    averages ``qotp.encrypt`` over the four keys with bits on that wire only.
    """
    linalg._require_density(sigma)
    n = sigma.n_qubits
    if n > _MAX_QUBITS_AVERAGE:
        raise ValueError(f"key averaging is limited to {_MAX_QUBITS_AVERAGE} qubits, got {n}")
    for wire in range(n):
        on_wire = [("0" * wire + bit).ljust(n, "0") for bit in "01"]
        keys = [qotp.QotpKey(n, a, b) for a in on_wire for b in on_wire]
        sigma = DensityState(n, sum(qotp.encrypt(key, sigma).matrix for key in keys) / 4)
    return sigma


def verify_security(circuit: Circuit, sigma: DensityState, tol: float) -> SecurityReport:
    """Brute-force check that both encryption and evaluation hide the state.

    Averages encrypt(key, sigma) and evaluate(key, C, encrypt(key, sigma))
    over every key and reports the trace distances to the mixed state.
    """
    _check_tolerance(tol)
    linalg._require_density(sigma)
    n = circuit.n_qubits
    if n != sigma.n_qubits:
        raise ValueError(f"circuit has {n} qubit(s), state has {sigma.n_qubits}")
    if n > _MAX_QUBITS_EVALUATE:
        raise ValueError(f"security verification is limited to {_MAX_QUBITS_EVALUATE} qubits, got {n}")
    dim = 2 ** n
    enc_total = np.zeros((dim, dim), dtype=complex)
    eval_total = np.zeros((dim, dim), dtype=complex)
    keys = qotp.all_keys(n)
    for key in keys:
        cipher = qotp.encrypt(key, sigma)
        enc_total += cipher.matrix
        eval_total += rewrite.evaluate(key, circuit, cipher).matrix
    mixed = linalg.maximally_mixed(n)
    enc_avg = DensityState(n, enc_total / len(keys))
    eval_avg = DensityState(n, eval_total / len(keys))
    d_enc = linalg.trace_distance(enc_avg, mixed)
    d_eval = linalg.trace_distance(eval_avg, mixed)
    return SecurityReport(
        n_qubits=n,
        states_tested=1,
        worst_encrypt_distance=d_enc,
        worst_evaluate_distance=d_eval,
        tolerance=tol,
        passed=d_enc <= tol and d_eval <= tol,
    )


def pauli_decompose(operator: np.ndarray) -> PauliCoefficients:
    """Coefficients tr((X^a Z^b)^dagger U) / 2^n of the Pauli-basis expansion."""
    operator = np.asarray(operator, dtype=complex)
    if operator.ndim != 2 or operator.shape[0] != operator.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {operator.shape}")
    dim = operator.shape[0]
    n = dim.bit_length() - 1
    if 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    if n > _MAX_QUBITS_DECOMPOSE:
        raise ValueError(f"decomposition is limited to {_MAX_QUBITS_DECOMPOSE} qubits, got {n}")
    # v[a, i] = U[i ^ a, i]; the reduction sums over i in np.trace's order
    idx = np.arange(dim)
    v = operator[idx ^ idx[:, None], idx]
    coeffs = (v[:, None, :] * _pauli_signs(n)).sum(axis=2) / dim
    bits = linalg.all_bit_strings(n)
    table = {(bits[a], bits[b]): complex(coeffs[a, b]) for a in range(dim) for b in range(dim)}
    return PauliCoefficients(n, table)


def _phase_adjusted_distance(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Max-entry distance after the best global phase; near-zero overlap counts as disagreement."""
    overlap = complex(np.trace(reference.conj().T @ candidate))
    if abs(overlap) < 1e-12:
        return float(np.max(np.abs(candidate - reference)))
    phase = overlap / abs(overlap)
    return float(np.max(np.abs(candidate - phase * reference)))


def classify_key_independent(operator: np.ndarray, tol: float = CLASSIFY_TOL) -> ClassifyResult:
    """Decide whether the operator's twin can be chosen without the key.

    Two independent characterizations are evaluated and cross-checked:
    all Pauli conjugates agree up to a global phase, and the Pauli-basis
    expansion has a single non-negligible coefficient. A positive answer
    comes with the witness (a, b, theta) such that U ~ e^{i theta} X^a Z^b.
    ValueError when tol falls between the two criteria, which then disagree:
    near a phase-Pauli the deviation is about twice the second coefficient.
    """
    _check_tolerance(tol)
    operator = np.asarray(operator, dtype=complex)
    if not linalg.is_unitary(operator):
        raise ValueError("matrix is not unitary within 1e-9")
    dim = operator.shape[0]
    n = dim.bit_length() - 1
    if 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    if n > _MAX_QUBITS_CLASSIFY:
        raise ValueError(f"classification is limited to {_MAX_QUBITS_CLASSIFY} qubits, got {n}")

    # X^a Z^b U (X^a Z^b)^dagger, entry (r, c): S[b, r] S[b, c] U[r ^ a, c ^ a]
    signs, idx = _pauli_signs(n), np.arange(dim)
    conjugates = (
        np.outer(signs[b], signs[b]) * operator[np.ix_(idx ^ a, idx ^ a)]
        for a in range(dim) for b in range(dim)
    )
    max_dev = max(_phase_adjusted_distance(c, operator) for c in conjugates)
    by_conjugation = max_dev <= tol

    coeffs = pauli_decompose(operator)
    magnitudes = sorted((abs(c) for c in coeffs.table.values()), reverse=True)
    second = magnitudes[1] if len(magnitudes) > 1 else 0.0
    by_decomposition = second <= tol

    if by_conjugation != by_decomposition:
        raise ValueError(
            f"tolerance {tol} cannot separate the two classifier criteria for this matrix "
            f"(max_deviation={max_dev}, second coefficient={second})"
        )

    witness = None
    if by_conjugation:
        (a, b), coeff = max(coeffs.table.items(), key=lambda item: abs(item[1]))
        witness = (a, b, canonical_angle(math.atan2(coeff.imag, coeff.real)))
    return ClassifyResult(by_conjugation, witness, max_dev)


def _pow(mat: np.ndarray, bit: int) -> np.ndarray:
    return mat if bit else np.eye(mat.shape[0], dtype=complex)


def check_appendix_identities(samples: int, rng: RandomSource) -> dict[str, float]:
    """Worst entrywise error of each commutation rule over all bits and sampled angles.

    Returns one entry per rule, in a fixed order: the nine displayed rules
    plus the Ry rule for the hy mask.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    X = linalg.gate_matrix("x")
    Y = linalg.gate_matrix("y")
    Z = linalg.gate_matrix("z")
    H = linalg.gate_matrix("h")
    CNOT = linalg.gate_matrix("cnot")
    I = np.eye(2, dtype=complex)
    thetas = rng.angles(samples)
    bits = (0, 1)

    def max_err(pairs) -> float:
        return max(float(np.max(np.abs(lhs - rhs))) for lhs, rhs in pairs)

    report: dict[str, float] = {}
    report["zx-anticommute"] = max_err(
        (_pow(Z, k) @ _pow(X, j), (-1) ** (j * k) * _pow(X, j) @ _pow(Z, k))
        for j in bits for k in bits
    )
    report["rz-through-x"] = max_err(
        (linalg.rotation_z(t) @ _pow(X, j), _pow(X, j) @ linalg.rotation_z((-1) ** j * t))
        for j in bits for t in thetas
    )
    report["ry-through-x"] = max_err(
        (linalg.rotation_y(t) @ _pow(X, j), _pow(X, j) @ linalg.rotation_y((-1) ** j * t))
        for j in bits for t in thetas
    )
    report["ry-through-z"] = max_err(
        (linalg.rotation_y(t) @ _pow(Z, k), _pow(Z, k) @ linalg.rotation_y((-1) ** k * t))
        for k in bits for t in thetas
    )
    report["ry-through-h"] = max_err(
        (linalg.rotation_y(t) @ _pow(H, j), _pow(H, j) @ linalg.rotation_y((-1) ** j * t))
        for j in bits for t in thetas
    )
    report["cnot-x-control"] = max_err(
        (CNOT @ np.kron(_pow(X, j), I), np.kron(_pow(X, j), _pow(X, j)) @ CNOT)
        for j in bits
    )
    report["cnot-z-control"] = max_err(
        (CNOT @ np.kron(_pow(Z, k), I), np.kron(_pow(Z, k), I) @ CNOT)
        for k in bits
    )
    report["cnot-x-target"] = max_err(
        (CNOT @ np.kron(I, _pow(X, l)), np.kron(I, _pow(X, l)) @ CNOT)
        for l in bits
    )
    report["cnot-z-target"] = max_err(
        (CNOT @ np.kron(I, _pow(Z, m)), np.kron(_pow(Z, m), _pow(Z, m)) @ CNOT)
        for m in bits
    )
    report["ry-through-hy-mask"] = max_err(
        (
            linalg.rotation_y((-1) ** j * t) @ _pow(H, j) @ _pow(Y, k),
            _pow(H, j) @ _pow(Y, k) @ linalg.rotation_y(t),
        )
        for j in bits for k in bits for t in thetas
    )
    return report


def check_u_rewrite_endpoints(samples: int, rng: RandomSource) -> float:
    """Worst error of the single-qubit rewrite identity with raw (uncanonicalized) angles.

    Checks X^j Z^k U(a,b,g,d) = U(a, (-1)^j b, (-1)^{k+j} g, (-1)^j d) X^j Z^k
    over all key bits and sampled parameter quadruples.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    X = linalg.gate_matrix("x")
    Z = linalg.gate_matrix("z")
    worst = 0.0
    for _ in range(samples):
        a, b, g, d = rng.angles(4)
        u = linalg.single_qubit_unitary(a, b, g, d)
        for j in (0, 1):
            for k in (0, 1):
                mask = _pow(X, j) @ _pow(Z, k)
                twin = linalg.single_qubit_unitary(
                    a, (-1) ** j * b, (-1) ** ((k + j) % 2) * g, (-1) ** j * d
                )
                worst = max(worst, float(np.max(np.abs(mask @ u - twin @ mask))))
    return worst
