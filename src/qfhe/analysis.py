"""Exhaustive small-scale verification of the scheme's security claims.

Three families of checks, all numerical at desk scale:
- key averaging: encrypting (or evaluating) under a uniformly random key and
  forgetting the key yields the totally mixed state,
- Pauli-basis decomposition and the key-independence classifier: the only
  operators whose rewritten twin needs no key knowledge are phase-Paulis,
- the commutation identities every rewrite rule rests on.

No Pauli operator is built as a matrix. Column i of X^a Z^b holds
S[b, i] = (-1)^popcount(b & i) in row i ^ a, so decomposing is a gather
with the sign row ``linalg._parity_signs``, and masking is the one signed
gather the apply loop runs for Pauli frames: key averaging (n one-wire
twirls of four masks) and the classifier conjugate by it, a matrix read as
a 2n-qubit row. ``verify_security`` factors the state, sigma = V S V^dagger
with S a diagonal of signs, masks V's rows under every key by one gather,
takes the 4^n factors through ``linalg``'s apply loop, row-only, each by its
key's twin circuit, and decrypts by the gather again. ``rewrite._rule`` reads two key bits,
so its four twins give every key's twin of a gate: one Pauli for all four
is key-independent and shared, else each key takes its own. The loop fuses
each wire's run of twins on its four entries, shared Paulis in, gathered per
key when a block takes it; a lone shared Pauli is a frame. Each angle-free
gate's table of twins is ``rewrite._fixed``'s, and the masks' index and sign
rows are cached per (n, r), read-only. Sizes are hard-guarded.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import linalg, rewrite
from .circuits import Circuit, Gate, _ops
from .linalg import DensityState, PureState, canonical_angle
from .rng import RandomSource

_MAX_QUBITS_AVERAGE = 4
_MAX_QUBITS_EVALUATE = 3
_MAX_QUBITS_DECOMPOSE = 4
_MAX_QUBITS_CLASSIFY = 3

#: default tolerance separating exact phase-Paulis from everything else
CLASSIFY_TOL = 1e-8
#: default bound on verify_security's distances: ATOL_STATE, far above their 1e-16-scale rounding
VERIFY_TOL = 1e-9
#: check_appendix_identities draws every angle before any check, about 150 us of work each
_MAX_SAMPLES = 100_000


class ClassifyResult(NamedTuple):
    """Outcome of the key-independence decision for one unitary."""

    key_independent: bool
    witness: tuple[str, str, float] | None
    max_deviation: float


class SecurityReport(NamedTuple):
    """Distances of the key-averaged outputs from totally mixed, and the worst decryption error.

    worst_decrypt_distance is the largest trace distance, over every key, of
    the decrypted evaluation from C sigma C^dagger.
    """

    n_qubits: int
    worst_encrypt_distance: float
    worst_evaluate_distance: float
    worst_decrypt_distance: float
    tolerance: float
    passed: bool


def _check_tolerance(tol: float) -> float:
    if isinstance(tol, (bool, np.bool_)) or not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return float(tol)


def average_over_keys(sigma: DensityState) -> DensityState:
    """Uniform average of X^a Z^b sigma Z^b X^a over all 4^n key pairs.

    The key bits are independent, so the average is n one-wire twirls: each
    conjugates by the wire's four masks at once and averages the stack. Only
    the result is checked, as a DensityState.
    """
    linalg._require(sigma, linalg.DensityState)
    n = sigma.n_qubits
    if n > _MAX_QUBITS_AVERAGE:
        raise ValueError(f"key averaging is limited to {_MAX_QUBITS_AVERAGE} qubits, got {n}")
    mat = sigma.matrix
    a, b = divmod(np.arange(4), 2)
    for wire in range(n):
        shift = n - 1 - wire
        mat = linalg._pauli_conjugates(mat, a << shift, b << shift, n).sum(axis=0) / 4
    return DensityState(n, mat)


def _key_op(gate: Gate, index: np.ndarray) -> tuple:
    """The gate's (operator, wires) pair for the key stack's apply loop: every key's twin.

    The twin reads the x bit of the gate's first wire i and the z bit of its last j, so key k's twin is row
    index[i, j, k] = 2x + z of ``linalg._key_table``, built from the four ``rewrite._pairs`` (``rewrite._fixed``
    keeps an angle-free gate's): a Pauli shared by every key goes in as its exponents, four one-qubit entries
    as ``linalg._Keyed``, and cnot's table gathered per key, a fresh array."""
    kind, wires, params = gate.kind, gate.wires, gate.params
    if params:
        twins = [rewrite._pairs(kind, wires, params, x, z) for x in (0, 1) for z in (0, 1)]
        table = linalg._key_table(twins)
    else:
        table = rewrite._fixed(kind, wires)[1]
    rows = index[wires[0], wires[-1]]
    if isinstance(table, np.ndarray):
        return table.take(rows, axis=0), wires
    return (table if len(table) == 2 else linalg._Keyed(table, rows)), wires  # a Pauli's exponents, or four entries


def _factor(sigma: PureState | DensityState) -> tuple[np.ndarray, np.ndarray]:
    """V and signs s, sigma = V diag(s) V^dagger: a pure state's amplitudes as one column, else
    Q |L|^(1/2) and sign(L) on every eigenvalue that is not 0, padded by zero columns to a power of two."""
    if isinstance(sigma, PureState):
        return sigma.amplitudes[:, None], np.ones(1)
    lam, q = np.linalg.eigh(sigma.matrix)
    cols = 1 << (int(np.count_nonzero(lam)) - 1).bit_length()
    pick = np.argsort(lam == 0, kind="stable")[:cols]  # every eigenvalue that is not 0, then zeros
    return q[:, pick] * np.sqrt(np.abs(lam[pick])), np.sign(lam[pick])


@functools.lru_cache(maxsize=_MAX_QUBITS_EVALUATE)
def _keys(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Key k's masks (a, b) = divmod(k, 2^n), and index[i, j, k] = 2 x_i + z_j, its twin-table row on wires i, j."""
    a, b = divmod(np.arange(4 ** n), 2 ** n)
    x, z = (bits >> np.arange(n - 1, -1, -1)[:, None] & 1 for bits in (a, b))  # each wire's bits, read once
    return tuple(map(linalg._read_only, (a, b, 2 * x[:, None] + z)))


@functools.lru_cache(maxsize=9)  # every (n, r) within the guard: r = 1, 2, ..., 2^n for n = 1..3
def _masks(n: int, cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every key's mask on a (2^n, r) factor as one row: key k's index row into the shared row, as
    ``linalg._signed_gather`` builds it, the same offset into key k's own row of a (4^n, 2^n r) stack, and its sign row."""
    a, b, _ = _keys(n)
    m = n + cols.bit_length() - 1
    rows = linalg._indices(m) ^ a[:, None] * cols
    own = rows + (np.arange(len(a))[:, None] << m)
    return tuple(map(linalg._read_only, (rows, own, linalg._parity_signs(m)[rows & b[:, None] * cols])))


def _key_stacks(circuit: Circuit, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every key's factor of the ciphertext, evaluated ciphertext and decryption, as (4^n, 2^n, r) stacks.

    Key k masks with P_k = X^a Z^b for (a, b) = divmod(k, 2^n), so the keys
    run in lexicographic order of their (x_bits, z_bits) strings. One signed
    gather of V as one row gives every F_k = P_k V, one row-only run of the
    apply loop E_k = U_k F_k, U_k the twin circuit, and one more D_k = P_k E_k.
    """
    n = circuit.n_qubits
    rows, own, signs = _masks(n, v.shape[1])
    index = _keys(n)[2]
    cipher = (v.reshape(-1)[rows] * signs).reshape(-1, *v.shape)
    evaluated = linalg._run(cipher, n, [_key_op(g, index) for g in circuit.gates], columns=False)
    return cipher, evaluated, (evaluated.reshape(-1)[own] * signs).reshape(cipher.shape)


def _gram(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """F diag(s) F^dagger, or per entry of a stack."""
    return (f * s) @ f.conj().swapaxes(-1, -2)


def verify_security(circuit: Circuit, sigma: PureState | DensityState, tol: float) -> SecurityReport:
    """Exhaustive check that encryption and evaluation hide the state and evaluation is correct.

    Averages encrypt(key, sigma) and evaluate(key, C, encrypt(key, sigma))
    over every key and reports the trace distances to the mixed state, and
    the worst distance of any key's decrypted evaluation from C sigma C^dagger.
    Each decryption D S D^dagger of sigma's factor is Hermitian and as positive
    as sigma, a PureState or a DensityState: only entries and traces are checked.
    """
    tol = _check_tolerance(tol)
    linalg._require(sigma, PureState, DensityState)
    linalg._require(circuit, Circuit)
    n = circuit.n_qubits
    if n != sigma.n_qubits:
        raise ValueError(f"circuit has {n} qubit(s), state has {sigma.n_qubits}")
    if n > _MAX_QUBITS_EVALUATE:
        raise ValueError(f"security verification is limited to {_MAX_QUBITS_EVALUATE} qubits, got {n}")
    v, s = _factor(sigma)
    cipher, evaluated, decrypted = _key_stacks(circuit, v)
    linalg._check_entries(decrypted)
    decrypted = _gram(decrypted, s)
    linalg._check_traces(decrypted)
    plain = _gram(linalg._run(v, n, _ops(circuit.gates), columns=False), s)
    d_dec = float(np.max(linalg._trace_distances(decrypted, plain)))
    # each average one gemm over every key's columns side by side; exact, or checked by decrypted
    averages = np.array([_gram(f.swapaxes(0, 1).reshape(2 ** n, -1), np.tile(s, len(f))) for f in (cipher, evaluated)])
    averages /= len(cipher)
    d_enc, d_eval = linalg._trace_distances(averages, np.eye(2 ** n) / 2 ** n).tolist()
    return SecurityReport(
        n_qubits=n,
        worst_encrypt_distance=d_enc,
        worst_evaluate_distance=d_eval,
        worst_decrypt_distance=d_dec,
        tolerance=tol,
        passed=d_enc <= tol and d_eval <= tol and d_dec <= tol,
    )


def pauli_decompose(operator: np.ndarray) -> np.ndarray:
    """Coefficients c[a, b] = tr((X^a Z^b)^dagger U) / 2^n of the Pauli-basis expansion.

    a and b index the 2^n bit strings with qubit 0 as the most significant bit.
    Entries are bounded as a state's are (``linalg.MAX_ENTRY_PART``), so the
    sums cannot overflow; NaN, inf or a larger part raises ValueError.
    """
    operator = np.asarray(operator, dtype=complex)
    if operator.ndim != 2 or operator.shape[0] != operator.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {operator.shape}")
    dim = operator.shape[0]
    n = dim.bit_length() - 1
    if 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    if n > _MAX_QUBITS_DECOMPOSE:
        raise ValueError(f"decomposition is limited to {_MAX_QUBITS_DECOMPOSE} qubits, got {n}")
    linalg._check_entries(operator)
    # v[a, i] = U[i ^ a, i]; the reduction sums over i in np.trace's order
    idx = np.arange(dim)
    v = operator[idx ^ idx[:, None], idx]
    signs = linalg._parity_signs(n)[idx[:, None] & idx]  # S[b, i]
    return (v[:, None, :] * signs).sum(axis=2) / dim


#: overlaps |tr(U^dagger C)| below this take no phase. A conjugate C within the
#: classifier's tolerance of a phase times U has |overlap| near 2^n; an overlap
#: that is 0 in exact arithmetic keeps rounding noise of about 2^n * 1e-16
#: (3.8e-16 for h lifted to u), whose phase means nothing. 1e-12 lies far above
#: that noise at every classified size and far below any overlap that can pass.
OVERLAP_FLOOR = 1e-12


def _phase_adjusted_distances(candidates: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Max-entry distance of each matrix of a stack from reference, after that matrix's best global phase.

    The phase is o / |o| of the overlap o = tr(reference^dagger candidate),
    taken in Python scalar arithmetic: numpy's complex abs and divide can
    round differently. An overlap below OVERLAP_FLOOR counts as disagreement
    and takes no phase.
    """
    overlaps = np.trace(reference.conj().T @ candidates, axis1=1, axis2=2).tolist()
    phases = np.array([o / abs(o) if abs(o) >= OVERLAP_FLOOR else 1.0 for o in overlaps])
    return np.max(np.abs(candidates - phases[:, None, None] * reference), axis=(1, 2))


def classify_key_independent(operator: np.ndarray, tol: float = CLASSIFY_TOL) -> ClassifyResult:
    """Decide whether the operator's twin can be chosen without the key.

    Two independent characterizations are evaluated and cross-checked:
    all Pauli conjugates agree up to a global phase, and the Pauli-basis
    expansion has a single non-negligible coefficient. A positive answer
    comes with the witness (a, b, theta) such that U ~ e^{i theta} X^a Z^b.
    ValueError when tol falls between the two criteria, which then disagree:
    near a phase-Pauli the deviation is about twice the second coefficient.
    The conjugates form one stack of 16^n entries, 4,096 (64 KiB) at the 3-qubit guard.
    """
    tol = _check_tolerance(tol)
    operator = np.asarray(operator, dtype=complex)
    linalg._check_unitary(operator)
    dim = operator.shape[0]
    n = dim.bit_length() - 1
    if 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    if n > _MAX_QUBITS_CLASSIFY:
        raise ValueError(f"classification is limited to {_MAX_QUBITS_CLASSIFY} qubits, got {n}")

    # every (a, b) as one stack: 16^n entries, bounded by _MAX_QUBITS_CLASSIFY above
    conjugates = linalg._pauli_conjugates(operator, *divmod(np.arange(dim * dim), dim), n)
    max_dev = float(np.max(_phase_adjusted_distances(conjugates, operator)))
    by_conjugation = max_dev <= tol

    coeffs = pauli_decompose(operator)
    magnitudes = np.abs(coeffs)
    second = float(np.sort(magnitudes, axis=None)[-2]) if dim > 1 else 0.0
    by_decomposition = second <= tol

    if by_conjugation != by_decomposition:
        raise ValueError(
            f"tolerance {tol} cannot separate the two classifier criteria for this matrix "
            f"(max_deviation={max_dev}, second coefficient={second})"
        )

    witness = None
    if by_conjugation:
        # argmax takes the first maximum in row-major (a, b) order
        a, b = divmod(int(np.argmax(magnitudes)), dim)
        coeff = coeffs[a, b]
        bits = linalg.all_bit_strings(n)
        witness = (bits[a], bits[b], canonical_angle(math.atan2(coeff.imag, coeff.real)))
    return ClassifyResult(by_conjugation, witness, max_dev)


#: R(t) P^j = P^j R((-1)^j t): (rule, rotation R, mask P)
_ROTATION_RULES = (("rz-through-x", "rz", "x"), ("ry-through-x", "ry", "x"),
                   ("ry-through-z", "ry", "z"), ("ry-through-h", "ry", "h"))
#: CNOT (A^j (x) B^j) = (C^j (x) D^j) CNOT: (rule, (A, B), (C, D)), "i" the identity
_CNOT_RULES = (("cnot-x-control", ("x", "i"), ("x", "x")), ("cnot-z-control", ("z", "i"), ("z", "i")),
               ("cnot-x-target", ("i", "x"), ("i", "x")), ("cnot-z-target", ("i", "z"), ("z", "z")))


def check_appendix_identities(samples: int, rng: RandomSource) -> dict[str, float]:
    """Worst entrywise error of each commutation rule over all bits and sampled angles.

    Returns one entry per rule, in a fixed order: the nine displayed rules
    (Z and X anticommute, the rotation rows, the cnot rows) plus the Ry rule
    for the hy mask. samples is at most 100,000, checked before any draw.
    """
    samples = linalg._as_size(samples, "samples", 1)
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples must be at most {_MAX_SAMPLES}, got {samples}")
    G = linalg.gate_matrix  # a rotation R(t) is G(kind, (t,))
    X, Y, Z, H, CNOT = map(G, ("x", "y", "z", "h", "cnot"))
    P = {"x": X, "z": Z, "h": H, "i": np.eye(2, dtype=complex)}
    _pow = np.linalg.matrix_power  # a matrix to the power 0 or 1: the identity or itself
    thetas = rng.angles(samples)
    bits = (0, 1)

    def max_err(pairs) -> float:
        return max(float(np.max(np.abs(lhs - rhs))) for lhs, rhs in pairs)

    report: dict[str, float] = {}
    report["zx-anticommute"] = max_err(
        (_pow(Z, k) @ _pow(X, j), (-1) ** (j * k) * _pow(X, j) @ _pow(Z, k))
        for j in bits for k in bits
    )
    for name, kind, mask in _ROTATION_RULES:
        report[name] = max_err(
            (G(kind, (t,)) @ _pow(P[mask], j), _pow(P[mask], j) @ G(kind, ((-1) ** j * t,)))
            for j in bits for t in thetas
        )
    for name, before, after in _CNOT_RULES:
        report[name] = max_err(
            (CNOT @ np.kron(*(_pow(P[k], j) for k in before)), np.kron(*(_pow(P[k], j) for k in after)) @ CNOT)
            for j in bits
        )
    report["ry-through-hy-mask"] = max_err(
        (G("ry", ((-1) ** j * t,)) @ _pow(H, j) @ _pow(Y, k), _pow(H, j) @ _pow(Y, k) @ G("ry", (t,)))
        for j in bits for k in bits for t in thetas
    )
    return report
