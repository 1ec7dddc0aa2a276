"""Exhaustive small-scale verification of the scheme's security claims.

Three families of checks, all numerical at desk scale:
- key averaging: encrypting (or evaluating) under a uniformly random key and
  forgetting the key yields the totally mixed state,
- Pauli-basis decomposition and the key-independence classifier: the only
  operators whose rewritten twin needs no key knowledge are phase-Paulis,
- the commutation identities every rewrite rule rests on, each angle rule
  bounded at every angle by its values at two.

No Pauli operator is built as a matrix. Column i of X^a Z^b holds
S[b, i] = (-1)^popcount(b & i) in row i ^ a, so every mask is one gather by
the index and sign rows ``linalg._mask`` builds, and ``_masks`` caches
every key's, read-only. Key averaging (n one-wire twirls of four masks) and
the classifier conjugate a matrix read as a 2n-qubit row, each mask lifted
onto both halves; decomposing reads the rows of lift 1, its X^a rows and its
sign table. ``verify_security`` factors the state, sigma = V S V^dagger
with S a diagonal of signs, masks V's rows under every key by one gather,
takes the 4^n factors through ``linalg``'s apply loop, row-only, each by its
key's twin circuit, and decrypts by the gather again. ``rewrite._rule`` reads two key bits,
so its four twins give every key's twin of a gate: one Pauli for all four
is key-independent and shared, else each key takes its own. The loop fuses
each wire's run of twins on its four entries, shared Paulis in, gathered per
key when a block takes it; a lone shared Pauli is a frame. Each angle-free
gate's table of twins is ``rewrite._fixed``'s; the keys' twin-table rows and
decryption offsets are built once per call. Sizes are hard-guarded.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import linalg, rewrite
from .circuits import Circuit, Gate, _ops
from .linalg import DensityState, PureState, canonical_angle

_MAX_QUBITS_AVERAGE = 4
_MAX_QUBITS_EVALUATE = 3
_MAX_QUBITS_DECOMPOSE = 4
_MAX_QUBITS_CLASSIFY = 3

#: default tolerance separating exact phase-Paulis from everything else
CLASSIFY_TOL = 1e-8
#: default bound on verify_security's distances: ATOL_STATE, far above their 1e-16-scale rounding
VERIFY_TOL = 1e-9


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
    return float(tol) + 0.0  # -0.0 + 0.0 is 0.0


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
    mat, dim = sigma.matrix, 2 ** n
    for wire in range(n):  # the wire's four masks on both halves of the matrix read as one row
        rows, signs = _masks(1, (dim + 1) << (n - 1 - wire), 2 * n)
        mat = (mat.reshape(-1)[rows] * signs).reshape(-1, dim, dim).sum(axis=0) / 4
    return DensityState(n, mat)


def _key_op(gate: Gate, index: np.ndarray) -> tuple:
    """The gate's (operator, wires) pair for the key stack's apply loop: every key's twin.

    The twin reads the x bit of the gate's first wire i and the z bit of its last j, so key k's twin is row
    index[i, j, k] = 2x + z of ``linalg._key_table``, built from ``rewrite._four`` (``rewrite._fixed``
    keeps an angle-free gate's): a Pauli shared by every key goes in as its exponents, four one-qubit entries
    as ``linalg._Keyed``, and cnot's table gathered per key, a fresh array."""
    kind, wires, params = gate.kind, gate.wires, gate.params
    table = linalg._key_table(rewrite._four(kind, wires, params)) if params else rewrite._fixed(kind, wires)
    rows = index[wires[0], wires[-1]]
    if isinstance(table, np.ndarray):
        return table.take(rows, axis=0), wires
    return (table[0] if len(table[0]) == 2 else linalg._Keyed(table, rows)), wires  # a Pauli's exponents, or entries


def _factor(sigma: PureState | DensityState) -> tuple[np.ndarray, np.ndarray]:
    """V and signs s, sigma = V diag(s) V^dagger: a pure state's amplitudes as one column, else
    Q |L|^(1/2) and sign(L) on every eigenvalue that is not 0, padded by zero columns to a power of two."""
    if isinstance(sigma, PureState):
        return sigma.amplitudes[:, None], np.ones(1)
    lam, q = np.linalg.eigh(sigma.matrix)
    cols = 1 << (int(np.count_nonzero(lam)) - 1).bit_length()
    pick = np.argsort(lam == 0, kind="stable")[:cols]  # every eigenvalue that is not 0, then zeros
    return q[:, pick] * np.sqrt(np.abs(lam[pick])), np.sign(lam[pick])


#: every (n, lift, m) the guards admit: 9 key stacks (r = 1, 2, ..., 2^n for n = 1..3), 4 classifier sizes (n =
#: 0..3), 10 averaging wires (n = 1..4; n = 1's is the classifier's) and 2 decompositions no key stack shares (n = 0, 4)
@functools.lru_cache(maxsize=24)
def _masks(n: int, lift: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every key's mask on 2^m entries: key k's (rows, signs) by ``linalg._mask`` for (a lift, b lift), (a, b) =
    divmod(k, 2^n), as read-only (4^n, 2^m) arrays. At most 64 KiB each within the guards."""
    a, b = divmod(np.arange(4 ** n), 2 ** n)
    return tuple(map(linalg._read_only, linalg._mask(a[:, None] * lift, b[:, None] * lift, m)))


def _key_stacks(circuit: Circuit, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every key's factor of the ciphertext, evaluated ciphertext and decryption, as (4^n, 2^n, r) stacks.

    Key k masks with P_k = X^a Z^b for (a, b) = divmod(k, 2^n), so the keys
    run in lexicographic order of their (x_bits, z_bits) strings. One signed
    gather of V as one row gives every F_k = P_k V, one row-only run of the
    apply loop E_k = U_k F_k, U_k the twin circuit, and one more D_k = P_k E_k.
    """
    n, m = circuit.n_qubits, v.size.bit_length() - 1
    rows, signs = _masks(n, v.shape[1], m)
    cipher = (v.reshape(-1)[rows] * signs).reshape(-1, *v.shape)
    a, b = divmod(np.arange(len(rows)), 2 ** n)
    x, z = (bits >> np.arange(n - 1, -1, -1)[:, None] & 1 for bits in (a, b))  # each wire's bits, read once
    index = 2 * x[:, None] + z  # index[i, j, k] = 2 x_i + z_j: key k's twin-table row on wires i, j
    evaluated = linalg._run(cipher, n, [_key_op(g, index) for g in circuit.gates], columns=False)
    own = rows + (np.arange(len(rows))[:, None] << m)  # key k's rows, offset into its own row of the stack
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
    rows, signs = _masks(n, 1, n)  # key a 2^n + b: rows[k, i] = i ^ a, signs[k, i] = S[b, i ^ a]
    # v[a, i] = U[i ^ a, i], rows[0] the identity; the reduction sums over i in np.trace's order
    v = operator[rows[::dim], rows[0]]
    return (v[:, None, :] * signs[:dim]).sum(axis=2) / dim


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

    # entry (r, c) of X^a Z^b U (X^a Z^b)^dagger is S[b, r] S[b, c] U[r ^ a, c ^ a]: U read as one row takes
    # X^(a(2^n+1)) Z^(b(2^n+1)), the mask on both halves; every (a, b) as one stack, 16^n entries
    rows, signs = _masks(n, dim + 1, 2 * n)
    conjugates = (operator.reshape(-1)[rows] * signs).reshape(-1, dim, dim)
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
#: the angles an angle rule is checked at. t enters rz and ry only as e^(+-it/2), so a residual entry is c e^(it/2)
#: + d e^(-it/2): its values here bound |c| and |d| by the larger of the two, and so the entry at every t by twice that
_GRID = (math.pi / 2, 3 * math.pi / 2)


def check_appendix_identities() -> dict[str, float]:
    """A bound on the entrywise error of each commutation rule, over all bits and every angle.

    Returns one entry per rule, in a fixed order: the nine displayed rules
    (Z and X anticommute, the rotation rows, the cnot rows) plus the Ry rule
    for the hy mask. An angle row is twice its largest error on ``_GRID``. The
    one-qubit sides multiply as ``GateSpec.build`` entries by ``linalg._mul``, in
    Python scalars, and cnot's entries are 0 and +-1: the same report on any BLAS.
    """
    specs, mul, bits = linalg.GATE_SPECS, linalg._mul, (0, 1)
    one = linalg._PAULIS[0, 0]
    P = {kind: (one, specs[kind].build()) for kind in ("x", "y", "z", "h")} | {"i": (one, one)}  # P[kind][j]: power j

    def error(pairs) -> float:  # the largest |l - r| over the entries of one-qubit (lhs, rhs) pairs
        return max(abs(l - r) for lhs, rhs in pairs for l, r in zip(lhs, rhs))

    X, Z = P["x"], P["z"]
    report = {"zx-anticommute": error(
        (mul(Z[k], X[j]), [(-1) ** (j * k) * e for e in mul(X[j], Z[k])]) for j in bits for k in bits
    )}
    for name, kind, mask in _ROTATION_RULES:
        R = specs[kind].build
        report[name] = 2 * error(
            (mul(R(t), P[mask][j]), mul(P[mask][j], R((-1) ** j * t))) for j in bits for t in _GRID
        )
    CNOT = specs["cnot"].build()
    for name, before, after in _CNOT_RULES:
        kron = [[np.kron(*(linalg._as_array(P[k][j]) for k in side)) for j in bits] for side in (before, after)]
        report[name] = max(float(np.max(np.abs(CNOT @ b - a @ CNOT))) for b, a in zip(*kron))
    Ry, masks = specs["ry"].build, [(j, mul(P["h"][j], P["y"][k])) for j in bits for k in bits]
    report["ry-through-hy-mask"] = 2 * error(
        (mul(Ry((-1) ** j * t), m), mul(m, Ry(t))) for j, m in masks for t in _GRID
    )
    return report
