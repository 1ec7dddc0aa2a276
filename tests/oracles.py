"""Slow oracles the tests compare the package's fast paths against.

Most build full 2^n x 2^n matrices: Pauli operators one at a time, gates
tensor-embedded into the whole register, circuits as the product of those
embeddings, and ``twin_error`` checks one gate's rewrite rule against them
under every key. ``zyz_matrix`` builds an rz, ry or u matrix as the product
of its rotation matrices, ``all_keys`` lists every key, and ``mask_gates``
builds a key's mask as Gates, apart from the mask that ``qotp`` runs.
``verify_security_loop`` visits the 4^n keys one at a time,
``average_over_keys_loop`` averages ``qotp.encrypt`` over one-wire keys, and
``parse_pairs_loop`` reads a CLI grid of [re, im] pairs one entry at a time.
``apply_on_axes_uncached`` is the gate kernel with its dispatch worked out
on every call, and ``simulate_per_gate`` runs every gate, Paulis too, as its
matrix through it: one gemm per gate, no Pauli frames.
``key_stacks_per_gate`` evaluates the key stack of a state factor the same
way, each gate as a table of its four twins folded to matrices, by dense
masks. ``key_stacks_dense`` is the density-shaped key stack: an identity
stack run row-only to every key's twin unitary U_k, U_k C U_k^dagger for
every ciphertext C, and every key's mask on both sides by ``mask_rows``;
``verify_security_dense`` reports from it, with the density-mode
``simulate`` as reference. ``fuse_blocks`` forms, by a plain loop,
``np.kron`` and ``matmul_2x2``, a 2x2 product summed entry by entry in
Python scalars, the blocks the apply loop fuses a sequence of ``gate_steps``
into, in the same order, a keyed run on its four table entries before one
gather per key; ``key_index`` lists every key's table row, wire pair by wire
pair; ``simulate_blocks``, ``round_trip_blocks`` and ``key_stacks_blocks``
run them through the uncached kernel, Paulis too, the last on the rows of
every key's factor P_k V, which ``mask_rows`` gathers one key at a time by
index arithmetic. ``apply_to_wires`` is the apply loop's checked entry for
one operator on any wire set: ``checked_operator`` checks the operator and
wires, ``evolve`` runs trusted pairs on a state and checks the result.
``phase_adjusted_distance`` is the classifier's criterion for one conjugate
at a time, and ``min_eigenvalue`` is the eigensolve that the density check's
Cholesky test of positivity stands in for.
The package itself works on wire axes, sign tables, key stacks and whole
arrays instead, so nothing here is imported by ``src/qfhe``.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from qfhe import linalg, qotp, rewrite
from qfhe.analysis import (
    _MAX_QUBITS_AVERAGE,
    _MAX_QUBITS_EVALUATE,
    OVERLAP_FLOOR,
    SecurityReport,
    _check_tolerance,
    _key_op,
)
from qfhe.circuits import Circuit, Gate, is_finite_number, simulate
from qfhe.cli import EXIT_PARSE, CliError
from qfhe.linalg import DensityState, PureState, all_bit_strings


def _check_bits(bits: str, name: str) -> None:
    if not all(c in "01" for c in bits):
        raise ValueError(f"{name} must be a string of 0/1, got {bits!r}")


def pauli_operator(x_bits: str, z_bits: str) -> np.ndarray:
    """Tensor product X^a Z^b indexed by equal-length bit strings.

    Qubit 0 is the most significant factor; on each qubit Z applies first.
    It is a signed permutation: with a, b read as integers, (X^a Z^b)[i ^ a, i]
    = (-1)^popcount(b & i) and every other entry is 0.
    """
    _check_bits(x_bits, "x_bits")
    _check_bits(z_bits, "z_bits")
    if len(x_bits) != len(z_bits):
        raise ValueError(f"bit string lengths differ: {len(x_bits)} vs {len(z_bits)}")
    n = len(x_bits)
    a, b = int(x_bits or "0", 2), int(z_bits or "0", 2)
    index = np.arange(1 << n)
    op = np.zeros((1 << n, 1 << n), dtype=complex)
    op[index ^ a, index] = (-1) ** sum((index & b) >> q & 1 for q in range(n))
    return op


def all_keys(n_qubits: int, variant: str = qotp.VARIANT_XZ) -> list[qotp.QotpKey]:
    """Every key on n qubits, in lexicographic (x_bits, z_bits) order."""
    bit_strings = all_bit_strings(n_qubits)
    return [qotp.QotpKey(n_qubits, a, b, variant) for a in bit_strings for b in bit_strings]


def pauli_basis(n: int):
    """Yield ((a, b), X^a Z^b) one at a time, in the (a, b) order of ``all_keys``."""
    bit_strings = all_bit_strings(n)
    return (((a, b), pauli_operator(a, b)) for a in bit_strings for b in bit_strings)


def pauli_table(operator: np.ndarray) -> dict[tuple[str, str], complex]:
    """tr((X^a Z^b)^dagger U) / 2^n for every (a, b), one dense product and trace each."""
    dim = operator.shape[0]
    return {key: complex(np.trace(p.conj().T @ operator)) / dim for key, p in pauli_basis(dim.bit_length() - 1)}


def pauli_conjugates(operator: np.ndarray) -> list[np.ndarray]:
    """X^a Z^b U (X^a Z^b)^dagger for every (a, b), as dense products."""
    return [p @ operator @ p.conj().T for _, p in pauli_basis(operator.shape[0].bit_length() - 1)]


def apply_to_density(unitary: np.ndarray, rho: DensityState) -> DensityState:
    """Conjugation rho -> U rho U^dagger."""
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != rho.matrix.shape:
        raise ValueError(f"operator shape {unitary.shape} does not match state dim {rho.matrix.shape}")
    return DensityState(rho.n_qubits, unitary @ rho.matrix @ unitary.conj().T)


def checked_operator(unitary, wires, n_qubits: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The operator as a complex array and the wires as a tuple of ints; ValueError unless they fit.

    A wire is an int or a numpy integer, not a bool: True would index wire 1.
    """
    unitary = np.asarray(unitary, dtype=complex)
    if not all(isinstance(w, (int, np.integer)) and not isinstance(w, bool) for w in wires):
        raise ValueError(f"wires must be integers, got {wires!r}")
    wires = tuple(int(w) for w in wires)
    k = len(wires)
    if len(set(wires)) != k:
        raise ValueError(f"duplicate wires in {wires}")
    if any(w < 0 or w >= n_qubits for w in wires):
        raise ValueError(f"wires {wires} out of range for {n_qubits} qubits")
    if unitary.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {unitary.shape} does not match {k} wire(s)")
    return unitary, wires


def evolve(state, ops):
    """The apply loop's (operator, wires) pairs, trusted, run on a state's array; the result checked as the state's kind."""
    n = state.n_qubits
    if isinstance(state, PureState):
        return PureState(n, linalg._run(state.amplitudes, n, ops, columns=False))
    return DensityState(n, linalg._run(state.matrix, n, ops, columns=True))


def apply_to_wires(unitary: np.ndarray, wires, state):
    """A k-qubit operator on the named wires of a PureState or DensityState, by the apply loop; returns the same kind.

    The operator and wires are checked by ``checked_operator``, and the result
    as a state. The operator is contracted with the wire axes of the state,
    never embedded into a 2^n x 2^n matrix.
    """
    return evolve(state, [checked_operator(unitary, wires, state.n_qubits)])


def embed_on_wires(unitary: np.ndarray, wires: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Tensor-embed a k-qubit operator onto the named wires of an n-qubit register."""
    unitary, wires = checked_operator(unitary, wires, n_qubits)
    k = len(wires)
    if k == n_qubits and wires == tuple(range(n_qubits)):
        return unitary
    others = [q for q in range(n_qubits) if q not in wires]
    full = np.kron(unitary, np.eye(2 ** (n_qubits - k), dtype=complex))
    order = list(wires) + others  # axis position -> qubit label
    perm = [order.index(q) for q in range(n_qubits)]
    tensor = full.reshape((2,) * (2 * n_qubits))
    tensor = tensor.transpose(perm + [n_qubits + p for p in perm])
    return tensor.reshape(2 ** n_qubits, 2 ** n_qubits)


_FULL_MATRIX_MAX_QUBITS = 6


def full_matrix(circuit: Circuit) -> np.ndarray:
    """Ordered product of tensor-embedded gate matrices (later gates on the left)."""
    if circuit.n_qubits > _FULL_MATRIX_MAX_QUBITS:
        raise ValueError(f"full_matrix is limited to {_FULL_MATRIX_MAX_QUBITS} qubits")
    total = np.eye(2 ** circuit.n_qubits, dtype=complex)
    for gate in circuit.gates:
        total = embed_on_wires(gate.matrix(), gate.wires, circuit.n_qubits) @ total
    return total


def zyz_matrix(alpha: float, beta: float, gamma: float, delta: float) -> np.ndarray:
    """exp(i*alpha) Rz(beta) Ry(gamma) Rz(delta) from raw angles, as a product of its factor matrices.

    Rz(t) = diag(e^(-it/2), e^(it/2)) and Ry(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]];
    rz(t) is zyz_matrix(0, t, 0, 0) and ry(t) is zyz_matrix(0, 0, t, 0).
    """
    def rz(t):
        return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]])

    c, s = math.cos(gamma / 2), math.sin(gamma / 2)
    return np.exp(1j * alpha) * (rz(beta) @ np.array([[c, -s], [s, c]], dtype=complex) @ rz(delta))


#: one gate of every kind on wire 0, or wires (0, 1) for cnot, with fixed angles that are not special
KIND_GATES = tuple(
    Gate(kind, tuple(range(len(spec.wires))), tuple(0.3 + 0.7 * i for i in range(len(spec.params))))
    for kind, spec in linalg.GATE_SPECS.items()
)


def twin_error(gate: Gate, n_qubits: int) -> float:
    """Worst entry of T P - (-1)^f P G over every key on n qubits, from dense matrices.

    P is the key's mask X^a Z^b, G the gate, and T the twin that
    ``rewrite.rewrite_gate`` gives under the key, with f its phase_flips.
    """
    worst = 0.0
    gate_matrix = full_matrix(Circuit(n_qubits, (gate,)))
    for key in all_keys(n_qubits):
        result = rewrite.rewrite_gate(key, gate)
        mask = pauli_operator(key.x_bits, key.z_bits)
        lhs = full_matrix(Circuit(n_qubits, result.gates)) @ mask
        worst = max(worst, float(np.max(np.abs(lhs - (-1) ** result.phase_flips * mask @ gate_matrix))))
    return worst


def verify_security_loop(circuit: Circuit, sigma: DensityState, tol: float) -> SecurityReport:
    """``analysis.verify_security`` one key at a time: encrypt, evaluate and decrypt per key.

    Averages encrypt(key, sigma) and evaluate(key, C, encrypt(key, sigma))
    over every key and reports the trace distances to the mixed state, and
    the worst distance of any key's decrypted evaluation from C sigma C^dagger.
    """
    _check_tolerance(tol)
    linalg._require(sigma, DensityState)
    n = circuit.n_qubits
    if n != sigma.n_qubits:
        raise ValueError(f"circuit has {n} qubit(s), state has {sigma.n_qubits}")
    if n > _MAX_QUBITS_EVALUATE:
        raise ValueError(f"security verification is limited to {_MAX_QUBITS_EVALUATE} qubits, got {n}")
    dim = 2 ** n
    enc_total = np.zeros((dim, dim), dtype=complex)
    eval_total = np.zeros((dim, dim), dtype=complex)
    expected = simulate(circuit, sigma)
    d_dec = 0.0
    keys = all_keys(n)
    for key in keys:
        cipher = qotp.encrypt(key, sigma)
        enc_total += cipher.matrix
        evaluated = rewrite.evaluate(key, circuit, cipher)
        eval_total += evaluated.matrix
        d_dec = max(d_dec, linalg.trace_distance(qotp.decrypt(key, evaluated), expected))
    mixed = linalg.maximally_mixed(n)
    enc_avg = DensityState(n, enc_total / len(keys))
    eval_avg = DensityState(n, eval_total / len(keys))
    d_enc = linalg.trace_distance(enc_avg, mixed)
    d_eval = linalg.trace_distance(eval_avg, mixed)
    return SecurityReport(
        n_qubits=n,
        worst_encrypt_distance=d_enc,
        worst_evaluate_distance=d_eval,
        worst_decrypt_distance=d_dec,
        tolerance=tol,
        passed=d_enc <= tol and d_eval <= tol and d_dec <= tol,
    )


def average_over_keys_loop(sigma: DensityState) -> DensityState:
    """``analysis.average_over_keys`` as n one-wire twirls of ``qotp.encrypt``.

    Each twirl averages four encryptions, under the keys whose bits are 0
    except on the one wire, and checks every state on the way.
    """
    linalg._require(sigma, DensityState)
    n = sigma.n_qubits
    if n > _MAX_QUBITS_AVERAGE:
        raise ValueError(f"key averaging is limited to {_MAX_QUBITS_AVERAGE} qubits, got {n}")
    for wire in range(n):
        on_wire = [("0" * wire + bit).ljust(n, "0") for bit in "01"]
        keys = [qotp.QotpKey(n, a, b) for a in on_wire for b in on_wire]
        sigma = DensityState(n, sum(qotp.encrypt(key, sigma).matrix for key in keys) / 4)
    return sigma


def parse_pairs_loop(data, where: str, shape: tuple) -> np.ndarray:
    """``cli._parse_grid`` one entry at a time: check each [re, im] pair, then complex() it."""
    def pair(entry) -> complex:
        if not (isinstance(entry, list) and len(entry) == 2 and all(map(is_finite_number, entry))):
            raise CliError(EXIT_PARSE, f"{where}: each entry must be a finite [re, im] pair")
        return complex(entry[0], entry[1])

    if len(shape) == 2:
        return np.array([pair(e) for e in data], dtype=complex)
    return np.array([[pair(e) for e in row] for row in data], dtype=complex)


def apply_on_axes_uncached(op: np.ndarray, axes: tuple[int, ...], flat: np.ndarray, m: int) -> np.ndarray:
    """``linalg._apply_on_axes`` with no plan cache: the axes gathered in front through the
    transpose of all m axes, multiplied and scattered back.
    """
    k = len(axes)
    lead = flat.shape[:-1]
    perm = [*axes, *(a for a in range(m) if a not in axes)]
    back = sorted(range(m), key=perm.__getitem__)
    if lead:
        perm, back = [0, *(a + 1 for a in perm)], [0, *(a + 1 for a in back)]
    gathered = flat.reshape(lead + (2,) * m).transpose(perm)
    out = (op @ gathered.reshape(lead + (1 << k, -1))).reshape(gathered.shape)
    return out.transpose(back).reshape(flat.shape)


def _run_blocks(n: int, blocks, flat: np.ndarray, columns: bool) -> np.ndarray:
    """(matrix, wires) blocks in order by ``apply_on_axes_uncached``: U on the row axes, and with the column pass U* on a density row's columns."""
    m = flat.shape[-1].bit_length() - 1
    for mat, wires in blocks:
        flat = apply_on_axes_uncached(mat, wires, flat, m)
        if columns:
            flat = apply_on_axes_uncached(mat.conj(), tuple(n + w for w in wires), flat, m)
    return flat


def _simulate(n: int, blocks, state):
    """A pure or density state after the blocks, as ``_run_blocks`` applies them; checked."""
    if isinstance(state, PureState):
        return PureState(n, _run_blocks(n, blocks, state.amplitudes, False))
    return DensityState(n, _run_blocks(n, blocks, state.matrix.reshape(-1), True).reshape(state.matrix.shape))


def simulate_per_gate(circuit: Circuit, state):
    """``circuits.simulate`` with each gate built as its matrix and applied by one gemm, Paulis too."""
    return _simulate(circuit.n_qubits, [(g.matrix(), g.wires) for g in circuit.gates], state)


#: the gate kinds of each QOTP variant's mask: the x-bit gate, then the z-bit gate
MASK_GATES = {"xz": ("x", "z"), "hy": ("h", "y")}


def mask_gates(key: qotp.QotpKey) -> tuple[Gate, ...]:
    """The key's encryption mask as Gates, per wire the z-bit gate and then the x-bit gate."""
    x_kind, z_kind = MASK_GATES[key.variant]
    gates = []
    for wire, (a, b) in enumerate(zip(key.x_bits, key.z_bits)):
        if b == "1":
            gates.append(Gate.named(z_kind, wire))
        if a == "1":
            gates.append(Gate.named(x_kind, wire))
    return tuple(gates)


def round_trip_per_gate(key: qotp.QotpKey, circuit: Circuit, state) -> tuple:
    """Ciphertext, evaluated ciphertext and decryption, each step run by ``simulate_per_gate``."""
    mask = Circuit(circuit.n_qubits, mask_gates(key))
    cipher = simulate_per_gate(mask, state)
    evaluated = simulate_per_gate(rewrite.rewrite_circuit(key, circuit), cipher)
    return cipher, evaluated, simulate_per_gate(Circuit(circuit.n_qubits, mask.gates[::-1]), evaluated)


def _fold_per_gate(gates, wires: tuple[int, ...]) -> np.ndarray:
    """The gates, applied in order by ``apply_on_axes_uncached`` to the identity, as one operator on the wires."""
    k = len(wires)
    op = np.eye(1 << k, dtype=complex).reshape(-1)
    for g in gates:
        op = apply_on_axes_uncached(g.matrix(), tuple(map(wires.index, g.wires)), op, 2 * k)
    return op.reshape(1 << k, 1 << k)


def _twin_table(gate: Gate) -> list[tuple[Gate, ...]]:
    """The gate's four ``rewrite.twin`` entries, for key bits (x, z) = (0, 0), (0, 1), (1, 0), (1, 1)."""
    return [rewrite.twin(gate, x, z).gates for x in (0, 1) for z in (0, 1)]


def _rows(gate: Gate, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Each key's row 2x + z of the gate's twin table: x the bit of its first wire, z of its last."""
    return 2 * (a >> (n - 1 - gate.wires[0]) & 1) + (b >> (n - 1 - gate.wires[-1]) & 1)


def key_index(n: int) -> np.ndarray:
    """(n, n, 4^n): entry [i, j, k] is key k's row 2x + z of a twin table read on first wire i and last wire j."""
    a, b = divmod(np.arange(4 ** n), 2 ** n)
    return np.array([[2 * (a >> (n - 1 - i) & 1) + (b >> (n - 1 - j) & 1) for j in range(n)] for i in range(n)])


def _per_key(table: np.ndarray, gate: Gate, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Key k's entry of the gate's table, by ``_rows``."""
    return table[_rows(gate, a, b, n)]


def key_stacks_per_gate(circuit: Circuit, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``analysis._key_stacks`` with every gate, Paulis too, run as each key's folded twin by one gemm pass.

    Key k's factor P_k V is the dense product with its mask, each gate's four
    ``rewrite.twin`` entries are folded to matrices, key k picks its own by
    the x bit of the gate's first wire and the z bit of its last, and U acts
    on the row axes of every factor. Nothing is checked.
    """
    n = circuit.n_qubits
    a, b = divmod(np.arange(4 ** n), 2 ** n)
    masks = np.array([p for _, p in pauli_basis(n)])
    cipher = masks @ v
    blocks = []
    for g in circuit.gates:
        table = np.array([_fold_per_gate(twin, g.wires) for twin in _twin_table(g)])
        blocks.append((_per_key(table, g, a, b, n), g.wires))
    evaluated = _run_blocks(n, blocks, cipher.reshape(len(a), -1), False).reshape(cipher.shape)
    return cipher, evaluated, masks @ evaluated


def _kron_per_key(factors: list[np.ndarray]) -> np.ndarray:
    """np.kron of the factors, key by key when any is a (K, 2, 2) stack."""
    keys = {len(f) for f in factors if f.ndim == 3}
    if not keys:
        return functools.reduce(np.kron, factors)
    (count,) = keys
    return np.array([functools.reduce(np.kron, [f[k] if f.ndim == 3 else f for f in factors]) for k in range(count)])


def matmul_2x2(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """l @ r of two 2x2 matrices, each entry summed in Python complex arithmetic, as the fuser does."""
    L, R = l.tolist(), r.tolist()
    return np.array([[L[i][0] * R[0][j] + L[i][1] * R[1][j] for j in range(2)] for i in range(2)])


def _gather(mat) -> np.ndarray:
    """A keyed (table, rows) matrix as its (K, 2, 2) stack, key k's the table's entry rows[k]; a matrix unchanged."""
    return np.array(mat[0])[mat[1]] if isinstance(mat, tuple) else mat


def _keyed_product(l, r) -> tuple:
    """l @ r with either side keyed: ``matmul_2x2`` on each of the four entries, a shared side in every one."""
    rows = (l if isinstance(l, tuple) else r)[1]
    ls = l[0] if isinstance(l, tuple) else [l] * 4
    rs = r[0] if isinstance(r, tuple) else [r] * 4
    return [matmul_2x2(x, y) for x, y in zip(ls, rs)], rows


def fuse_blocks(n: int, steps) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The (matrix, wires) blocks ``linalg._fuse`` forms from (matrix, wires, is_pauli) steps, in its order.

    Each wire's run of one-qubit matrices is multiplied into one, later
    matrices on the left, by ``matmul_2x2`` while both are shared and by
    numpy otherwise; a Pauli step joins a run pending on its wire and
    is its own block otherwise. A multi-qubit step takes the runs pending on
    its wires, kron'ed in its wire order with the identity where none is,
    and the runs left over come last, in wire order. A matrix is shared, a
    (K, d, d) stack of one per key, or keyed: a one-qubit (table, rows) pair
    of four 2x2 entries, key k taking entry rows[k]. A keyed run multiplies
    by ``matmul_2x2`` on its four entries, a shared matrix into each, and is
    gathered to its (K, 2, 2) stack only when a block takes it.
    """
    runs: list = [None] * n
    blocks = []
    for mat, wires, is_pauli in steps:
        if len(wires) == 1:
            (w,) = wires
            if runs[w] is not None:
                if isinstance(mat, tuple) or isinstance(runs[w], tuple):
                    runs[w] = _keyed_product(mat, runs[w])
                else:
                    shared = mat.ndim == runs[w].ndim == 2
                    runs[w] = matmul_2x2(mat, runs[w]) if shared else mat @ runs[w]
            elif is_pauli:
                blocks.append((mat, wires))
            else:
                runs[w] = mat
            continue
        if any(runs[w] is not None for w in wires):
            factors = [np.eye(2, dtype=complex) if runs[w] is None else _gather(runs[w]) for w in wires]
            mat = mat @ _kron_per_key(factors)
            for w in wires:
                runs[w] = None
        blocks.append((mat, wires))
    return blocks + [(_gather(runs[w]), (w,)) for w in range(n) if runs[w] is not None]


def gate_steps(gates) -> list[tuple[np.ndarray, tuple[int, ...], bool]]:
    """Each gate as a ``fuse_blocks`` step: its matrix, its wires and whether it is a Pauli."""
    return [(g.matrix(), g.wires, bool(linalg.GATE_SPECS[g.kind].pauli)) for g in gates]


def simulate_blocks(circuit: Circuit, state):
    """``circuits.simulate`` with the gates fused by ``fuse_blocks``, every block, Paulis too, run by a gemm."""
    n = circuit.n_qubits
    return _simulate(n, fuse_blocks(n, gate_steps(circuit.gates)), state)


def round_trip_blocks(key: qotp.QotpKey, circuit: Circuit, state) -> tuple:
    """Ciphertext, evaluated ciphertext and decryption, each step run by ``simulate_blocks``."""
    mask = Circuit(circuit.n_qubits, mask_gates(key))
    cipher = simulate_blocks(mask, state)
    evaluated = simulate_blocks(rewrite.rewrite_circuit(key, circuit), cipher)
    return cipher, evaluated, simulate_blocks(Circuit(circuit.n_qubits, mask.gates[::-1]), evaluated)


def mask_rows(mats: np.ndarray, n: int) -> np.ndarray:
    """P_k M for every key's mask P_k = X^a Z^b, (a, b) = divmod(k, 2^n), one key at a time: exact.

    mats is one (2^n, r) matrix, shared, or a stack of one per key. Row i of
    P_k M is (-1)^popcount(b & (i ^ a)) times row i ^ a of M, the sign a
    complex +-1 as ``linalg._parity_signs`` holds it, so each entry is the
    same complex product as the package's gathers make, signed zeros too.
    """
    dim = 2 ** n
    index = np.arange(dim)
    out = np.empty((4 ** n, dim, mats.shape[-1]), dtype=complex)
    for k in range(4 ** n):
        a, b = divmod(k, dim)
        parity = np.array([bin(b & (i ^ a)).count("1") & 1 for i in range(dim)])
        out[k] = (mats if mats.ndim == 2 else mats[k])[index ^ a] * (1 - 2 * parity).astype(complex)[:, None]
    return out


def key_stacks_blocks(circuit: Circuit, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``analysis._key_stacks`` with the key stack's steps fused by ``fuse_blocks``.

    A gate whose four ``rewrite.twin`` entries are one and the same Pauli is
    a shared Pauli step; any other gate is a table of its twins, each folded
    by ``fuse_blocks`` to one matrix, key k picking its own by the x bit of
    the gate's first wire and the z bit of its last: a keyed step for a
    one-qubit gate, a per-key stack gathered from the table for cnot. The
    blocks run on the row axes of every key's factor P_k V, by ``mask_rows``,
    and ``mask_rows`` decrypts. Nothing is checked.
    """
    n = circuit.n_qubits
    a, b = divmod(np.arange(4 ** n), 2 ** n)
    cipher = mask_rows(v, n)
    steps = []
    for g in circuit.gates:
        twins = _twin_table(g)
        if twins.count(twins[0]) == 4 and len(twins[0]) == 1 and linalg.GATE_SPECS[twins[0][0].kind].pauli:
            steps.append((twins[0][0].matrix(), g.wires, True))
            continue
        table = [fuse_blocks(n, [(t.matrix(), t.wires, False) for t in twin])[0][0] for twin in twins]
        rows = _rows(g, a, b, n)
        steps.append(((table, rows) if len(g.wires) == 1 else np.array(table)[rows], g.wires, False))
    evaluated = _run_blocks(n, fuse_blocks(n, steps), cipher.reshape(len(a), -1), False).reshape(cipher.shape)
    return cipher, evaluated, mask_rows(evaluated, n)


def key_stacks_dense(circuit: Circuit, sigma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ciphertext, evaluated ciphertext and its decryption under every key, as (4^n, 2^n, 2^n) density stacks.

    One row-only run of the apply loop takes an identity stack to each key's
    twin circuit U_k, two batched products conjugate each key's ciphertext,
    P_k sigma P_k^dagger by ``mask_rows`` on both sides, by its U_k, and the
    same masks again decrypt.
    A pure sigma enters as its density matrix. Nothing is checked.
    """
    n = circuit.n_qubits
    mat = sigma.to_density().matrix if isinstance(sigma, PureState) else sigma.matrix
    cipher = _conjugate_by_keys(mat, n)
    identities, index = np.broadcast_to(np.eye(2 ** n, dtype=complex), cipher.shape), key_index(n)
    unitaries = linalg._run(identities, n, (_key_op(g, index) for g in circuit.gates), columns=False)
    evaluated = unitaries @ cipher @ unitaries.conj().swapaxes(1, 2)
    return cipher, evaluated, _conjugate_by_keys(evaluated, n)


def _conjugate_by_keys(mats: np.ndarray, n: int) -> np.ndarray:
    """P_k M P_k^dagger for every key, M shared or one per key: ``mask_rows`` on M's rows, then on the rows of the adjoint."""
    return mask_rows(mask_rows(mats, n).conj().swapaxes(1, 2), n).conj().swapaxes(1, 2)


def verify_security_dense(circuit: Circuit, sigma, tol: float) -> SecurityReport:
    """``analysis.verify_security`` on ``key_stacks_dense``: every decryption checked as a density matrix.

    The reference is the density-mode ``simulate``, and each key average the
    sum of its density stack.
    """
    n = circuit.n_qubits
    cipher, evaluated, decrypted = key_stacks_dense(circuit, sigma)
    for mat in decrypted:
        DensityState(n, mat)
    rho = sigma.to_density() if isinstance(sigma, PureState) else sigma
    d_dec = float(np.max(linalg._trace_distances(decrypted, simulate(circuit, rho).matrix)))
    mixed = np.eye(2 ** n) / 2 ** n
    d_enc, d_eval = (float(linalg._trace_distances(s.sum(axis=0) / len(s), mixed)) for s in (cipher, evaluated))
    return SecurityReport(n, d_enc, d_eval, d_dec, tol, d_enc <= tol and d_eval <= tol and d_dec <= tol)


def phase_adjusted_distance(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Max-entry distance of one candidate from reference after the best global phase.

    An overlap below ``analysis.OVERLAP_FLOOR`` counts as disagreement.
    """
    overlap = complex(np.trace(reference.conj().T @ candidate))
    if abs(overlap) < OVERLAP_FLOOR:
        return float(np.max(np.abs(candidate - reference)))
    phase = overlap / abs(overlap)
    return float(np.max(np.abs(candidate - phase * reference)))


def min_eigenvalue(mat: np.ndarray) -> float:
    """The smallest eigenvalue of a Hermitian matrix, by a full eigensolve."""
    return float(np.linalg.eigvalsh(mat)[0])
