import math
import re
import struct

import numpy as np
import pytest

from qfhe import (
    Circuit,
    DensityState,
    Gate,
    analysis,
    PureState,
    average_over_keys,
    check_appendix_identities,
    classify_key_independent,
    decrypt,
    encrypt,
    evaluate,
    linalg,
    maximally_mixed,
    qotp,
    QotpKey,
    rewrite,
    simulate,
    trace_distance,
    verify_security,
)
from qfhe.analysis import (
    CLASSIFY_TOL,
    _factor,
    _key_stacks,
    pauli_decompose,
)
from qfhe.circuits import euler_decompose
from qfhe.cli import main
from qfhe.linalg import (
    ATOL_EXACT,
    ATOL_STATE,
    GATE_SPECS,
    _pauli_conjugates,
    _signed_gather,
    all_bit_strings,
    canonical_angle,
    gate_matrix,
)
from qfhe.rng import RandomSource

from oracles import (
    KIND_GATES,
    all_keys,
    average_over_keys_loop,
    full_matrix,
    key_index,
    key_stacks_blocks,
    key_stacks_dense,
    key_stacks_per_gate,
    pauli_basis,
    pauli_conjugates,
    pauli_operator,
    pauli_table,
    phase_adjusted_distance,
    twin_error,
    verify_security_dense,
    verify_security_loop,
)


# --- key averaging -------------------------------------------------------

def test_average_basis_state():
    out = average_over_keys(PureState.basis(1, 0).to_density())
    assert np.allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)


def test_average_random_two_qubit_pure():
    sigma = RandomSource(0).pure_state(2).to_density()
    assert trace_distance(average_over_keys(sigma), maximally_mixed(2)) <= 1e-10


def test_average_fixed_point():
    mixed = maximally_mixed(2)
    assert np.max(np.abs(average_over_keys(mixed).matrix - mixed.matrix)) <= 1e-15


def test_average_universality():
    rng = RandomSource(10)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            sigma = rng.density_state(n) if rng.integer(0, 2) else rng.pure_state(n).to_density()
            assert trace_distance(average_over_keys(sigma), maximally_mixed(n)) <= 1e-10


def test_average_size_guard():
    with pytest.raises(ValueError):
        average_over_keys(maximally_mixed(5))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_average_matches_the_per_wire_encrypt_loop(n):
    rng = RandomSource(30 + n)
    states = [PureState.basis(n, i).to_density() for i in range(2 ** n)]
    states += [rng.pure_state(n).to_density() for _ in range(5)]
    states += [rng.density_state(n) for _ in range(5)]
    for sigma in states:
        assert np.array_equal(average_over_keys(sigma).matrix, average_over_keys_loop(sigma).matrix)


def test_average_checks_only_its_result(monkeypatch):
    calls = []
    monkeypatch.setattr(qotp, "encrypt", lambda *args: calls.append("encrypt"))
    monkeypatch.setattr(qotp, "QotpKey", lambda *args: calls.append("QotpKey"))
    monkeypatch.setattr(analysis, "DensityState", lambda *args: calls.append("DensityState") or args)
    sigma = RandomSource(3).density_state(3)
    assert average_over_keys(sigma)[0] == 3
    assert calls == ["DensityState"]


# --- security verification ----------------------------------------------

@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_verify_security_rejects_invalid_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        verify_security(Circuit(1), PureState.basis(1, 0).to_density(), tol)


@pytest.mark.parametrize("tol", [True, False, np.True_], ids=["True", "False", "np.True_"])
def test_verify_security_rejects_a_bool_tolerance(tol):
    with pytest.raises(ValueError, match=f"^tolerance must be a finite number >= 0, got {re.escape(repr(tol))}$"):
        verify_security(Circuit(1), PureState.basis(1, 0).to_density(), tol)


def test_verify_security_keeps_its_tolerance_as_a_float():
    rho = PureState.basis(1, 0).to_density()
    for tol, want in ((1, 1.0), (0, 0.0), (np.float32(0.5), 0.5), (np.float64(1e-9), 1e-9)):
        report = verify_security(Circuit(1), rho, tol)
        assert type(report.tolerance) is float and report.tolerance == want


def test_verify_security_rejects_a_non_circuit_after_the_tolerance_and_state():
    rho = PureState.basis(1, 0).to_density()
    with pytest.raises(TypeError, match=r"^expected Circuit, got list$"):
        verify_security([], rho, 1e-9)
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        verify_security([], rho, -1.0)
    with pytest.raises(TypeError, match=r"^expected PureState or DensityState, got ndarray$"):
        verify_security([], rho.matrix, 1e-9)


def test_verify_security_empty_circuit():
    report = verify_security(Circuit(1), PureState.basis(1, 0).to_density(), 1e-9)
    assert report.passed
    assert report.worst_encrypt_distance <= 1e-10
    assert report.worst_evaluate_distance <= 1e-10


def test_verify_security_random_circuit():
    rng = RandomSource(23)
    circuit = rng.circuit(2, 8)
    report = verify_security(circuit, rng.pure_state(2).to_density(), 1e-9)
    assert report.passed


def test_verify_security_zero_tolerance_fails():
    # generic states leave a floating-point floor; exact zero is unreachable
    rng = RandomSource(19)
    circuit = rng.circuit(1, 4)
    report = verify_security(circuit, rng.pure_state(1).to_density(), 0.0)
    assert not report.passed
    assert report.worst_encrypt_distance > 0.0 or report.worst_evaluate_distance > 0.0


def test_verify_security_size_guard():
    with pytest.raises(ValueError):
        verify_security(Circuit(4), maximally_mixed(4), 1e-9)


def _gram(f, s):
    """F diag(s) F^dagger, or per entry of a stack."""
    return (f * s) @ f.conj().swapaxes(-1, -2)


def _states(rng, n):
    """A PureState, its density matrix, every rank below full drawn by density_state, a full-rank one,
    and one whose lowest eigenvalue, -0.99 ATOL_STATE, takes a sign of -1 in the factor."""
    psi, q = rng.pure_state(n), rng.unitary(2 ** n)
    lam = np.append(-0.99 * ATOL_STATE, np.full(2 ** n - 1, (1 + 0.99 * ATOL_STATE) / (2 ** n - 1)))
    negative = (q * lam) @ q.conj().T
    return [psi, psi.to_density(), *(rng.density_state(n, rank=r) for r in range(1, 2 ** n)), rng.density_state(n),
            DensityState(n, (negative + negative.conj().T) / 2)]


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_security_matches_the_per_key_loop(n, mixed):
    rng = RandomSource(2)
    circuit = rng.circuit(n, 30)
    # on one qubit a drawn cnot becomes x
    assert {g.kind for g in circuit.gates} == set(GATE_SPECS) - ({"cnot"} if n == 1 else set())
    sigma = rng.density_state(n) if mixed else rng.pure_state(n).to_density()
    v, s = _factor(sigma)
    cipher, evaluated, decrypted = _key_stacks(circuit, v)
    keys = all_keys(n)
    assert cipher.shape == evaluated.shape == decrypted.shape == (len(keys), 2 ** n, v.shape[1])
    for k, key in enumerate(keys):
        want_cipher = encrypt(key, sigma)
        want_evaluated = evaluate(key, circuit, want_cipher)
        assert np.max(np.abs(_gram(cipher[k], s) - want_cipher.matrix)) <= ATOL_EXACT
        assert np.max(np.abs(_gram(evaluated[k], s) - want_evaluated.matrix)) <= ATOL_EXACT
        assert np.max(np.abs(_gram(decrypted[k], s) - decrypt(key, want_evaluated).matrix)) <= ATOL_EXACT
    for tol in (1e-9, 0.0):
        got, want = verify_security(circuit, sigma, tol), verify_security_loop(circuit, sigma, tol)
        for name in ("worst_encrypt_distance", "worst_evaluate_distance", "worst_decrypt_distance"):
            assert abs(getattr(got, name) - getattr(want, name)) <= ATOL_EXACT
        assert got.passed == want.passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_security_matches_the_dense_oracle(n):
    # pure, every rank below full and full rank: each reported distance, and each key's
    # decryption D S D^dagger, against the density-shaped key stack
    rng = RandomSource(60 + n)
    for sigma in _states(rng, n):
        circuit = rng.circuit(n, 20)
        v, s = _factor(sigma)
        got, want = verify_security(circuit, sigma, 1e-9), verify_security_dense(circuit, sigma, 1e-9)
        assert got.passed and want.passed
        for name in ("worst_encrypt_distance", "worst_evaluate_distance", "worst_decrypt_distance"):
            assert abs(getattr(got, name) - getattr(want, name)) <= ATOL_EXACT
        for stack, dense in zip(_key_stacks(circuit, v), key_stacks_dense(circuit, sigma), strict=True):
            assert np.max(np.abs(_gram(stack, s) - dense)) <= ATOL_EXACT


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_pure_state_and_its_density_matrix_give_the_same_report(n):
    rng = RandomSource(65 + n)
    for _ in range(4):
        psi, circuit = rng.pure_state(n), rng.circuit(n, 20)
        for tol in (1e-9, 0.0):
            got, want = verify_security(circuit, psi, tol), verify_security(circuit, psi.to_density(), tol)
            assert got.passed == want.passed and got.tolerance == want.tolerance
            for name in ("worst_encrypt_distance", "worst_evaluate_distance", "worst_decrypt_distance"):
                assert abs(getattr(got, name) - getattr(want, name)) <= ATOL_EXACT


def test_the_factor_keeps_every_nonzero_eigenvalue_and_pads_to_a_power_of_two():
    # exact zero eigenvalues drop out, then zero columns pad: diag weights of rank 1, 2, 3
    # and 8 take 1, 2, 4 and 8 columns; a pure state is its amplitudes as one column
    for weights, cols in (((1,), 1), ((0.5, 0.5), 2), ((0.5, 0.25, 0.25), 4), ((0.125,) * 8, 8)):
        sigma = DensityState(3, np.diag(np.pad(weights, (0, 8 - len(weights)))))
        v, s = _factor(sigma)
        assert v.shape == (8, cols) and s.shape == (cols,)
        assert np.max(np.abs(_gram(v, s) - sigma.matrix)) <= ATOL_EXACT
    rng = RandomSource(64)
    for sigma in _states(rng, 3)[1:]:
        v, s = _factor(sigma)
        assert set(s.tolist()) <= {-1.0, 0.0, 1.0}
        assert np.max(np.abs(_gram(v, s) - sigma.matrix)) <= ATOL_EXACT
    assert s[0] == -1.0  # the last state's eigenvalue of -0.99 ATOL_STATE
    psi = rng.pure_state(3)
    v, s = _factor(psi)
    assert v.shape == (8, 1) and s.tolist() == [1.0] and np.array_equal(v[:, 0], psi.amplitudes)


def _pauli_gates(rng, n, count):
    return tuple(Gate.named("xyz"[rng.integer(0, 3)], rng.integer(0, n)) for _ in range(count))


@pytest.mark.parametrize("shape", ["random", "pauli_tail", "all_pauli", "empty"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_key_stacks_equal_the_per_gate_tables_bit_for_bit(n, shape):
    # against the oracle's blocks run on every key's factor P_k V: Pauli gathers are exact,
    # and every other block is the same product, run by the same gemm on the same operands
    # in the same order, so every entry is equal (eigh's eigenvectors hold exact zeros, and
    # a Pauli the oracle runs by gemm can turn the gather's -0.0 into 0.0); the per-gate slow
    # oracle agrees within ATOL_EXACT, and the report with the density-shaped dense oracle
    for seed in range(4):
        rng = RandomSource(100 * n + seed)
        gates = {
            "random": lambda: rng.circuit(n, 24).gates,
            "pauli_tail": lambda: rng.circuit(n, 12).gates + _pauli_gates(rng, n, 5),
            "all_pauli": lambda: _pauli_gates(rng, n, 9),
            "empty": lambda: (),
        }[shape]()
        circuit = Circuit(n, gates)
        sigma = rng.density_state(n) if seed % 2 else rng.pure_state(n)
        v, _ = _factor(sigma)
        got, want = _key_stacks(circuit, v), key_stacks_blocks(circuit, v)
        for g, w, slow in zip(got, want, key_stacks_per_gate(circuit, v), strict=True):
            assert g.shape == w.shape == (4 ** n, 2 ** n, v.shape[1])
            assert np.array_equal(g, w)
            assert np.max(np.abs(g - slow)) <= ATOL_EXACT
        report, dense = verify_security(circuit, sigma, 1e-9), verify_security_dense(circuit, sigma, 1e-9)
        assert report.passed and dense.passed
        for name in ("worst_encrypt_distance", "worst_evaluate_distance", "worst_decrypt_distance"):
            assert abs(getattr(report, name) - getattr(dense, name)) <= ATOL_EXACT


@pytest.mark.parametrize("n", range(1, 6))
def test_key_stacks_match_the_circuit_matrix_under_every_key(n):
    # the fused key stack and the per-gate tables, each against dense products: key k's
    # ciphertext factor is P V, its evaluation P C V up to a sign (a twin's dropped sign
    # is a global phase), and its decryption C V up to that sign
    rng = RandomSource(150 + n)
    circuit = rng.circuit(n, 24)
    v, s = _factor(rng.density_state(n))
    full = full_matrix(circuit)
    masks = np.array([p for _, p in pauli_basis(n)])
    masks_dagger = masks.conj().swapaxes(1, 2)
    plain = _gram(full @ v, s)
    want = (_gram(masks @ v, s), masks @ plain @ masks_dagger, plain)
    for stacks in (_key_stacks(circuit, v), key_stacks_per_gate(circuit, v)):
        for got, w in zip(stacks, want, strict=True):
            assert got.shape == (4 ** n, 2 ** n, 2 ** n)
            assert np.max(np.abs(_gram(got, s) - w)) <= ATOL_EXACT


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_key_unitary_is_its_rewritten_circuit(n):
    # the row-only run of the key ops on the identity stack gives key k's twin circuit
    # as one matrix U_k, and U_k P = (-1)^f P C for its mask P and dropped signs f
    rng = RandomSource(160 + n)
    circuit = rng.circuit(n, 24)
    identities = np.broadcast_to(np.eye(2 ** n, dtype=complex), (4 ** n, 2 ** n, 2 ** n))
    index = key_index(n)
    unitaries = linalg._run(identities, n, (analysis._key_op(g, index) for g in circuit.gates), columns=False)
    plain = full_matrix(circuit)
    for u, key in zip(unitaries, all_keys(n), strict=True):
        flips = sum(rewrite.rewrite_gate(key, g).phase_flips for g in circuit.gates)
        mask = pauli_operator(key.x_bits, key.z_bits)
        assert np.max(np.abs(u - full_matrix(rewrite.rewrite_circuit(key, circuit)))) <= ATOL_EXACT
        assert np.max(np.abs(u @ mask - (-1) ** flips * mask @ plain)) <= ATOL_EXACT


def _key_ignoring_rule(kind, wires, params, x, z):
    """The plain gate as every twin, with no sign dropped."""
    return ((kind, wires, params),), 0


@pytest.mark.mutant
def test_a_key_ignoring_evaluator_fails_only_the_decrypt_check(monkeypatch):
    # every twin the plain gate: the evaluate average is C (I/2^n) C^dagger = I/2^n,
    # so only decrypting each key's result can notice
    rng = RandomSource(41)
    circuit = rng.circuit(2, 12)
    sigma = rng.pure_state(2).to_density()
    monkeypatch.setattr(rewrite, "_rule", _key_ignoring_rule)
    report = verify_security(circuit, sigma, 1e-9)
    assert report.worst_encrypt_distance <= 1e-9
    assert report.worst_evaluate_distance <= 1e-9
    assert report.worst_decrypt_distance > 0.1
    assert not report.passed


@pytest.mark.mutant
def test_a_key_ignoring_rule_reaches_every_reader(monkeypatch):
    # one patch of the rule: the Gate reader (rewrite_gate, rewrite_circuit), the pairs
    # reader (evaluate, scheme_evaluate) and the key stack all give the plain gates
    rng = RandomSource(43)
    circuit, key, rz = rng.circuit(2, 16), QotpKey(2, "11", "11"), Gate.rz(0.7, 1)
    psi, rho = rng.pure_state(2), rng.density_state(2)

    def raw(state) -> bytes:
        return (state.amplitudes if isinstance(state, PureState) else state.matrix).tobytes()

    def outputs(state):
        """(reader's output, plain output) of evaluate and of scheme_evaluate, as bytes."""
        scheme = rewrite.scheme_evaluate(rewrite.Scheme.RZ_ONLY, key, rz, state)
        return [(raw(evaluate(key, circuit, state)), raw(simulate(circuit, state))),
                (raw(scheme), raw(simulate(Circuit(2, (rz,)), state)))]

    assert rewrite.rewrite_circuit(key, circuit) != circuit and verify_security(circuit, rho, 1e-9).passed
    assert all(got != want for state in (psi, rho) for got, want in outputs(state))
    monkeypatch.setattr(rewrite, "_rule", _key_ignoring_rule)
    rewrite._fixed.cache_clear()  # the honest twins the calls above cached
    assert all(rewrite.rewrite_gate(key, g) == rewrite.RewriteResult((g,), 0) for g in circuit.gates)
    assert rewrite.rewrite_circuit(key, circuit) == circuit
    assert all(got == want for state in (psi, rho) for got, want in outputs(state))
    assert verify_security(circuit, rho, 1e-9).worst_decrypt_distance > 0.1


def _flip(weights, bit):
    return tuple(w ^ (i == bit) for i, w in enumerate(weights))


def _passes_security():
    """verify_security on one gate of every kind: every single-qubit gate on wire 0, cnot on (0, 1)."""
    sigma = RandomSource(5).pure_state(2).to_density()
    return verify_security(Circuit(2, KIND_GATES), sigma, 1e-9).passed


@pytest.mark.mutant
@pytest.mark.parametrize("bit", [0, 1], ids=["x_weight", "z_weight"])
@pytest.mark.parametrize("kind,index", [
    (kind, i) for kind, spec in GATE_SPECS.items() for i in range(len(spec.parity))
], ids=str)
def test_each_parity_weight_mutant_fails_the_table(monkeypatch, kind, index, bit):
    spec = GATE_SPECS[kind]
    parity = list(spec.parity)
    parity[index] = _flip(parity[index], bit)
    monkeypatch.setitem(GATE_SPECS, kind, spec._replace(parity=tuple(parity)))
    (gate,) = [g for g in KIND_GATES if g.kind == kind]
    assert twin_error(gate, 2) > ATOL_EXACT
    # u's alpha is a global phase: a blind spot of the security check, not of the table
    assert _passes_security() == (kind == "u" and index == 0)


@pytest.mark.mutant
@pytest.mark.parametrize("bit", [0, 1], ids=["x_weight", "z_weight"])
@pytest.mark.parametrize("kind", sorted(k for k, spec in GATE_SPECS.items() if spec.pauli))
def test_each_pauli_sign_mutant_fails_only_the_table(monkeypatch, kind, bit):
    # the sign weights are the Pauli column swapped; flipping one weight toggles
    # the dropped sign by that key bit, and leaves the gate's own action alone
    rule = rewrite._rule

    def mutant(gate_kind, wires, params, x, z):
        parts, flips = rule(gate_kind, wires, params, x, z)
        return parts, (flips ^ (x if bit == 0 else z) if gate_kind == kind else flips)

    monkeypatch.setattr(rewrite, "_rule", mutant)
    assert twin_error(Gate.named(kind, 0), 2) > ATOL_EXACT
    # a wrong sign is a global phase, which the security check cannot see
    assert _passes_security()


@pytest.mark.mutant
def test_dropping_the_cnot_correction_fails_the_table_and_the_security_check(monkeypatch):
    rule = rewrite._rule
    monkeypatch.setattr(
        rewrite, "_rule", lambda kind, *args: (_key_ignoring_rule if kind == "cnot" else rule)(kind, *args)
    )
    assert twin_error(Gate.cnot(0, 1), 2) > ATOL_EXACT
    assert not _passes_security()


@pytest.mark.mutant
def test_the_key_batch_checks_every_key(monkeypatch):
    # h takes a keyed table (a Pauli would run as a shared frame); gathered to one
    # operator per key, doubling key 5's twin alone scales its decryption by 4, and
    # the trace of I/4 under it comes out 4.0
    circuit, sigma = Circuit(2, (Gate.named("h", 1),)), maximally_mixed(2)
    assert verify_security(circuit, sigma, 1e-9).passed
    key_op = analysis._key_op

    def doubled(gate, index):
        op, wires = key_op(gate, index)
        op = linalg._as_array(op)  # a fresh (16, 2, 2) gather
        op[5] *= 2
        return op, wires

    monkeypatch.setattr(analysis, "_key_op", doubled)
    with pytest.raises(ValueError, match="trace 4.0 is not 1 within"):
        verify_security(circuit, sigma, 1e-9)


@pytest.mark.mutant
@pytest.mark.parametrize("sigma", [maximally_mixed(2), PureState.basis(2, 1)], ids=["density", "pure"])
def test_a_nan_in_one_key_fails_the_entry_check(monkeypatch, sigma):
    # a NaN passes a trace test alone (abs(nan - 1) > tol is False), so the
    # decrypted factors' entries are checked first
    circuit = Circuit(2, (Gate.named("h", 1),))
    key_op = analysis._key_op

    def poisoned(gate, index):
        op, wires = key_op(gate, index)
        op = linalg._as_array(op)
        op[5, 0, 0] = np.nan
        return op, wires

    monkeypatch.setattr(analysis, "_key_op", poisoned)
    with pytest.raises(ValueError, match="entries must be finite"):
        verify_security(circuit, sigma, 1e-9)


def test_pauli_twins_run_as_frames_and_each_distinct_twin_folds_once(monkeypatch):
    # a fold is one call of linalg._fuse; each of cnot's four twins per wire pair folds
    # once, when the angle-free cache first builds the gate's table: 8 for two pairs. The
    # uncorrected twin, one gate that passes through the fold unchanged, is folded too,
    # where the per-(kind, wires, n) cache took it straight from its GateSpec (6 then)
    folds = []
    fuse = linalg._fuse

    def recording(ops):
        ops = list(ops)
        folds.append(tuple((op.tobytes(), wires) for op, wires in ops))
        return fuse(ops)

    monkeypatch.setattr(linalg, "_fuse", recording)
    rewrite._fixed.cache_clear()
    index = key_index(2)
    for _ in range(3):
        for gate in (Gate.cnot(0, 1), Gate.cnot(1, 0)):
            analysis._key_op(gate, index)
    assert len(folds) == len(set(folds)) == 8
    monkeypatch.undo()
    # every gate kind and every gate of a random pool, against linalg._fuse folding each
    # key's twin from its gates' matrices; Paulis shared by every key stay frames, and a
    # one-qubit gate is keyed: its four build entries, gathered here to one per key
    n = 3
    a, b = divmod(np.arange(4 ** n), 2 ** n)
    index = key_index(n)
    for gate in KIND_GATES + RandomSource(12).circuit(n, 64).gates:
        op, wires = analysis._key_op(gate, index)
        assert wires == gate.wires
        if GATE_SPECS[gate.kind].pauli:
            assert op == GATE_SPECS[gate.kind].pauli
            continue
        if len(wires) == 1:
            assert isinstance(op, linalg._Keyed) and len(op.entries) == 4
            op = linalg._as_array(op)
        assert op.shape == (4 ** n, 2 ** len(wires), 2 ** len(wires))
        for k in range(4 ** n):
            x, z = a[k] >> (n - 1 - wires[0]) & 1, b[k] >> (n - 1 - wires[-1]) & 1
            (want, _), = linalg._fuse((g.matrix(), g.wires) for g in rewrite.twin(gate, int(x), int(z)).gates)
            assert op[k].tobytes() == want.tobytes()


def _angle_free_gates(n):
    """Every gate with no angle on n wires: each Pauli and h on each wire, cnot on each ordered pair."""
    return [Gate.named(k, w) for k in "xyzh" for w in range(n)] + [
        Gate.cnot(c, t) for c in range(n) for t in range(n) if c != t]


def test_an_angle_free_gate_builds_its_key_op_once():
    # the cache is keyed on (kind, wires), not on n: the 4, 10 and 18 angle-free gates at
    # n = 1, 2, 3 add 4, 6 and 8 entries, as the wires of a smaller n are already there.
    # A later call of each hits it and reads the very table the first call built
    cache = rewrite._fixed
    tables = {}
    for n in (1, 2, 3):
        before = cache.cache_info().currsize
        for gate in _angle_free_gates(n):
            analysis._key_op(gate, key_index(n))
            tables[gate] = cache(gate.kind, gate.wires)[1]
        assert cache.cache_info().currsize - before == {1: 4, 2: 6, 3: 8}[n]
    info = cache.cache_info()
    assert info.currsize == info.misses == len(tables) == 18
    hits = info.hits
    for gate, table in tables.items():
        op, wires = analysis._key_op(gate, key_index(3))
        assert wires == gate.wires
        if GATE_SPECS[gate.kind].pauli:
            assert op is table
        elif isinstance(op, linalg._Keyed):
            assert op.entries is table
        else:
            assert np.array_equal(op, table.take(key_index(3)[gate.wires], axis=0))
    assert cache.cache_info().hits - hits == len(tables)


def test_the_cached_arrays_are_read_only():
    # the cnot table and twin operators the cache shares, h's index rows, and the key and
    # mask rows every call shares; a gathered cnot stack is the caller's own, writable
    n = 3
    index = analysis._keys(n)[2]
    twins, table = rewrite._fixed("cnot", (2, 0))
    cnot, _ = analysis._key_op(Gate.cnot(2, 0), index)
    again, _ = analysis._key_op(Gate.cnot(2, 0), index)
    h, _ = analysis._key_op(Gate.named("h", 1), index)
    assert isinstance(h, linalg._Keyed) and isinstance(h.entries, tuple)
    assert table.shape == (4, 4, 4) and cnot.shape == (4 ** n, 4, 4)
    shared = [op for pairs in twins for op, _ in pairs if isinstance(op, np.ndarray)]
    assert len(shared) == 4
    for arr in (table, *shared, h.index, *analysis._keys(n), *analysis._masks(n, 4)):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1
    assert not np.shares_memory(cnot, table) and not np.shares_memory(cnot, again)
    cnot[...] = np.nan
    fresh, _ = analysis._key_op(Gate.cnot(2, 0), index)
    assert np.array_equal(fresh, again) and np.array_equal(fresh, table.take(index[2, 0], axis=0))


def test_a_gate_with_angles_never_enters_the_cache():
    rng = RandomSource(190)
    t = rng.angles(6)
    angled = (Gate.rz(t[0], 0), Gate.ry(t[1], 1), Gate("u", (2,), tuple(t[2:])))
    for gate in angled:
        op, _ = analysis._key_op(gate, key_index(3))
        assert isinstance(op, linalg._Keyed)
    assert verify_security(Circuit(3, angled), rng.pure_state(3), 1e-9).passed
    info = rewrite._fixed.cache_info()
    assert info.currsize == info.hits == info.misses == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_warm_cache_changes_no_report_and_no_stack(n):
    # the second call reads every angle-free pair and the masks from the caches: the
    # same report, every stack byte for byte, and still the blocks oracle entry for entry
    rng = RandomSource(195 + n)
    circuit = Circuit(n, rng.circuit(n, 16).gates + tuple(_angle_free_gates(n)))
    caches = (rewrite._fixed, analysis._masks)
    for sigma in (rng.pure_state(n), rng.density_state(n, rank=1), rng.density_state(n)):
        v, _ = _factor(sigma)
        for cache in caches:
            cache.cache_clear()
        cold_report = verify_security(circuit, sigma, 1e-9)
        for cache in caches:
            cache.cache_clear()
        cold = _key_stacks(circuit, v)
        report, warm = verify_security(circuit, sigma, 1e-9), _key_stacks(circuit, v)
        assert report == cold_report and report.passed
        assert all(cache.cache_info().hits > 0 for cache in caches)
        for got, cold_stack, want in zip(warm, cold, key_stacks_blocks(circuit, v), strict=True):
            assert got.tobytes() == cold_stack.tobytes()
            assert np.array_equal(got, want)


@pytest.mark.mutant
def test_a_key_dependent_pauli_twin_takes_the_per_key_path(monkeypatch):
    # x when the twin's x bit is set, z otherwise: every entry is a Pauli, but not
    # one shared by all keys, so no frame may stand in for the four twins
    circuit, sigma = Circuit(2, (Gate.named("x", 1),)), RandomSource(8).pure_state(2).to_density()
    monkeypatch.setattr(rewrite, "_rule", lambda kind, wires, params, x, z: ((("x" if x else "z", wires, ()),), 0))
    op, wires = analysis._key_op(circuit.gates[0], key_index(2))
    assert isinstance(op, linalg._Keyed) and wires == (1,)
    # the fuser takes it for no Pauli: it comes out as one operator per key
    ((got, got_wires),) = linalg._fuse([(op, wires)])
    assert isinstance(got, np.ndarray) and got.shape == (16, 2, 2) and got_wires == (1,)
    report = verify_security(circuit, sigma, 1e-9)
    assert report.worst_decrypt_distance > 0.1
    assert not report.passed


def test_a_keyed_run_on_one_wire_is_gathered_once(monkeypatch):
    # ten keyed twins on wire 0 multiply on their four table entries, so the run becomes
    # one (16, 2, 2) stack, when it ends; gathering gate by gate would make ten
    gathers = []
    as_array = linalg._as_array

    def counting(op):
        out = as_array(op)
        if out.ndim == 3:
            gathers.append(out.shape)
        return out

    monkeypatch.setattr(linalg, "_as_array", counting)
    rng = RandomSource(170)
    kinds = ("rz", "ry", "h", "u", "rz", "u", "ry", "h", "u", "rz")
    gates = tuple(Gate(k, (0,), tuple(rng.angles(len(GATE_SPECS[k].params)))) for k in kinds)
    circuit, (v, _) = Circuit(2, gates), _factor(rng.density_state(2))
    got = _key_stacks(circuit, v)
    assert gathers == [(16, 2, 2)]
    for g, want in zip(got, key_stacks_per_gate(circuit, v), strict=True):
        assert np.max(np.abs(g - want)) <= ATOL_EXACT


def _keyed_run(rng, wire):
    """Every one-qubit kind that is not a Pauli, on one wire: a run of keyed twins."""
    t = rng.angles(6)
    return [Gate.rz(t[0], wire), Gate.named("h", wire), Gate.ry(t[1], wire), Gate("u", (wire,), tuple(t[2:]))]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mixed_keyed_runs_match_the_per_gate_tables(n):
    # shared Paulis before a keyed run (frames) and after one (multiplied into each
    # entry), keyed runs on both wires absorbed by cnot(0, 1) and by cnot(1, 0), and
    # runs left at the end, against every gate run as each key's folded twin
    rng = RandomSource(180 + n)
    last = n - 1
    gates = [Gate.named("x", 0), *_keyed_run(rng, 0), Gate.named("y", 0), Gate.named("z", last)]
    gates += [*_keyed_run(rng, last), Gate.named("x", last)]
    if n > 1:
        for c, t in ((0, 1), (1, 0)):
            gates += [*_keyed_run(rng, c), Gate.named("z", t), *_keyed_run(rng, t), Gate.named("y", c)]
            gates += [Gate.cnot(c, t), Gate.named("x", c), *_keyed_run(rng, t)]
    circuit = Circuit(n, tuple(gates + _keyed_run(rng, last)))
    for sigma in (rng.density_state(n), rng.density_state(n, rank=1), rng.pure_state(n)):
        v, _ = _factor(sigma)
        stacks = _key_stacks(circuit, v)
        for got, want in zip(stacks, key_stacks_per_gate(circuit, v), strict=True):
            assert got.shape == (4 ** n, 2 ** n, v.shape[1])
            assert np.max(np.abs(got - want)) <= ATOL_EXACT
        assert verify_security(circuit, sigma, 1e-9).passed


@pytest.mark.parametrize("call", [
    average_over_keys,
    lambda psi: trace_distance(psi, maximally_mixed(1)),
    lambda psi: trace_distance(maximally_mixed(1), psi),
], ids=["average_over_keys", "trace_distance_first", "trace_distance_second"])
def test_density_inputs_reject_a_pure_state(call):
    with pytest.raises(TypeError, match="expected DensityState, got PureState"):
        call(PureState.basis(1, 0))


# --- Pauli conjugation ---------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_conjugates_equal_the_dense_products(n):
    rng = np.random.default_rng(70 + n)
    dim = 2 ** n
    a, b = divmod(np.arange(4 ** n), dim)
    shape = (len(a), dim, dim)
    shared = rng.normal(size=shape[1:]) + 1j * rng.normal(size=shape[1:])
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = _pauli_conjugates(shared, a, b, n)
    assert got.shape == shape and got.flags.c_contiguous
    for k, (_, p) in enumerate(pauli_basis(n)):
        assert np.max(np.abs(got[k] - p @ shared @ p.conj().T)) <= ATOL_EXACT
    # one key over a whole stack, as the apply loop flushes a shared frame on a density
    # stack: entry by entry the same gather, and C-contiguous so that the stack sums in a
    # gemm result's order
    lift = dim + 1
    for k in (1, len(a) - 1):
        got_one_key = _signed_gather(stack.reshape(len(a), -1), int(a[k]) * lift, int(b[k]) * lift, 2 * n)
        assert got_one_key.flags.c_contiguous
        for entry in range(len(a)):
            want = _pauli_conjugates(stack[entry], a[k:k + 1], b[k:k + 1], n)[0]
            assert got_one_key[entry].tobytes() == want.tobytes()


@pytest.mark.parametrize("m", range(1, 7))
def test_signed_gather_on_rows_equals_the_dense_products(m):
    # the statevector frames' and the conjugates' forms of the one gather: each row exactly
    # X^a Z^b times its source row
    rng = np.random.default_rng(80 + m)
    dim = 2 ** m
    a = np.array([0, dim - 1, *rng.integers(0, dim, 10)])
    b = np.array([dim - 1, 0, *rng.integers(0, dim, 10)])
    row = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    stack = rng.normal(size=(len(a), dim)) + 1j * rng.normal(size=(len(a), dim))
    bits = all_bit_strings(m)
    ops = [pauli_operator(bits[x], bits[z]) for x, z in zip(a, b)]
    per_key_shared = _signed_gather(row, a[:, None], b[:, None], m)
    for k, op in enumerate(ops):
        one_mask = _signed_gather(row, int(a[k]), int(b[k]), m)
        one_mask_stack = _signed_gather(stack, int(a[k]), int(b[k]), m)
        assert np.array_equal(one_mask, op @ row)
        assert np.array_equal(one_mask_stack, stack @ op.T)
        assert np.array_equal(per_key_shared[k], op @ row)
        assert one_mask.flags.c_contiguous and one_mask_stack.flags.c_contiguous
    assert per_key_shared.shape == stack.shape and per_key_shared.flags.c_contiguous


@pytest.mark.parametrize("m", range(1, 7))
def test_a_shared_mask_on_a_stack_equals_the_per_row_path(m):
    # one mask for the whole stack, as a shared frame flushes, against the same mask
    # gathered row by row in a plain loop: the same bytes, C-contiguous
    rng = np.random.default_rng(90 + m)
    dim = 2 ** m
    stack = rng.normal(size=(2 * dim, dim)) + 1j * rng.normal(size=(2 * dim, dim))
    for a, b in ((0, 0), (dim - 1, 0), (0, dim - 1), *rng.integers(0, dim, (4, 2)).tolist()):
        shared = _signed_gather(stack, a, b, m)
        per_row = np.array([_signed_gather(row, a, b, m) for row in stack])
        assert shared.shape == stack.shape and shared.flags.c_contiguous
        assert shared.tobytes() == per_row.tobytes()


# --- Pauli decomposition -------------------------------------------------

def test_decompose_x():
    coeffs = pauli_decompose(gate_matrix("x"))
    assert coeffs.shape == (2, 2)
    assert coeffs[1, 0] == pytest.approx(1.0)
    assert np.sum(np.abs(coeffs)) - abs(coeffs[1, 0]) <= 1e-12


def test_decompose_y():
    # Y = i XZ
    assert np.max(np.abs(gate_matrix("y") - 1j * pauli_operator("1", "1"))) <= 1e-15
    coeffs = pauli_decompose(gate_matrix("y"))
    assert coeffs[1, 1] == pytest.approx(1j)


def test_decompose_h():
    coeffs = pauli_decompose(gate_matrix("h"))
    assert coeffs[1, 0] == pytest.approx(1 / math.sqrt(2))
    assert coeffs[0, 1] == pytest.approx(1 / math.sqrt(2))
    assert abs(coeffs[0, 0]) <= 1e-12
    assert abs(coeffs[1, 1]) <= 1e-12


def test_decompose_reconstruct_and_parseval():
    rng = RandomSource(42)
    for _ in range(50):
        n = 1 + rng.integer(0, 3)
        u = rng.unitary(2 ** n)
        coeffs = pauli_decompose(u)
        # pauli_basis runs in the row-major (a, b) order of the coefficient array
        rebuilt = sum(c * p for c, (_, p) in zip(coeffs.reshape(-1), pauli_basis(n)))
        assert np.max(np.abs(rebuilt - u)) <= ATOL_EXACT
        assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(1.0, abs=1e-9)


PHASES = (1, -1, 1j, -1j)


def _oracle_inputs(seed):
    """The 1x1 phases, then per n <= 3 Haar unitaries and every exact phase-Pauli."""
    rng = RandomSource(seed)
    yield from (phase * np.eye(1) for phase in PHASES)
    for n in (1, 2, 3):
        yield from (rng.unitary(2 ** n) for _ in range(4))
        yield from (phase * p for _, p in pauli_basis(n) for phase in PHASES)


def _bytes(values) -> bytes:
    # the sign of every zero part counts
    return b"".join(struct.pack("<dd", v.real, v.imag) for v in values)


def test_decompose_equals_the_dense_trace_loop():
    for u in _oracle_inputs(61):
        coeffs, oracle = pauli_decompose(u), pauli_table(u)
        bits = all_bit_strings(coeffs.shape[0].bit_length() - 1)
        assert [(a, b) for a in bits for b in bits] == list(oracle)
        assert _bytes(coeffs.reshape(-1)) == _bytes(oracle.values())


def test_decompose_rejects_bad_dim():
    with pytest.raises(ValueError):
        pauli_decompose(np.eye(3))


@pytest.mark.parametrize("entry", [1.7e308, math.nan], ids=["square_overflows", "nan"])
def test_decompose_rejects_entries_past_the_bound(entry):
    with pytest.raises(ValueError, match="entries must be finite"):
        pauli_decompose(np.full((2, 2), entry))


# --- key-independence classifier ----------------------------------------

def test_classify_phase_pauli_positive():
    result = classify_key_independent(np.exp(0.3j) * gate_matrix("x"))
    assert result.key_independent
    assert result.witness[:2] == ("1", "0")
    assert result.witness[2] == pytest.approx(0.3, abs=1e-9)


def test_classify_all_two_qubit_phase_paulis():
    thetas = [i * math.pi / 4 for i in range(8)]
    for a in all_bit_strings(2):
        for b in all_bit_strings(2):
            for theta in thetas:
                u = np.exp(1j * theta) * pauli_operator(a, b)
                result = classify_key_independent(u)
                assert result.key_independent
                wa, wb, wt = result.witness
                assert (wa, wb) == (a, b)
                delta = abs(wt - (theta % (2 * math.pi))) % (2 * math.pi)
                assert min(delta, 2 * math.pi - delta) <= 1e-9


def test_classify_h_negative():
    # the four single-qubit conjugates of H differ beyond a phase
    h = gate_matrix("h")
    devs = []
    for a in ("0", "1"):
        for b in ("0", "1"):
            p = pauli_operator(a, b)
            conj = p @ h @ p.conj().T
            overlap = np.trace(h.conj().T @ conj)
            phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
            devs.append(np.max(np.abs(conj - phase * h)))
    assert max(devs) > 1e-3  # independent conjugation oracle
    assert not classify_key_independent(h).key_independent


def test_classify_equals_the_dense_conjugate_loop():
    for u in _oracle_inputs(62):
        result = classify_key_independent(u)
        max_dev = max(phase_adjusted_distance(c, u) for c in pauli_conjugates(u))
        assert struct.pack("<d", result.max_deviation) == struct.pack("<d", max_dev)
        assert result.key_independent == (max_dev <= CLASSIFY_TOL)
        witness = None
        if result.key_independent:
            (a, b), coeff = max(pauli_table(u).items(), key=lambda item: abs(item[1]))
            witness = (a, b, canonical_angle(math.atan2(coeff.imag, coeff.real)))
        assert result.witness == witness


def test_the_batched_criterion_equals_the_scalar_one_bit_for_bit():
    # phases in Python scalar arithmetic: numpy's complex abs and divide round some
    # Haar cases differently. The Clifford-like inputs built from rounded rotations
    # have conjugate overlaps of about 1e-16, which the floor must send to no phase.
    rng = RandomSource(63)
    inputs = [rng.unitary(2 ** n) for n in (1, 2, 3) for _ in range(100)]
    inputs += [gate_matrix("u", euler_decompose(gate_matrix("h"))), gate_matrix("ry", (math.pi / 2,))]
    for n in (2, 3):
        for _ in range(4):
            gates = [Gate.named("h", rng.integer(0, n)) if rng.integer(0, 2) else Gate.cnot(0, 1) for _ in range(6)]
            inputs.append(full_matrix(Circuit(n, tuple(gates))))
    for u in inputs:
        want = max(phase_adjusted_distance(c, u) for c in pauli_conjugates(u))
        assert struct.pack("<d", classify_key_independent(u).max_deviation) == struct.pack("<d", want)


def test_classify_cnot_negative():
    assert not classify_key_independent(gate_matrix("cnot")).key_independent


def test_classify_random_non_paulis_negative():
    rng = RandomSource(88)
    count = 0
    while count < 50:
        u = rng.unitary(2 ** (1 + rng.integer(0, 2)))
        coeffs = np.sort(np.abs(pauli_decompose(u)), axis=None)
        if coeffs[-2] <= 1e-6:  # rejection-sample: keep only clear non-Paulis
            continue
        assert not classify_key_independent(u).key_independent
        count += 1


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_classify_rejects_invalid_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        classify_key_independent(gate_matrix("z"), tol)


@pytest.mark.parametrize("tol", [True, False, np.True_], ids=["True", "False", "np.True_"])
def test_classify_rejects_a_bool_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        classify_key_independent(gate_matrix("z"), tol)
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        classify_key_independent(gate_matrix("z"), tol=tol)


def test_zero_qubit_operator(tmp_path, capsys):
    assert np.array_equal(pauli_decompose(np.eye(1)), [[1]])
    assert classify_key_independent(np.eye(1)).witness == ("", "", 0.0)
    path = tmp_path / "u.json"
    path.write_text("[[[1, 0]]]")
    assert main(["classify", "--unitary", str(path)]) == 0
    assert capsys.readouterr().out.startswith("key-independent: a= b= theta=0.0\n")


def test_classify_rejects_non_unitary():
    with pytest.raises(ValueError):
        classify_key_independent(np.diag([1.0, 2.0]))


def test_classify_tolerance_between_the_criteria_is_a_value_error():
    # near a phase-Pauli the deviation is about 2*eps, the second coefficient about eps
    eps = 1e-3
    u = math.cos(eps) * np.eye(2) + 1j * math.sin(eps) * gate_matrix("x")
    with pytest.raises(ValueError, match="cannot separate the two classifier criteria"):
        classify_key_independent(u, 1.5e-3)
    assert not classify_key_independent(u, 1e-4).key_independent
    assert classify_key_independent(u, 1e-2).key_independent


# --- commutation identities ----------------------------------------------

def test_appendix_identities_all_hold():
    report = check_appendix_identities(100, RandomSource(7))
    assert len(report) == 10
    assert max(report.values()) <= 1e-12


def test_appendix_identities_deterministic():
    a = check_appendix_identities(25, RandomSource(9))
    b = check_appendix_identities(25, RandomSource(9))
    assert a == b


def test_appendix_identities_reject_zero_samples():
    with pytest.raises(ValueError):
        check_appendix_identities(0, RandomSource(0))


class _NoDraws:
    """A random source that fails any draw."""

    def angles(self, count):
        raise AssertionError(f"drew {count} angles")


@pytest.mark.parametrize("samples,message", [
    ("3", "samples must be an integer, got '3'"),
    (2.0, "samples must be an integer, got 2.0"),
    (True, "samples must be an integer, got True"),
    (100_001, "samples must be at most 100000, got 100001"),
    (10 ** 9, "samples must be at most 100000, got 1000000000"),
    (10 ** 30, f"samples must be at most 100000, got {10 ** 30}"),
])
def test_appendix_identities_reject_bad_samples_before_any_draw(samples, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_appendix_identities(samples, _NoDraws())


def test_single_sample_still_passes():
    report = check_appendix_identities(1, RandomSource(5))
    assert max(report.values()) <= 1e-12


def test_u_rewrite_endpoints():
    # X^j Z^k U(a,b,g,d) = U(a, (-1)^j b, (-1)^{k+j} g, (-1)^j d) X^j Z^k, with raw (uncanonicalized) angles
    rng = RandomSource(11)
    worst = 0.0
    for _ in range(100):
        a, b, g, d = rng.angles(4)
        u = gate_matrix("u", (a, b, g, d))
        for j in (0, 1):
            for k in (0, 1):
                mask = pauli_operator(str(j), str(k))
                twin = gate_matrix("u", (a, (-1) ** j * b, (-1) ** ((k + j) % 2) * g, (-1) ** j * d))
                worst = max(worst, float(np.max(np.abs(mask @ u - twin @ mask))))
    assert worst <= 1e-12
