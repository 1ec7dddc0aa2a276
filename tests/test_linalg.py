import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfhe import (
    Circuit,
    DensityState,
    Gate,
    PureState,
    QotpKey,
    decrypt,
    encrypt,
    evaluate,
    keygen,
    maximally_mixed,
    simulate,
    trace_distance,
    verify_security,
)
from qfhe import linalg, rewrite
from qfhe.linalg import (
    ATOL_EXACT,
    GATE_SPECS,
    _apply_on_axes,
    _fuse,
    all_bit_strings,
    canonical_angle,
    gate_matrix,
)
from qfhe.rng import RandomSource

from oracles import (
    all_keys,
    apply_on_axes_uncached,
    apply_to_density,
    apply_to_wires,
    checked_operator,
    embed_on_wires,
    evolve,
    full_matrix,
    fuse_blocks,
    gate_steps,
    MASK_GATES,
    mask_gates,
    matmul_2x2,
    pauli_basis,
    pauli_operator,
    round_trip_blocks,
    round_trip_per_gate,
    simulate_blocks,
    simulate_per_gate,
    zyz_matrix,
)

TAU = 2 * math.pi

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_canonical_angle_range_and_fixed_points():
    assert canonical_angle(0.0) == 0.0
    assert canonical_angle(TAU) == 0.0
    assert canonical_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2)
    with pytest.raises(ValueError):
        canonical_angle(float("nan"))


@given(angles)
def test_canonical_angle_is_canonical(theta):
    r = canonical_angle(theta)
    assert 0.0 <= r < TAU
    # same point on the circle
    assert abs(complex(math.cos(r), math.sin(r)) - complex(math.cos(theta), math.sin(theta))) < 1e-9


def test_rz_zero_is_identity():
    assert np.allclose(gate_matrix("rz", (0.0,)), np.eye(2), atol=1e-15)


def test_rz_pi():
    assert np.allclose(gate_matrix("rz", (math.pi,)), np.diag([-1j, 1j]), atol=1e-15)


def test_u_reproduces_hadamard():
    u = gate_matrix("u", (math.pi / 2, 0.0, math.pi / 2, math.pi))
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.max(np.abs(u - h)) <= 1e-12


def test_rotation_builders_equal_the_factor_product():
    # the closed forms against exp(i alpha) Rz(beta) Ry(gamma) Rz(delta) multiplied out, on
    # raw angles, negative and past 4*pi too, where the half angles flip the factors' signs
    rng = np.random.default_rng(16)
    raw = [0.0, TAU, 2 * TAU, -TAU, math.pi, -math.pi, 3 * TAU + 0.5]
    for alpha, beta, gamma, delta in [*itertools.product(raw, repeat=4), *rng.uniform(-40.0, 40.0, (4000, 4))]:
        assert np.max(np.abs(gate_matrix("rz", (beta,)) - zyz_matrix(0.0, beta, 0.0, 0.0))) <= ATOL_EXACT
        assert np.max(np.abs(gate_matrix("ry", (gamma,)) - zyz_matrix(0.0, 0.0, gamma, 0.0))) <= ATOL_EXACT
        got = gate_matrix("u", (alpha, beta, gamma, delta))
        assert np.max(np.abs(got - zyz_matrix(alpha, beta, gamma, delta))) <= ATOL_EXACT


@pytest.mark.parametrize(
    "kind,params",
    [("x", (1.0,)), ("rz", ()), ("rz", (1.0, 2.0)), ("u", (1.0,)), ("cnot", (0.5,))],
)
def test_gate_matrix_rejects_wrong_param_count(kind, params):
    with pytest.raises(ValueError):
        gate_matrix(kind, params)


def test_gate_matrix_rejects_unknown_kind():
    with pytest.raises(ValueError):
        gate_matrix("swap")


@given(st.lists(angles, min_size=1, max_size=1), st.sampled_from(["rz", "ry"]))
def test_rotations_are_unitary(params, kind):
    g = gate_matrix(kind, tuple(params))
    assert np.max(np.abs(g.conj().T @ g - np.eye(2))) <= 1e-12


@given(st.lists(angles, min_size=4, max_size=4))
def test_u_gate_is_unitary(params):
    g = gate_matrix("u", tuple(params))
    assert np.max(np.abs(g.conj().T @ g - np.eye(2))) <= 1e-12


@pytest.mark.parametrize("kind", ["x", "y", "z", "h", "cnot"])
def test_fixed_gates_are_unitary(kind):
    g = gate_matrix(kind)
    assert np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0]))) <= 1e-12


def test_pauli_identity():
    assert np.array_equal(pauli_operator("0", "0"), np.eye(2))


def test_pauli_xz_order():
    # X^1 Z^1 applies Z first
    assert np.allclose(pauli_operator("1", "1"), np.array([[0, -1], [1, 0]]), atol=1e-15)


def test_pauli_tensor_order():
    # qubit 0 is the most significant factor; on each qubit Z applies first
    x, z = gate_matrix("x"), gate_matrix("z")
    for n in range(5):
        for a in all_bit_strings(n):
            for b in all_bit_strings(n):
                expected = np.eye(1)
                for ai, bi in zip(a, b):
                    factor = np.linalg.matrix_power(x, int(ai)) @ np.linalg.matrix_power(z, int(bi))
                    expected = np.kron(expected, factor)
                assert np.array_equal(pauli_operator(a, b), expected), (a, b)
    for n in range(1, 4):
        basis = list(pauli_basis(n))
        assert len(basis) == 4 ** n
        assert [key for key, _ in basis] == [(k.x_bits, k.z_bits) for k in all_keys(n)]


def test_pauli_rejects_length_mismatch():
    with pytest.raises(ValueError):
        pauli_operator("10", "0")


@given(st.integers(0, 3), st.integers(0, 255))
def test_pauli_is_unitary(n, bits):
    a = format(bits % (2 ** n), f"0{n}b") if n else ""
    b = format((bits >> 4) % (2 ** n), f"0{n}b") if n else ""
    p = pauli_operator(a, b)
    assert np.max(np.abs(p @ p.conj().T - np.eye(2 ** n))) <= 1e-12


def test_apply_to_density_identity():
    rho = RandomSource(0).density_state(2)
    assert trace_distance(apply_to_density(np.eye(4), rho), rho) <= 1e-12


def test_apply_to_density_bit_flip():
    rho = PureState.basis(1, 0).to_density()
    out = apply_to_density(gate_matrix("x"), rho)
    assert np.allclose(out.matrix, np.diag([0, 1]), atol=1e-15)


def test_apply_to_density_hadamard():
    out = apply_to_density(gate_matrix("h"), PureState.basis(1, 0).to_density())
    assert np.allclose(out.matrix, np.full((2, 2), 0.5), atol=1e-12)


def test_apply_to_density_dim_mismatch():
    with pytest.raises(ValueError):
        apply_to_density(np.eye(2), RandomSource(0).density_state(2))


def test_apply_to_wires_x_on_wire_1():
    out = apply_to_wires(gate_matrix("x"), (1,), PureState.basis(2, 0b00))
    assert np.allclose(out.amplitudes, PureState.basis(2, 0b01).amplitudes)


def test_apply_to_wires_cnot_forward():
    out = apply_to_wires(gate_matrix("cnot"), (0, 1), PureState.basis(2, 0b10))
    assert np.allclose(out.amplitudes, PureState.basis(2, 0b11).amplitudes)


def test_apply_to_wires_cnot_reversed():
    # control on wire 1
    out = apply_to_wires(gate_matrix("cnot"), (1, 0), PureState.basis(2, 0b01))
    assert np.allclose(out.amplitudes, PureState.basis(2, 0b11).amplitudes)


# bools, floats and strings are not wires, though True would index wire 1
@pytest.mark.parametrize("wires", [(2,), (0, 0), (-1,), (True,), (np.True_,), (0.0,), (1.5,), ("0",)])
def test_apply_to_wires_rejects_bad_wires(wires):
    state = PureState.basis(2, 0)
    mat = gate_matrix("x") if len(wires) == 1 else gate_matrix("cnot")
    with pytest.raises(ValueError):
        apply_to_wires(mat, wires, state)


def test_apply_to_wires_takes_numpy_integer_wires_as_ints():
    _, wires = checked_operator(gate_matrix("cnot"), (np.int64(1), np.int32(0)), 2)
    assert wires == (1, 0) and all(type(w) is int for w in wires)
    out = apply_to_wires(gate_matrix("x"), (np.int64(1),), PureState.basis(2, 0))
    assert np.array_equal(out.amplitudes, PureState.basis(2, 1).amplitudes)


def test_gate_by_gate_matches_one_shot_embedding():
    rng = RandomSource(11)
    for _ in range(20):
        n = 1 + rng.integer(0, 3)
        state = rng.pure_state(n)
        total = np.eye(2 ** n, dtype=complex)
        stepped = state
        for _ in range(6):
            wire = rng.integer(0, n)
            u = rng.unitary(2)
            stepped = apply_to_wires(u, (wire,), stepped)
            total = embed_on_wires(u, (wire,), n) @ total
        assert np.max(np.abs(stepped.amplitudes - total @ state.amplitudes)) <= 1e-9


# --- kernel against the dense oracle -------------------------------------

def _assert_matches_dense(apply, full, rng, n):
    """apply() on a random pure and density state equals the dense operator full."""
    psi, rho = rng.pure_state(n), rng.density_state(n)
    out, out_rho = apply(psi), apply(rho)
    assert np.max(np.abs(out.amplitudes - full @ psi.amplitudes)) <= ATOL_EXACT
    assert np.max(np.abs(out_rho.matrix - apply_to_density(full, rho).matrix)) <= ATOL_EXACT
    for arr in (out.amplitudes, out_rho.matrix):
        assert arr.flags.c_contiguous and not arr.flags.writeable


def _check_gate(op, wires, n, rng):
    _assert_matches_dense(lambda s: apply_to_wires(op, wires, s), embed_on_wires(op, wires, n), rng, n)


def _random_gate_matrix(kind, rng):
    return gate_matrix(kind, tuple(rng.angles(len(GATE_SPECS[kind].params))))


@pytest.mark.parametrize("kind", [k for k in GATE_SPECS if k != "cnot"])
def test_kernel_single_qubit_gates_on_every_wire(kind):
    rng = RandomSource(17)
    for n in (1, 3, 5):
        for wire in range(n):
            _check_gate(_random_gate_matrix(kind, rng), (wire,), n, rng)


def test_kernel_cnot_on_every_ordered_pair():
    # both wire orders, adjacent and not
    rng = RandomSource(18)
    for n in (2, 4):
        for control in range(n):
            for target in range(n):
                if control != target:
                    _check_gate(gate_matrix("cnot"), (control, target), n, rng)


def test_kernel_operators_on_any_wire_set():
    rng = RandomSource(19)
    for wires in [(0, 5), (5, 0), (2, 4), (4, 1), (3, 2)]:
        _check_gate(rng.unitary(4), wires, 6, rng)
    _check_gate(rng.unitary(8), (4, 0, 2), 6, rng)
    _check_gate(np.array([[1j]]), (), 3, rng)


@pytest.mark.parametrize("m", [3, 6])
def test_kernel_stack_equals_each_entry_on_its_own(m):
    # a (B, d, d) operator stack applies entry b to state b; a shared operator to every state
    rng = np.random.default_rng(m)
    states = rng.normal(size=(5, 2 ** m)) + 1j * rng.normal(size=(5, 2 ** m))
    for k in (1, 2):
        for axes in itertools.permutations(range(m), k):
            ops = rng.normal(size=(5, 2 ** k, 2 ** k)) + 1j * rng.normal(size=(5, 2 ** k, 2 ** k))
            stacked = _apply_on_axes(ops, axes, states, m)
            shared = _apply_on_axes(ops[0], axes, states, m)
            assert stacked.shape == shared.shape == states.shape
            for b in range(len(states)):
                assert np.max(np.abs(stacked[b] - _apply_on_axes(ops[b], axes, states[b], m))) <= ATOL_EXACT
                assert np.max(np.abs(shared[b] - _apply_on_axes(ops[0], axes, states[b], m))) <= ATOL_EXACT


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(GATE_SPECS)), st.data())
def test_kernel_matches_dense_oracle(n, seed, kind, data):
    if kind == "cnot":
        assume(n > 1)
        wires = tuple(data.draw(st.permutations(range(n)))[:2])
    else:
        wires = (data.draw(st.integers(0, n - 1)),)
    rng = RandomSource(seed)
    _check_gate(_random_gate_matrix(kind, rng), wires, n, rng)


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(MASK_GATES)))
def test_kernel_full_register_masks_match_dense(n, seed, variant):
    rng = RandomSource(seed)
    key = QotpKey(n, rng.bit_string(n), rng.bit_string(n), variant)
    first, second = (gate_matrix(kind) for kind in MASK_GATES[variant])
    eye = np.eye(2, dtype=complex)
    enc = dec = np.eye(1, dtype=complex)
    for a, b in zip(key.x_bits, key.z_bits):
        f = first if a == "1" else eye
        s = second if b == "1" else eye
        enc, dec = np.kron(enc, f @ s), np.kron(dec, s @ f)
    for step, mask in ((encrypt, enc), (decrypt, dec)):
        _assert_matches_dense(lambda state: step(key, state), mask, rng, n)


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.integers(0, 12))
def test_simulate_matches_full_matrix(n, seed, n_gates):
    rng = RandomSource(seed)
    circuit = rng.circuit(n, n_gates)
    _assert_matches_dense(lambda s: simulate(circuit, s), full_matrix(circuit), rng, n)


# --- the unchecked apply loop --------------------------------------------

def _fold(circuit, state):
    """The circuit's blocks (``fuse_blocks``), Paulis too, applied one checked apply_to_wires call at a time."""
    for mat, wires in fuse_blocks(circuit.n_qubits, gate_steps(circuit.gates)):
        state = apply_to_wires(mat, wires, state)
    return state


def _raw(state):
    return state.amplitudes if isinstance(state, PureState) else state.matrix


@pytest.mark.parametrize("n", range(1, 6))
def test_simulate_equals_gate_by_gate_apply(n):
    rng = RandomSource(60 + n)
    for _ in range(4):
        circuit = rng.circuit(n, rng.integer(1, 40))
        for state in (rng.pure_state(n), rng.density_state(n)):
            assert np.array_equal(_raw(simulate(circuit, state)), _raw(_fold(circuit, state)))
            for variant in sorted(MASK_GATES):
                key = QotpKey(n, rng.bit_string(n), rng.bit_string(n), variant)
                mask = Circuit(n, mask_gates(key))
                unmask = Circuit(n, mask.gates[::-1])
                assert np.array_equal(_raw(encrypt(key, state)), _raw(_fold(mask, state)))
                assert np.array_equal(_raw(decrypt(key, state)), _raw(_fold(unmask, state)))


@pytest.mark.parametrize("kind", ["pure", "density"])
def test_simulate_checks_one_state_per_run(monkeypatch, kind):
    rng = RandomSource(70)
    circuit = rng.circuit(3, 30)
    state = rng.pure_state(3) if kind == "pure" else rng.density_state(3)
    checks = []
    check = type(state).__post_init__
    monkeypatch.setattr(type(state), "__post_init__", lambda self: (checks.append(self), check(self)))
    simulate(circuit, state)
    assert len(checks) == 1
    assert simulate(Circuit(3), state) is state
    assert len(checks) == 1


def test_end_of_run_check_catches_a_non_unitary():
    # the loop trusts its pairs, so only the final construction can notice
    rng = RandomSource(71)
    x, double = GATE_SPECS["x"].build(), (2 + 0j, 0j, 0j, 2 + 0j)
    for state in (rng.pure_state(2), rng.density_state(2)):
        with pytest.raises(ValueError, match="is not 1 within"):
            evolve(state, [(x, (0,)), (double, (1,)), (x, (1,))])


# --- fused runs, Pauli frames and kernel plans, against the block oracle -----

def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal values, and the same sign bit on every real and imaginary part."""
    return np.array_equal(got, want) and np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def _all_kinds_circuit(rng, n, n_gates):
    """A random circuit that holds every gate kind (every kind but cnot on one qubit)."""
    while True:
        circuit = rng.circuit(n, n_gates)
        if len({g.kind for g in circuit.gates}) == len(GATE_SPECS) - (n == 1):
            return circuit


@pytest.mark.parametrize("n", range(1, 7))
def test_simulate_and_round_trip_equal_the_per_gate_oracle_bit_for_bit(n):
    # the same blocks in the same order through the uncached kernel, Paulis as gemm:
    # random states hold no exact zero, so even the sign bits must agree
    rng = RandomSource(80 + n)
    for _ in range(3):
        circuit = _all_kinds_circuit(rng, n, 40)
        key = keygen(n, rng)
        for state in (rng.pure_state(n), rng.density_state(n)):
            assert _same_bits(_raw(simulate(circuit, state)), _raw(simulate_blocks(circuit, state)))
            cipher = encrypt(key, state)
            evaluated = evaluate(key, circuit, cipher)
            got = (cipher, evaluated, decrypt(key, evaluated))
            for step, want in zip(got, round_trip_blocks(key, circuit, state)):
                assert _same_bits(_raw(step), _raw(want))


@pytest.mark.parametrize("n", range(1, 5))
def test_simulate_equals_the_per_gate_oracle_on_basis_states(n):
    # a Pauli gather and a gemm may give an exact zero different signs, so values only
    rng = RandomSource(90 + n)
    circuit = _all_kinds_circuit(rng, n, 30)
    for index in range(2 ** n):
        psi = PureState.basis(n, index)
        for state in (psi, psi.to_density()):
            assert np.array_equal(_raw(simulate(circuit, state)), _raw(simulate_blocks(circuit, state)))


def _pauli_heavy(rng, n, n_gates):
    """Mostly x, y and z on random wires, with one random gate of any kind in every four."""
    gates = []
    for i in range(n_gates):
        if i % 4 == 3:
            gates.extend(rng.circuit(n, 1).gates)
        else:
            gates.append(Gate.named("xyz"[rng.integer(0, 3)], rng.integer(0, n)))
    return Circuit(n, tuple(gates))


@pytest.mark.parametrize("n", range(1, 7))
def test_pauli_frames_keep_the_global_phase(n):
    # amplitudes, not projectors: a wrong i^k in a frame shows only here
    rng = RandomSource(100 + n)
    for n_gates in (1, 2, 3, 5, 12, 40):
        circuit = _pauli_heavy(rng, n, n_gates)
        psi = rng.pure_state(n)
        want = full_matrix(circuit) @ psi.amplitudes
        assert np.max(np.abs(simulate(circuit, psi).amplitudes - want)) <= ATOL_EXACT


def test_a_pauli_run_that_multiplies_to_minus_one_negates_the_state():
    # Z X Z X = -1 (a = b = 0 with i^2): the frame is not the identity on a pure state
    psi = RandomSource(110).pure_state(1)
    circuit = Circuit(1, tuple(Gate.named(kind, 0) for kind in "zxzx"))
    assert np.array_equal(simulate(circuit, psi).amplitudes, -psi.amplitudes)
    assert np.array_equal(simulate(circuit, psi.to_density()).matrix, psi.to_density().matrix)


@pytest.mark.parametrize("stack", [None, "shared", "per_entry"])
@pytest.mark.parametrize("m", range(1, 7))
def test_kernel_plans_equal_the_uncached_generic_path(m, stack):
    rng = np.random.default_rng(120 + m)
    shape = (2 ** m,) if stack is None else (3, 2 ** m)
    flat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for k in (1, 2):
        for axes in itertools.permutations(range(m), k):
            op_shape = (2 ** k, 2 ** k) if stack != "per_entry" else (3, 2 ** k, 2 ** k)
            op = rng.normal(size=op_shape) + 1j * rng.normal(size=op_shape)
            got = _apply_on_axes(op, axes, flat, m)
            assert got.flags.c_contiguous
            assert _same_bits(got, apply_on_axes_uncached(op, axes, flat, m)), axes


# --- the fuser -------------------------------------------------------------

def _entries(mat: np.ndarray) -> tuple:
    """A 2x2 matrix as the loop's one-qubit operator: its row-major entries as Python complex numbers."""
    return tuple(mat.reshape(-1).tolist())


def test_fuse_multiplies_a_run_on_one_wire_into_one_operator():
    rng = RandomSource(130)
    a, b, c = (rng.unitary(2) for _ in range(3))
    (got,) = _fuse([(_entries(a), (1,)), (_entries(b), (1,)), (_entries(c), (1,))])
    assert got[1] == (1,) and _same_bits(got[0], matmul_2x2(c, matmul_2x2(b, a)))


def test_fuse_multiplies_a_pauli_into_a_pending_run_and_passes_one_with_none():
    u = RandomSource(131).unitary(2)
    # y joins the run pending on wire 0; x on wire 1, with none pending, passes first
    ops = list(_fuse([(_entries(u), (0,)), ((1, 1), (0,)), ((1, 0), (1,))]))
    assert len(ops) == 2 and ops[0] == ((1, 0), (1,))
    assert ops[1][1] == (0,) and np.array_equal(ops[1][0], gate_matrix("y") @ u)
    # a Pauli before the run on its wire stays a frame, ahead of the run
    ops = list(_fuse([((0, 1), (0,)), (_entries(u), (0,))]))
    assert len(ops) == 2 and ops[0] == ((0, 1), (0,)) and np.array_equal(ops[1][0], u)


@pytest.mark.parametrize("wires", [(0, 1), (1, 0)], ids=["control_first", "target_first"])
def test_fuse_folds_pending_runs_into_a_cnot(wires):
    rng = RandomSource(132)
    a, b = rng.unitary(2), rng.unitary(2)
    cnot, eye = gate_matrix("cnot"), np.eye(2, dtype=complex)
    for runs, factors in (
        ([(a, (wires[0],))], (a, eye)),
        ([(b, (wires[1],))], (eye, b)),
        ([(a, (wires[0],)), (b, (wires[1],))], (a, b)),
    ):
        (got,) = _fuse([*((_entries(run), w) for run, w in runs), (cnot, wires)])
        assert got[1] == wires and np.array_equal(got[0], cnot @ np.kron(*factors))
        want = embed_on_wires(cnot, wires, 2)
        for run, (w,) in runs:
            want = want @ embed_on_wires(run, (w,), 2)
        assert np.max(np.abs(embed_on_wires(got[0], wires, 2) - want)) <= ATOL_EXACT
    # a run on another wire stays pending past the cnot, which passes unchanged
    ops = list(_fuse([(_entries(a), (2,)), (cnot, wires)]))
    assert len(ops) == 2 and ops[0][0] is cnot and ops[1][1] == (2,) and np.array_equal(ops[1][0], a)


def test_fuse_broadcasts_a_per_key_stack_over_a_shared_run():
    rng = RandomSource(133)
    u, v = rng.unitary(2), rng.unitary(2)
    stack = np.array([rng.unitary(2) for _ in range(4)])
    keyed = linalg._Keyed(tuple(map(_entries, stack)), np.arange(4))
    (got,) = _fuse([(_entries(u), (0,)), (keyed, (0,))])
    assert got[1] == (0,) and got[0].shape == (4, 2, 2)
    for key in range(4):
        assert np.max(np.abs(got[0][key] - stack[key] @ u)) <= ATOL_EXACT
    # the per-key run and a shared one meet in a shared cnot: one (K, 4, 4) operator
    cnot = gate_matrix("cnot")
    (got,) = _fuse([(keyed, (1,)), (_entries(v), (0,)), (cnot, (1, 0))])
    assert got[1] == (1, 0) and got[0].shape == (4, 4, 4)
    for key in range(4):
        assert np.max(np.abs(got[0][key] - cnot @ np.kron(stack[key], v))) <= ATOL_EXACT


def test_fuse_passes_a_lone_operator_on_unsorted_wires_through_unchanged():
    rng = RandomSource(134)
    op = rng.unitary(8)
    (got,) = _fuse([(op, (2, 0, 1))])
    assert got[0] is op and got[1] == (2, 0, 1)
    # with a run pending on wire 0 the factors follow the operator's wire order
    a = rng.unitary(2)
    (got,) = _fuse([(_entries(a), (0,)), (op, (2, 0, 1))])
    assert got[1] == (2, 0, 1)
    want = embed_on_wires(op, (2, 0, 1), 3) @ embed_on_wires(a, (0,), 3)
    assert np.max(np.abs(embed_on_wires(got[0], (2, 0, 1), 3) - want)) <= ATOL_EXACT


@pytest.mark.parametrize("kind", [k for k in GATE_SPECS if k != "cnot"])
def test_build_gives_entries_with_the_bits_of_the_gate_matrix(kind):
    # raw angles, negative and past 2*pi too; a lone run is yielded as the same array
    spec = GATE_SPECS[kind]
    rng = np.random.default_rng(135)
    for _ in range(50):
        params = tuple(rng.uniform(-20.0, 20.0, size=len(spec.params)).tolist())
        entries = spec.build(*params)
        assert type(entries) is tuple and [type(e) for e in entries] == [complex] * 4
        want = gate_matrix(kind, params)
        assert _same_bits(np.array(entries).reshape(2, 2), want)
        (got,) = _fuse([(entries, (0,))])
        assert got[1] == (0,) and _same_bits(got[0], want)


def test_cnot_builds_a_fresh_array():
    build = GATE_SPECS["cnot"].build
    assert isinstance(build(), np.ndarray) and build() is not build()
    want = np.kron(np.diag([1, 0]), np.eye(2)) + np.kron(np.diag([0, 1]), gate_matrix("x"))
    assert build().dtype == complex and np.array_equal(build(), want)


def test_fuse_multiplies_entry_tuples_in_python_scalars():
    rng = RandomSource(136)
    mats = [rng.unitary(2) for _ in range(3)]
    a, b, c = (tuple(m.reshape(-1).tolist()) for m in mats)
    (got,) = _fuse([(a, (0,)), (b, (0,)), (c, (0,))])
    assert got[1] == (0,) and _same_bits(got[0], matmul_2x2(mats[2], matmul_2x2(mats[1], mats[0])))
    # a Pauli joins a run of entries as its entries, in the same scalar product
    ops = list(_fuse([(a, (0,)), ((1, 1), (0,)), ((1, 0), (1,))]))
    assert len(ops) == 2 and ops[0] == ((1, 0), (1,))
    assert ops[1][1] == (0,) and _same_bits(ops[1][0], matmul_2x2(gate_matrix("y"), mats[0]))


def test_fuse_multiplies_a_keyed_run_on_its_entries_and_gathers_it_once():
    rng = RandomSource(137)
    index = np.array([3, 0, 2, 1, 1, 3])  # each of six keys' row of the tables
    tables = [[rng.unitary(2) for _ in range(4)] for _ in range(2)]
    k1, k2 = (linalg._Keyed(tuple(tuple(m.reshape(-1).tolist()) for m in t), index) for t in tables)
    mat = rng.unitary(2)
    u = tuple(mat.reshape(-1).tolist())
    # keyed after a shared run, keyed after keyed, a Pauli after keyed: each entry in scalars
    (got,) = _fuse([(u, (0,)), (k1, (0,)), (k2, (0,)), ((1, 1), (0,))])
    assert got[1] == (0,) and got[0].shape == (6, 2, 2)
    for key, row in enumerate(index):
        want = matmul_2x2(gate_matrix("y"), matmul_2x2(tables[1][row], matmul_2x2(tables[0][row], mat)))
        assert _same_bits(got[0][key], want)
    # a cnot takes a keyed run as its per-key stack, kron'ed with the other wire's run
    cnot = gate_matrix("cnot")
    (got,) = _fuse([(k1, (1,)), (u, (0,)), (cnot, (1, 0))])
    assert got[1] == (1, 0) and got[0].shape == (6, 4, 4)
    for key, row in enumerate(index):
        assert np.max(np.abs(got[0][key] - cnot @ np.kron(tables[0][row], mat))) <= ATOL_EXACT


def _entry_runs() -> list:
    """One-qubit entry tuples as runs pend them: random u/rz/ry builds, the Paulis, entries holding -0.0."""
    rng = np.random.default_rng(138)
    runs = [GATE_SPECS[kind].build(*rng.uniform(-20.0, 20.0, size=len(GATE_SPECS[kind].params)).tolist())
            for kind in ("u", "rz", "ry") for _ in range(6)]
    runs += [GATE_SPECS[kind].build() for kind in ("x", "y", "z", "h")]
    # diag(i, -1) with a signed zero in every part that is 0
    return runs + [(complex(-0.0, 1.0), complex(-0.0, -0.0), complex(0.0, -0.0), complex(-1.0, -0.0))]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("wires", [(0, 1), (1, 0)], ids=["control_first", "target_first"])
def test_fuse_absorbs_two_runs_of_entries_into_a_cnot_with_the_bits_of_the_generic_kron(n, wires):
    # the indexed product of the 8 entries against the generic absorption, None a wire with no run;
    # on 3 qubits a run on wire 2 stays pending past the cnot
    cnot, eye, spare = gate_matrix("cnot"), linalg._PAULIS[0, 0], GATE_SPECS["h"].build()
    runs = _entry_runs()
    for a, b in itertools.product([None, *runs], repeat=2):
        if a is b is None:
            continue
        ops = [(r, (w,)) for r, w in zip((a, b), wires) if r is not None] + [(spare, (2,))] * (n == 3)
        got = list(_fuse([*ops, (cnot, wires)]))
        want = cnot @ linalg._kron(linalg._as_array(eye if a is None else a), linalg._as_array(eye if b is None else b))
        assert got[0][1] == wires and got[0][0].tobytes() == want.tobytes()
        assert len(got) == n - 1 and (n == 2 or got[1][1] == (2,))
    # a Pauli by its exponents joins each run first, as its entries
    u, v = runs[0], runs[7]
    (got,) = _fuse([(u, (wires[0],)), ((1, 1), (wires[0],)), (v, (wires[1],)), ((0, 1), (wires[1],)), (cnot, wires)])
    y_u, z_v = linalg._mul(linalg._PAULIS[1, 1], u), linalg._mul(linalg._PAULIS[0, 1], v)
    assert got[0].tobytes() == (cnot @ linalg._kron(linalg._as_array(y_u), linalg._as_array(z_v))).tobytes()


@pytest.mark.parametrize("wires", [(0, 1), (1, 0)], ids=["control_first", "target_first"])
def test_fuse_absorbs_a_keyed_run_and_a_run_of_entries_as_the_oracle_does(wires):
    rng = RandomSource(139)
    index = np.array([2, 0, 3, 1, 1])  # each of five keys' row of the table
    table = [rng.unitary(2) for _ in range(4)]
    keyed = linalg._Keyed(tuple(tuple(m.reshape(-1).tolist()) for m in table), index)
    mat = rng.unitary(2)
    entries = tuple(mat.reshape(-1).tolist())
    cnot = gate_matrix("cnot")
    for runs in (((keyed, wires[0]), (entries, wires[1])), ((entries, wires[0]), (keyed, wires[1]))):
        (got,) = _fuse([*((r, (w,)) for r, w in runs), (cnot, wires)])
        steps = [((table, index) if r is keyed else mat, (w,), False) for r, w in runs]
        ((want, want_wires),) = fuse_blocks(2, [*steps, (cnot, wires, False)])
        assert got[1] == want_wires == wires and got[0].shape == want.shape == (5, 4, 4)
        assert np.max(np.abs(got[0] - want)) <= ATOL_EXACT


def test_no_library_path_hands_the_fuser_a_one_qubit_array(monkeypatch):
    # the loop's contract: a one-qubit operator is a Pauli's exponents, entries or _Keyed, never
    # an array. The twin cache starts cold, so the key tables' cnot folds pass through the fuser too
    one_qubit = []
    fuse = linalg._fuse

    def recording(ops):
        ops = list(ops)
        one_qubit.extend(op for op, wires in ops if len(wires) == 1)
        return fuse(ops)

    monkeypatch.setattr(linalg, "_fuse", recording)
    rng = RandomSource(140)
    for n in (1, 2, 3):
        fixed = [Gate.named(k, w) for k in "xyzh" for w in range(n)] + [
            Gate.cnot(c, t) for c in range(n) for t in range(n) if c != t]
        circuit, key = Circuit(n, rng.circuit(n, 20).gates + tuple(fixed)), keygen(n, rng)
        for state in (rng.pure_state(n), rng.density_state(n)):
            simulate(circuit, state)
            decrypt(key, evaluate(key, circuit, encrypt(key, state)))
            assert verify_security(circuit, state, 1e-9).passed
    for scheme, (kinds, variant) in rewrite._SCHEMES.items():
        key = keygen(2, rng, variant)
        for kind in kinds:
            op = Gate.cnot(1, 0) if kind == "cnot" else Gate(kind, (1,), tuple(rng.angles(1)))
            rewrite.scheme_evaluate(scheme, key, op, encrypt(key, rng.density_state(2)))
    assert one_qubit and not [op for op in one_qubit if isinstance(op, np.ndarray)]


@pytest.mark.parametrize("n", range(1, 6))
def test_fused_simulate_and_round_trip_match_the_circuit_matrix(n):
    # the fused loop and the per-gate oracle, each against the dense product of the gates
    rng = RandomSource(140 + n)
    for circuit in (rng.circuit(n, 40), _all_kinds_circuit(rng, n, 24), _pauli_heavy(rng, n, 24)):
        full = full_matrix(circuit)
        psi, rho = rng.pure_state(n), rng.density_state(n)
        want_rho = full @ rho.matrix @ full.conj().T
        for run in (simulate, simulate_per_gate):
            assert np.max(np.abs(run(circuit, psi).amplitudes - full @ psi.amplitudes)) <= ATOL_EXACT
            assert np.max(np.abs(run(circuit, rho).matrix - want_rho)) <= ATOL_EXACT
        key = keygen(n, rng)
        mask = pauli_operator(key.x_bits, key.z_bits)
        cipher = encrypt(key, rho)
        evaluated = evaluate(key, circuit, cipher)
        got = (cipher, evaluated, decrypt(key, evaluated))
        want = (mask @ rho.matrix @ mask.conj().T, mask @ want_rho @ mask.conj().T, want_rho)
        for steps in (got, round_trip_per_gate(key, circuit, rho)):
            for step, w in zip(steps, want):
                assert np.max(np.abs(step.matrix - w)) <= ATOL_EXACT


def test_evaluate_and_simulate_keep_their_fused_pass_counts(monkeypatch):
    # a seeded n=8, 64-gate circuit of every kind: one gemm pass per fused block and one
    # gather per frame. Gate by gate the same calls made 64 passes and 25 gathers.
    counts = {"_apply_on_axes": 0, "_apply_frame": 0}

    def counting(name, kernel):
        def call(*args):
            counts[name] += 1
            return kernel(*args)
        return call

    for name in counts:
        monkeypatch.setattr(linalg, name, counting(name, getattr(linalg, name)))
    rng = RandomSource(120)
    circuit = _all_kinds_circuit(rng, 8, 64)
    state, key = rng.pure_state(8), keygen(8, rng)
    evaluate(key, circuit, state)
    simulate(circuit, state)
    assert counts["_apply_on_axes"] <= 24
    assert counts["_apply_frame"] <= 9


def test_trace_distance_examples():
    rho = RandomSource(1).density_state(2)
    assert trace_distance(rho, rho) <= 1e-12
    zero = PureState.basis(1, 0).to_density()
    one = PureState.basis(1, 1).to_density()
    assert trace_distance(zero, one) == pytest.approx(1.0)
    assert trace_distance(zero, maximally_mixed(1)) == pytest.approx(0.5)


def test_trace_distance_dim_mismatch():
    with pytest.raises(ValueError):
        trace_distance(maximally_mixed(1), maximally_mixed(2))


def test_trace_distance_symmetry_and_triangle():
    rng = RandomSource(5)
    for _ in range(20):
        a, b, c = (rng.density_state(2) for _ in range(3))
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-9)
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9


def test_maximally_mixed():
    assert np.allclose(maximally_mixed(1).matrix, np.diag([0.5, 0.5]))
    assert np.allclose(maximally_mixed(2).matrix, np.eye(4) / 4)
    assert np.trace(maximally_mixed(3).matrix) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        maximally_mixed(0)


def test_conjugation_preserves_trace():
    rng = RandomSource(9)
    for _ in range(20):
        rho = rng.density_state(2)
        out = apply_to_density(rng.unitary(4), rho)
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-9


def test_pure_state_rejects_bad_norm():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))


def test_pure_state_rejects_nan():
    with pytest.raises(ValueError):
        PureState(1, np.array([float("nan"), 0.0]))


def test_density_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityState(1, np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_density_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityState(1, np.eye(2))


def test_states_accept_non_contiguous_arrays():
    rng = RandomSource(6)
    rho = rng.density_state(2).matrix.copy()
    for layout in (rho.T, np.asfortranarray(rho)):
        state = DensityState(2, layout)
        assert np.array_equal(state.matrix, layout)
        out = apply_to_wires(gate_matrix("h"), (1,), state)
        full = embed_on_wires(gate_matrix("h"), (1,), 2)
        assert np.max(np.abs(out.matrix - full @ layout @ full.conj().T)) <= ATOL_EXACT
    padded = np.zeros(8, dtype=complex)
    padded[::2] = rng.pure_state(2).amplitudes
    state = PureState(2, padded[::2])
    assert np.array_equal(state.amplitudes, padded[::2])
    out = apply_to_wires(gate_matrix("x"), (0,), state)
    assert np.array_equal(out.amplitudes, padded[::2][[2, 3, 0, 1]])


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("make", [
    lambda n: PureState(n, [1]),
    lambda n: DensityState(n, [[1]]),
    PureState.basis,
    maximally_mixed,
    lambda n: QotpKey(n, "", ""),
    lambda n: keygen(n, RandomSource(0)),
    Circuit,
    lambda n: RandomSource(0).pure_state(n),
    lambda n: RandomSource(0).density_state(n),
], ids=["PureState", "DensityState", "basis", "maximally_mixed", "QotpKey", "keygen", "Circuit",
        "random_pure_state", "random_density_state"])
def test_constructors_require_at_least_one_qubit(make, n):
    with pytest.raises(ValueError, match=f"n_qubits must be >= 1, got {n}"):
        make(n)


def test_density_rejects_negative_eigenvalues():
    with pytest.raises(ValueError):
        DensityState(1, np.diag([1.5, -0.5]))


def test_states_copy_the_callers_array():
    vec = np.array([1, 0], dtype=complex)
    psi = PureState(1, vec)
    vec[:] = [0, 1]
    assert np.array_equal(psi.amplitudes, [1, 0])
    rho = np.diag([1.0, 0.0]).astype(complex)
    states = [DensityState(1, rho), DensityState(1, rho.T)]
    rho[0, 0] = 5
    assert all(state.matrix[0, 0] == 1 for state in states)
    # freezing the state's own array leaves the caller's writable
    assert vec.flags.writeable and rho.flags.writeable


@pytest.mark.parametrize("n", [1, 3])
def test_basis_rejects_an_index_out_of_range(n):
    assert np.array_equal(PureState.basis(n, 2 ** n - 1).amplitudes, np.eye(2 ** n)[-1])
    for index in (-1, 2 ** n):
        with pytest.raises(ValueError, match=rf"index must be in \[0, {2 ** n}\), got {index}"):
            PureState.basis(n, index)


def test_states_are_immutable():
    state = PureState.basis(1, 0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


# --- one integer rule ----------------------------------------------------

#: each constructor with its integer argument given as a function of that value
INTEGER_ARGUMENTS = {
    "PureState": (lambda n: PureState(n, [0, 1]), "n_qubits"),
    "DensityState": (lambda n: DensityState(n, np.diag([1.0, 0.0])), "n_qubits"),
    "QotpKey": (lambda n: QotpKey(n, "1", "0"), "n_qubits"),
    "RandomSource": (RandomSource, "seed"),
}


@pytest.mark.parametrize("constructor", INTEGER_ARGUMENTS)
@pytest.mark.parametrize(
    "value", [1.5, 1.0, "1", True, np.True_, None],
    ids=["float", "integral_float", "str", "bool", "numpy_bool", "none"],
)
def test_integer_arguments_reject_non_integers(constructor, value):
    build, name = INTEGER_ARGUMENTS[constructor]
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        build(value)


@pytest.mark.parametrize("constructor", INTEGER_ARGUMENTS)
@pytest.mark.parametrize("value", [np.int64(1), np.uint8(1)], ids=["int64", "uint8"])
def test_integer_arguments_accept_numpy_integers(constructor, value):
    build, name = INTEGER_ARGUMENTS[constructor]
    made = build(value)
    assert type(getattr(made, name)) is int and getattr(made, name) == 1


#: helpers that take an integer beside the constructors, with the name they report
INTEGER_HELPERS = {
    "keygen": (lambda v: keygen(v, RandomSource(0)), "n_qubits"),
    "pure_state": (lambda v: RandomSource(0).pure_state(v), "n_qubits"),
    "density_state": (lambda v: RandomSource(0).density_state(v), "n_qubits"),
    "density_state_rank": (lambda v: RandomSource(0).density_state(1, v), "rank"),
    "maximally_mixed": (maximally_mixed, "n_qubits"),
    "basis_n_qubits": (lambda v: PureState.basis(v, 0), "n_qubits"),
    "basis_index": (lambda v: PureState.basis(1, v), "index"),
}


@pytest.mark.parametrize("helper", INTEGER_HELPERS)
@pytest.mark.parametrize("value", [1.0, 1.5, "1", True], ids=["integral_float", "float", "str", "bool"])
def test_integer_helpers_reject_non_integers(helper, value):
    call, name = INTEGER_HELPERS[helper]
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call(value)
