import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfhe import (
    Circuit,
    DensityState,
    PureState,
    QotpKey,
    apply_to_wires,
    canonical_angle,
    decrypt,
    encrypt,
    gate_matrix,
    maximally_mixed,
    simulate,
    trace_distance,
)
from qfhe.linalg import ATOL_EXACT, GATE_SPECS, _evolve, all_bit_strings
from qfhe.qotp import _mask, all_keys
from qfhe.rng import RandomSource

from oracles import apply_to_density, embed_on_wires, full_matrix, pauli_basis, pauli_operator

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


@pytest.mark.parametrize("wires", [(2,), (0, 0), (-1,)])
def test_apply_to_wires_rejects_bad_wires(wires):
    state = PureState.basis(2, 0)
    mat = gate_matrix("x") if len(wires) == 1 else gate_matrix("cnot")
    with pytest.raises(ValueError):
        apply_to_wires(mat, wires, state)


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

#: the gate kinds of each QOTP variant's mask, for the dense mask oracle
MASK_GATES = {"xz": ("x", "z"), "hy": ("h", "y")}


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
    """The circuit applied one checked apply_to_wires call at a time."""
    for gate in circuit.gates:
        state = apply_to_wires(gate.matrix(), gate.wires, state)
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
                mask = _mask(key, state)
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
    x, double = gate_matrix("x"), 2 * np.eye(2, dtype=complex)
    for state in (rng.pure_state(2), rng.density_state(2)):
        with pytest.raises(ValueError, match="is not 1 within"):
            _evolve(state, [(x, (0,)), (double, (1,)), (x, (1,))])


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


def test_states_are_immutable():
    state = PureState.basis(1, 0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0
