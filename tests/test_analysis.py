import math
import struct

import numpy as np
import pytest

from qfhe import (
    Circuit,
    PauliCoefficients,
    PureState,
    average_over_keys,
    check_appendix_identities,
    classify_key_independent,
    gate_matrix,
    maximally_mixed,
    pauli_decompose,
    trace_distance,
    verify_security,
)
from qfhe.analysis import CLASSIFY_TOL, _phase_adjusted_distance, check_u_rewrite_endpoints
from qfhe.cli import main
from qfhe.linalg import ATOL_EXACT, all_bit_strings, canonical_angle
from qfhe.rng import RandomSource

from oracles import pauli_basis, pauli_conjugates, pauli_operator, pauli_table


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


# --- security verification ----------------------------------------------

@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_verify_security_rejects_invalid_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        verify_security(Circuit(1), PureState.basis(1, 0).to_density(), tol)


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


@pytest.mark.parametrize("call", [
    lambda psi: verify_security(Circuit(1), psi, 1e-9),
    average_over_keys,
    lambda psi: trace_distance(psi, maximally_mixed(1)),
    lambda psi: trace_distance(maximally_mixed(1), psi),
], ids=["verify_security", "average_over_keys", "trace_distance_first", "trace_distance_second"])
def test_density_inputs_reject_a_pure_state(call):
    with pytest.raises(TypeError, match="expected DensityState, got PureState"):
        call(PureState.basis(1, 0))


# --- Pauli decomposition -------------------------------------------------

def test_decompose_x():
    coeffs = pauli_decompose(gate_matrix("x"))
    assert coeffs.table[("1", "0")] == pytest.approx(1.0)
    assert sum(abs(c) for (a, b), c in coeffs.table.items() if (a, b) != ("1", "0")) <= 1e-12


def test_decompose_y():
    # Y = i XZ
    assert np.max(np.abs(gate_matrix("y") - 1j * pauli_operator("1", "1"))) <= 1e-15
    coeffs = pauli_decompose(gate_matrix("y"))
    assert coeffs.table[("1", "1")] == pytest.approx(1j)


def test_decompose_h():
    coeffs = pauli_decompose(gate_matrix("h"))
    assert coeffs.table[("1", "0")] == pytest.approx(1 / math.sqrt(2))
    assert coeffs.table[("0", "1")] == pytest.approx(1 / math.sqrt(2))
    assert abs(coeffs.table[("0", "0")]) <= 1e-12
    assert abs(coeffs.table[("1", "1")]) <= 1e-12


def test_decompose_reconstruct_and_parseval():
    rng = RandomSource(42)
    for _ in range(50):
        n = 1 + rng.integer(0, 3)
        u = rng.unitary(2 ** n)
        coeffs = pauli_decompose(u)
        assert np.max(np.abs(coeffs.reconstruct() - u)) <= 1e-12
        assert coeffs.weight_sum() == pytest.approx(1.0, abs=1e-9)


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
        table, oracle = pauli_decompose(u).table, pauli_table(u)
        assert list(table) == list(oracle)
        assert _bytes(table.values()) == _bytes(oracle.values())


def test_reconstruct_partial_tables_match_the_dense_sum():
    rng = RandomSource(63)
    for n in (0, 1, 2, 3):
        for _ in range(5):
            table = {key: complex(*rng.angles(2)) for key, _ in pauli_basis(n) if rng.integer(0, 2)}
            dense = sum(
                (coeff * pauli_operator(*key) for key, coeff in table.items()),
                np.zeros((2 ** n, 2 ** n), dtype=complex),
            )
            assert np.max(np.abs(PauliCoefficients(n, table).reconstruct() - dense)) <= ATOL_EXACT


def test_reconstruct_rejects_a_key_that_is_not_n_bits():
    with pytest.raises(KeyError):
        PauliCoefficients(1, {("2", "0"): 1.0}).reconstruct()


def test_decompose_rejects_bad_dim():
    with pytest.raises(ValueError):
        pauli_decompose(np.eye(3))


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
        max_dev = max(_phase_adjusted_distance(c, u) for c in pauli_conjugates(u))
        assert struct.pack("<d", result.max_deviation) == struct.pack("<d", max_dev)
        assert result.key_independent == (max_dev <= CLASSIFY_TOL)
        witness = None
        if result.key_independent:
            (a, b), coeff = max(pauli_table(u).items(), key=lambda item: abs(item[1]))
            witness = (a, b, canonical_angle(math.atan2(coeff.imag, coeff.real)))
        assert result.witness == witness


def test_classify_cnot_negative():
    assert not classify_key_independent(gate_matrix("cnot")).key_independent


def test_classify_random_non_paulis_negative():
    rng = RandomSource(88)
    count = 0
    while count < 50:
        u = rng.unitary(2 ** (1 + rng.integer(0, 2)))
        coeffs = sorted(abs(c) for c in pauli_decompose(u).table.values())
        if coeffs[-2] <= 1e-6:  # rejection-sample: keep only clear non-Paulis
            continue
        assert not classify_key_independent(u).key_independent
        count += 1


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_classify_rejects_invalid_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        classify_key_independent(gate_matrix("z"), tol)


def test_zero_qubit_operator(tmp_path, capsys):
    coeffs = pauli_decompose(np.eye(1))
    assert coeffs.table == {("", ""): 1}
    assert np.array_equal(coeffs.reconstruct(), [[1]])
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


def test_single_sample_still_passes():
    report = check_appendix_identities(1, RandomSource(5))
    assert max(report.values()) <= 1e-12


def test_u_rewrite_endpoints():
    assert check_u_rewrite_endpoints(100, RandomSource(11)) <= 1e-12
