import math

import numpy as np
import pytest

from qfhe import (
    Circuit,
    Gate,
    OperatorNotPermitted,
    QotpKey,
    Scheme,
    apply_to_density,
    decrypt,
    encrypt,
    evaluate,
    full_matrix,
    gate_matrix,
    keygen,
    pauli_operator,
    rewrite_circuit,
    rewrite_gate,
    scheme_evaluate,
    simulate,
    trace_distance,
)
from qfhe.linalg import rotation_y, rotation_z
from qfhe.qotp import VARIANT_HY
from qfhe.rng import RandomSource


def _twin(kind, params, j, k):
    """The single gate rewrite_gate returns for a one-qubit gate under key bits (j, k)."""
    result = rewrite_gate(QotpKey(1, str(j), str(k)), Gate(kind, (0,), params))
    (twin,) = result.gates
    return twin, result.phase_flips


# --- single-rule angle rewrites -----------------------------------------

def test_rewrite_rz_values():
    for k in (0, 1):
        assert _twin("rz", (math.pi / 2,), 0, k) == (Gate.rz(math.pi / 2, 0), 0)
        twin, flips = _twin("rz", (math.pi / 2,), 1, k)
        assert twin.kind == "rz" and flips == 1
        assert twin.params[0] == pytest.approx(3 * math.pi / 2)


def test_rz_commutation_with_raw_angle():
    # the identity holds with the raw negated angle; canonicalization may
    # cost a tracked global sign on top
    rng = RandomSource(2)
    for theta in rng.angles(100):
        for j in (0, 1):
            for k in (0, 1):
                mask = pauli_operator(str(j), str(k))
                lhs = rotation_z((-1) ** j * theta) @ mask
                rhs = mask @ rotation_z(theta)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_rewrite_rz_canonical_differs_by_global_sign():
    theta = 1.1
    raw = rotation_z(-theta)
    twin, flips = _twin("rz", (theta,), 1, 0)
    assert flips == 1  # the tracked sign is the one canonicalization dropped
    assert np.max(np.abs(twin.matrix() + raw)) <= 1e-12


def test_rewrite_ry_values():
    theta = 0.7
    assert _twin("ry", (theta,), 1, 1) == (Gate.ry(theta, 0), 0)
    twin, flips = _twin("ry", (theta,), 1, 0)
    assert twin.kind == "ry" and flips == 1
    assert twin.params[0] == pytest.approx(2 * math.pi - theta)
    # under the hy mask only the H bit negates the angle
    rho = RandomSource(1).density_state(1)
    for j, k, angle in ((1, 1, 2 * math.pi - theta), (0, 1, theta)):
        out = scheme_evaluate(Scheme.RY_HY, QotpKey(1, str(j), str(k), VARIANT_HY), Gate.ry(theta, 0), rho)
        expected = apply_to_density(rotation_y(angle), rho)
        assert np.max(np.abs(out.matrix - expected.matrix)) <= 1e-12


def test_ry_commutation_with_raw_angle():
    rng = RandomSource(4)
    for theta in rng.angles(50):
        for j in (0, 1):
            for k in (0, 1):
                mask = pauli_operator(str(j), str(k))
                lhs = rotation_y((-1) ** (k + j) * theta) @ mask
                assert np.max(np.abs(lhs - mask @ rotation_y(theta))) <= 1e-12


def test_rewrite_u_values():
    angles = (0.5, 1.0, 2.0, 3.0)
    assert _twin("u", angles, 0, 0) == (Gate.u(*angles, 0), 0)
    neg, flips = _twin("u", angles, 1, 0)
    assert flips == 3
    alpha, beta, gamma, delta = neg.params
    assert alpha == 0.5
    assert beta == pytest.approx(2 * math.pi - 1.0)
    assert gamma == pytest.approx(2 * math.pi - 2.0)
    assert delta == pytest.approx(2 * math.pi - 3.0)
    half, flips = _twin("u", angles, 0, 1)
    assert flips == 1
    alpha, beta, gamma, delta = half.params
    assert (alpha, beta, delta) == (0.5, 1.0, 3.0)
    assert gamma == pytest.approx(2 * math.pi - 2.0)


# --- cnot rule -----------------------------------------------------------

def test_rewrite_cnot_cases():
    def rewrite_cnot(j_control, m_target):
        key = QotpKey(2, f"{j_control}0", f"0{m_target}")
        return rewrite_gate(key, Gate.cnot(0, 1))

    r00 = rewrite_cnot(0, 0)
    assert [g.kind for g in r00.gates] == ["cnot"] and r00.phase_flips == 0
    r10 = rewrite_cnot(1, 0)
    assert [g.kind for g in r10.gates] == ["x", "cnot"] and r10.phase_flips == 0
    assert r10.gates[0].wires == (1,)  # X lands on the target
    r11 = rewrite_cnot(1, 1)
    assert [g.kind for g in r11.gates] == ["z", "x", "cnot"] and r11.phase_flips == 1
    assert r11.gates[0].wires == (0,)  # Z lands on the control


def test_cnot_commutation_identity():
    # (X^j Z^k x X^l Z^m) CNOT = CNOT ((-1)^{jm} Z^m x X^j)(X^j Z^k x X^l Z^m)
    cnot = gate_matrix("cnot")
    for j in (0, 1):
        for k in (0, 1):
            for l in (0, 1):
                for m in (0, 1):
                    mask = pauli_operator(f"{j}{l}", f"{k}{m}")
                    corr = (-1) ** (j * m) * np.kron(
                        pauli_operator("0", str(m)), pauli_operator(str(j), "0")
                    )
                    assert np.max(np.abs(mask @ cnot - cnot @ corr @ mask)) <= 1e-12


def test_rewrite_cnot_uses_only_control_x_and_target_z_bits():
    key = QotpKey(2, "01", "10")  # control x-bit 0, target z-bit 0
    result = rewrite_gate(key, Gate.cnot(0, 1))
    assert [g.kind for g in result.gates] == ["cnot"]


# --- whole-circuit rewriting --------------------------------------------

def test_all_zero_key_is_identity_rewrite():
    rng = RandomSource(8)
    circuit = rng.circuit(3, 12)
    key = QotpKey(3, "000", "000")
    rewritten = rewrite_circuit(key, circuit)
    for src, dst in zip(circuit.gates, rewritten.gates):
        if src.kind in ("rz", "ry", "u", "cnot"):
            assert src == dst
        else:
            assert dst.kind == "u"  # named gates lift to the general form
            assert np.max(np.abs(dst.matrix() - src.matrix())) <= 1e-9
    assert len(rewritten) == len(circuit)


def test_rewrite_single_rz_with_x_bit():
    key = QotpKey(1, "1", "0")
    rewritten = rewrite_circuit(key, Circuit(1, (Gate.rz(0.4, 0),)))
    assert rewritten.gates == (Gate.rz(2 * math.pi - 0.4, 0),)


def test_rewrite_requires_xz_variant():
    key = QotpKey(1, "1", "0", VARIANT_HY)
    with pytest.raises(ValueError):
        rewrite_circuit(key, Circuit(1, (Gate.rz(0.4, 0),)))


def test_rewrite_keeps_key_fixed_and_size_bounded():
    rng = RandomSource(14)
    for _ in range(30):
        n = 1 + rng.integer(0, 3)
        circuit = rng.circuit(n, rng.integer(0, 16))
        key = keygen(n, rng)
        rewritten = rewrite_circuit(key, circuit)
        assert len(rewritten) <= 3 * len(circuit)
        sigma = rng.pure_state(n).to_density()
        # the very same key decrypts the evaluated output
        out = decrypt(key, simulate(rewritten, encrypt(key, sigma)))
        assert trace_distance(out, simulate(circuit, sigma)) <= 1e-9


def test_size_bound_tight_for_all_cnot_circuit():
    key = QotpKey(2, "11", "11")
    circuit = Circuit(2, (Gate.cnot(0, 1), Gate.cnot(1, 0)))
    assert len(rewrite_circuit(key, circuit)) == 3 * len(circuit)


def test_commutation_identity_with_tracked_sign():
    rng = RandomSource(55)
    for _ in range(50):
        n = 1 + rng.integer(0, 3)
        circuit = rng.circuit(n, rng.integer(0, 13))
        key = keygen(n, rng)
        mask = pauli_operator(key.x_bits, key.z_bits)
        sign = (-1) ** sum(rewrite_gate(key, gate).phase_flips for gate in circuit.gates)
        lhs = full_matrix(rewrite_circuit(key, circuit)) @ mask
        rhs = sign * mask @ full_matrix(circuit)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


# --- evaluation ----------------------------------------------------------

def test_evaluate_empty_circuit():
    rng = RandomSource(6)
    rho = rng.density_state(2)
    key = keygen(2, rng)
    assert trace_distance(evaluate(key, Circuit(2), rho), rho) <= 1e-12


def test_evaluate_single_rz_example():
    key = QotpKey(1, "1", "0")
    circuit = Circuit(1, (Gate.rz(math.pi / 2, 0),))
    from qfhe import PureState

    sigma = PureState.basis(1, 0).to_density()
    out = decrypt(key, evaluate(key, circuit, encrypt(key, sigma)))
    assert trace_distance(out, simulate(circuit, sigma)) <= 1e-12
    assert trace_distance(out, sigma) <= 1e-12  # Rz is diagonal on |0><0|


def test_evaluate_random_round_trips():
    rng = RandomSource(202)
    for _ in range(200):
        n = 1 + rng.integer(0, 4)
        circuit = rng.circuit(n, rng.integer(0, 21))
        key = keygen(n, rng)
        sigma = rng.pure_state(n).to_density()
        out = decrypt(key, evaluate(key, circuit, encrypt(key, sigma)))
        assert trace_distance(out, simulate(circuit, sigma)) <= 1e-9


def test_evaluate_dim_mismatch():
    key = keygen(2, RandomSource(0))
    with pytest.raises(ValueError):
        evaluate(key, Circuit(2), RandomSource(0).density_state(1))


# --- restricted schemes --------------------------------------------------

def _single_gate_round_trip(scheme, key, op, sigma):
    cipher = encrypt(key, sigma)
    return decrypt(key, scheme_evaluate(scheme, key, op, cipher))


@pytest.mark.parametrize(
    "scheme,kind,variant",
    [
        (Scheme.RZ_ONLY, "rz", "xz"),
        (Scheme.RY_ONLY, "ry", "xz"),
        (Scheme.RY_HY, "ry", "hy"),
        (Scheme.COMBINED, "rz", "xz"),
        (Scheme.COMBINED, "ry", "xz"),
    ],
)
def test_single_qubit_schemes_round_trip(scheme, kind, variant):
    rng = RandomSource(303)
    for _ in range(50):
        key = keygen(1, rng, variant)
        sigma = rng.pure_state(1).to_density()
        op = Gate(kind, (0,), (rng.angle(),))
        out = _single_gate_round_trip(scheme, key, op, sigma)
        expected = apply_to_density(op.matrix(), sigma)
        assert trace_distance(out, expected) <= 1e-10


def test_cnot_scheme_round_trip():
    rng = RandomSource(404)
    for _ in range(50):
        key = keygen(2, rng)
        sigma = rng.pure_state(2).to_density()
        out = _single_gate_round_trip(Scheme.CNOT_ONLY, key, Gate.cnot(0, 1), sigma)
        assert trace_distance(out, apply_to_density(gate_matrix("cnot"), sigma)) <= 1e-10


def test_scheme_rejects_non_permitted_operator():
    key = keygen(1, RandomSource(0))
    rho = RandomSource(0).density_state(1)
    with pytest.raises(OperatorNotPermitted):
        scheme_evaluate(Scheme.RZ_ONLY, key, Gate.ry(1.0, 0), rho)
    with pytest.raises(OperatorNotPermitted):
        scheme_evaluate(Scheme.RY_ONLY, key, Gate.rz(1.0, 0), rho)
    with pytest.raises(OperatorNotPermitted):
        scheme_evaluate(Scheme.COMBINED, key, Gate.u(0, 0, 0, 0, 0), rho)
    key2 = keygen(2, RandomSource(0))
    with pytest.raises(OperatorNotPermitted):
        scheme_evaluate(Scheme.CNOT_ONLY, key2, Gate.named("h", 0), RandomSource(0).density_state(2))


def test_scheme_rejects_variant_mismatch():
    rho = RandomSource(0).density_state(1)
    with pytest.raises(ValueError):
        scheme_evaluate(Scheme.RY_HY, keygen(1, RandomSource(0)), Gate.ry(1.0, 0), rho)
    with pytest.raises(ValueError):
        scheme_evaluate(Scheme.RZ_ONLY, keygen(1, RandomSource(0), VARIANT_HY), Gate.rz(1.0, 0), rho)
