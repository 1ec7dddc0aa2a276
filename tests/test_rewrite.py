import itertools
import math
import struct

import numpy as np
import pytest

from qfhe import (
    Circuit,
    Gate,
    OperatorNotPermitted,
    QotpKey,
    decrypt,
    encrypt,
    evaluate,
    keygen,
    rewrite_circuit,
    simulate,
    trace_distance,
)
from qfhe import PureState, linalg, rewrite, verify_security
from qfhe.circuits import _ops, serialize_circuit
from qfhe.linalg import ATOL_EXACT, GATE_SPECS, TAU, gate_matrix
from qfhe.qotp import VARIANT_HY
from qfhe.rewrite import RewriteResult, Scheme, rewrite_gate, scheme_evaluate, twin
from qfhe.rng import RandomSource

from oracles import KIND_GATES, all_keys, apply_to_density, full_matrix, pauli_operator, twin_error


def _twin(kind, params, j, k):
    """The single gate twin returns for a one-qubit gate under key bits (j, k)."""
    result = twin(Gate(kind, (0,), params), j, k)
    (gate,) = result.gates
    return gate, result.phase_flips


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
                lhs = gate_matrix("rz", ((-1) ** j * theta,)) @ mask
                rhs = mask @ gate_matrix("rz", (theta,))
                assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_rewrite_rz_canonical_differs_by_global_sign():
    theta = 1.1
    raw = gate_matrix("rz", (-theta,))
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
        expected = apply_to_density(gate_matrix("ry", (angle,)), rho)
        assert np.max(np.abs(out.matrix - expected.matrix)) <= 1e-12


def test_ry_commutation_with_raw_angle():
    rng = RandomSource(4)
    for theta in rng.angles(50):
        for j in (0, 1):
            for k in (0, 1):
                mask = pauli_operator(str(j), str(k))
                lhs = gate_matrix("ry", ((-1) ** (k + j) * theta,)) @ mask
                assert np.max(np.abs(lhs - mask @ gate_matrix("ry", (theta,)))) <= 1e-12


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


@pytest.mark.parametrize("theta", [1e-17, 4e-16, 1e-3])
def test_phase_flips_count_wraps_for_tiny_angles(theta):
    # negating a tiny angle can round to 0.0 without wrapping past 2*pi
    gates = [Gate.rz(theta, 0), Gate.ry(theta, 0)]
    gates += [Gate.u(*(theta if i == p else 0.5 for i in range(4)), 0) for p in range(4)]
    for gate in gates:
        for j in (0, 1):
            for k in (0, 1):
                mask = pauli_operator(str(j), str(k))
                twin, flips = _twin(gate.kind, gate.params, j, k)
                err = twin.matrix() @ mask - (-1) ** flips * mask @ gate.matrix()
                assert np.max(np.abs(err)) <= 1e-12, (gate, j, k)


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


# --- the rewrite table ---------------------------------------------------

@pytest.mark.parametrize("gate", KIND_GATES, ids=lambda g: g.kind)
def test_twin_table_matches_rewrite_gate_and_the_dense_oracle(gate):
    # x of the first wire and z of the last: for cnot, the control's x and the target's z
    for key in all_keys(2):
        x, z = int(key.x_bits[gate.wires[0]]), int(key.z_bits[gate.wires[-1]])
        assert rewrite_gate(key, gate) == twin(gate, x, z)
    assert twin_error(gate, 2) <= ATOL_EXACT


@pytest.mark.parametrize("gate", KIND_GATES, ids=lambda g: g.kind)
def test_twin_holds_one_gate_per_single_qubit_gate_and_one_plus_x_plus_z_per_cnot(gate):
    for x, z in itertools.product((0, 1), repeat=2):
        assert len(twin(gate, x, z).gates) == (1 + x + z if gate.kind == "cnot" else 1)


def test_paulis_are_their_own_twins():
    # moving X^j Z^k past X drops (-1)^k, past Y (-1)^(j+k), past Z (-1)^j
    signs = {"x": lambda j, k: k, "y": lambda j, k: j ^ k, "z": lambda j, k: j}
    for kind, sign in signs.items():
        gate = Gate.named(kind, 0)
        for j in (0, 1):
            for k in (0, 1):
                assert twin(gate, j, k) == RewriteResult((gate,), sign(j, k))


def test_twins_share_gates_instead_of_rebuilding_them():
    # a twin with no angle negated is the gate itself, and so is cnot's last gate; Gate is
    # frozen, so sharing them is safe
    for gate in (Gate.rz(0.3, 1), Gate.ry(0.3, 1), Gate.u(0.1, 0.2, 0.3, 0.4, 1), Gate.rz(0.0, 1)):
        assert twin(gate, 0, 0).gates[0] is gate
    zero, half_turn = Gate.rz(0.0, 1), Gate.rz(math.pi, 1)
    assert twin(zero, 1, 1) == RewriteResult((zero,), 0) and twin(zero, 1, 1).gates[0] is zero
    # -pi wraps to pi: the same gate, with its sign flip still counted
    assert twin(half_turn, 1, 0) == RewriteResult((half_turn,), 1)
    assert twin(Gate.rz(0.3, 1), 1, 0).gates == (Gate.rz(-0.3, 1),)
    cnot = Gate.cnot(2, 0)
    assert twin(cnot, 1, 1).gates == (Gate.named("z", 2), Gate.named("x", 0), cnot) and twin(cnot, 1, 1).gates[2] is cnot


#: canonical angles at the edges of negation: zero, the smallest subnormal (whose negation
#: rounds back to 0.0) and one ulp below 2*pi (whose negation is one ulp above 0.0)
EDGE_ANGLES = (0.0, 5e-324, math.nextafter(TAU, 0.0), 0.3, math.pi)


@pytest.mark.parametrize("kind", GATE_SPECS)
def test_unchecked_twins_equal_the_checked_rebuild(kind):
    # twin builds a negated or lifted gate without validating it: the checked constructor
    # must give the same gate from its fields, down to the bytes of every angle
    spec = GATE_SPECS[kind]
    wires = tuple(range(len(spec.wires)))[::-1]
    for params in itertools.product(EDGE_ANGLES, repeat=len(spec.params)):
        gate = Gate(kind, wires, params)
        for x, z in itertools.product((0, 1), repeat=2):
            for g in twin(gate, x, z).gates:
                rebuilt = Gate(g.kind, g.wires, g.params)
                assert g == rebuilt
                assert all(type(w) is int for w in g.wires) and all(type(p) is float for p in g.params)
                pack = f"<{len(g.params)}d"
                assert struct.pack(pack, *g.params) == struct.pack(pack, *rebuilt.params), (kind, params, x, z)


ANGLE_FREE = [kind for kind, spec in GATE_SPECS.items() if not spec.params]


def _pair_bytes(ops) -> list:
    """(operator, wires) pairs in a form that compares every operator's bits: repr keeps -0.0 apart from 0.0."""
    return [(repr(op) if isinstance(op, tuple) else op.tobytes(), wires) for op, wires in ops]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_twins_equal_the_rule_computed_cold(n):
    # each cached twin is the pairs reader's cold output and the Gate reader's twin as the
    # apply loop's pairs, bit for bit; the cached key table is the one built from cold twins
    for kind in ANGLE_FREE:
        for wires in itertools.permutations(range(n), len(GATE_SPECS[kind].wires)):
            rewrite._fixed.cache_clear()
            cached = rewrite._fixed(kind, wires)
            assert rewrite._fixed(kind, wires) is cached
            twins, table = cached
            cold = [rewrite._pairs(kind, wires, (), x, z) for x in (0, 1) for z in (0, 1)]
            for (x, z), got, want in zip(itertools.product((0, 1), repeat=2), twins, cold, strict=True):
                gates = _ops(twin(Gate(kind, wires), x, z).gates)
                assert _pair_bytes(got) == _pair_bytes(want) == _pair_bytes(gates), (kind, wires, x, z)
            cold_table = linalg._key_table(cold)
            if isinstance(table, np.ndarray):
                assert table.tobytes() == cold_table.tobytes()
            else:
                assert repr(table) == repr(cold_table)


def test_only_angle_free_gates_enter_the_twin_cache():
    rng = RandomSource(23)
    angled = Circuit(3, tuple(g for g in rng.circuit(3, 60).gates if g.params))
    key = keygen(3, rng)
    rewrite_circuit(key, angled)
    evaluate(key, angled, rng.pure_state(3))
    assert rewrite._fixed.cache_info().currsize == 0
    # one entry per distinct (kind, wires) of the angle-free gates, whatever key bits they read
    circuit = rng.circuit(3, 60)
    evaluate(key, circuit, rng.pure_state(3))
    fixed = {(g.kind, g.wires) for g in circuit.gates if not g.params}
    assert 0 < len(fixed) == rewrite._fixed.cache_info().currsize


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rewrite_and_evaluate_give_the_same_bytes_cold_and_warm(n):
    rng = RandomSource(24 + n)
    circuit, key = rng.circuit(n, 40), keygen(n, rng)
    psi, rho = rng.pure_state(n), rng.density_state(n)
    runs = (lambda: serialize_circuit(rewrite_circuit(key, circuit)),
            lambda: evaluate(key, circuit, psi).amplitudes.tobytes(),
            lambda: evaluate(key, circuit, rho).matrix.tobytes())
    for run in runs:
        rewrite._fixed.cache_clear()
        cold = run()
        evaluate(key, circuit, psi)  # the Gate reader takes no twin from the cache: warm it here
        assert rewrite._fixed.cache_info().currsize > 0 and run() == cold


def _raw(state) -> bytes:
    return (state.amplitudes if isinstance(state, PureState) else state.matrix).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_evaluate_equals_simulate_of_the_rewritten_circuit(n):
    # the library's evaluate takes the pairs reader and the CLI's the Gate reader: the
    # same bytes, pure states to n = 8 and density states to n = 5
    rng = RandomSource(210 + n)
    for _ in range(3):
        circuit, key = rng.circuit(n, rng.integer(1, 48)), keygen(n, rng)
        for state in (rng.pure_state(n), *([rng.density_state(n)] if n <= 5 else [])):
            assert _raw(evaluate(key, circuit, state)) == _raw(simulate(rewrite_circuit(key, circuit), state))


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_scheme_evaluate_equals_simulate_of_the_twin(scheme):
    # an hy key's z bit is Y's, so its twin is the rule's with z = 0
    rng = RandomSource(220)
    variant = VARIANT_HY if scheme is Scheme.RY_HY else "xz"
    kinds = {Scheme.RZ_ONLY: ["rz"], Scheme.RY_ONLY: ["ry"], Scheme.RY_HY: ["ry"],
             Scheme.COMBINED: ["rz", "ry"], Scheme.CNOT_ONLY: ["cnot"]}[scheme]
    for kind in kinds:
        op = Gate.cnot(1, 0) if kind == "cnot" else Gate(kind, (1,), (rng.angle(),))
        for key in all_keys(2, variant):
            x, z = int(key.x_bits[op.wires[0]]), int(key.z_bits[op.wires[-1]]) * (variant == "xz")
            want = Circuit(2, twin(op, x, z).gates)
            for state in (rng.pure_state(2), rng.density_state(2)):
                assert _raw(scheme_evaluate(scheme, key, op, state)) == _raw(simulate(want, state))


def test_evaluate_and_the_key_stack_build_no_gate(monkeypatch):
    # every angle-free twin is built cold, with Gate construction and RewriteResult raising
    rng = RandomSource(230)
    circuit, key, psi, rho = rng.circuit(3, 60), keygen(3, rng), rng.pure_state(3), rng.density_state(3)
    op, hy_key = Gate.ry(0.4, 1), keygen(3, rng, VARIANT_HY)
    want = [_raw(evaluate(key, circuit, s)) for s in (psi, rho)] + [_raw(scheme_evaluate(Scheme.RY_HY, hy_key, op, rho))]
    report = verify_security(circuit, rho, 1e-9)
    rewrite._fixed.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("built a Gate or a RewriteResult")

    monkeypatch.setattr(Gate, "_unchecked", forbidden)
    monkeypatch.setattr(Gate, "__post_init__", forbidden)
    monkeypatch.setattr(rewrite, "RewriteResult", forbidden)
    got = [_raw(evaluate(key, circuit, s)) for s in (psi, rho)] + [_raw(scheme_evaluate(Scheme.RY_HY, hy_key, op, rho))]
    assert got == want
    assert verify_security(circuit, rho, 1e-9) == report and report.passed
    with pytest.raises(AssertionError, match="built a Gate"):
        rewrite_circuit(key, circuit)


# --- whole-circuit rewriting --------------------------------------------

def test_all_zero_key_is_identity_rewrite():
    rng = RandomSource(8)
    circuit = rng.circuit(3, 12)
    key = QotpKey(3, "000", "000")
    rewritten = rewrite_circuit(key, circuit)
    assert "h" in {g.kind for g in circuit.gates}
    for src, dst in zip(circuit.gates, rewritten.gates):
        if src.kind == "h":
            assert dst.kind == "u"  # h alone lifts to the general form
            assert np.max(np.abs(dst.matrix() - src.matrix())) <= 1e-9
        else:
            assert src == dst
    assert len(rewritten) == len(circuit)


def test_rewrite_single_rz_with_x_bit():
    key = QotpKey(1, "1", "0")
    rewritten = rewrite_circuit(key, Circuit(1, (Gate.rz(0.4, 0),)))
    assert rewritten.gates == (Gate.rz(2 * math.pi - 0.4, 0),)


def test_rewrite_requires_xz_variant():
    key = QotpKey(1, "1", "0", VARIANT_HY)
    with pytest.raises(ValueError):
        rewrite_circuit(key, Circuit(1, (Gate.rz(0.4, 0),)))


def test_an_hy_key_is_rejected_with_no_gate_and_after_the_qubit_count():
    key, rho = QotpKey(1, "1", "0", VARIANT_HY), RandomSource(0).density_state(1)
    message = "^circuit rewriting requires the xz key variant, got 'hy'$"
    with pytest.raises(ValueError, match=message):
        rewrite_circuit(key, Circuit(1))
    with pytest.raises(ValueError, match=message):
        evaluate(key, Circuit(1), rho)
    with pytest.raises(ValueError, match=r"^key is for 1 qubit\(s\), circuit has 2$"):
        evaluate(key, Circuit(2), rho)


@pytest.mark.parametrize("not_a_circuit", [[], (Gate.named("x", 0),), "circuit"], ids=["list", "tuple", "str"])
def test_rewriting_rejects_a_non_circuit(not_a_circuit):
    key, rho = QotpKey(1, "1", "0"), RandomSource(0).density_state(1)
    message = rf"^expected Circuit, got {type(not_a_circuit).__name__}$"
    with pytest.raises(TypeError, match=message):
        rewrite_circuit(key, not_a_circuit)
    with pytest.raises(TypeError, match=message):
        evaluate(key, not_a_circuit, rho)


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
    with pytest.raises(ValueError, match=r"^circuit has 2 qubit\(s\), state has 1$"):
        evaluate(key, Circuit(2), RandomSource(0).density_state(1))
    with pytest.raises(ValueError, match=r"^key is for 2 qubit\(s\), circuit has 1$"):
        evaluate(key, Circuit(1), RandomSource(0).density_state(1))


@pytest.mark.parametrize("step", [
    lambda state: encrypt(QotpKey(2, "00", "00"), state),
    lambda state: decrypt(QotpKey(2, "00", "00"), state),
    lambda state: evaluate(QotpKey(2, "00", "00"), Circuit(2), state),
    lambda state: simulate(Circuit(2), state),
], ids=["encrypt", "decrypt", "evaluate", "simulate"])
def test_non_state_rejected_by_empty_circuits(step):
    # an all-zero key masks with no gates, so only simulate's own check is left
    for not_a_state in (np.array([1, 0, 0, 0], dtype=complex), "x"):
        with pytest.raises(TypeError, match="expected PureState or DensityState"):
            step(not_a_state)


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


@pytest.mark.parametrize("not_a_state", [np.array([1, 0], dtype=complex), "x"], ids=["array", "str"])
def test_scheme_rejects_a_non_state(not_a_state):
    with pytest.raises(TypeError, match=r"^expected PureState or DensityState, got (ndarray|str)$"):
        scheme_evaluate(Scheme.RZ_ONLY, QotpKey(1, "1", "0"), Gate.rz(0.4, 0), not_a_state)


@pytest.mark.parametrize("step", [
    lambda key, rho: encrypt(key, rho),
    lambda key, rho: decrypt(key, rho),
    lambda key, rho: evaluate(key, Circuit(1), rho),
    lambda key, rho: rewrite_circuit(key, Circuit(1)),
    lambda key, rho: rewrite_gate(key, Gate.rz(0.4, 0)),
    lambda key, rho: scheme_evaluate(Scheme.RZ_ONLY, key, Gate.rz(0.4, 0), rho),
], ids=["encrypt", "decrypt", "evaluate", "rewrite_circuit", "rewrite_gate", "scheme_evaluate"])
@pytest.mark.parametrize("not_a_key", [None, "x_bits", (1, "1", "0")], ids=["None", "str", "tuple"])
def test_a_non_key_raises_type_error(step, not_a_key):
    with pytest.raises(TypeError, match=rf"^expected QotpKey, got {type(not_a_key).__name__}$"):
        step(not_a_key, RandomSource(0).density_state(1))


@pytest.mark.parametrize("call,expected", [
    (lambda bad: rewrite_gate(QotpKey(1, "1", "0"), bad), "Gate"),
    (lambda bad: keygen(2, bad), "RandomSource"),
], ids=["rewrite_gate", "keygen"])
@pytest.mark.parametrize("bad", [None, 7, ("rz", (0,), (0.4,))], ids=["None", "int", "tuple"])
def test_a_wrong_type_gate_or_source_raises_type_error(call, expected, bad):
    with pytest.raises(TypeError, match=rf"^expected {expected}, got {type(bad).__name__}$"):
        call(bad)


@pytest.mark.parametrize("scheme,op,message", [
    ("rz-only", Gate.rz(0.4, 0), "expected Scheme, got str"),
    (None, Gate.rz(0.4, 0), "expected Scheme, got NoneType"),
    (Scheme.RZ_ONLY, ("rz", (0,), (0.4,)), "expected Gate, got tuple"),
    (Scheme.RZ_ONLY, Circuit(1, (Gate.rz(0.4, 0),)), "expected Gate, got Circuit"),
], ids=["scheme-str", "scheme-none", "op-tuple", "op-circuit"])
def test_scheme_rejects_a_non_scheme_or_a_non_gate(scheme, op, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        scheme_evaluate(scheme, QotpKey(1, "1", "0"), op, RandomSource(0).density_state(1))


def test_scheme_rejects_variant_mismatch():
    rho = RandomSource(0).density_state(1)
    with pytest.raises(ValueError):
        scheme_evaluate(Scheme.RY_HY, keygen(1, RandomSource(0)), Gate.ry(1.0, 0), rho)
    with pytest.raises(ValueError):
        scheme_evaluate(Scheme.RZ_ONLY, keygen(1, RandomSource(0), VARIANT_HY), Gate.rz(1.0, 0), rho)


@pytest.mark.parametrize("scheme,op,n", [
    (Scheme.RZ_ONLY, Gate.rz(1.0, 3), 1),
    (Scheme.RY_HY, Gate.ry(1.0, 1), 1),
    (Scheme.CNOT_ONLY, Gate.cnot(0, 2), 2),
    (Scheme.CNOT_ONLY, Gate.cnot(2, 0), 2),
], ids=["rz-only", "ry-hy", "cnot-target", "cnot-control"])
def test_scheme_rejects_a_wire_past_the_key(scheme, op, n):
    key = keygen(n, RandomSource(0), VARIANT_HY if scheme is Scheme.RY_HY else "xz")
    rho = RandomSource(0).density_state(n)
    with pytest.raises(ValueError, match=f"key is for {n} qubit\\(s\\), gate acts on wire {max(op.wires)}"):
        scheme_evaluate(scheme, key, op, rho)


@pytest.mark.parametrize("op,n", [
    (Gate.cnot(0, 1), 1),
    (Gate.cnot(1, 0), 1),
    (Gate.rz(1.0, 3), 1),
    (Gate.named("x", 2), 2),
    (Gate.cnot(0, 2), 2),
], ids=["cnot-target", "cnot-control", "rz", "x", "cnot-n2"])
def test_rewrite_gate_rejects_a_wire_past_the_key(op, n):
    # the same check and message as scheme_evaluate's, not an IndexError from the key's bits
    key = QotpKey(n, "1" * n, "0" * n)
    with pytest.raises(ValueError, match=f"^key is for {n} qubit\\(s\\), gate acts on wire {max(op.wires)}$"):
        rewrite_gate(key, op)
