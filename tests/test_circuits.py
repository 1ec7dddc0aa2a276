import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfhe import (
    Circuit,
    CircuitFormatError,
    Gate,
    PureState,
    euler_decompose,
    gate_matrix,
    parse_circuit,
    serialize_circuit,
    simulate,
    trace_distance,
)
from qfhe.rng import RandomSource

from oracles import apply_to_density, full_matrix

GOLDEN = Path(__file__).parent / "golden"


# --- IR invariants -------------------------------------------------------

def test_gate_angle_canonicalization():
    g = Gate.rz(-math.pi / 2, 0)
    assert g.params[0] == pytest.approx(3 * math.pi / 2)


def test_gate_rejects_cnot_self_loop():
    with pytest.raises(ValueError):
        Gate.cnot(1, 1)


def test_gate_rejects_bad_params():
    with pytest.raises(ValueError):
        Gate("rz", (0,), ())
    with pytest.raises(ValueError):
        Gate("x", (0,), (1.0,))
    with pytest.raises(ValueError):
        Gate("rz", (0,), (float("inf"),))


def test_circuit_rejects_wire_out_of_range():
    with pytest.raises(ValueError):
        Circuit(1, (Gate.named("x", 1),))


@pytest.mark.parametrize(
    "wire", [1.5, 1.0, "1", True, np.True_, None],
    ids=["float", "integral_float", "str", "bool", "numpy_bool", "none"],
)
def test_gate_rejects_non_integer_wires(wire):
    with pytest.raises(ValueError, match="wire must be an integer"):
        Gate("x", (wire,))


@pytest.mark.parametrize(
    "n", [2.5, 2.0, "2", True, None], ids=["float", "integral_float", "str", "bool", "none"]
)
def test_circuit_rejects_non_integer_qubit_counts(n):
    with pytest.raises(ValueError, match="n_qubits must be an integer"):
        Circuit(n)


def test_numpy_integers_become_ints():
    gate = Gate.cnot(np.int64(1), np.uint8(0))
    circuit = Circuit(np.int32(2), (gate,))
    assert gate.wires == (1, 0) and all(type(w) is int for w in gate.wires)
    assert type(circuit.n_qubits) is int and circuit.n_qubits == 2


# --- parsing and serialization ------------------------------------------

def test_parse_minimal_document():
    c = parse_circuit(b'{"qubits": 1, "gates": [{"kind": "rz", "theta": 1.0, "wire": 0}]}')
    assert c.n_qubits == 1 and len(c) == 1
    assert c.gates[0] == Gate.rz(1.0, 0)


def test_parse_rejects_cnot_self_loop():
    with pytest.raises(CircuitFormatError):
        parse_circuit(b'{"qubits": 2, "gates": [{"kind": "cnot", "control": 1, "target": 1}]}')


@pytest.mark.parametrize(
    "doc",
    [
        b"not json",
        b"[1, 2]",
        b'{"qubits": 0, "gates": []}',
        b'{"qubits": true, "gates": []}',
        b'{"qubits": 1, "gates": [{"kind": "swap", "wire": 0}]}',
        b'{"qubits": 1, "gates": [{"kind": "x", "wire": 1}]}',
        b'{"qubits": 1, "gates": [{"kind": "x", "wire": -1}]}',
        b'{"qubits": 1, "gates": [{"kind": "rz", "wire": 0}]}',
        b'{"qubits": 1, "gates": [{"kind": "rz", "theta": "a", "wire": 0}]}',
        b'{"qubits": 1, "gates": [{"kind": "rz", "theta": 1.0, "wire": 0, "junk": 1}]}',
        b'{"qubits": 1, "gates": [{"kind": "x", "wire": 0.5}]}',
        b'{"qubits": 1, "gates": [{"kind": "u", "alpha": 1.0, "wire": 0}]}',
        b'{"qubits": 1, "gates": [null]}',
        b'{"qubits": 1, "gates": {}, "extra": 1}',
        b'{"qubits": 1}',
        pytest.param(b'{"qubits": 1, "gates": [{"kind": "rz", "theta": 1' + b"0" * 400 + b', "wire": 0}]}',
                     id="rz-theta-beyond-float-range"),
        pytest.param(b'{"qubits": 1, "gates": [{"kind": "mat2", "entries": [[1' + b"0" * 400
                     + b', 0], [0, 0], [0, 0], [1, 0]], "wire": 0}]}', id="mat2-entry-beyond-float-range"),
        b'{"qubits": 1, "gates": [{"kind": "u", "alpha": 1e400, "beta": 0, "gamma": 0, "delta": 0, "wire": 0}]}',
        pytest.param(b'{"qubits": 1, "gates": [], "\xff": 1}', id="invalid-utf8"),
    ],
)
def test_parser_rejects_mutations(doc):
    with pytest.raises(CircuitFormatError):
        parse_circuit(doc)


def test_mat2_converted_to_u():
    h = gate_matrix("h")
    entries = [[float(v.real), float(v.imag)] for v in h.reshape(-1)]
    doc = json.dumps({"qubits": 1, "gates": [{"kind": "mat2", "entries": entries, "wire": 0}]})
    c = parse_circuit(doc.encode())
    assert c.gates[0].kind == "u"
    assert np.max(np.abs(c.gates[0].matrix() - h)) <= 1e-9


def test_mat2_rejects_non_unitary():
    doc = json.dumps(
        {"qubits": 1, "gates": [{"kind": "mat2", "entries": [[1, 0], [0, 0], [0, 0], [2, 0]], "wire": 0}]}
    )
    with pytest.raises(CircuitFormatError):
        parse_circuit(doc.encode())


def test_serialize_empty_circuit():
    data = serialize_circuit(Circuit(2))
    assert parse_circuit(data) == Circuit(2)


def test_golden_corpus_is_canonical():
    files = sorted(GOLDEN.glob("*.json"))
    assert files, "golden corpus missing"
    for path in files:
        raw = path.read_bytes()
        assert serialize_circuit(parse_circuit(raw)) == raw, path.name


def test_non_canonical_input_maps_to_golden():
    # same circuit, shuffled keys and unnormalized angle
    messy = b'{"gates": [{"wire": 0, "kind": "h"}, {"target": 1, "kind": "cnot", "control": 0}, {"theta": -4.71238898038469, "wire": 1, "kind": "rz"}], "qubits": 2}'
    golden = (GOLDEN / "bell_rz.json").read_bytes()
    assert serialize_circuit(parse_circuit(messy)) == golden


@st.composite
def circuit_strategy(draw):
    n = draw(st.integers(1, 3))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["x", "y", "z", "h", "rz", "ry", "u", "cnot"]))
        angle = st.floats(0, 6.28, allow_nan=False)
        if kind == "cnot" and n > 1:
            control = draw(st.integers(0, n - 1))
            target = draw(st.integers(0, n - 2))
            gates.append(Gate.cnot(control, target if target < control else target + 1))
        elif kind in ("rz", "ry"):
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),), (draw(angle),)))
        elif kind == "u":
            gates.append(Gate.u(*(draw(angle) for _ in range(4)), draw(st.integers(0, n - 1))))
        elif kind != "cnot":
            gates.append(Gate.named(kind, draw(st.integers(0, n - 1))))
    return Circuit(n, tuple(gates))


@settings(max_examples=100, deadline=None)
@given(circuit_strategy())
def test_serialize_parse_round_trip(circuit):
    data = serialize_circuit(circuit)
    assert parse_circuit(data) == circuit
    assert serialize_circuit(parse_circuit(data)) == data


# --- simulation ----------------------------------------------------------

def test_simulate_x():
    out = simulate(Circuit(1, (Gate.named("x", 0),)), PureState.basis(1, 0))
    assert np.allclose(out.amplitudes, [0, 1])


def test_simulate_bell():
    bell = Circuit(2, (Gate.named("h", 0), Gate.cnot(0, 1)))
    out = simulate(bell, PureState.basis(2, 0))
    assert np.allclose(out.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])


def test_simulate_dim_mismatch():
    with pytest.raises(ValueError):
        simulate(Circuit(2), PureState.basis(1, 0))


def test_simulate_matches_full_matrix_oracle():
    rng = RandomSource(31)
    for _ in range(25):
        n = 1 + rng.integer(0, 3)
        circuit = rng.circuit(n, rng.integer(0, 21))
        sigma = rng.density_state(n)
        direct = simulate(circuit, sigma)
        oracle = apply_to_density(full_matrix(circuit), sigma)
        assert trace_distance(direct, oracle) <= 1e-9


#: bound on the residuals of 10^4 applied gates: the dense path drifted about
#: 5e-14 in norm and 1e-13 in trace over such a run, and ATOL_STATE is 1e-9
DRIFT_TOL = 1e-12


def test_long_circuit_drift():
    rng = RandomSource(41)
    circuit = rng.circuit(4, 10_000)
    psi = simulate(circuit, rng.pure_state(4)).amplitudes
    assert abs(np.linalg.norm(psi) - 1.0) <= DRIFT_TOL
    rho = simulate(circuit, rng.density_state(4)).matrix
    assert abs(np.trace(rho) - 1.0) <= DRIFT_TOL
    assert np.max(np.abs(rho - rho.conj().T)) <= DRIFT_TOL


def test_negative_zero_angle_serializes_as_zero():
    # -0.0 and 0.0 are the same circuit, so they get the same document
    doc = '{"qubits": 1, "gates": [{"kind": "rz", "theta": -0.0, "wire": 0}]}'
    out = serialize_circuit(parse_circuit(doc))
    assert out == serialize_circuit(parse_circuit(doc.replace("-0.0", "0.0")))
    assert b'"theta": 0.0' in out


# --- full_matrix ---------------------------------------------------------

def test_full_matrix_empty_is_identity():
    assert np.array_equal(full_matrix(Circuit(2)), np.eye(4))


def test_full_matrix_single_gate():
    assert np.allclose(full_matrix(Circuit(1, (Gate.named("x", 0),))), gate_matrix("x"))


def test_full_matrix_ordering():
    # later gate multiplies on the left: [Z][X] -> X @ Z
    c = Circuit(1, (Gate.named("z", 0), Gate.named("x", 0)))
    assert np.allclose(full_matrix(c), gate_matrix("x") @ gate_matrix("z"), atol=1e-15)


def test_full_matrix_size_guard():
    with pytest.raises(ValueError):
        full_matrix(Circuit(7))


# --- ZYZ decomposition ---------------------------------------------------

def test_euler_identity():
    assert euler_decompose(np.eye(2)).as_tuple() == (0.0, 0.0, 0.0, 0.0)


def test_euler_rz_fixed_point():
    angles = euler_decompose(gate_matrix("rz", (1.3,)))
    assert angles.alpha == 0.0 and angles.gamma == 0.0 and angles.delta == 0.0
    assert angles.beta == pytest.approx(1.3, abs=1e-12)


def test_euler_hadamard():
    angles = euler_decompose(gate_matrix("h"))
    assert angles.as_tuple() == (math.pi / 2, 0.0, math.pi / 2, math.pi)


def test_euler_rejects_non_unitary():
    with pytest.raises(ValueError):
        euler_decompose(np.array([[1, 0], [0, 2]], dtype=complex))
    with pytest.raises(ValueError):
        euler_decompose(np.eye(3))


def test_euler_random_reconstruction():
    rng = RandomSource(77)
    for _ in range(100):
        u = rng.unitary(2)
        angles = euler_decompose(u)
        assert np.max(np.abs(angles.matrix() - u)) <= 1e-9
        assert 0.0 <= angles.gamma <= math.pi + 1e-12


def test_euler_degenerate_cases_pin_delta():
    rng = RandomSource(13)
    for _ in range(20):
        theta = rng.angle()
        diag = euler_decompose(gate_matrix("rz", (theta,)))
        assert diag.delta == 0.0 and diag.gamma == 0.0
        anti = euler_decompose(gate_matrix("x") @ gate_matrix("rz", (theta,)))
        assert anti.delta == 0.0 and anti.gamma == pytest.approx(math.pi)
