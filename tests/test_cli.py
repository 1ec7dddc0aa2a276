import json
import math

import numpy as np
import pytest

from qfhe import gate_matrix
from qfhe.cli import main

BELL = json.dumps(
    {
        "qubits": 2,
        "gates": [
            {"kind": "h", "wire": 0},
            {"kind": "cnot", "control": 0, "target": 1},
        ],
    }
)


def write(path, text):
    path.write_text(text)
    return str(path)


def pure_state_doc(amps):
    return json.dumps(
        {"qubits": int(math.log2(len(amps))), "kind": "pure", "data": [[float(a.real), float(a.imag)] for a in amps]}
    )


def load_state_vec(path):
    doc = json.loads(path.read_text())
    assert doc["kind"] == "pure"
    return np.array([complex(re, im) for re, im in doc["data"]])


def matrix_doc(mat):
    return json.dumps([[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat)])


# --- keygen --------------------------------------------------------------

def test_keygen_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "k1.json", tmp_path / "k2.json"
    assert main(["keygen", "-n", "2", "--seed", "42", "-o", str(out1)]) == 0
    assert main(["keygen", "-n", "2", "--seed", "42", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_keygen_rejects_zero_qubits(tmp_path, capsys):
    assert main(["keygen", "-n", "0", "--seed", "1", "-o", str(tmp_path / "k.json")]) == 2
    assert "-n" in capsys.readouterr().err


def test_keygen_bit_lengths(tmp_path):
    out = tmp_path / "k.json"
    assert main(["keygen", "-n", "3", "--seed", "5", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["x_bits"]) == 3 and len(doc["z_bits"]) == 3
    assert doc["variant"] == "xz"


def test_bad_flag_exits_2(tmp_path):
    assert main(["keygen", "-n", "2", "-o", str(tmp_path / "k.json")]) == 2  # missing --seed


# --- encrypt / decrypt ---------------------------------------------------

def test_encrypt_decrypt_round_trip(tmp_path):
    key = tmp_path / "key.json"
    assert main(["keygen", "-n", "1", "--seed", "9", "-o", str(key)]) == 0
    state = write(tmp_path / "in.json", pure_state_doc(np.array([0.6, 0.8j])))
    cipher = tmp_path / "c.json"
    plain = tmp_path / "p.json"
    assert main(["encrypt", "--key", str(key), "--in", state, "--out", str(cipher)]) == 0
    assert main(["decrypt", "--key", str(key), "--in", str(cipher), "--out", str(plain)]) == 0
    assert np.max(np.abs(load_state_vec(plain) - [0.6, 0.8j])) <= 1e-12


def test_encrypt_known_key(tmp_path):
    key = write(tmp_path / "key.json", json.dumps({"n": 1, "x_bits": "1", "z_bits": "0", "variant": "xz"}))
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0.0])))
    out = tmp_path / "out.json"
    assert main(["encrypt", "--key", key, "--in", state, "--out", str(out)]) == 0
    assert np.allclose(load_state_vec(out), [0, 1])


def test_encrypt_dimension_mismatch_exits_2(tmp_path):
    key = write(tmp_path / "key.json", json.dumps({"n": 2, "x_bits": "10", "z_bits": "01", "variant": "xz"}))
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0.0])))
    assert main(["encrypt", "--key", key, "--in", state, "--out", str(tmp_path / "o.json")]) == 2


HUGE = "9" * 401  # a JSON integer beyond the float range
HUGER = "9" * 5000  # a JSON integer beyond Python's str-to-int digit limit


MALFORMED = [
    ("encrypt-key", "{not json"),
    ("encrypt-key", '{"n": true, "x_bits": "1", "z_bits": "0", "variant": "xz"}'),
    ("encrypt-key", '{"n": 1.0, "x_bits": "1", "z_bits": "0", "variant": "xz"}'),
    ("encrypt-key", '{"n": ' + HUGER + ', "x_bits": "1", "z_bits": "0"}'),
    ("encrypt-state", '{"qubits": 1, "kind": "pure", "data": [[2, 0], [0, 0]]}'),
    ("encrypt-state", '{"qubits": 1, "kind": "pure", "data": [[' + HUGE + ', 0], [0, 0]]}'),
    ("encrypt-state", '{"qubits": 1000000000000, "kind": "pure", "data": [[1, 0], [0, 0]]}'),
    ("encrypt-state", '{"qubits": 1000000000000, "kind": "density", "data": [[[1, 0]]]}'),
    ("encrypt-state", None),  # missing file
    ("simulate-circuit", '{"qubits": 1, "gates": [{"kind": "rz", "theta": ' + HUGE + ', "wire": 0}]}'),
    ("simulate-circuit", '{"qubits": 1, "gates": [{"kind": "mat2", "entries": [[' + HUGE
     + ', 0], [0, 0], [0, 0], [1, 0]], "wire": 0}]}'),
    ("simulate-circuit", '{"qubits": ' + HUGER + ', "gates": []}'),
    ("simulate-circuit", b'{"qubits": 1, "gates": [], "\xff": 1}'),
    ("classify", '[[[' + HUGE + ', 0], [0, 0]], [[0, 0], [1, 0]]]'),
]


def test_malformed_inputs_exit_3(tmp_path):
    key = write(tmp_path / "key.json", json.dumps({"n": 1, "x_bits": "1", "z_bits": "0", "variant": "xz"}))
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0.0])))
    out = str(tmp_path / "o.json")
    for i, (command, text) in enumerate(MALFORMED):
        path = tmp_path / f"bad{i}.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        argv = {
            "encrypt-key": ["encrypt", "--key", str(path), "--in", state, "--out", out],
            "encrypt-state": ["encrypt", "--key", key, "--in", str(path), "--out", out],
            "simulate-circuit": ["simulate", "--circuit", str(path), "--in", state, "--out", out],
            "classify": ["classify", "--unitary", str(path)],
        }[command]
        assert main(argv) == 3, (command, text if text is None or len(text) < 80 else text[:80])


# --- evaluate / simulate -------------------------------------------------

def test_pipeline_matches_simulation(tmp_path):
    key = tmp_path / "key.json"
    circ = write(tmp_path / "bell.json", BELL)
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0, 0, 0])))
    assert main(["keygen", "-n", "2", "--seed", "11", "-o", str(key)]) == 0
    cipher, evaluated, plain, reference = (tmp_path / f"{s}.json" for s in ("c", "e", "p", "r"))
    assert main(["encrypt", "--key", str(key), "--in", state, "--out", str(cipher)]) == 0
    assert main(["evaluate", "--key", str(key), "--circuit", circ, "--in", str(cipher), "--out", str(evaluated)]) == 0
    assert main(["decrypt", "--key", str(key), "--in", str(evaluated), "--out", str(plain)]) == 0
    assert main(["simulate", "--circuit", circ, "--in", state, "--out", str(reference)]) == 0
    got, want = load_state_vec(plain), load_state_vec(reference)
    # compare as density matrices: global phase is not observable
    assert np.max(np.abs(np.outer(got, got.conj()) - np.outer(want, want.conj()))) <= 1e-9


def test_emit_rewritten_three_gates_per_cnot(tmp_path):
    key = write(tmp_path / "key.json", json.dumps({"n": 2, "x_bits": "11", "z_bits": "11", "variant": "xz"}))
    circ = write(
        tmp_path / "c.json",
        json.dumps({"qubits": 2, "gates": [{"kind": "cnot", "control": 0, "target": 1}]}),
    )
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0, 0, 0])))
    rewritten = tmp_path / "rw.json"
    assert main([
        "evaluate", "--key", key, "--circuit", circ, "--in", state,
        "--out", str(tmp_path / "o.json"), "--emit-rewritten", str(rewritten),
    ]) == 0
    doc = json.loads(rewritten.read_text())
    assert [g["kind"] for g in doc["gates"]] == ["z", "x", "cnot"]


def test_evaluate_empty_circuit_is_identity(tmp_path):
    key = write(tmp_path / "key.json", json.dumps({"n": 1, "x_bits": "0", "z_bits": "1", "variant": "xz"}))
    circ = write(tmp_path / "c.json", json.dumps({"qubits": 1, "gates": []}))
    state = write(tmp_path / "in.json", pure_state_doc(np.array([0.6, 0.8])))
    out = tmp_path / "o.json"
    assert main(["evaluate", "--key", key, "--circuit", circ, "--in", state, "--out", str(out)]) == 0
    assert np.allclose(load_state_vec(out), [0.6, 0.8])


def test_simulate_bell(tmp_path):
    circ = write(tmp_path / "bell.json", BELL)
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0, 0, 0])))
    out = tmp_path / "o.json"
    assert main(["simulate", "--circuit", circ, "--in", state, "--out", str(out)]) == 0
    assert np.max(np.abs(load_state_vec(out) - [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])) <= 1e-12


def test_simulate_wire_out_of_range_exits_3(tmp_path):
    circ = write(tmp_path / "c.json", json.dumps({"qubits": 1, "gates": [{"kind": "x", "wire": 3}]}))
    state = write(tmp_path / "in.json", pure_state_doc(np.array([1.0, 0.0])))
    assert main(["simulate", "--circuit", circ, "--in", state, "--out", str(tmp_path / "o.json")]) == 3


# --- verify-security -----------------------------------------------------

def test_verify_security_pass(tmp_path, capsys):
    circ = write(tmp_path / "c.json", json.dumps({"qubits": 1, "gates": []}))
    state = write(tmp_path / "s.json", pure_state_doc(np.array([1.0, 0.0])))
    assert main(["verify-security", "--circuit", circ, "--state", state]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_security_json_format(tmp_path, capsys):
    circ = write(tmp_path / "c.json", BELL)
    state = write(tmp_path / "s.json", pure_state_doc(np.array([1.0, 0, 0, 0])))
    assert main(["verify-security", "--circuit", circ, "--state", state, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["worst_encrypt_distance"] <= 1e-10


def test_verify_security_zero_tol_fails(tmp_path):
    circ = write(
        tmp_path / "c.json",
        json.dumps({"qubits": 1, "gates": [{"kind": "ry", "theta": 0.3, "wire": 0}]}),
    )
    state = write(tmp_path / "s.json", pure_state_doc(np.array([0.6, 0.8j])))
    assert main(["verify-security", "--circuit", circ, "--state", state, "--tol", "0"]) == 1


def test_verify_security_guard_exits_2(tmp_path):
    circ = write(tmp_path / "c.json", json.dumps({"qubits": 4, "gates": []}))
    amps = np.zeros(16)
    amps[0] = 1.0
    state = write(tmp_path / "s.json", pure_state_doc(amps))
    assert main(["verify-security", "--circuit", circ, "--state", state]) == 2


# --- classify ------------------------------------------------------------

def test_classify_x(tmp_path, capsys):
    path = write(tmp_path / "u.json", matrix_doc(gate_matrix("x")))
    assert main(["classify", "--unitary", path]) == 0
    out = capsys.readouterr().out
    assert "key-independent: a=1 b=0" in out


def test_classify_h(tmp_path, capsys):
    path = write(tmp_path / "u.json", matrix_doc(gate_matrix("h")))
    assert main(["classify", "--unitary", path]) == 0
    assert "not key-independent" in capsys.readouterr().out


def test_classify_3x3_exits_3(tmp_path):
    path = write(tmp_path / "u.json", matrix_doc(np.eye(3)))
    assert main(["classify", "--unitary", path]) == 3


def test_classify_non_unitary_exits_2(tmp_path):
    path = write(tmp_path / "u.json", matrix_doc(np.diag([1.0, 2.0])))
    assert main(["classify", "--unitary", path]) == 2


def test_classify_json_format(tmp_path, capsys):
    path = write(tmp_path / "u.json", matrix_doc(np.exp(0.25j) * gate_matrix("z")))
    assert main(["classify", "--unitary", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["key_independent"] is True
    assert doc["witness"]["a"] == "0" and doc["witness"]["b"] == "1"
    assert doc["witness"]["theta"] == pytest.approx(0.25, abs=1e-9)


# --- check-identities ----------------------------------------------------

def test_check_identities_table(capsys):
    assert main(["check-identities", "--samples", "100", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11  # 10 identities + result line
    assert lines[-1].startswith("result: PASS")


def test_check_identities_deterministic(capsys):
    assert main(["check-identities", "--samples", "10", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["check-identities", "--samples", "10", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_check_identities_single_sample(capsys):
    assert main(["check-identities", "--samples", "1", "--seed", "0"]) == 0


def test_check_identities_rejects_zero_samples():
    assert main(["check-identities", "--samples", "0"]) == 2
