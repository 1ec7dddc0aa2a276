"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import json
import math

import numpy as np

from qfhe import (
    Circuit,
    Gate,
    OperatorNotPermitted,
    QotpKey,
    average_over_keys,
    check_appendix_identities,
    classify_key_independent,
    decrypt,
    encrypt,
    evaluate,
    keygen,
    maximally_mixed,
    rewrite_circuit,
    simulate,
    trace_distance,
    verify_security,
)
from qfhe.analysis import pauli_decompose
from qfhe.circuits import euler_decompose
from qfhe.cli import main
from qfhe.linalg import all_bit_strings, gate_matrix
from qfhe.qotp import VARIANT_HY
from qfhe.rewrite import Scheme, rewrite_gate, scheme_evaluate
from qfhe.rng import RandomSource

from oracles import apply_to_density, full_matrix, pauli_operator


def _verdict(number: int, label: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok


def test_criterion_1_homomorphic_round_trip():
    rng = RandomSource(1001)
    worst = 0.0
    for _ in range(200):
        n = 1 + rng.integer(0, 4)
        circuit = rng.circuit(n, rng.integer(0, 21))
        key = keygen(n, rng)
        sigma = rng.pure_state(n).to_density()
        out = decrypt(key, evaluate(key, circuit, encrypt(key, sigma)))
        worst = max(worst, trace_distance(out, simulate(circuit, sigma)))
    _verdict(1, f"homomorphic round trip, worst distance {worst:.3e}", worst <= 1e-9)


def test_criterion_2_perfect_security():
    rng = RandomSource(1002)
    worst_avg = 0.0
    for n in (1, 2, 3):
        for _ in range(20):
            sigma = rng.density_state(n) if rng.integer(0, 2) else rng.pure_state(n).to_density()
            worst_avg = max(worst_avg, trace_distance(average_over_keys(sigma), maximally_mixed(n)))
    worst_eval = 0.0
    for n in (1, 2):
        for _ in range(10):
            circuit = rng.circuit(n, 6)
            report = verify_security(circuit, rng.pure_state(n).to_density(), 1e-9)
            worst_eval = max(worst_eval, report.worst_evaluate_distance)
    ok = worst_avg <= 1e-10 and worst_eval <= 1e-9
    _verdict(2, f"perfect security, key-average {worst_avg:.3e}, evaluate {worst_eval:.3e}", ok)


def test_criterion_3_scheme_level_checks():
    rng = RandomSource(1003)
    cases = [
        (Scheme.RZ_ONLY, "rz", "xz"),
        (Scheme.RY_ONLY, "ry", "xz"),
        (Scheme.RY_HY, "ry", "hy"),
        (Scheme.COMBINED, "rz", "xz"),
        (Scheme.COMBINED, "ry", "xz"),
    ]
    worst = 0.0
    for scheme, kind, variant in cases:
        for _ in range(50):
            key = keygen(1, rng, variant)
            sigma = rng.pure_state(1).to_density()
            op = Gate(kind, (0,), (rng.angle(),))
            out = decrypt(key, scheme_evaluate(scheme, key, op, encrypt(key, sigma)))
            worst = max(worst, trace_distance(out, apply_to_density(op.matrix(), sigma)))
    for _ in range(50):
        key = keygen(2, rng)
        sigma = rng.pure_state(2).to_density()
        out = decrypt(key, scheme_evaluate(Scheme.CNOT_ONLY, key, Gate.cnot(0, 1), encrypt(key, sigma)))
        worst = max(worst, trace_distance(out, apply_to_density(gate_matrix("cnot"), sigma)))
    rejected = True
    for scheme, bad in [
        (Scheme.RZ_ONLY, Gate.ry(1.0, 0)),
        (Scheme.RY_ONLY, Gate.rz(1.0, 0)),
        (Scheme.RY_HY, Gate.rz(1.0, 0)),
        (Scheme.COMBINED, Gate.u(0, 0, 0, 0, 0)),
        (Scheme.CNOT_ONLY, Gate.named("h", 0)),
    ]:
        key = keygen(2, RandomSource(0), VARIANT_HY if scheme is Scheme.RY_HY else "xz")
        try:
            scheme_evaluate(scheme, key, bad, RandomSource(0).density_state(2))
            rejected = False
        except OperatorNotPermitted:
            pass
    ok = worst <= 1e-10 and rejected
    _verdict(3, f"restricted schemes, worst round trip {worst:.3e}, rejections {rejected}", ok)


def test_criterion_4_size_bound():
    rng = RandomSource(1004)
    bounded = True
    for _ in range(100):
        n = 1 + rng.integer(0, 4)
        circuit = rng.circuit(n, rng.integer(0, 16))
        key = keygen(n, rng)
        bounded &= len(rewrite_circuit(key, circuit)) <= 3 * len(circuit)
    key = QotpKey(2, "11", "11")
    all_cnot = Circuit(2, (Gate.cnot(0, 1), Gate.cnot(1, 0), Gate.cnot(0, 1)))
    tight = len(rewrite_circuit(key, all_cnot)) == 3 * len(all_cnot)
    _verdict(4, f"3x size bound holds, tight for all-cnot circuit: {tight}", bounded and tight)


def test_criterion_5_commutation_identity():
    rng = RandomSource(1005)
    worst = 0.0
    for _ in range(50):
        n = 1 + rng.integer(0, 3)
        circuit = rng.circuit(n, rng.integer(0, 13))
        key = keygen(n, rng)
        mask = pauli_operator(key.x_bits, key.z_bits)
        sign = (-1) ** sum(rewrite_gate(key, gate).phase_flips for gate in circuit.gates)
        err = np.max(np.abs(full_matrix(rewrite_circuit(key, circuit)) @ mask - sign * mask @ full_matrix(circuit)))
        worst = max(worst, float(err))
    _verdict(5, f"masked commutation with tracked sign, worst error {worst:.3e}", worst <= 1e-9)


def test_criterion_6_euler_decomposition():
    rng = RandomSource(1006)
    worst = 0.0
    for _ in range(100):
        u = rng.unitary(2)
        angles = euler_decompose(u)
        worst = max(worst, float(np.max(np.abs(gate_matrix("u", angles) - u))))
    fixed = (
        euler_decompose(np.eye(2)) == (0.0, 0.0, 0.0, 0.0)
        and euler_decompose(gate_matrix("h")) == (math.pi / 2, 0.0, math.pi / 2, math.pi)
    )
    alpha, beta, gamma, delta = euler_decompose(gate_matrix("rz", (1.3,)))
    # beta comes back through atan2, so exactness means double-precision roundoff
    fixed = fixed and (alpha, gamma, delta) == (0.0, 0.0, 0.0) and abs(beta - 1.3) <= 1e-12
    _verdict(6, f"ZYZ reconstruction worst {worst:.3e}, fixed points {fixed}", worst <= 1e-9 and fixed)


def test_criterion_7_key_independence_classifier():
    thetas = [i * math.pi / 4 for i in range(8)]
    positives = True
    parseval = True
    for a in all_bit_strings(2):
        for b in all_bit_strings(2):
            for theta in thetas:
                u = np.exp(1j * theta) * pauli_operator(a, b)
                result = classify_key_independent(u)
                wa, wb, wt = result.witness if result.witness else (None, None, None)
                delta = abs((wt or 0.0) - (theta % (2 * math.pi))) % (2 * math.pi)
                positives &= result.key_independent and (wa, wb) == (a, b) and min(delta, 2 * math.pi - delta) <= 1e-9
                parseval &= abs(np.sum(np.abs(pauli_decompose(u)) ** 2) - 1.0) <= 1e-9
    rng = RandomSource(1007)
    negatives = True
    count = 0
    while count < 50:
        u = rng.unitary(2 ** (1 + rng.integer(0, 2)))
        mags = np.sort(np.abs(pauli_decompose(u)), axis=None)
        if mags[-2] <= 1e-6:
            continue
        negatives &= not classify_key_independent(u).key_independent
        parseval &= abs(np.sum(mags ** 2) - 1.0) <= 1e-9
        count += 1
    ok = positives and negatives and parseval
    _verdict(7, f"classifier: positives {positives}, negatives {negatives}, parseval {parseval}", ok)


def test_criterion_8_appendix_identities():
    report = check_appendix_identities()
    worst = max(report.values())
    _verdict(8, f"{len(report)} commutation rules, worst error {worst:.3e}", len(report) == 10 and worst <= 1e-12)


def test_criterion_9_cli_pipeline(tmp_path, capsys):
    bell = json.dumps(
        {"qubits": 2, "gates": [{"kind": "h", "wire": 0}, {"kind": "cnot", "control": 0, "target": 1}]}
    )
    circ = tmp_path / "bell.json"
    circ.write_text(bell)
    state = tmp_path / "in.json"
    state.write_text(json.dumps({"qubits": 2, "kind": "pure", "data": [[1.0, 0.0], [0, 0], [0, 0], [0, 0]]}))

    def run_pipeline(tag):
        key = tmp_path / f"key{tag}.json"
        cipher = tmp_path / f"c{tag}.json"
        evaluated = tmp_path / f"e{tag}.json"
        plain = tmp_path / f"p{tag}.json"
        assert main(["keygen", "-n", "2", "--seed", "42", "-o", str(key)]) == 0
        assert main(["encrypt", "--key", str(key), "--in", str(state), "--out", str(cipher)]) == 0
        assert main(["evaluate", "--key", str(key), "--circuit", str(circ), "--in", str(cipher), "--out", str(evaluated)]) == 0
        assert main(["decrypt", "--key", str(key), "--in", str(evaluated), "--out", str(plain)]) == 0
        return (key.read_bytes(), cipher.read_bytes(), evaluated.read_bytes(), plain.read_bytes())

    first, second = run_pipeline("a"), run_pipeline("b")
    deterministic = first == second

    reference = tmp_path / "ref.json"
    assert main(["simulate", "--circuit", str(circ), "--in", str(state), "--out", str(reference)]) == 0
    got = np.array([complex(re, im) for re, im in json.loads(first[3].decode())["data"]])
    want = np.array([complex(re, im) for re, im in json.loads(reference.read_text())["data"]])
    close = float(np.max(np.abs(np.outer(got, got.conj()) - np.outer(want, want.conj())))) <= 1e-9

    # negative paths: semantic error 2, parse error 3, verification fail 1
    bad_key = tmp_path / "badkey.json"
    bad_key.write_text(json.dumps({"n": 1, "x_bits": "1", "z_bits": "0", "variant": "xz"}))
    # tol=0 needs a case with a floating-point residue; all-real circuits on
    # basis states can average to the mixed state exactly
    rot_circ = tmp_path / "rot.json"
    rot_circ.write_text(json.dumps({"qubits": 1, "gates": [{"kind": "ry", "theta": 0.3, "wire": 0}]}))
    rot_state = tmp_path / "rot_state.json"
    rot_state.write_text(json.dumps({"qubits": 1, "kind": "pure", "data": [[0.6, 0.0], [0.0, 0.8]]}))
    codes = (
        main(["encrypt", "--key", str(bad_key), "--in", str(state), "--out", str(tmp_path / "x.json")]),
        main(["simulate", "--circuit", str(state), "--in", str(state), "--out", str(tmp_path / "x.json")]),
        main(["verify-security", "--circuit", str(rot_circ), "--state", str(rot_state), "--tol", "0"]),
        main(["keygen", "-n", "0", "--seed", "1", "-o", str(tmp_path / "x.json")]),
    )
    capsys.readouterr()  # swallow subcommand output before the verdict line
    exit_codes_ok = codes == (2, 3, 1, 2)
    ok = deterministic and close and exit_codes_ok
    _verdict(9, f"CLI pipeline deterministic {deterministic}, matches simulate {close}, exit codes {codes}", ok)
