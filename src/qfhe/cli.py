"""Batch command line front end.

Subcommands: keygen, encrypt, decrypt, evaluate, simulate, verify-security,
classify, check-identities. All outputs are canonical (fixed key order,
shortest round-trip floats) so runs are byte-deterministic given the flags.

Exit codes: 0 success/pass, 1 verification fail, 2 semantic error,
3 parse or I/O error.

Keys are stored as plaintext JSON files: this is a research artifact, not a
key management system.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, circuits, qotp, rewrite
from .circuits import CircuitFormatError
from .linalg import DensityState, PureState
from .qotp import QotpKey
from .rng import RandomSource

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SEMANTIC = 2
EXIT_PARSE = 3

IDENTITY_TOL = 1e-12


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _dump(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _write_file(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot write {path}: {exc}") from exc


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc


def _load_json(path: str):
    try:
        return json.loads(_read_file(path).decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer literal past the digit limit
        raise CliError(EXIT_PARSE, f"{path}: invalid JSON: {exc}") from exc


# --- file formats --------------------------------------------------------

def _key_to_bytes(key: QotpKey) -> bytes:
    return _dump({"n": key.n_qubits, "x_bits": key.x_bits, "z_bits": key.z_bits, "variant": key.variant})


def _load_key(path: str) -> QotpKey:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise CliError(EXIT_PARSE, f"{path}: key file must hold an object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise CliError(EXIT_PARSE, f"{path}: 'n' must be an integer")
    try:
        return QotpKey(n, doc.get("x_bits"), doc.get("z_bits"), doc.get("variant", "xz"))
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"{path}: invalid key file: {exc}") from exc


def _pairs(values: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


def _state_to_bytes(state) -> bytes:
    if isinstance(state, PureState):
        return _dump({"qubits": state.n_qubits, "kind": "pure", "data": _pairs(state.amplitudes)})
    return _dump({"qubits": state.n_qubits, "kind": "density", "data": [_pairs(row) for row in state.matrix]})


def _parse_pair(entry, where: str) -> complex:
    if not (isinstance(entry, list) and len(entry) == 2 and all(map(circuits.is_finite_number, entry))):
        raise CliError(EXIT_PARSE, f"{where}: each entry must be a finite [re, im] pair")
    return complex(entry[0], entry[1])


def _is_list_of_2_pow_n(items, n: int) -> bool:
    """items is a list of length 2^n; 2^n is not built before the length rules it out."""
    return isinstance(items, list) and len(items).bit_length() == n + 1 and len(items) == 1 << n


def _load_state(path: str):
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise CliError(EXIT_PARSE, f"{path}: state file must hold an object")
    n = doc.get("qubits")
    kind = doc.get("kind")
    data = doc.get("data")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise CliError(EXIT_PARSE, f"{path}: 'qubits' must be a non-negative integer")
    if kind not in ("pure", "density"):
        raise CliError(EXIT_PARSE, f"{path}: 'kind' must be 'pure' or 'density'")
    try:
        if kind == "pure":
            if not _is_list_of_2_pow_n(data, n):
                raise CliError(EXIT_PARSE, f"{path}: expected 2^{n} amplitude pairs")
            vec = np.array([_parse_pair(e, path) for e in data])
            return PureState(n, vec)
        if not _is_list_of_2_pow_n(data, n) or not all(_is_list_of_2_pow_n(row, n) for row in data):
            raise CliError(EXIT_PARSE, f"{path}: expected a 2^{n} x 2^{n} grid of pairs")
        mat = np.array([[_parse_pair(e, path) for e in row] for row in data])
        return DensityState(n, mat)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"{path}: invalid state: {exc}") from exc


def _load_matrix(path: str) -> np.ndarray:
    doc = _load_json(path)
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) and len(r) == len(doc) for r in doc):
        raise CliError(EXIT_PARSE, f"{path}: expected a square grid of [re, im] pairs")
    dim = len(doc)
    if dim & (dim - 1):
        raise CliError(EXIT_PARSE, f"{path}: dimension {dim} is not a power of two")
    return np.array([[_parse_pair(e, path) for e in row] for row in doc])


def _load_circuit(path: str) -> circuits.Circuit:
    try:
        return circuits.parse_circuit(_read_file(path))
    except CircuitFormatError as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}") from exc


# --- subcommands ---------------------------------------------------------

def _cmd_keygen(args) -> int:
    if args.n < 1:
        raise CliError(EXIT_SEMANTIC, "-n must be a positive qubit count")
    key = qotp.keygen(args.n, RandomSource(args.seed), args.variant)
    _write_file(args.out, _key_to_bytes(key))
    return EXIT_OK


def _cmd_crypt(args, forward: bool) -> int:
    key = _load_key(args.key)
    state = _load_state(args.in_path)
    result = (qotp.encrypt if forward else qotp.decrypt)(key, state)
    _write_file(args.out, _state_to_bytes(result))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    key = _load_key(args.key)
    circ = _load_circuit(args.circuit)
    state = _load_state(args.in_path)
    rewritten = rewrite.rewrite_circuit(key, circ)
    result = circuits.simulate(rewritten, state)
    _write_file(args.out, _state_to_bytes(result))
    if args.emit_rewritten:
        _write_file(args.emit_rewritten, circuits.serialize_circuit(rewritten))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    circ = _load_circuit(args.circuit)
    state = _load_state(args.in_path)
    result = circuits.simulate(circ, state)
    _write_file(args.out, _state_to_bytes(result))
    return EXIT_OK


def _cmd_verify_security(args) -> int:
    circ = _load_circuit(args.circuit)
    state = _load_state(args.state)
    if isinstance(state, PureState):
        state = state.to_density()
    report = analysis.verify_security(circ, state, args.tol)
    if args.format == "json":
        doc = {
            "n_qubits": report.n_qubits,
            "states_tested": report.states_tested,
            "worst_encrypt_distance": report.worst_encrypt_distance,
            "worst_evaluate_distance": report.worst_evaluate_distance,
            "tolerance": report.tolerance,
            "pass": report.passed,
        }
        sys.stdout.write(_dump(doc).decode("utf-8"))
    else:
        print(f"security check: n={report.n_qubits} states={report.states_tested}")
        print(f"  worst encrypt distance   {report.worst_encrypt_distance:.6e}")
        print(f"  worst evaluate distance  {report.worst_evaluate_distance:.6e}")
        print(f"  tolerance                {report.tolerance:.6e}")
        print(f"  result                   {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_classify(args) -> int:
    mat = _load_matrix(args.unitary)
    result = analysis.classify_key_independent(mat, args.tol)
    if args.format == "json":
        doc = {
            "key_independent": result.key_independent,
            "witness": (
                None if result.witness is None
                else {"a": result.witness[0], "b": result.witness[1], "theta": result.witness[2]}
            ),
            "max_deviation": result.max_deviation,
        }
        sys.stdout.write(_dump(doc).decode("utf-8"))
    elif result.key_independent:
        a, b, theta = result.witness
        print(f"key-independent: a={a} b={b} theta={theta!r}")
        print(f"max deviation: {result.max_deviation:.6e}")
    else:
        print("not key-independent")
        print(f"max deviation: {result.max_deviation:.6e}")
    return EXIT_OK


def _cmd_check_identities(args) -> int:
    report = analysis.check_appendix_identities(args.samples, RandomSource(args.seed))
    ok = all(err <= IDENTITY_TOL for err in report.values())
    if args.format == "json":
        sys.stdout.write(_dump({"identities": report, "tolerance": IDENTITY_TOL, "pass": ok}).decode("utf-8"))
    else:
        for name, err in report.items():
            print(f"{name:<22} {err:.6e}")
        print(f"result: {'PASS' if ok else 'FAIL'} (tolerance {IDENTITY_TOL:.0e})")
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qfhe", description="QOTP-based homomorphic encryption toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key file")
    p.add_argument("-n", type=int, required=True, help="qubit count")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--variant", choices=["xz", "hy"], default="xz")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_keygen)

    for name, forward in (("encrypt", True), ("decrypt", False)):
        p = sub.add_parser(name, help=f"{name} a state file")
        p.add_argument("--key", required=True)
        p.add_argument("--in", dest="in_path", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=lambda args, fwd=forward: _cmd_crypt(args, fwd))

    p = sub.add_parser("evaluate", help="run a circuit homomorphically on a ciphertext")
    p.add_argument("--key", required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-rewritten", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", help="run a circuit on a plaintext state")
    p.add_argument("--circuit", required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-security", help="brute-force key-averaging security check")
    p.add_argument("--circuit", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.set_defaults(func=_cmd_verify_security)

    p = sub.add_parser("classify", help="decide key-independence of a unitary")
    p.add_argument("--unitary", required=True)
    p.add_argument("--tol", type=float, default=analysis.CLASSIFY_TOL)
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check-identities", help="verify the commutation rules numerically")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.set_defaults(func=_cmd_check_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_SEMANTIC
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, rewrite.OperatorNotPermitted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
