"""Batch command line front end.

Subcommands: keygen, encrypt, decrypt, evaluate, simulate, verify-security,
classify, check-identities. All outputs are canonical (fixed key order,
shortest round-trip floats) so runs are byte-deterministic given the flags.

State files are written through one fixed layout that the tests hold
byte-equal to ``circuits.canonical_json``, the writer of keys, circuits and
reports. A grid of [re, im] pairs is read and checked as one array, and
``main`` reuses one parser.

Exit codes: 0 success/pass, 1 verification fail, 2 semantic error,
3 parse or I/O error.

Keys are stored as plaintext JSON files: this is a research artifact, not a
key management system.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain

import numpy as np

from . import analysis, circuits, qotp, rewrite
from .circuits import CircuitFormatError, canonical_json
from .linalg import ATOL_EXACT, DensityState, PureState
from .qotp import QotpKey
from .rng import RandomSource

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SEMANTIC = 2
EXIT_PARSE = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


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
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, an integer past the digit limit, deep nesting
        raise CliError(EXIT_PARSE, f"{path}: invalid JSON: {exc}") from exc


# --- file formats --------------------------------------------------------

def _key_to_bytes(key: QotpKey) -> bytes:
    return canonical_json({"n": key.n_qubits, "x_bits": key.x_bits, "z_bits": key.z_bits, "variant": key.variant})


def _load_key(path: str) -> QotpKey:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise CliError(EXIT_PARSE, f"{path}: key file must hold an object")
    try:
        return QotpKey(doc.get("n"), doc.get("x_bits"), doc.get("z_bits"), doc.get("variant", "xz"))
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, f"{path}: invalid key file: {exc}") from exc


def _state_to_bytes(state) -> bytes:
    """canonical_json of {"qubits", "kind", "data"}, written through one layout template.

    The template is json.dumps's indent-2 layout of the nested pair lists with
    one %r per float part: repr is json's format for the finite floats a state
    holds. A zero part is written as 0.0 whatever its sign.
    """
    if isinstance(state, PureState):
        kind, values = "pure", state.amplitudes
    else:
        kind, values = "density", state.matrix
    shape = values.shape + (2,)
    layout = "%r"
    for level in range(len(shape), 0, -1):  # innermost list first: the [re, im] pair
        pad = "\n" + "  " * (level + 1)
        layout = "[" + pad + ("," + pad).join([layout] * shape[level - 1]) + "\n" + "  " * level + "]"
    template = '{\n  "qubits": ' + str(state.n_qubits) + ',\n  "kind": "' + kind + '",\n  "data": ' + layout + "\n}\n"
    parts = np.ascontiguousarray(values).view(np.float64).ravel() + 0.0  # -0.0 + 0.0 is 0.0
    return (template % tuple(parts.tolist())).encode("utf-8")


def _parse_grid(data, where: str, shape: tuple) -> np.ndarray:
    """The complex array of a grid of [re, im] pairs whose outer lists the caller has checked.

    shape ends in the pairs' 2: (2^n, 2) for an amplitude list, (dim, dim, 2) for a matrix.
    """
    bad = CliError(EXIT_PARSE, f"{where}: each entry must be a finite [re, im] pair")
    entries = data if len(shape) == 2 else list(chain.from_iterable(data))
    if not set(map(type, entries)) <= {list}:
        raise bad
    types = set(map(type, chain.from_iterable(entries)))
    if not types <= {int, float}:
        raise bad
    # an int past the float range can round down to a finite float, so ints are checked exactly
    if int in types and not all(map(circuits.is_finite_number, chain.from_iterable(entries))):
        raise bad
    try:
        arr = np.array(data, dtype=np.float64)
    except ValueError:  # entries of different lengths
        raise bad from None
    if arr.shape != shape or not np.isfinite(arr).all():
        raise bad
    return arr.view(np.complex128).reshape(shape[:-1])


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
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise CliError(EXIT_PARSE, f"{path}: 'qubits' must be a positive integer")
    if kind not in ("pure", "density"):
        raise CliError(EXIT_PARSE, f"{path}: 'kind' must be 'pure' or 'density'")
    try:
        if kind == "pure":
            if not _is_list_of_2_pow_n(data, n):
                raise CliError(EXIT_PARSE, f"{path}: expected 2^{n} amplitude pairs")
            return PureState(n, _parse_grid(data, path, (1 << n, 2)))
        if not _is_list_of_2_pow_n(data, n) or not all(_is_list_of_2_pow_n(row, n) for row in data):
            raise CliError(EXIT_PARSE, f"{path}: expected a 2^{n} x 2^{n} grid of pairs")
        return DensityState(n, _parse_grid(data, path, (1 << n, 1 << n, 2)))
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"{path}: invalid state: {exc}") from exc


def _load_matrix(path: str) -> np.ndarray:
    doc = _load_json(path)
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) and len(r) == len(doc) for r in doc):
        raise CliError(EXIT_PARSE, f"{path}: expected a square grid of [re, im] pairs")
    dim = len(doc)
    if dim & (dim - 1):
        raise CliError(EXIT_PARSE, f"{path}: dimension {dim} is not a power of two")
    return _parse_grid(doc, path, (dim, dim, 2))


def _load_circuit(path: str) -> circuits.Circuit:
    try:
        return circuits.parse_circuit(_read_file(path))
    except CircuitFormatError as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}") from exc


# --- subcommands ---------------------------------------------------------

#: the largest key keygen writes: a state on more qubits has more amplitudes than a 64-bit index counts
_MAX_KEY_QUBITS = 64


def _cmd_keygen(args) -> int:
    if args.n < 1:
        raise CliError(EXIT_SEMANTIC, "-n must be a positive qubit count")
    if args.n > _MAX_KEY_QUBITS:
        raise CliError(EXIT_SEMANTIC, f"-n must be at most {_MAX_KEY_QUBITS}: no state on more qubits can be indexed")
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
    _write_file(args.out, _state_to_bytes(rewrite.evaluate(key, circ, state)))
    if args.emit_rewritten:
        _write_file(args.emit_rewritten, circuits.serialize_circuit(rewrite.rewrite_circuit(key, circ)))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    circ = _load_circuit(args.circuit)
    state = _load_state(args.in_path)
    result = circuits.simulate(circ, state)
    _write_file(args.out, _state_to_bytes(result))
    return EXIT_OK


def _cmd_verify_security(args) -> int:
    circ = _load_circuit(args.circuit)
    report = analysis.verify_security(circ, _load_state(args.state), args.tol)
    if args.format == "json":
        doc = {
            "n_qubits": report.n_qubits,
            "worst_encrypt_distance": report.worst_encrypt_distance,
            "worst_evaluate_distance": report.worst_evaluate_distance,
            "worst_decrypt_distance": report.worst_decrypt_distance,
            "tolerance": report.tolerance,
            "pass": report.passed,
        }
        sys.stdout.write(canonical_json(doc).decode("utf-8"))
    else:
        print(f"security check: n={report.n_qubits}")
        print(f"  worst encrypt distance   {report.worst_encrypt_distance:.6e}")
        print(f"  worst evaluate distance  {report.worst_evaluate_distance:.6e}")
        print(f"  worst decrypt distance   {report.worst_decrypt_distance:.6e}")
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
        sys.stdout.write(canonical_json(doc).decode("utf-8"))
    elif result.key_independent:
        a, b, theta = result.witness
        print(f"key-independent: a={a} b={b} theta={theta!r}")
        print(f"max deviation: {result.max_deviation:.6e}")
    else:
        print("not key-independent")
        print(f"max deviation: {result.max_deviation:.6e}")
    return EXIT_OK


def _cmd_check_identities(args) -> int:
    report = analysis.check_appendix_identities()
    ok = all(err <= ATOL_EXACT for err in report.values())
    if args.format == "json":
        sys.stdout.write(canonical_json({"identities": report, "tolerance": ATOL_EXACT, "pass": ok}).decode("utf-8"))
    else:
        for name, err in report.items():
            print(f"{name:<22} {err:.6e}")
        print(f"result: {'PASS' if ok else 'FAIL'} (tolerance {ATOL_EXACT:.0e})")
    return EXIT_OK if ok else EXIT_FAIL


@functools.cache  # one parser per process: parse_args leaves it unchanged
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

    p = sub.add_parser("verify-security", help="exhaustive key-averaging security check")
    p.add_argument("--circuit", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--tol", type=float, default=analysis.VERIFY_TOL)
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.set_defaults(func=_cmd_verify_security)

    p = sub.add_parser("classify", help="decide key-independence of a unitary")
    p.add_argument("--unitary", required=True)
    p.add_argument("--tol", type=float, default=analysis.CLASSIFY_TOL)
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check-identities", help="bound the commutation rules' error at every angle")
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
