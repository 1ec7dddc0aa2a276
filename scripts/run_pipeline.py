#!/usr/bin/env python3
"""End-to-end demo: keygen -> encrypt -> evaluate -> decrypt on a Bell circuit.

Writes all intermediate files into a scratch directory and checks that the
decrypted result matches a plaintext simulation.
"""
import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from checked_args import SEED
from qfhe.cli import main as qfhe


def run(seed: int, workdir: Path) -> int:
    circuit = workdir / "bell.json"
    circuit.write_text(json.dumps({
        "qubits": 2,
        "gates": [
            {"kind": "h", "wire": 0},
            {"kind": "cnot", "control": 0, "target": 1},
        ],
    }, indent=2))
    state = workdir / "input.json"
    state.write_text(json.dumps({
        "qubits": 2, "kind": "pure",
        "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    }))

    key = workdir / "key.json"
    cipher = workdir / "cipher.json"
    evaluated = workdir / "evaluated.json"
    plain = workdir / "decrypted.json"
    rewritten = workdir / "rewritten.json"
    reference = workdir / "reference.json"

    steps = [
        ["keygen", "-n", "2", "--seed", str(seed), "-o", str(key)],
        ["encrypt", "--key", str(key), "--in", str(state), "--out", str(cipher)],
        ["evaluate", "--key", str(key), "--circuit", str(circuit), "--in", str(cipher),
         "--out", str(evaluated), "--emit-rewritten", str(rewritten)],
        ["decrypt", "--key", str(key), "--in", str(evaluated), "--out", str(plain)],
        ["simulate", "--circuit", str(circuit), "--in", str(state), "--out", str(reference)],
    ]
    for argv in steps:
        print("qfhe", " ".join(argv))
        code = qfhe(argv)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code

    got = np.array([complex(re, im) for re, im in json.loads(plain.read_text())["data"]])
    want = np.array([complex(re, im) for re, im in json.loads(reference.read_text())["data"]])
    err = np.max(np.abs(np.outer(got, got.conj()) - np.outer(want, want.conj())))
    print(f"\nkey file:            {key.read_text().strip()}")
    print(f"rewritten circuit:   {len(json.loads(rewritten.read_text())['gates'])} gate(s)")
    print(f"decrypted vs direct simulation (density distance): {err:.3e}")
    expected = 1 / math.sqrt(2)
    print(f"decrypted amplitudes: {np.round(got, 6)} (expect ~[{expected:.6f}, 0, 0, {expected:.6f}] up to phase)")
    return 0 if err < 1e-9 else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=SEED, default=42)
    parser.add_argument("--workdir", default=None, help="keep files here instead of a temp dir")
    args = parser.parse_args()
    if args.workdir:
        path = Path(args.workdir)
        path.mkdir(parents=True, exist_ok=True)
        sys.exit(run(args.seed, path))
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(run(args.seed, Path(tmp)))
