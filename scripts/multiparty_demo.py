#!/usr/bin/env python3
"""Walkthrough: several parties, one evaluator, one joint circuit.

Each party holds its own key and encrypts its own qubit. The evaluator
concatenates the registers, joins the keys, rewrites the joint circuit once,
and runs it on the combined ciphertext. Each party then decrypts its share
of the key material. This is a single-process illustration, not a protocol:
the evaluator must know all keys, so it has to be trusted.
"""
import argparse

import numpy as np

from checked_args import SEED
from qfhe import (
    Circuit,
    DensityState,
    Gate,
    QotpKey,
    decrypt,
    encrypt,
    evaluate,
    keygen,
    simulate,
    trace_distance,
)
from qfhe.rng import RandomSource


def join_keys(keys) -> QotpKey:
    return QotpKey(
        sum(k.n_qubits for k in keys),
        "".join(k.x_bits for k in keys),
        "".join(k.z_bits for k in keys),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=SEED, default=2024)
    args = parser.parse_args()
    rng = RandomSource(args.seed)

    # two parties, one qubit each
    keys = [keygen(1, rng) for _ in range(2)]
    inputs = [rng.pure_state(1) for _ in range(2)]
    ciphers = [encrypt(k, s) for k, s in zip(keys, inputs)]
    print("party keys:", [(k.x_bits, k.z_bits) for k in keys])

    # evaluator side: joint register, joint key, one rewrite+run
    joint_key = join_keys(keys)
    joint_cipher = DensityState(2, np.kron(ciphers[0].to_density().matrix, ciphers[1].to_density().matrix))
    circuit = Circuit(2, (
        Gate.ry(1.1, 0),
        Gate.cnot(0, 1),
        Gate.rz(0.7, 1),
    ))
    evaluated = evaluate(joint_key, circuit, joint_cipher)

    # decryption uses the joined key material; plaintext reference for comparison
    result = decrypt(joint_key, evaluated)
    plain_joint = DensityState(
        2, np.kron(inputs[0].to_density().matrix, inputs[1].to_density().matrix)
    )
    reference = simulate(circuit, plain_joint)
    dist = trace_distance(result, reference)
    print(f"joint result vs plaintext simulation: trace distance {dist:.3e}")
    return 0 if dist < 1e-9 else 1


if __name__ == "__main__":
    raise SystemExit(main())
