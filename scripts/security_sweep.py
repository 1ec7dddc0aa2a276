#!/usr/bin/env python3
"""Brute-force security sweep: key-average random states and circuits.

For each qubit count, averages encryption and homomorphic evaluation over
every key and prints the worst trace distance to the totally mixed state.
"""
import argparse

from qfhe import average_over_keys, maximally_mixed, trace_distance, verify_security
from qfhe.rng import RandomSource


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--states", type=int, default=20)
    parser.add_argument("--circuits", type=int, default=10)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args()
    rng = RandomSource(args.seed)

    print(f"{'n':>2} {'worst encrypt-average':>22} {'worst evaluate-average':>23}")
    ok = True
    for n in (1, 2, 3):
        worst_enc = 0.0
        for _ in range(args.states):
            sigma = rng.density_state(n) if rng.integer(0, 2) else rng.pure_state(n).to_density()
            worst_enc = max(worst_enc, trace_distance(average_over_keys(sigma), maximally_mixed(n)))
        worst_eval = 0.0
        n_circuits = args.circuits if n < 3 else max(1, args.circuits // 5)
        for _ in range(n_circuits):
            circuit = rng.circuit(n, 6)
            report = verify_security(circuit, rng.pure_state(n).to_density(), args.tol)
            worst_eval = max(worst_eval, report.worst_evaluate_distance)
            ok &= report.passed
        print(f"{n:>2} {worst_enc:>22.3e} {worst_eval:>23.3e}")
        ok &= worst_enc <= args.tol
    print(f"result: {'PASS' if ok else 'FAIL'} (tolerance {args.tol:g})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
