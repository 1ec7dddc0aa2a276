#!/usr/bin/env python3
"""Exhaustive security sweep over random states and circuits, every key checked.

For each qubit count, averages encryption and homomorphic evaluation over
every key and prints the worst trace distance to the totally mixed state. It
also prints the worst distance of any key's decrypted evaluation from the
plain result: an evaluator that ignores the key still passes both averages,
and only that column catches it. Each drawn circuit is verified on a pure
state and on a mixed one of a drawn rank, 1 to 2^n, so both kinds of state
factor run: one column, or one per eigenvalue of every rank.
"""
import argparse

from qfhe import average_over_keys, maximally_mixed, trace_distance, verify_security
from qfhe.analysis import VERIFY_TOL
from qfhe.rng import RandomSource


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--states", type=int, default=20)
    parser.add_argument("--circuits", type=int, default=10)
    parser.add_argument("--tol", type=float, default=VERIFY_TOL)
    args = parser.parse_args()
    rng = RandomSource(args.seed)

    print(f"{'n':>2} {'worst encrypt-average':>22} {'worst evaluate-average':>23} {'worst decrypt':>14}")
    ok = True
    for n in (1, 2, 3):
        worst_enc = 0.0
        for _ in range(args.states):
            sigma = rng.density_state(n) if rng.integer(0, 2) else rng.pure_state(n).to_density()
            worst_enc = max(worst_enc, trace_distance(average_over_keys(sigma), maximally_mixed(n)))
        worst_eval = worst_dec = 0.0
        for _ in range(args.circuits):
            circuit = rng.circuit(n, 6)
            for sigma in (rng.pure_state(n), rng.density_state(n, rank=rng.integer(1, 2 ** n + 1))):
                report = verify_security(circuit, sigma, args.tol)
                worst_eval = max(worst_eval, report.worst_evaluate_distance)
                worst_dec = max(worst_dec, report.worst_decrypt_distance)
                ok &= report.passed
        print(f"{n:>2} {worst_enc:>22.3e} {worst_eval:>23.3e} {worst_dec:>14.3e}")
        ok &= worst_enc <= args.tol
    print(f"result: {'PASS' if ok else 'FAIL'} (tolerance {args.tol:g})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
