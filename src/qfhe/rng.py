"""Seeded randomness and sampling helpers for tests, analysis, and the CLI.

All randomness in the package flows through RandomSource so every run is
reproducible from a single 64-bit seed.
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit, Gate
from .linalg import GATE_SPECS, DensityState, PureState, canonical_angle


class RandomSource:
    """Deterministic random stream; identical seeds yield identical draws."""

    def __init__(self, seed: int):
        if not 0 <= int(seed) < 2 ** 64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {seed!r}")
        self.seed = int(seed)
        self._gen = np.random.default_rng(self.seed)

    def bit_string(self, n: int) -> str:
        return "".join("1" if b else "0" for b in self._gen.integers(0, 2, size=n))

    def angle(self) -> float:
        return canonical_angle(float(self._gen.uniform(0.0, 2.0 * np.pi)))

    def angles(self, count: int) -> list[float]:
        return [self.angle() for _ in range(count)]

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def unitary(self, dim: int) -> np.ndarray:
        """Haar-ish random unitary via QR of a complex Gaussian matrix."""
        z = self._gen.normal(size=(dim, dim)) + 1j * self._gen.normal(size=(dim, dim))
        q, r = np.linalg.qr(z)
        # fix the phase convention so the distribution is well defined
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    def pure_state(self, n_qubits: int) -> PureState:
        dim = 2 ** n_qubits
        vec = self._gen.normal(size=dim) + 1j * self._gen.normal(size=dim)
        return PureState(n_qubits, vec / np.linalg.norm(vec))

    def density_state(self, n_qubits: int, rank: int | None = None) -> DensityState:
        """Random mixed state from a uniformly weighted ensemble of pure states."""
        dim = 2 ** n_qubits
        rank = dim if rank is None else rank
        probs = self._gen.dirichlet(np.ones(rank))
        mat = np.zeros((dim, dim), dtype=complex)
        for p in probs:
            psi = self.pure_state(n_qubits).amplitudes
            mat += p * np.outer(psi, psi.conj())
        return DensityState(n_qubits, mat)

    def circuit(self, n_qubits: int, n_gates: int) -> Circuit:
        """Random circuit drawing each gate's kind uniformly from the gate table.

        On one qubit a drawn cnot becomes x. Each gate draws its kind, then its
        wires (a cnot target skips the control), then its angles.
        """
        kinds = tuple(GATE_SPECS)
        gates = []
        for _ in range(n_gates):
            kind = kinds[self.integer(0, len(kinds))]
            if kind == "cnot" and n_qubits < 2:
                kind = "x"
            if kind == "cnot":
                control = self.integer(0, n_qubits)
                target = self.integer(0, n_qubits - 1)
                if target >= control:
                    target += 1
                wires = (control, target)
            else:
                wires = (self.integer(0, n_qubits),)
            gates.append(Gate(kind, wires, tuple(self.angles(len(GATE_SPECS[kind].params)))))
        return Circuit(n_qubits, tuple(gates))
