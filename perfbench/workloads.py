"""The three benchmark workloads: seeded inputs, the timed job, and its output check.

Every workload is a closed loop over a small pool of pre-generated jobs. The
qfhe package is passed in as a module object (``q``) rather than imported
here, because the harness re-imports it on each set-up and the tracer
rebinds names inside it.

A workload class has three parts:
- ``__init__`` generates the job pool from the seed (and writes input files);
  ``memo`` is a dict the harness keeps for the whole process, across set-ups,
- ``run(job)`` is the timed job and returns its outputs,
- ``check(job, out)`` compares the outputs with an independent reference and
  returns ``(ok, worst_distance)``; it never raises for a wrong answer.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

#: tolerance of every output check, the same as the acceptance suite's
TOL = 1e-9

KINDS = ("x", "y", "z", "h", "rz", "ry", "u", "cnot")


def _gate(q, kind: str, n: int, rng):
    """One random gate of the given kind; same draws as the test suite's random_gate."""
    if kind == "cnot":
        control = rng.integer(0, n)
        target = rng.integer(0, n - 1)
        if target >= control:
            target += 1
        return q.Gate.cnot(control, target)
    wire = rng.integer(0, n)
    if kind in ("rz", "ry"):
        return q.Gate(kind, (wire,), (rng.angle(),))
    if kind == "u":
        return q.Gate.u(*rng.angles(4), wire)
    return q.Gate.named(kind, wire)


def _shuffle(items: list, rng) -> None:
    for i in range(len(items) - 1, 0, -1):  # Fisher-Yates on the seeded stream
        j = rng.integer(0, i + 1)
        items[i], items[j] = items[j], items[i]


def random_circuit(q, n: int, n_gates: int, rng):
    """The test suite's uniform mix of all eight kinds, stratified: each kind appears
    n_gates // 8 or one more times, in random order.

    Stratifying keeps the cnot count, and so the work per job, from varying with the seed.
    """
    extra = list(KINDS)
    _shuffle(extra, rng)
    kinds = list(KINDS) * (n_gates // len(KINDS)) + extra[: n_gates % len(KINDS)]
    _shuffle(kinds, rng)
    return q.Circuit(n, tuple(_gate(q, kind, n, rng) for kind in kinds))


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def phase_pauli(a: str, b: str, theta: float) -> np.ndarray:
    """e^{i theta} X^a Z^b, built here with numpy so the classifier is checked against it."""
    op = np.exp(1j * theta) * np.eye(1, dtype=complex)
    for x_bit, z_bit in zip(a, b):
        factor = np.linalg.matrix_power(_X, int(x_bit)) @ np.linalg.matrix_power(_Z, int(z_bit))
        op = np.kron(op, factor)
    return op


def _projector_distance(got: np.ndarray, want: np.ndarray) -> float:
    """Max-entry distance of |got><got| and |want><want|: blind to global phase, as evaluate is."""
    return float(np.max(np.abs(np.outer(got, got.conj()) - np.outer(want, want.conj()))))


# --- eval_pure_n8 ---------------------------------------------------------

@dataclass(frozen=True)
class PureJob:
    state: object
    circuit: object
    key_seed: int


class EvalPureN8:
    """Library round trip keygen -> encrypt -> evaluate -> decrypt, plus a simulate reference."""

    N_QUBITS = 8
    # 200 gates would take about 0.75 s a job on a 2-core Xeon, too few jobs
    # for a tail percentile within one run; 64 keep gate application dominant.
    N_GATES = 64
    POOL = 8

    def __init__(self, q, seed: int, workdir: str, memo: dict):
        self.q = q
        rng = q.RandomSource(seed)
        self.jobs = [
            PureJob(
                rng.pure_state(self.N_QUBITS),
                random_circuit(q, self.N_QUBITS, self.N_GATES, rng),
                rng.integer(0, 2 ** 31),
            )
            for _ in range(self.POOL)
        ]

    def run(self, job: PureJob):
        q = self.q
        key = q.keygen(self.N_QUBITS, q.RandomSource(job.key_seed))
        cipher = q.encrypt(key, job.state)
        plain = q.decrypt(key, q.evaluate(key, job.circuit, cipher))
        return plain, q.simulate(job.circuit, job.state)

    def check(self, job: PureJob, out) -> tuple[bool, float]:
        plain, reference = out
        dist = _projector_distance(plain.amplitudes, reference.amplitudes)
        return dist <= TOL, dist


# --- security_sweep -------------------------------------------------------

@dataclass(frozen=True)
class SweepJob:
    circuit: object
    sigma3: object
    sigma4: object
    operator: np.ndarray
    witness: tuple[str, str] | None  # (a, b) for a phase-Pauli, None for a Haar unitary


class SecuritySweep:
    """verify_security (n=3, 20 gates), average_over_keys (n=4), classify_key_independent (n=3)."""

    N_VERIFY = 3
    # 20 gates, not 30, so a run still has ten jobs beyond the 90th percentile
    # when the host runs slow
    N_GATES = 20
    N_AVERAGE = 4
    N_CLASSIFY = 3
    POOL = 4

    def __init__(self, q, seed: int, workdir: str, memo: dict):
        self.q = q
        rng = q.RandomSource(seed)
        self.jobs = []
        for i in range(self.POOL):
            circuit = random_circuit(q, self.N_VERIFY, self.N_GATES, rng)
            sigma3 = rng.density_state(self.N_VERIFY)
            sigma4 = rng.density_state(self.N_AVERAGE)
            if i % 2:
                a, b = rng.bit_string(self.N_CLASSIFY), rng.bit_string(self.N_CLASSIFY)
                operator, witness = phase_pauli(a, b, rng.angle()), (a, b)
            else:
                operator, witness = rng.unitary(2 ** self.N_CLASSIFY), None
            self.jobs.append(SweepJob(circuit, sigma3, sigma4, operator, witness))

    def run(self, job: SweepJob):
        q = self.q
        report = q.verify_security(job.circuit, job.sigma3, TOL)
        average = q.average_over_keys(job.sigma4)
        verdict = q.classify_key_independent(job.operator)
        return report, average, verdict

    def check(self, job: SweepJob, out) -> tuple[bool, float]:
        report, average, verdict = out
        mixed = np.eye(2 ** self.N_AVERAGE) / 2 ** self.N_AVERAGE
        avg_dist = float(np.max(np.abs(average.matrix - mixed)))
        dist = max(report.worst_encrypt_distance, report.worst_evaluate_distance, avg_dist)
        if job.witness is None:
            verdict_ok = not verdict.key_independent
        else:
            verdict_ok = verdict.key_independent and tuple(verdict.witness[:2]) == job.witness
        return report.passed and avg_dist <= TOL and verdict_ok, dist


# --- cli_density_n5 -------------------------------------------------------

@dataclass(frozen=True)
class CliJob:
    index: int
    state_path: str
    circuit_path: str
    key_seed: int


def _read_density(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        doc = json.loads(fh.read())
    return np.array([[complex(re, im) for re, im in row] for row in doc["data"]])


class CliDensityN5:
    """In-process cli.main: keygen, encrypt, evaluate --emit-rewritten, decrypt, simulate."""

    N_QUBITS = 5
    N_GATES = 20
    POOL = 4

    def __init__(self, q, seed: int, workdir: str, memo: dict):
        self.q = q
        self.digests = memo
        rng = q.RandomSource(seed)
        self.jobs = []
        for i in range(self.POOL):
            sigma = rng.density_state(self.N_QUBITS)
            circuit = random_circuit(q, self.N_QUBITS, self.N_GATES, rng)
            state_path = os.path.join(workdir, f"state{i}.json")
            circuit_path = os.path.join(workdir, f"circuit{i}.json")
            data = [[[float(v.real), float(v.imag)] for v in row] for row in sigma.matrix]
            with open(state_path, "w") as fh:
                json.dump({"qubits": self.N_QUBITS, "kind": "density", "data": data}, fh)
            with open(circuit_path, "wb") as fh:
                fh.write(q.serialize_circuit(circuit))
            self.jobs.append(CliJob(i, state_path, circuit_path, rng.integer(0, 2 ** 31)))
        self.out = {name: os.path.join(workdir, f"{name}.json")
                    for name in ("key", "cipher", "evaluated", "rewritten", "plain", "reference")}

    def run(self, job: CliJob) -> list[int]:
        main, p = self.q.cli.main, self.out
        return [
            main(["keygen", "-n", str(self.N_QUBITS), "--seed", str(job.key_seed), "-o", p["key"]]),
            main(["encrypt", "--key", p["key"], "--in", job.state_path, "--out", p["cipher"]]),
            main(["evaluate", "--key", p["key"], "--circuit", job.circuit_path, "--in", p["cipher"],
                  "--out", p["evaluated"], "--emit-rewritten", p["rewritten"]]),
            main(["decrypt", "--key", p["key"], "--in", p["evaluated"], "--out", p["plain"]]),
            main(["simulate", "--circuit", job.circuit_path, "--in", job.state_path, "--out", p["reference"]]),
        ]

    def check(self, job: CliJob, codes: list[int]) -> tuple[bool, float]:
        if any(codes):
            return False, float("inf")
        dist = float(np.max(np.abs(_read_density(self.out["plain"]) - _read_density(self.out["reference"]))))
        # canonical-output contract: the same job gives the same bytes every time it runs
        digest = tuple(self._sha256(self.out[name]) for name in ("evaluated", "rewritten"))
        canonical = self.digests.setdefault(job.index, digest) == digest
        return dist <= TOL and canonical, dist

    @staticmethod
    def _sha256(path: str) -> str:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


WORKLOADS = {
    "eval_pure_n8": EvalPureN8,
    "security_sweep": SecuritySweep,
    "cli_density_n5": CliDensityN5,
}
