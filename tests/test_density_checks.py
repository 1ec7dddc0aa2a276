"""The density check's positivity test against a full eigensolve, and RandomSource's mixed states.

``linalg._check_density`` decides lambda_min >= -ATOL_STATE by one Cholesky
factorization of M + ATOL_STATE * I; ``oracles.min_eigenvalue`` finds
lambda_min itself. RandomSource checks every size argument before it draws.
"""
import re

import numpy as np
import pytest

from qfhe import DensityState
from qfhe.linalg import ATOL_STATE, _check_density
from qfhe.rng import RandomSource

from oracles import min_eigenvalue

NEGATIVE = re.escape("matrix has eigenvalues below -1e-09")
#: matrices whose lambda_min lies this close to -ATOL_STATE are left out of the
#: differential check: there the verdict turns on rounding of either method
MARGIN = 1e-12


def with_spectrum(eigenvalues, rng: RandomSource) -> np.ndarray:
    """A Hermitian matrix with the given eigenvalues in a random eigenbasis."""
    q = rng.unitary(len(eigenvalues))
    mat = (q * eigenvalues) @ q.conj().T
    return (mat + mat.conj().T) / 2


def spectrum(dim: int, lowest: float, zeros: int, gen: np.random.Generator) -> np.ndarray:
    """lowest, then zeros zero eigenvalues, then positive ones: dim values summing to 1."""
    rest = dim - 1 - zeros
    return np.concatenate([[lowest], np.zeros(zeros), (1 - lowest) * gen.dirichlet(np.ones(rest))])


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
def test_positivity_is_decided_at_minus_atol_state(n, factor, accepted):
    rng = RandomSource(n)
    lowest = -factor * ATOL_STATE
    mat = with_spectrum(spectrum(2 ** n, lowest, 0, np.random.default_rng(n)), rng)
    assert abs(min_eigenvalue(mat) - lowest) < MARGIN
    if accepted:
        assert np.array_equal(DensityState(n, mat).matrix, mat)
    else:
        with pytest.raises(ValueError, match=f"^{NEGATIVE}$"):
            DensityState(n, mat)


def test_a_stack_is_rejected_for_its_last_matrix():
    rng = RandomSource(11)
    stack = np.array([rng.density_state(3).matrix for _ in range(63)]
                     + [with_spectrum(spectrum(8, -1.01 * ATOL_STATE, 0, np.random.default_rng(11)), rng)])
    assert stack.shape == (64, 8, 8)
    _check_density(stack[:63])
    with pytest.raises(ValueError, match=f"^{NEGATIVE}$"):
        _check_density(stack)


@pytest.mark.parametrize("n", range(1, 8))
def test_pure_states_are_accepted_as_density_matrices(n):
    rng = RandomSource(100 + n)
    for _ in range(3):
        rho = rng.pure_state(n).to_density()
        assert min_eigenvalue(rho.matrix) >= -ATOL_STATE


@pytest.mark.parametrize("n", range(1, 5))
def test_density_state_of_every_rank_is_accepted_with_that_rank(n):
    rng = RandomSource(200 + n)
    for rank in range(1, 2 ** n + 1):
        eigenvalues = np.linalg.eigvalsh(rng.density_state(n, rank).matrix)
        assert eigenvalues[0] >= -ATOL_STATE
        assert np.count_nonzero(eigenvalues > 1e-12) == rank


def test_cholesky_verdict_equals_the_eigensolve_on_random_matrices():
    gen = np.random.default_rng(2025)
    rng = RandomSource(2025)
    compared = rejected = 0
    for i in range(2100):
        dim = 2 ** (1 + i % 5)
        if i % 3 == 0:  # within half a tolerance of the threshold
            lowest = -ATOL_STATE * gen.uniform(0.5, 1.5)
        elif i % 3 == 1:  # anywhere from clearly negative to clearly positive
            lowest = ATOL_STATE * gen.uniform(-10, 10)
        else:  # near the threshold beside a run of exact zeros, as in a low-rank state
            lowest = -ATOL_STATE * gen.uniform(0.9, 1.1)
        zeros = int(gen.integers(0, dim - 1)) if i % 3 == 2 else 0
        mat = with_spectrum(spectrum(dim, lowest, zeros, gen), rng)
        want = min_eigenvalue(mat)
        if abs(want + ATOL_STATE) < MARGIN:
            continue
        compared += 1
        try:
            _check_density(mat)
            got = True
        except ValueError as exc:
            assert str(exc) == "matrix has eigenvalues below -1e-09"
            got = False
        assert got == (want >= -ATOL_STATE), (i, want)
        rejected += not got
    assert compared >= 2000
    assert 0.25 * compared < rejected < 0.75 * compared


@pytest.mark.parametrize("n, rank", [(1, 0), (1, -1), (1, 3), (2, 0), (2, 5), (2, 100)])
def test_density_state_rejects_a_rank_outside_one_to_dim(n, rank):
    with pytest.raises(ValueError, match=rf"^rank must be in \[1, {2 ** n}\], got {rank}$"):
        RandomSource(0).density_state(n, rank)


def test_a_rejected_rank_draws_nothing():
    rng = RandomSource(5)
    with pytest.raises(ValueError, match="rank must be in"):
        rng.density_state(2, 0)
    assert np.array_equal(rng.density_state(2, 3).matrix, RandomSource(5).density_state(2, 3).matrix)


@pytest.mark.parametrize("call, message", [
    (lambda rng: rng.circuit(0, 3), "n_qubits must be >= 1, got 0"),
    (lambda rng: rng.circuit(2, -1), "n_gates must be >= 0, got -1"),
    (lambda rng: rng.circuit(2, 1.0), "n_gates must be an integer, got 1.0"),
    (lambda rng: rng.angles(-2), "count must be >= 0, got -2"),
    (lambda rng: rng.unitary(0), "dim must be >= 1, got 0"),
    (lambda rng: rng.bit_string(-1), "n must be >= 0, got -1"),
], ids=["circuit_n_qubits", "circuit_n_gates", "circuit_float", "angles", "unitary", "bit_string"])
def test_size_arguments_are_checked_before_any_draw(call, message):
    rng = RandomSource(6)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(rng)
    fresh = RandomSource(6)
    assert rng.circuit(2, 5) == fresh.circuit(2, 5)
    assert rng.bit_string(0) == fresh.bit_string(0) == "" and rng.angles(0) == []
    assert np.array_equal(rng.unitary(2), fresh.unitary(2))


@pytest.mark.parametrize("n, rank", [(1, 1), (2, 3), (3, None)])
def test_density_state_draws_dirichlet_weights_then_the_pure_states(n, rank):
    seed = 17
    dim = 2 ** n
    gen = np.random.default_rng(seed)
    want = np.zeros((dim, dim), dtype=complex)
    for p in gen.dirichlet(np.ones(dim if rank is None else rank)):
        vec = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        vec /= np.linalg.norm(vec)
        want += p * np.outer(vec, vec.conj())
    assert np.array_equal(RandomSource(seed).density_state(n, rank).matrix, want)
