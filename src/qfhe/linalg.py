"""Dense complex linear algebra for small n-qubit systems.

Conventions used everywhere in this package:
- qubit 0 is the most significant tensor factor (basis index bit),
- operators compose right-to-left, so ``X^a Z^b`` applies Z first,
- all angles are radians; the IR keeps them canonical in [0, 2*pi).

Everything here is double precision, and two operations do all the work:
the one gate kernel gathers a gate's wire axes in front by one transpose and
multiplies them by one gemm, never building a 2^n x 2^n operator, and the
one signed gather applies a Pauli mask X^a Z^b. The one apply loop runs a
statevector, a density matrix (U on the row half, U* on the column half) or
a stack of them, each operator shared or one per stack entry; row-only, it
takes ``analysis.verify_security``'s 4^n ciphertext factors by their twins.
It fuses each wire's run of one-qubit gates, Paulis multiplied in, into one
operator the next cnot on the wire absorbs, and each run of the Paulis left
into one frame i^k X^a Z^b for the gather. A one-qubit gate is a row-major
4-tuple of Python complex numbers, built in closed form; runs multiply in
Python scalars, so numpy sees one array per fused block. Its one checked
entry, ``circuits._apply``, checks a state once per run of pairs.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

TAU = 2.0 * math.pi

#: tolerance for construction-time state invariants (positivity: see _check_density)
ATOL_STATE = 1e-9
#: tolerance for identities between exact matrix products
ATOL_EXACT = 1e-12

_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]  # the identity with its last two rows swapped
#: each Pauli's 2x2 as row-major entries (a, b, c, d) by its exponents (x, z), the identity (0, 0) included
_PAULIS = {(0, 0): (1 + 0j, 0j, 0j, 1 + 0j), (1, 0): (0j, 1 + 0j, 1 + 0j, 0j),
           (1, 1): (0j, -1j, 1j, 0j), (0, 1): (1 + 0j, 0j, 0j, -1 + 0j)}
_H = (complex(1 / math.sqrt(2)),) * 3 + (complex(-1 / math.sqrt(2)),)  # [[1, 1], [1, -1]] / sqrt(2)


def canonical_angle(theta: float) -> float:
    """Reduce an angle to the canonical interval [0, 2*pi)."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    r = math.fmod(theta, TAU)
    if r < 0.0:
        r += TAU
    if r >= TAU or r == 0.0:  # fmod rounding can land exactly on 2*pi; -0.0 is 0.0
        r = 0.0
    return r


class _Keyed:
    """One-qubit operators, key k's the row-major entries[index[k]], index[k] = 2x + z of its bits on the wire."""
    __slots__ = ("entries", "index")

    def __init__(self, entries: tuple, index: np.ndarray):
        self.entries, self.index = entries, index


def _as_array(op):
    """A one-qubit operator's row-major entries (a, b, c, d) as its 2x2 array, keyed as a (K, 2, 2) stack."""
    if isinstance(op, _Keyed):
        return np.array(op.entries).take(op.index, axis=0).reshape(-1, 2, 2)
    return np.array(op).reshape(2, 2) if isinstance(op, tuple) else op


def _rz(theta: float) -> tuple:
    return cmath.exp(-0.5j * theta), 0j, 0j, cmath.exp(0.5j * theta)


def _ry(theta: float) -> tuple:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return complex(c), complex(-s), complex(s), complex(c)


def _u(alpha: float, beta: float, gamma: float, delta: float) -> tuple:
    """exp(i*alpha) * Rz(beta) * Ry(gamma) * Rz(delta) as row-major entries, built from raw angles.

    No canonicalization happens here: Rz/Ry are 4*pi-periodic in sign, and
    callers tracking global phase need the raw product. Each entry is built
    in closed form, e^(i*alpha) e^(-+i(beta +- delta)/2) times cos(gamma/2)
    or +-sin(gamma/2), from the half-angle phases of the raw beta and delta.
    """
    c, s = math.cos(gamma / 2), math.sin(gamma / 2)
    phase = cmath.exp(1j * alpha)
    half_beta, half_delta = cmath.exp(-0.5j * beta), cmath.exp(-0.5j * delta)
    plus = half_beta * half_delta  # e^(-i(beta+delta)/2)
    minus = half_beta * half_delta.conjugate()  # e^(-i(beta-delta)/2)
    return phase * plus * c, -phase * minus * s, phase * minus.conjugate() * s, phase * plus.conjugate() * c


class GateSpec(NamedTuple):
    """One gate kind: its wire and parameter fields, its matrix, its rewrite rule.

    ``build`` gives cnot's 4x4 array, a one-qubit kind's 2x2 as row-major
    entries (a, b, c, d). ``parity[i]`` holds the weights (x, z) of the wire's
    key bits whose parity negates parameter i when X^x Z^z moves past the gate.
    ``pauli`` holds the exponents (x, z) of a Pauli kind, i^(x*z) X^x Z^z, so
    y = i XZ: the apply loop fuses and folds Paulis by it, and ``rewrite._rule``
    reads a Pauli's sign weights from it. Kinds with no parity column have
    their own rule in ``rewrite._rule``: the Paulis are their own twins, h is
    rewritten as ``u``, and cnot gains corrections.
    """

    wires: tuple[str, ...]
    params: tuple[str, ...]
    build: Callable[..., tuple | np.ndarray]
    parity: tuple[tuple[int, int], ...] = ()
    pauli: tuple[int, int] | None = None


#: the gate vocabulary; its order is the order RandomSource.circuit draws kinds in
GATE_SPECS = {
    "x": GateSpec(("wire",), (), lambda: _PAULIS[1, 0], pauli=(1, 0)),
    "y": GateSpec(("wire",), (), lambda: _PAULIS[1, 1], pauli=(1, 1)),
    "z": GateSpec(("wire",), (), lambda: _PAULIS[0, 1], pauli=(0, 1)),
    "h": GateSpec(("wire",), (), lambda: _H),
    "rz": GateSpec(("wire",), ("theta",), _rz, ((1, 0),)),
    "ry": GateSpec(("wire",), ("theta",), _ry, ((1, 1),)),
    "u": GateSpec(("wire",), ("alpha", "beta", "gamma", "delta"), _u, ((0, 0), (1, 0), (1, 1), (1, 0))),
    "cnot": GateSpec(("control", "target"), (), _CNOT.copy),
}

def gate_matrix(kind: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Matrix of a named gate. Rz/Ry take one angle, u takes four, others none."""
    spec = GATE_SPECS.get(kind)
    if spec is None:
        raise ValueError(f"unknown gate kind {kind!r}")
    if len(params) != len(spec.params):
        raise ValueError(f"gate {kind!r} takes {len(spec.params)} parameter(s), got {len(params)}")
    return _as_array(spec.build(*params))


def _as_index(value, name: str) -> int:
    """value as an int; ValueError for bools, floats, strings and other non-integers."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _as_size(value, name: str, low: int) -> int:
    """value as an integer >= low, else ValueError."""
    if (size := _as_index(value, name)) < low:
        raise ValueError(f"{name} must be >= {low}, got {size}")
    return size


def _as_qubit_count(value) -> int:
    """value as a qubit count: an integer >= 1, else ValueError."""
    return _as_size(value, "n_qubits", 1)


def all_bit_strings(n: int):
    """All length-n bit strings in lexicographic order."""
    return [format(i, f"0{n}b") if n else "" for i in range(2 ** n)]


#: bound on the real and on the imaginary part (|z| itself can overflow) of each
#: entry under check: far above any valid entry, far below sqrt(float max) =
#: 1.3e154, so norms, traces and U^dagger U cannot overflow. NaN and inf fail it.
MAX_ENTRY_PART = 1e100


def _entries_bounded(arr: np.ndarray) -> bool:
    return bool((np.abs(arr.real) <= MAX_ENTRY_PART).all() and (np.abs(arr.imag) <= MAX_ENTRY_PART).all())


def _check_entries(arr: np.ndarray) -> None:
    if not _entries_bounded(arr):
        raise ValueError(f"entries must be finite, with real and imaginary parts at most {MAX_ENTRY_PART:g}")


def _check_traces(mat: np.ndarray) -> None:
    """ValueError unless the matrix, or each of a stack, has trace within ATOL_STATE of 1; a NaN trace passes."""
    tr = np.trace(mat, axis1=-2, axis2=-1).real
    tr = tr.reshape(-1)[np.argmax(np.abs(tr - 1.0))]
    if abs(tr - 1.0) > ATOL_STATE:
        raise ValueError(f"trace {tr} is not 1 within {ATOL_STATE}")


def _check_density(mat: np.ndarray) -> None:
    """DensityState's invariants on one matrix, or on each matrix of a (B, d, d) stack.

    M has no eigenvalue at or below -ATOL_STATE exactly when M + ATOL_STATE * I is positive
    definite, which one Cholesky factorization tests at a seventh of an eigensolve's cost.
    """
    _check_entries(mat)
    if np.max(np.abs(mat - mat.conj().swapaxes(-1, -2))) > ATOL_STATE:
        raise ValueError(f"matrix is not Hermitian within {ATOL_STATE}")
    _check_traces(mat)
    try:
        np.linalg.cholesky(mat + ATOL_STATE * np.eye(mat.shape[-1]))
    except np.linalg.LinAlgError:
        raise ValueError(f"matrix has eigenvalues below -{ATOL_STATE}") from None


@dataclass(frozen=True)
class PureState:
    """Normalized n-qubit statevector."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = _as_qubit_count(self.n_qubits)
        vec = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if vec.shape[0] != 2 ** n:
            raise ValueError(f"expected {2 ** n} amplitudes for {n} qubits, got {vec.shape[0]}")
        _check_entries(vec)
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > ATOL_STATE:
            raise ValueError(f"statevector norm {norm} is not 1 within {ATOL_STATE}")
        vec.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", vec)

    @classmethod
    def basis(cls, n_qubits: int, index: int = 0) -> "PureState":
        dim = 2 ** _as_qubit_count(n_qubits)
        index = _as_index(index, "index")
        if not 0 <= index < dim:
            raise ValueError(f"index must be in [0, {dim}), got {index}")
        vec = np.zeros(dim, dtype=complex)
        vec[index] = 1.0
        return cls(n_qubits, vec)

    def to_density(self) -> "DensityState":
        return DensityState(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityState:
    """n-qubit density matrix: Hermitian, unit trace, positive semidefinite."""

    n_qubits: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = _as_qubit_count(self.n_qubits)
        mat = np.array(self.matrix, dtype=complex)
        dim = 2 ** n
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        _check_density(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "matrix", mat)


def _check_unitary(mat: np.ndarray) -> None:
    """ValueError unless the complex array is a square matrix with U^dagger U = I within ATOL_STATE."""
    square = mat.ndim == 2 and mat.shape[0] == mat.shape[1] and _entries_bounded(mat)
    if not (square and np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))) <= ATOL_STATE):
        # the literal: f"{ATOL_STATE}" renders 1e-09
        raise ValueError("matrix is not unitary within 1e-9")


@functools.lru_cache(maxsize=1024)  # bounded: one entry per wire set, size and stack shape that runs meet
def _plan(axes: tuple[int, ...], m: int, lead: tuple[int, ...]) -> tuple:
    """How ``_apply_on_axes`` gathers the axes: (shape, perm, back, gemm shape).

    The state is reshaped to shape, transposed by perm so that the axes come
    first, multiplied on the gemm shape and transposed back by back. Axes
    that stay next to each other in the permuted order form one block, so
    contiguous axes take one transpose of at most three blocks; the gathered
    entries keep their order, so gemm sees the same operand.
    """
    runs: list[list[int]] = []  # the permuted axes, cut where the next one is not the following axis
    for a in [*axes, *(a for a in range(m) if a not in axes)]:
        if runs and runs[-1][-1] + 1 == a:
            runs[-1].append(a)
        else:
            runs.append([a])
    blocks = sorted(runs)
    skip = len(lead)  # the stack axes stay in front
    perm = (*range(skip), *(blocks.index(r) + skip for r in runs))
    back = (*range(skip), *(runs.index(r) + skip for r in blocks))
    return lead + tuple(1 << len(r) for r in blocks), perm, back, lead + (1 << len(axes), -1)


def _apply_on_axes(op: np.ndarray, axes: tuple[int, ...], flat: np.ndarray, m: int) -> np.ndarray:
    """Apply a 2^k x 2^k operator to the given axes of the (2,)*m view of flat.

    flat holds 2^m entries, optionally after one leading axis of B entries (a
    stack of rows); op is either shared, (2^k, 2^k), or one per stack entry,
    (B, 2^k, 2^k). Axis axes[i] carries the operator's i-th tensor factor.
    Returns a new C-contiguous array of flat's shape. The one kernel: the
    axes are gathered in front by one transpose, multiplied in one gemm per
    stack entry and scattered back, with the plan cached per (axes, m, stack
    shape) by ``_plan``.
    """
    shape, perm, back, gemm_shape = _plan(axes, m, flat.shape[:-1])
    gathered = flat.reshape(shape).transpose(perm)
    out = (op @ gathered.reshape(gemm_shape)).reshape(gathered.shape)
    return out.transpose(back).reshape(flat.shape)


# --- Pauli masks -----------------------------------------------------------
#
# Column i of X^a Z^b holds S[b, i] = (-1)^popcount(b & i) in row i ^ a, with
# a and b read as m-bit integers, qubit 0 the most significant bit. So every
# Pauli mask is a signed permutation: applying one is a gather and a sign
# row, exact, and no Pauli matrix is built.

#: i^k for k = 0..3
_I_POWERS = (1, 1j, -1, -1j)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, flagged read-only: the form in which a cache shares an array."""
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=None)
def _indices(m: int) -> np.ndarray:
    """arange(2^m), read-only: the index row every signed gather shifts by its mask."""
    return _read_only(np.arange(1 << m))


@functools.lru_cache(maxsize=None)
def _parity_signs(m: int) -> np.ndarray:
    """(-1)^popcount(v) for v < 2^m as complex, the m-th Kronecker power of (1, -1); read-only.

    S[b, i] is _parity_signs(m)[b & i]: 2^m entries serve the whole 4^m
    table. Complex, so a gather multiplies by it with no cast; at 16 B per
    entry the cached row is as large as the statevector it serves.
    """
    return _read_only(functools.reduce(np.kron, [(1.0, -1.0)] * m, np.ones(1)).astype(complex))


def _signed_gather(flat: np.ndarray, a, b, m: int) -> np.ndarray:
    """X^a Z^b on the last axis of a row or of a (B, 2^m) stack: out[..., i] = S[b, i ^ a] flat[..., i ^ a].

    a and b are ints, one mask on the row or on every row of the stack, or (K, 1)
    columns, K masks on one shared row. Returns a new C-contiguous array, exact.
    """
    rows = _indices(m) ^ a
    signs = _parity_signs(m)[rows & b]
    if flat.ndim == 1:
        return flat[rows] * signs
    return flat.take(rows, axis=-1) * signs  # one mask for the whole stack


def _pauli_conjugates(mat: np.ndarray, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """X^a Z^b M (X^a Z^b)^dagger of one matrix for each key (a[k], b[k]), as a C-contiguous (K, 2^n, 2^n) stack.

    Entry (r, c) is S[b, r] S[b, c] M[r ^ a, c ^ a]: read as a 2n-qubit row,
    M takes the mask on both halves, X^(a(2^n+1)) Z^(b(2^n+1)), one signed
    gather of K masks on the shared row, so exact. The inverse mask
    Z^b X^a = +-X^a Z^b gives the same stack.
    """
    lift = (1 << n) + 1
    return _signed_gather(mat.reshape(-1), a[:, None] * lift, b[:, None] * lift, 2 * n).reshape(-1, 1 << n, 1 << n)


def _compose(frame: tuple[int, int, int], pauli: tuple[int, int], wire: int, n: int) -> tuple[int, int, int]:
    """The frame (k, a, b) = i^k X^a Z^b, then the Pauli i^(x*z) X^x Z^z on wire, as one frame.

    Moving the new Z past X^a drops (-1)^popcount(z' & a), z' its bit mask.
    """
    k, a, b = frame
    x, z = pauli
    bit = 1 << (n - 1 - wire)
    flip = 2 if z and a & bit else 0
    return (k + x * z + flip) % 4, a ^ bit if x else a, b ^ bit if z else b


def _apply_frame(flat: np.ndarray, frame: tuple[int, int, int], lift: int, m: int, columns: bool) -> np.ndarray:
    """The frame i^k X^a Z^b as one signed gather of its mask times lift.

    Without the column pass lift is the column count and i^k is kept. With it
    lift is 2^n + 1: both halves of a density row take the mask; i^k cancels.
    """
    k, a, b = frame
    out = _signed_gather(flat, a * lift, b * lift, m)
    return out * _I_POWERS[k] if k and not columns else out


def _kron(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """l (x) r, per entry when either is a (K, d, d) stack."""
    out = l[..., :, None, :, None] * r[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], out.shape[-4] * out.shape[-3], -1)


#: l (x) r = l's entries at _KRON_LEFT times r's at _KRON_RIGHT, 8 row-major entries l's first: ``_kron``'s products
_KRON_LEFT, _KRON_RIGHT = _read_only(np.array([np.kron(np.arange(4).reshape(2, 2), np.ones((2, 2), int)),
                                               np.kron(np.ones((2, 2), int), np.arange(4, 8).reshape(2, 2))]))


def _mul(l: tuple, r: tuple) -> tuple:
    """l r of two one-qubit operators given as row-major entries, in Python complex arithmetic."""
    a, b, c, d = l
    e, f, g, h = r
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _fuse(ops):
    """The (operator, wires) pairs with each wire's run of one-qubit operators multiplied into one.

    A Pauli (x, z) joins a run pending on its wire as its 2x2, or else passes
    through. A k-qubit operator takes its wires' runs as op @ (run_0 (x) ...
    (x) run_k-1), the identity for a wire with none; the runs left come last,
    in wire order. Runs of entries multiply by ``_mul``, keyed ones on their
    four entries, and become arrays only when absorbed or yielded; a product
    with an array is numpy's, so it broadcasts over (K, d, d) stacks. A cnot
    takes two runs of entries as one array of their 8, two fixed gathers and one product.
    """
    pend = {}
    for op, wires in ops:
        pauli = isinstance(op, tuple) and len(op) == 2  # exponents: a 2x2 array has len 2 too
        if pauli and wires[0] not in pend:
            yield op, wires
        elif len(wires) == 1:
            op, run = _PAULIS[op] if pauli else op, pend.get(wires[0])
            if run is not None:
                if isinstance(op, tuple) and isinstance(run, tuple):
                    op = _mul(op, run)
                elif isinstance(op, np.ndarray) or isinstance(run, np.ndarray):
                    op = _as_array(op) @ _as_array(run)
                else:  # keyed: entry by entry, a shared side in each entry, under the wire's one index
                    ls, rs = (o.entries if isinstance(o, _Keyed) else (o,) * 4 for o in (op, run))
                    op = _Keyed(tuple(map(_mul, ls, rs)), (op if isinstance(op, _Keyed) else run).index)
            pend[wires[0]] = op
        else:
            if not pend.keys().isdisjoint(wires):
                runs = [pend.pop(w, _PAULIS[0, 0]) for w in wires]
                if len(runs) == 2 and type(runs[0]) is type(runs[1]) is tuple:  # 8 entries, one product
                    entries = np.array(runs[0] + runs[1])
                    op = op @ (entries[_KRON_LEFT] * entries[_KRON_RIGHT])
                else:
                    op = op @ functools.reduce(_kron, map(_as_array, runs))
            yield op, wires
    yield from ((_as_array(pend[w]), (w,)) for w in sorted(pend))


def _key_table(twins) -> tuple | np.ndarray:
    """The key stack's table of a gate's four twins, lists of (operator, wires) pairs, key bits (x, z) at row 2x + z.

    One Pauli's exponents if it is every twin, shared by every key; else the one-qubit twins' entries, a Pauli's
    as in ``_PAULIS``, four to a tuple; else each two-qubit twin folded by ``_fuse``, one read-only (4, 4, 4) array.
    """
    if len(twins[0][-1][1]) == 1:  # a one-qubit gate's twin is one pair
        ops = [op for ((op, _),) in twins]
        if len(ops[0]) == 2 and ops.count(ops[0]) == 4:
            return ops[0]
        return tuple(_PAULIS[op] if len(op) == 2 else op for op in ops)
    folds = [next(_fuse((_as_array(_PAULIS[op]) if isinstance(op, tuple) else op, w) for op, w in twin))
             for twin in twins]
    return _read_only(np.array([op for op, _ in folds]))


def _run(arr: np.ndarray, n: int, ops, columns: bool) -> np.ndarray:
    """Apply (operator, wires) pairs in order to a raw (lead..., 2^n, cols) array, unchecked: the one apply loop.

    The loop keeps one flat view, each (2^n, cols) matrix a row, and U acts
    on its row axes. With the column pass U* acts on the column axes too: a
    density matrix or a stack of them. Without it arr is a statevector as one
    column, a state's factor or ``analysis``'s stack of every key's factor,
    with a power of two columns. Each pair is trusted: a complex 2^k x 2^k
    operator on k distinct in-range wires, shared or one per stack entry as
    in ``_apply_on_axes``, a one-qubit operator as its row-major entries as
    in ``GateSpec.build`` or ``_Keyed``, or a Pauli on one wire by its
    exponents as in ``GateSpec.pauli``.
    The pairs run fused by ``_fuse``: one operator per wire's run, a Pauli
    multiplied into a run pending on its wire. Each run of the Paulis left
    is one frame i^k X^a Z^b, one signed gather shared by a whole stack.
    """
    flat = arr.reshape(arr.shape[:-2] + (-1,))  # a 1-D statevector is one column
    m = flat.shape[-1].bit_length() - 1
    lift = (1 << (m - n)) + 1 if columns else 1 << (m - n)  # the column count, + 1 to mask the column bits too
    frame = (0, 0, 0)  # i^0 X^0 Z^0
    for op, wires in _fuse(ops):
        if isinstance(op, tuple):
            frame = _compose(frame, op, wires[0], n)
            continue
        if any(frame):
            flat, frame = _apply_frame(flat, frame, lift, m, columns), (0, 0, 0)
        flat = _apply_on_axes(op, wires, flat, m)
        if columns:
            flat = _apply_on_axes(op.conj(), tuple(n + w for w in wires), flat, m)
    if any(frame):
        flat = _apply_frame(flat, frame, lift, m, columns)
    return flat.reshape(arr.shape)


def _require(value, *types: type) -> None:
    """TypeError, naming the types, unless value is an instance of one: the one argument-type check."""
    if not isinstance(value, types):
        raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {type(value).__name__}")


def trace_distance(rho: DensityState, sigma: DensityState) -> float:
    """(1/2) * sum |eigenvalues(rho - sigma)|."""
    _require(rho, DensityState)
    _require(sigma, DensityState)
    if rho.n_qubits != sigma.n_qubits:
        raise ValueError(f"qubit counts differ: {rho.n_qubits} vs {sigma.n_qubits}")
    return float(_trace_distances(rho.matrix, sigma.matrix))


def _trace_distances(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(1/2) * sum |eigenvalues(rho - sigma)| of two matrices, or per entry of two stacks."""
    eigs = np.linalg.eigvalsh(rho - sigma)
    return 0.5 * np.sum(np.abs(eigs), axis=-1)


def maximally_mixed(n_qubits: int) -> DensityState:
    """The totally mixed state I / 2^n."""
    n_qubits = _as_qubit_count(n_qubits)
    dim = 2 ** n_qubits
    return DensityState(n_qubits, np.eye(dim, dtype=complex) / dim)
