import math

import numpy as np
import pytest

from qfhe import PureState, QotpKey, decrypt, encrypt, keygen, trace_distance
from qfhe.linalg import gate_matrix
from qfhe.qotp import VARIANT_HY, _mask
from qfhe.rng import RandomSource

from oracles import all_keys


def test_keygen_deterministic():
    assert keygen(1, RandomSource(42)) == keygen(1, RandomSource(42))
    assert keygen(4, RandomSource(7)) != keygen(4, RandomSource(8))


def test_keygen_lengths():
    key = keygen(3, RandomSource(0))
    assert len(key.x_bits) == 3 and len(key.z_bits) == 3


def test_keygen_rejects_zero_qubits():
    with pytest.raises(ValueError):
        keygen(0, RandomSource(0))


def test_keygen_bit_frequency():
    rng = RandomSource(123)
    counts = np.zeros(6)
    trials = 10_000
    for _ in range(trials):
        key = keygen(3, rng)
        counts += [int(b) for b in key.x_bits + key.z_bits]
    freqs = counts / trials
    assert np.all((freqs >= 0.47) & (freqs <= 0.53))


def test_key_validation():
    with pytest.raises(ValueError):
        QotpKey(2, "01", "0", "xz")
    with pytest.raises(ValueError):
        QotpKey(2, "02", "01", "xz")
    with pytest.raises(ValueError):
        QotpKey(2, "01", "01", "yz")


@pytest.mark.parametrize("bits", [["01", "0"], ("0", "1"), [0, 1], b"01"], ids=["strings", "tuple", "ints", "bytes"])
def test_key_bits_must_be_strings(bits):
    # ["01", "0"] passes a per-item check, and "01" would read as 0 in the mask but 1 in rewrite_gate
    with pytest.raises(ValueError, match="x_bits must be a 2-bit string"):
        QotpKey(2, bits, "00")
    with pytest.raises(ValueError, match="z_bits must be a 2-bit string"):
        QotpKey(2, "00", bits)


def test_identity_key_is_noop():
    sigma = RandomSource(1).density_state(2)
    key = QotpKey(2, "00", "00")
    assert trace_distance(encrypt(key, sigma), sigma) <= 1e-12


def test_encrypt_flips_basis_state():
    key = QotpKey(1, "1", "0")
    out = encrypt(key, PureState.basis(1, 0))
    assert np.allclose(out.amplitudes, [0, 1])
    back = decrypt(key, PureState.basis(1, 1))
    assert np.allclose(back.amplitudes, [0, 1][::-1])


def test_z_key_maps_plus_to_minus():
    plus = PureState(1, np.array([1, 1]) / math.sqrt(2)).to_density()
    minus = PureState(1, np.array([1, -1]) / math.sqrt(2)).to_density()
    out = encrypt(QotpKey(1, "0", "1"), plus)
    assert trace_distance(out, minus) <= 1e-12


def test_round_trip_random():
    rng = RandomSource(99)
    for _ in range(200):
        n = 1 + rng.integer(0, 4)
        key = keygen(n, rng)
        sigma = rng.density_state(n) if rng.integer(0, 2) else rng.pure_state(n).to_density()
        assert trace_distance(decrypt(key, encrypt(key, sigma)), sigma) <= 1e-12


def test_round_trip_pure_is_exact_inverse():
    # Z^b X^a is the exact matrix inverse of X^a Z^b, no phase residue
    rng = RandomSource(3)
    for _ in range(50):
        n = 1 + rng.integer(0, 3)
        key = keygen(n, rng)
        psi = rng.pure_state(n)
        back = decrypt(key, encrypt(key, psi))
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-12


def test_hy_variant_round_trip():
    rng = RandomSource(21)
    for _ in range(50):
        n = 1 + rng.integer(0, 3)
        key = keygen(n, rng, VARIANT_HY)
        sigma = rng.density_state(n)
        assert trace_distance(decrypt(key, encrypt(key, sigma)), sigma) <= 1e-12


def test_encryption_preserves_spectrum():
    rng = RandomSource(17)
    for _ in range(30):
        n = 1 + rng.integer(0, 3)
        sigma = rng.density_state(n)
        cipher = encrypt(keygen(n, rng), sigma)
        assert abs(np.trace(cipher.matrix) - 1.0) <= 1e-9
        assert np.allclose(
            np.linalg.eigvalsh(cipher.matrix), np.linalg.eigvalsh(sigma.matrix), atol=1e-9
        )


def test_wrong_key_still_yields_valid_state():
    cipher = encrypt(QotpKey(1, "1", "1"), PureState.basis(1, 0).to_density())
    wrong = decrypt(QotpKey(1, "0", "1"), cipher)
    assert abs(np.trace(wrong.matrix) - 1.0) <= 1e-9  # a state, just not the plaintext


def test_size_mismatch_rejected():
    key = keygen(2, RandomSource(0))
    with pytest.raises(ValueError, match=r"^key is for 2 qubit\(s\), state has 1$"):
        encrypt(key, PureState.basis(1, 0))
    with pytest.raises(ValueError, match=r"^key is for 2 qubit\(s\), state has 3$"):
        decrypt(key, PureState.basis(3, 0))


def test_all_keys_enumeration():
    keys = all_keys(2)
    assert len(keys) == 16
    assert len(set(keys)) == 16


def test_mask_is_each_wires_z_bit_gate_then_its_x_bit_gate():
    # the apply loop's pairs: a Pauli as its exponents (x, z), h as its row-major entries
    h = tuple(gate_matrix("h").reshape(-1).tolist())
    for variant, ops in (("xz", ((0, 1), (1, 0))), (VARIANT_HY, ((1, 1), h))):
        key = QotpKey(3, "101", "110", variant)
        assert _mask(key, None) == [(ops[0], (0,)), (ops[1], (0,)), (ops[0], (1,)), (ops[1], (2,))]
