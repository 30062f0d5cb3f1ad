import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from accelbell.linalg import (
    density,
    mode_count,
    partial_trace,
    partial_transpose,
)
from accelbell.states import SIGMA_Z

from helpers import random_density


def bell_phi_plus():
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def trace_norm(matrix):
    """Trace norm of a Hermitian matrix: the sum of its absolute eigenvalues."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(matrix))))


def loop_partial_trace(rho, n, mode):
    """Index-by-index reference implementation (independent of reshape tricks)."""
    keep = [m for m in range(n) if m != mode - 1]
    d_out = 2 ** len(keep)
    out = np.zeros((d_out, d_out), dtype=complex)
    for i in range(2**n):
        for j in range(2**n):
            bits_i = [(i >> (n - 1 - m)) & 1 for m in range(n)]
            bits_j = [(j >> (n - 1 - m)) & 1 for m in range(n)]
            if bits_i[mode - 1] != bits_j[mode - 1]:
                continue
            row = sum(bits_i[m] << (len(keep) - 1 - k) for k, m in enumerate(keep))
            col = sum(bits_j[m] << (len(keep) - 1 - k) for k, m in enumerate(keep))
            out[row, col] += rho[i, j]
    return out


def test_mode_count():
    assert mode_count(2) == 1
    assert mode_count(16) == 4
    with pytest.raises(ValueError):
        mode_count(6)


def test_density_rejects_non_finite_ket():
    # checked before the outer product: under -W error its overflow or inf * 0 warning would escape as the error
    for ket in ([1.0, math.inf], [math.nan, 0.0], [complex(math.inf, 1.0), 0.0], [1e200, 0.0],
                [[1.0, 0.0], [0.0, math.inf]]):
        with pytest.raises(ValueError, match="non-finite entry or one of modulus above 1"):
            density(ket)
    assert np.array_equal(density([0.0, 1.0]), np.diag([0.0, 1.0]))


def test_partial_trace_bell_marginal():
    rho = density(bell_phi_plus())
    assert_allclose(partial_trace(rho, 2), np.eye(2) / 2.0, atol=1e-15)
    assert_allclose(partial_trace(rho, 1), np.eye(2) / 2.0, atol=1e-15)


def test_partial_trace_product_state():
    rho = density(np.array([1, 0, 0, 0], dtype=complex))
    assert_allclose(partial_trace(rho, 1), np.diag([1.0, 0.0]))


def test_partial_trace_factor_marginals(rng):
    a = random_density(rng, 1)
    b = random_density(rng, 1)
    assert_allclose(partial_trace(np.kron(a, b), 2), a, atol=1e-14)
    assert_allclose(partial_trace(np.kron(a, b), 1), b, atol=1e-14)


def test_partial_trace_against_loop_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 4))
        rho = random_density(rng, n)
        mode = int(rng.integers(1, n + 1))
        assert_allclose(partial_trace(rho, mode), loop_partial_trace(rho, n, mode), atol=1e-13)


def test_partial_trace_of_dilated_singlet():
    # dilation of the singlet on mode 2 at r = pi/4, hidden mode trailing:
    # (cos r|100> + sin r|111> - |010>)/sqrt(2)
    r = math.pi / 4.0
    psi = np.zeros(8, dtype=complex)
    psi[4] = math.cos(r) / math.sqrt(2.0)
    psi[7] = math.sin(r) / math.sqrt(2.0)
    psi[2] = -1.0 / math.sqrt(2.0)
    reduced = partial_trace(density(psi), 3)
    assert_allclose(np.linalg.eigvalsh(reduced), [0.0, 0.0, 0.25, 0.75], atol=1e-12)


def test_partial_trace_errors():
    rho = density(bell_phi_plus())
    with pytest.raises(ValueError):
        partial_trace(rho, 3)
    with pytest.raises(ValueError, match="cannot trace out the only mode"):
        partial_trace(np.eye(2, dtype=complex), 1)
    # both partial helpers read operators by the one shape rule: up to 16x16 and finite, complex arrays included
    for helper in (partial_trace, partial_transpose):
        with pytest.raises(ValueError, match="exceeds the supported maximum 16"):
            helper(np.eye(32), 2)
        with pytest.raises(ValueError, match="non-finite operator"):
            helper(np.diag([1.0, math.nan, 0.0, 0.0]).astype(complex), 1)
        with pytest.raises(ValueError, match="square matrix"):
            helper(np.ones((4, 2)), 1)


def test_partial_transpose_product_stays_psd(rng):
    rho = np.kron(random_density(rng, 1), random_density(rng, 1))
    for mode in (1, 2):
        evs = np.linalg.eigvalsh(partial_transpose(rho, mode))
        assert evs[0] >= -1e-12


def test_partial_transpose_bell_spectrum():
    pt = partial_transpose(density(bell_phi_plus()), 1)
    assert_allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution(rng):
    rho = random_density(rng, 3)
    assert np.array_equal(partial_transpose(partial_transpose(rho, 2), 2), rho)


def test_partial_transpose_preserves_trace_and_hermiticity(rng):
    rho = random_density(rng, 2)
    pt = partial_transpose(rho, 2)
    assert abs(np.trace(pt) - 1.0) < 1e-14
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-14


def test_trace_norm_values(rng):
    assert abs(trace_norm(random_density(rng, 2)) - 1.0) < 1e-12
    assert abs(trace_norm(SIGMA_Z) - 2.0) < 1e-14
    assert abs(trace_norm(partial_transpose(density(bell_phi_plus()), 1)) - 2.0) < 1e-12


def test_trace_norm_of_partial_transpose_at_least_one(rng):
    for _ in range(20):
        rho = random_density(rng, 2)
        assert trace_norm(partial_transpose(rho, 1)) >= 1.0 - 1e-12
    for _ in range(10):
        product = np.kron(random_density(rng, 1), random_density(rng, 1))
        assert abs(trace_norm(partial_transpose(product, 1)) - 1.0) < 1e-12

