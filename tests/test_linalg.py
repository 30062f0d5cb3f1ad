import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from accelbell.entanglement import negativity, pi_tangle
from accelbell.linalg import (
    HERMITICITY_ATOL,
    _state,
    density,
    mode_count,
    partial_trace,
    partial_transpose,
)
from accelbell.nonlocality import bell_upper, bell_value, correlation_tensor
from accelbell.optimize import grid_oracle, maximize_bell
from accelbell.states import SIGMA_X, SIGMA_Z
from accelbell.unruh import R_MAX, apply_channel

from helpers import random_density, random_state, random_unitary


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
    # checked before any square: under -W error its overflow or inf * 0 warning would escape as the error
    for ket in ([1.0, math.inf], [math.nan, 0.0], [complex(math.inf, 1.0), 0.0], [[1.0, 0.0], [0.0, math.inf]]):
        with pytest.raises(ValueError, match="non-finite ket"):
            density(ket)
    with pytest.raises(ValueError, match="^expected unit ket, got an entry of modulus 1e\\+200 above 1$"):
        density([1e200, 0.0])
    assert np.array_equal(density([0.0, 1.0]), np.diag([0.0, 1.0]))


def _near_unit_kets(seed, modes, stack, off):
    """Random kets (*stack, 2^modes) whose squared norms are 1 + off, up to rounding."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=stack + (2**modes,)) + 1j * rng.normal(size=stack + (2**modes,))
    return v * np.sqrt((1.0 + off) / np.einsum("...i,...i->...", v.conj(), v).real)[..., None]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), modes=st.integers(1, 4), stack=st.sampled_from([(), (0,), (3,), (2, 2)]),
       off=st.floats(-HERMITICITY_ATOL / 2.0, HERMITICITY_ATOL / 2.0))
def test_density_of_unit_kets_is_a_state(seed, modes, stack, off):
    # density returns its product unchecked: for every ket the unit-vector rule passes, _state passes the product
    rhos = density(_near_unit_kets(seed, modes, stack, off))
    assert rhos.shape == stack + (2**modes,) * 2
    assert _state(rhos)[1] == modes
    basis = np.eye(2**modes) * math.sqrt(1.0 + off)  # entries of modulus just above 1
    assert _state(density(basis))[0].shape == (2**modes,) * 3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), modes=st.integers(1, 4), stack=st.sampled_from([(), (3,), (2, 2)]),
       bad=st.sampled_from([math.nan, math.inf, -math.inf, complex(1.0, math.inf)]),
       excess=st.floats(2.0 * HERMITICITY_ATOL, 1e300), off=st.floats(2.0 * HERMITICITY_ATOL, 1.0))
def test_density_rejects_non_unit_kets(seed, modes, stack, bad, excess, off):
    for entry, message in ((bad, "^non-finite ket"), (1.0 + excess, "^expected unit ket, got an entry of modulus")):
        kets = _near_unit_kets(seed, modes, stack, 0.0)
        kets[..., seed % 2**modes] = entry  # in each ket of the stack; refused before any square, which could overflow
        with pytest.raises(ValueError, match=message):
            density(kets)
    for squared_norm in (1.0 - off, 1.0 + off):  # a longer ket may also have an entry of modulus above 1
        with pytest.raises(ValueError, match="^expected unit ket, got (shape .* and squared norm|an entry of modulus)"):
            density(_near_unit_kets(seed, modes, stack, squared_norm - 1.0))


def test_density_rejects_a_stack_naming_its_worst_ket():
    with pytest.raises(ValueError, match=r"^expected unit ket, got shape \(3, 2\) and squared norm 0.18$"):
        density([[1.0, 0.0], [0.6, 0.6], [0.3, 0.3]])


@pytest.mark.parametrize("dim", [1, 6, 32])
def test_density_rejects_kets_of_other_dimensions(dim):
    for kets in (np.eye(dim), np.eye(dim)[0]):  # unit kets, a stack and a lone one
        with pytest.raises(ValueError, match="one or more modes|not a power of two"):
            density(kets)


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


def test_state_check_rejects_and_names_the_worst_eigenvalue():
    # one eigensolve of the whole stack; the message names its smallest eigenvalue, here in the second state
    stack = np.stack([np.diag([1.2, -0.2, 0.0, 0.0]), np.diag([1.5, -0.5, 0.0, 0.0]), np.eye(4) / 4.0])
    message = r"^matrix is not positive semidefinite \(smallest eigenvalue -5\.000e-01 < -1e-10\)$"
    with pytest.raises(ValueError, match=message):
        negativity(stack, 1)


def state_calls(rho, modes):
    """Every state entry point whose mode count fits ``modes``, as calls on ``rho``."""
    calls = [lambda: apply_channel(rho, 1, 0.1)]
    if modes >= 2:
        calls.append(lambda: negativity(rho, 1))
    if modes in (2, 3):
        calls += [
            lambda: correlation_tensor(rho),
            lambda: bell_value(rho, np.tile([0.0, 0.0, 1.0], (2 * modes, 1))),
            lambda: bell_upper(rho),
            lambda: maximize_bell(rho, restarts=1),
            lambda: grid_oracle(rho, math.pi / 2.0),
        ]
    if modes == 3:
        calls.append(lambda: pi_tangle(rho))
    return calls


@st.composite
def non_positive_operators(draw):
    """U diag(lambda) U^dag on 1-3 modes: unit trace, Hermitian, one eigenvalue at -delta, delta in [1e-9, 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    d = 2 ** draw(st.integers(1, 3), label="modes")
    delta = draw(st.floats(1e-9, 1.0), label="delta")
    weights = rng.random(d - 1) + 0.1
    spectrum = np.concatenate([[-delta], weights / weights.sum() * (1.0 + delta)])
    u = random_unitary(rng, d)
    rho = (u * spectrum) @ u.conj().T
    return (rho + rho.conj().T) / 2.0


@settings(max_examples=40, deadline=None)
@given(rho=non_positive_operators())
@example(rho=np.diag([1.5, -0.5, 0.0, 0.0]))  # its negativity across mode 1 read 1.0, a Bell pair's
@example(rho=np.eye(8) / 8.0 + 2.0 * np.kron(np.kron(SIGMA_X, SIGMA_X), SIGMA_X))  # its unfolding bound read 64
def test_state_entry_points_reject_non_positive_operators(rho):
    # unit trace and Hermitian, so only the positivity check refuses it, at every state entry point
    modes = mode_count(len(rho))
    for call in state_calls(rho, modes):
        with pytest.raises(ValueError, match="positive semidefinite"):
            call()
    # an operator that is not a state is still an operator to the partial trace and transpose
    if modes >= 2:
        assert_allclose(np.trace(partial_trace(rho, 1)), 1.0, atol=1e-12)
    assert_allclose(np.trace(partial_transpose(rho, 1)), 1.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), modes=st.integers(1, 3), data=st.data())
def test_damped_pure_states_pass_every_state_entry_point(seed, modes, data):
    # rank one up to rounding, so the smallest eigenvalues sit near -1e-16, far inside the -1e-10 floor
    rng = np.random.default_rng(seed)
    mode = data.draw(st.integers(1, modes), label="mode")
    rho = apply_channel(density(random_state(rng, modes)), mode, data.draw(st.floats(0.0, R_MAX), label="r"))
    assert np.linalg.eigvalsh(rho)[0] > -1e-12
    for call in state_calls(rho, modes):
        call()
