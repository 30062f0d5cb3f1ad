import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelbell.entanglement import negativity, pi_tangle
from accelbell.linalg import density, partial_trace
from accelbell.states import gghz, maximal_slice, singlet
from accelbell.unruh import R_MAX, apply_channel

from helpers import random_density, random_unitary

R_GRID = (0.0, math.pi / 16.0, math.pi / 8.0, 3.0 * math.pi / 16.0, math.pi / 4.0 - 0.01)


def bell_phi_plus():
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def test_negativity_bell_pair():
    assert abs(negativity(density(bell_phi_plus()), 1) - 1.0) < 1e-12
    assert abs(negativity(density(singlet()), 2) - 1.0) < 1e-12


def test_negativity_product_states(rng):
    rho = np.kron(random_density(rng, 1), random_density(rng, 1))
    assert negativity(rho, 1) < 1e-12


def test_negativity_ghz_one_vs_rest():
    rho = density(gghz(math.pi / 4.0))
    for pivot in (1, 2, 3):
        assert abs(negativity(rho, pivot) - 1.0) < 1e-12


def test_negativity_ghz_pairwise_zero():
    rho = density(gghz(math.pi / 4.0))
    for traced in (1, 2, 3):
        assert negativity(partial_trace(rho, traced), 1) < 1e-12


def test_negativity_pair_label_reduces_first():
    # maximal_slice(0) = Bell pair on modes 1,2 times |0>
    rho = density(maximal_slice(0.0))
    assert abs(negativity(partial_trace(rho, 3), 1) - 1.0) < 1e-12  # pair (1, 2)
    assert negativity(partial_trace(rho, 2), 1) < 1e-12  # pair (1, 3)
    assert abs(negativity(partial_trace(rho, 3), 2) - 1.0) < 1e-12  # pair (1, 2), transposing mode 2


def test_negativity_local_unitary_invariant(rng):
    rho = density(gghz(0.6))
    base = negativity(rho, 1)
    for _ in range(5):
        u = np.kron(random_unitary(rng, 2), np.eye(4))
        rotated = u @ rho @ u.conj().T
        assert abs(negativity(rotated, 1) - base) < 1e-11


def test_negativity_rejects_bad_labels():
    rho = density(gghz(0.3))
    for mode in (0, 4):
        with pytest.raises(ValueError, match="expected an integer in 1..3"):
            negativity(rho, mode)
    # a pair of modes is not a mode: reduce to the pair with partial_trace first
    with pytest.raises(ValueError, match="expected an integer"):
        negativity(rho, (1, 2))
    # a single mode has no bipartition mode | rest, as it has no mode left to trace out
    with pytest.raises(ValueError, match="no bipartition"):
        negativity(np.eye(2) / 2.0, 1)


def test_pi_tangle_product_zero():
    assert abs(pi_tangle(density(gghz(0.0))).pi) < 1e-10


def test_pi_tangle_ghz_one():
    assert abs(pi_tangle(density(gghz(math.pi / 4.0))).pi - 1.0) < 1e-10


def test_pi_tangle_gghz_closed_form():
    # pure family: one-vs-rest negativity sin(2 t1), pairwise reductions separable
    for t1 in np.linspace(0.0, math.pi / 4.0, 9):
        got = pi_tangle(density(gghz(float(t1))))
        assert abs(got.pi - math.sin(2.0 * t1) ** 2) < 1e-10
        assert max(abs(c - got.pi) for c in (got.pi_1, got.pi_2, got.pi_3)) < 1e-10


def test_pi_tangle_needs_three_modes():
    with pytest.raises(ValueError):
        pi_tangle(density(singlet()))


def test_measures_reject_stacks():
    # a stack is read as states, so it is refused only where one of its states would be: one-mode states have no
    # cut mode | rest, and pi_tangle takes three modes
    with pytest.raises(ValueError, match="no bipartition"):
        negativity(np.stack([np.eye(2) / 2.0] * 3), 1)
    with pytest.raises(ValueError, match="3-mode state, got shape \\(2, 4, 4\\)"):
        pi_tangle(np.stack([density(singlet())] * 2))


def test_pi_tangle_fully_product(rng):
    rho = functools.reduce(np.kron, (random_density(rng, 1) for _ in range(3)))
    assert abs(pi_tangle(rho).pi) < 1e-10


def test_damped_gghz_tangle_increasing_in_theta1():
    thetas = np.linspace(math.pi / 40.0, math.pi / 4.0, 10)
    for r in R_GRID:
        vals = [pi_tangle(apply_channel(density(gghz(float(t))), 3, r)).pi for t in thetas]
        assert all(b - a > 1e-12 for a, b in zip(vals, vals[1:])), f"not increasing at r={r}"


def test_damped_ms_tangle_increasing_in_theta3():
    thetas = np.linspace(math.pi / 40.0, math.pi / 2.0, 10)
    for r in R_GRID:
        vals = [pi_tangle(apply_channel(density(maximal_slice(float(t))), 2, r)).pi for t in thetas]
        assert all(b - a > 1e-12 for a, b in zip(vals, vals[1:])), f"not increasing at r={r}"


def test_damped_ghz_tangle_non_increasing_in_r():
    rho = density(gghz(math.pi / 4.0))
    vals = [pi_tangle(apply_channel(rho, 3, float(r))).pi for r in np.linspace(0.0, R_MAX, 10)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_pair_negativity_symmetric_in_label(rng):
    for _ in range(20):
        rho = random_density(rng, 3, int(rng.integers(1, 9)))
        for traced in (1, 2, 3):
            pair = partial_trace(rho, traced)
            assert abs(negativity(pair, 1) - negativity(pair, 2)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 8), mode=st.integers(1, 3), r=st.floats(0.0, R_MAX))
def test_pi_tangle_matches_nine_negativity_formula(seed, rank, mode, r):
    # the reference transposes mode 2 of each pair reduction, pi_tangle mode 1
    rho = apply_channel(random_density(np.random.default_rng(seed), 3, rank), mode, r)
    got = pi_tangle(rho)
    explicit = [
        negativity(rho, m) ** 2 - sum(negativity(partial_trace(rho, 6 - m - k), 2) ** 2 for k in (1, 2, 3) if k != m)
        for m in (1, 2, 3)
    ]
    components = (got.pi_1, got.pi_2, got.pi_3)
    assert all(math.isfinite(c) for c in (got.pi, *components))
    assert max(abs(c - e) for c, e in zip(components, explicit)) < 1e-12
    assert abs(got.pi - sum(explicit) / 3.0) < 1e-12  # clamping moves pi by less than 1e-12
