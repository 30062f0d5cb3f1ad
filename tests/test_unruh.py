import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from accelbell.linalg import density, hermitian_eigenvalues
from accelbell.states import singlet
from accelbell.unruh import (
    R_MAX,
    acceleration_parameter,
    apply_channel,
    build_channel,
    dilate,
    dilate_and_trace,
)

from helpers import random_state

SQRT2 = math.sqrt(2.0)


def test_acceleration_parameter_boundaries():
    assert abs(acceleration_parameter(0.0) - math.pi / 4.0) < 1e-15
    assert acceleration_parameter(1e6) == 0.0  # exponent underflows cleanly


def test_acceleration_parameter_threshold_ratio():
    # at W = ln(4)/(2 pi) the exponential equals 1/4, so cos^2 r = 4/5
    r = acceleration_parameter(math.log(4.0) / (2.0 * math.pi))
    assert abs(math.cos(r) ** 2 - 0.8) < 1e-14
    assert abs(r - math.acos(2.0 / math.sqrt(5.0))) < 1e-14
    assert abs(r - 0.46365) < 1e-5


def test_acceleration_parameter_monotone():
    grid = np.linspace(0.0, 3.0, 40)
    vals = [acceleration_parameter(w) for w in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_acceleration_parameter_rejects_bad_input():
    with pytest.raises(ValueError):
        acceleration_parameter(-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            acceleration_parameter(bad)


def test_scalar_entry_points_reject_arrays_and_bools():
    # dilate takes one r per call, and a bool is not a frequency ratio (True would read as W = 1)
    for call in (lambda: dilate(singlet(), 1, [0.1, 0.2]), lambda: dilate_and_trace(singlet(), 2, np.array([0.1]))):
        with pytest.raises(ValueError, match="one acceleration parameter"):
            call()
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="finite number >= 0"):
            acceleration_parameter(flag)


def test_channel_identity_at_rest():
    k = build_channel(0.0)
    assert k.shape == (2, 2, 2)
    assert_allclose(k[0], np.eye(2))
    assert np.all(k[1] == 0)


def test_channel_completeness():
    for r in np.linspace(0.0, R_MAX, 20):
        k = build_channel(r)
        assert np.max(np.abs(np.einsum("kba,kbc->ac", k.conj(), k) - np.eye(2))) < 1e-12  # sum_k K^dag K = 1


def test_channel_infinite_acceleration():
    k = build_channel(math.pi / 4.0)
    assert_allclose(k[0], np.diag([1.0 / SQRT2, 1.0]))
    assert abs(k[1, 1, 0] - 1.0 / SQRT2) < 1e-15
    out = apply_channel(np.diag([1.0, 0.0]).astype(complex), 1, math.pi / 4.0)
    assert_allclose(out, np.eye(2) / 2.0, atol=1e-15)


def test_channel_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_channel(-0.1)
    with pytest.raises(ValueError):
        build_channel(1.0)


def test_dilate_excited_mode_single_term():
    one = np.array([0.0, 1.0], dtype=complex)
    for r in (0.0, 0.3, R_MAX):
        assert_allclose(dilate(one, 1, r), [0.0, 0.0, 1.0, 0.0])  # |1>|0_h>


def test_dilate_vacuum_at_max_acceleration():
    zero = np.array([1.0, 0.0], dtype=complex)
    assert_allclose(dilate(zero, 1, math.pi / 4.0), np.array([1, 0, 0, 1]) / SQRT2)


def test_dilate_singlet_mode2():
    r = 0.55
    got = dilate(singlet(), 2, r)
    want = np.zeros(8, dtype=complex)
    want[4] = math.cos(r) / SQRT2  # |100>
    want[7] = math.sin(r) / SQRT2  # |111>
    want[2] = -1.0 / SQRT2  # |010>
    assert_allclose(got, want, atol=1e-15)
    assert abs(np.vdot(got, got).real - 1.0) < 1e-14


def test_dilate_preserves_norm(rng):
    for _ in range(25):
        n = int(rng.integers(1, 4))
        psi = random_state(rng, n)
        mode = int(rng.integers(1, n + 1))
        out = dilate(psi, mode, float(rng.uniform(0, R_MAX)))
        assert abs(np.vdot(out, out).real - 1.0) < 1e-13


def test_apply_channel_identity_at_rest(rng):
    rho = density(random_state(rng, 2))
    assert np.array_equal(apply_channel(rho, 1, 0.0), rho)


def test_apply_channel_excited_state_fixed():
    rho = np.diag([0.0, 1.0]).astype(complex)
    for r in np.linspace(0.0, R_MAX, 7):
        assert_allclose(apply_channel(rho, 1, r), rho, atol=1e-15)


def test_apply_channel_damped_singlet_spectrum():
    rho = apply_channel(density(singlet()), 2, math.pi / 4.0)
    assert_allclose(hermitian_eigenvalues(rho), [0.0, 0.0, 0.25, 0.75], atol=1e-12)


# (mode count, damped mode): 1-3 modes and every mode index of each
PLACEMENTS = st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), placement=PLACEMENTS, r=st.floats(0.0, R_MAX))
def test_dual_path_agreement(seed, placement, r):
    modes, mode = placement
    psi = random_state(np.random.default_rng(seed), modes)
    out = apply_channel(density(psi), mode, r)
    assert np.max(np.abs(out - dilate_and_trace(psi, mode, r))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), placement=PLACEMENTS, r=st.floats(0.0, R_MAX))
def test_apply_channel_output_is_density(seed, placement, r):
    modes, mode = placement
    out = apply_channel(density(random_state(np.random.default_rng(seed), modes)), mode, r)
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert hermitian_eigenvalues(out)[0] >= -1e-12


def test_purity_non_increasing_in_r():
    rho0 = density(singlet())
    damped = [apply_channel(rho0, 2, float(r)) for r in np.linspace(0.0, R_MAX, 12)]
    purities = [np.einsum("ij,ji->", rho, rho).real for rho in damped]  # Tr[rho^2]
    assert all(a >= b - 1e-12 for a, b in zip(purities, purities[1:]))


def test_apply_channel_mode_out_of_range():
    with pytest.raises(ValueError):
        apply_channel(density(singlet()), 3, 0.1)
    with pytest.raises(ValueError):
        dilate(singlet(), 0, 0.1)


def test_dilate_rejects_non_state_ket():
    # density's check covers the ket: non-finite entries, then a norm of sqrt(2)
    with pytest.raises(ValueError, match="non-finite"):
        dilate(np.array([math.nan, 0.0]), 1, 0.1)
    with pytest.raises(ValueError, match="and trace 2$"):
        dilate([1.0, 1.0], 1, 0.1)
