import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from accelbell.linalg import density
from accelbell.states import (
    SIGMA_X,
    SIGMA_Z,
    gghz,
    maximal_slice,
    singlet,
    spin_observable,
)

from helpers import random_direction


def test_singlet_amplitudes_and_norm():
    psi = singlet()
    assert_allclose(psi, np.array([0, -1, 1, 0]) / math.sqrt(2.0))
    assert abs(np.vdot(psi, psi) - 1.0) < 1e-15


def test_singlet_correlations():
    rho = density(singlet())
    for pauli in (SIGMA_Z, SIGMA_X):
        assert abs(np.einsum("ij,ji->", rho, np.kron(pauli, pauli)).real + 1.0) < 1e-14


def test_gghz_values():
    assert_allclose(gghz(0.0), np.eye(8)[0])
    ghz = gghz(math.pi / 4.0)
    assert_allclose(ghz[[0, 7]], [1 / math.sqrt(2.0)] * 2)
    third = gghz(math.pi / 3.0)
    assert_allclose(third[[0, 7]], [0.5, math.sqrt(3.0) / 2.0], atol=1e-15)
    assert np.all(third[1:7] == 0)


def test_ms_values():
    ghz = maximal_slice(math.pi / 2.0)
    assert_allclose(ghz[[0, 7]], [1 / math.sqrt(2.0)] * 2, atol=1e-15)
    assert abs(ghz[6]) < 1e-16
    flat = maximal_slice(0.0)
    assert_allclose(flat[[0, 6]], [1 / math.sqrt(2.0)] * 2)


def test_constructors_normalized_over_ranges():
    for t in np.linspace(0.0, math.pi / 2.0, 50):
        assert abs(np.vdot(gghz(t), gghz(t)).real - 1.0) < 1e-14
    for t in np.linspace(0.0, math.pi, 50):
        assert abs(np.vdot(maximal_slice(t), maximal_slice(t)).real - 1.0) < 1e-14


def test_gghz_relabeling_symmetry():
    # flipping every mode maps theta1 -> pi/2 - theta1
    flip = np.kron(SIGMA_X, np.kron(SIGMA_X, SIGMA_X))
    for t in (0.1, 0.5, 1.2):
        assert_allclose(
            density(flip @ gghz(t)),
            density(gghz(math.pi / 2.0 - t)),
            atol=1e-14,
        )


def test_angles_outside_the_window_differ_only_in_sign():
    # an angle outside [0, pi/2] (gghz) or [0, pi] (maximal slice) gives the formula's ket, whose amplitudes differ
    # from those of an angle inside only in sign
    assert_allclose(np.abs(gghz(math.pi / 2.0 + 0.3)), np.abs(gghz(math.pi / 2.0 - 0.3)), atol=1e-15)
    assert_allclose(np.abs(maximal_slice(-0.4)), np.abs(maximal_slice(0.4)), atol=1e-15)


def test_spin_observable_axes():
    assert_allclose(spin_observable([0, 0, 1.0]), SIGMA_Z)
    assert_allclose(spin_observable([1.0, 0, 0]), SIGMA_X)
    assert_allclose(spin_observable([0.0, 0.0, 1.0]), SIGMA_Z, atol=1e-16)


def test_spin_observable_tilted_eigenvalues():
    obs = spin_observable([math.sin(math.pi / 3.0), 0.0, math.cos(math.pi / 3.0)])
    assert_allclose(obs, math.sqrt(3.0) / 2.0 * SIGMA_X + 0.5 * SIGMA_Z, atol=1e-15)
    assert_allclose(np.linalg.eigvalsh(obs), [-1.0, 1.0], atol=1e-12)


def test_spin_observable_squares_to_identity(rng):
    for _ in range(100):
        obs = spin_observable(random_direction(rng))
        assert np.max(np.abs(obs @ obs - np.eye(2))) < 1e-12


def test_spin_observable_rejects_non_unit():
    with pytest.raises(ValueError):
        spin_observable([1.0, 1.0, 0.0])
    # a direction is a unit 3-vector; a (theta, phi) pair is not one
    with pytest.raises(ValueError, match="dimension 3"):
        spin_observable((0.0, 0.0))

