"""Shared generators for randomized tests, and reference implementations."""

import math

import numpy as np

from accelbell import optimize
from accelbell.checks import (  # the generators of `verify`, shared by the tests
    _random_directions as random_directions,
    _random_mixed as random_density,
    _random_state as random_state,
)
from accelbell.nonlocality import _bell_fields


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_direction(rng):
    z = 2.0 * rng.random() - 1.0
    phi = 2.0 * np.pi * rng.random()
    s = np.sqrt(1.0 - z * z)
    return np.array([s * np.cos(phi), s * np.sin(phi), z])


def grid_search_reference(t, resolution):
    """``optimize._grid_search`` as a loop over the first party's lattice point a, scanning |P[a] + Q| in full.

    A later a replaces the best only when strictly better, so ties go to the lowest C-order index.
    """
    k = optimize._lattice_steps(resolution)
    n_points, n_vectors = (k + 1) * 2 * k, 2 * t.ndim
    angles = optimize._lattice(resolution)
    dirs = optimize._angles_to_directions(angles)
    later = dirs[np.indices((n_points,) * (n_vectors - 2)).reshape(n_vectors - 2, -1).T]
    p, q = dirs @ _bell_fields(t, later, t.ndim).transpose(1, 2, 0)
    best_value, best_index = -math.inf, 0
    for a in range(n_points):
        values = np.abs(p[a] + q)  # over (a', later settings) in C order
        local = int(np.argmax(values))
        if values.flat[local] > best_value:
            best_value, best_index = float(values.flat[local]), a * values.size + local
    return best_value, angles[list(np.unravel_index(best_index, (n_points,) * n_vectors))].reshape(-1)
