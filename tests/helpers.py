"""Shared generators for randomized tests, and reference implementations."""

import math

import numpy as np

from accelbell import optimize
from accelbell.checks import (  # the generators of `verify`, shared by the tests
    _random_directions as random_directions,
    _random_mixed as random_density,
    _random_state as random_state,
)


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
    """``optimize._grid_search`` as a brute force over every lattice tuple, with a loop over the first party's point a.

    The lattice (exact antipodes) and T at its directions come from ``optimize._lattice`` and ``optimize._projected``,
    and P and Q are the scan's sums, so values match it bit for bit; but it scans every later tuple in one piece, where
    the scan takes half of each later party's pairs in chunks.  A later a replaces the best only when strictly better,
    so ties go to the lowest C-order index.
    """
    modes = t.ndim
    angles, dirs, half, order = optimize._lattice(resolution)
    m = optimize._projected(t, dirs, half, order, modes)
    if modes == 2:  # (a, b, b')
        p, q = m[:, :, None] + m[:, None, :], m[:, :, None] - m[:, None, :]
    else:  # S and D over (a, c, c', b), then P and Q over (a, c, c', b, b')
        s, d = m[:, :, None] + m[:, None, :], m[:, None, :] - m[:, :, None]
        p, q = s[..., :, None] + d[..., None, :], s[..., None, :] - d[..., :, None]
    n = len(dirs)
    p, q = p.reshape(n, -1), q.reshape(n, -1)
    best_value, best_index = -math.inf, 0
    for a in range(n):
        values = np.abs(p[a] + q)  # over (a', later settings) in C order
        local = int(np.argmax(values))
        if values.flat[local] > best_value:
            best_value, best_index = float(values.flat[local]), a * values.size + local
    return best_value, angles[list(np.unravel_index(best_index, (n,) * 2 * modes))].reshape(-1)
