"""Shared generators for randomized tests."""

import numpy as np


def random_state(rng, n_modes):
    v = rng.normal(size=2**n_modes) + 1j * rng.normal(size=2**n_modes)
    return v / np.linalg.norm(v)


def random_density(rng, n_modes, rank=None):
    d = 2**n_modes
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


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


def random_directions(rng, shape):
    """Unit 3-vectors of the given leading shape, from normalized Gaussians."""
    v = rng.normal(size=tuple(shape) + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)
