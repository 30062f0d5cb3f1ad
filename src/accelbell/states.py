"""Reference entangled states and spin measurement observables.

Kets follow the linalg convention (mode 1 = most significant bit), and all
hbar factors are absorbed so that correlations are dimensionless Pauli
expectations.  The families map angles (...) to kets (..., 8) by the formula
in their docstring, for every finite angle.  An angle outside the window that
covers a family gives a ket that differs from one inside it only by amplitude
signs: a Z on one mode, which commutes with the damping channel and leaves the
Bell maxima, the bounds and the tangle as they are, or a global phase.  Angles
are read by ``linalg._numbers``, so a non-finite angle, a string, a bool, None
or an iterator raises ValueError.  A measurement direction is a unit 3-vector,
never an angle pair: ``_directions`` checks the shape of the directions here and
in ``nonlocality``, then reads them by ``linalg._unit_vectors``, the kets' rule.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _numbers, _unit_vectors

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

X_AXIS = np.array([1.0, 0.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULI",
    "X_AXIS",
    "Z_AXIS",
    "spin_observable",
    "singlet",
    "gghz",
    "maximal_slice",
]


def _directions(settings, count: int) -> np.ndarray:
    """Settings as a float array of unit vectors, shape (..., count, 3): the shape first, then ``linalg``'s rule."""
    arr = _numbers(settings, "measurement directions", finite=False)
    if arr.ndim < 2 or arr.shape[-2] != count or arr.shape[-1] != 3:
        raise ValueError(f"expected {count} directions of dimension 3, got shape {arr.shape}")
    return _unit_vectors(arr, "measurement directions")


def spin_observable(d) -> np.ndarray:
    """2x2 spin observable along a unit 3-vector, eigenvalues exactly +-1."""
    return np.einsum("i,ijk->jk", _directions([d], 1)[0], PAULI)


def singlet() -> np.ndarray:
    """Two-mode singlet (|10> - |01>)/sqrt(2).  No double squares to 1/2 (0.7071067811865475**2 is 0.4999999999999999,
    the next double's 0.5000000000000001): this ket errs low, so exact singlet values sit just below 2 sqrt 2."""
    return np.array([0.0, -1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def gghz(theta1) -> np.ndarray:
    """Generalized GHZ state cos(t1)|000> + sin(t1)|111>, shape (..., 8) for angles of shape (...).

    theta1 = pi/4 gives the standard GHZ state; [0, pi/2] covers the family.
    """
    t = _numbers(theta1, "control angle of gghz")
    v = np.zeros(t.shape + (8,), dtype=complex)
    v[..., 0] = np.cos(t)
    v[..., 7] = np.sin(t)
    return v


def maximal_slice(theta3) -> np.ndarray:
    """Maximal slice state (|000> + |11>(cos(t3)|0> + sin(t3)|1>))/sqrt(2), shape (..., 8).

    theta3 = pi/2 gives the standard GHZ state; theta3 = 0 is biseparable
    (a Bell pair on modes 1,2 times |0>); [0, pi] covers the family.
    """
    t = _numbers(theta3, "control angle of maximal_slice")
    v = np.zeros(t.shape + (8,), dtype=complex)
    v[..., 0] = 1.0
    v[..., 6] = np.cos(t)
    v[..., 7] = np.sin(t)
    return v / math.sqrt(2.0)
