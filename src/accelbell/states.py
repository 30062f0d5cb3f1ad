"""Reference entangled states and spin measurement observables.

Kets follow the linalg convention (mode 1 = most significant bit), and all
hbar factors are absorbed so that correlations are dimensionless Pauli
expectations.  Control angles outside the canonical parameter range are
folded back in by the relabeling symmetry of the state family and the fold
is reported on this module's logger; a non-finite angle raises ValueError.
A measurement direction is a unit 3-vector, never an angle pair;
``_unit_vectors`` checks directions here and in ``nonlocality``.
"""

from __future__ import annotations

import logging
import math

import numpy as np

logger = logging.getLogger(__name__)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "ID2",
    "PAULI",
    "X_AXIS",
    "Y_AXIS",
    "Z_AXIS",
    "spin_observable",
    "singlet",
    "gghz",
    "maximal_slice",
]


def _unit_vectors(settings, count: int) -> np.ndarray:
    """Normalize settings to a float array of unit vectors, shape (..., count, 3)."""
    arr = np.asarray(settings, dtype=float)
    if arr.ndim < 2 or arr.shape[-2] != count or arr.shape[-1] != 3:
        raise ValueError(f"expected {count} directions of dimension 3, got shape {arr.shape}")
    norms = np.einsum("...i,...i->...", arr, arr)
    if not np.abs(norms - 1.0).max() <= 1e-10:  # also catches NaN and inf
        if not np.isfinite(arr).all():
            raise ValueError("measurement directions have non-finite entries")
        raise ValueError("all measurement directions must be unit vectors")
    return arr


def spin_observable(d) -> np.ndarray:
    """2x2 spin observable along a unit 3-vector, eigenvalues exactly +-1."""
    return np.einsum("i,ijk->jk", _unit_vectors([d], 1)[0], PAULI)


def _fold(theta: float, period: float, upper: float, label: str) -> float:
    """Fold an angle into [0, upper] by the family's relabeling symmetry; a non-finite angle raises ValueError."""
    if not math.isfinite(theta):
        raise ValueError(f"{label}: non-finite control angle {theta!r}")
    t = float(theta) % period
    if t > upper:
        t = period - t
    if not math.isclose(t, float(theta), rel_tol=0.0, abs_tol=1e-15):
        logger.info("%s: control angle %.6g folded to %.6g", label, theta, t)
    return t


def singlet() -> np.ndarray:
    """Two-mode singlet (|10> - |01>)/sqrt(2)."""
    return np.array([0.0, -1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def gghz(theta1: float) -> np.ndarray:
    """Generalized GHZ state cos(t1)|000> + sin(t1)|111>.

    theta1 = pi/4 gives the standard GHZ state; the canonical range is
    [0, pi/2].
    """
    t = _fold(theta1, math.pi, math.pi / 2.0, "gghz")
    v = np.zeros(8, dtype=complex)
    v[0] = math.cos(t)
    v[7] = math.sin(t)
    return v


def maximal_slice(theta3: float) -> np.ndarray:
    """Maximal slice state (|000> + |11>(cos(t3)|0> + sin(t3)|1>))/sqrt(2).

    theta3 = pi/2 gives the standard GHZ state; theta3 = 0 is biseparable
    (a Bell pair on modes 1,2 times |0>).  Canonical range [0, pi].
    """
    t = _fold(theta3, 2.0 * math.pi, math.pi, "maximal_slice")
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    v[6] = math.cos(t)
    v[7] = math.sin(t)
    return v / math.sqrt(2.0)
