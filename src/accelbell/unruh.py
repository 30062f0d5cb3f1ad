"""Damping channel seen by a uniformly accelerated observer of a fermion mode.

A uniformly accelerated observer is confined to one wedge of flat spacetime
and cannot see past its horizon.  In the inertial description, the watched
mode is paired with a hidden partner mode in the opposite, causally
disconnected wedge:

    |0>  ->  cos(r) |0>|0_h> + sin(r) |1>|1_h>
    |1>  ->  |1>|0_h>

Only the single dominant wedge mode is kept (the hidden-side excitation
amplitude is fixed to zero), so tracing out the hidden mode turns this
isometry into a two-element Kraus channel on the watched mode:

    K0 = diag(cos r, 1)        K1 = sin(r) |1><0|

The damping strength is set by the dimensionless ratio W = omega * c / a
(mode frequency times speed of light over proper acceleration) through
cos(r) = 1/sqrt(1 + exp(-2 pi W)); r runs from 0 (inertial observer) to
pi/4 (infinite acceleration).

``build_channel`` gives the Kraus pair as a (2, 2, 2) array k[term, out, in].
``apply_channel`` contracts it with the damped mode's two axes of the
reshaped density operator, so no Kronecker operator is built.  It and
``dilate`` followed by a partial trace (``dilate_and_trace``) are two
independent implementations of the same map and must agree to 1e-12; the
cross-check lives in the test suite and in ``checks.verify``.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _state, density, mode_count, partial_trace

R_MAX = math.pi / 4.0

__all__ = ["R_MAX", "acceleration_parameter", "build_channel", "dilate", "apply_channel"]


def acceleration_parameter(omega_ratio: float) -> float:
    """Damping angle r for the frequency-to-acceleration ratio W = omega c / a.

    Monotone decreasing in W: the boundary W = 0 (infinite acceleration)
    gives r = pi/4, and W -> infinity (inertial) gives r -> 0.  Negative or
    non-finite input is rejected.
    """
    w = float(omega_ratio)
    if not (math.isfinite(w) and w >= 0.0):
        raise ValueError(f"frequency-to-acceleration ratio must be finite and >= 0, got {omega_ratio!r}")
    # exp underflows to 0 for large w, giving r = 0 exactly
    return math.acos(1.0 / math.sqrt(1.0 + math.exp(-2.0 * math.pi * w)))


def _check_r(r: float) -> float:
    r = float(r)
    if not 0.0 <= r <= R_MAX + 1e-12:
        raise ValueError(f"acceleration parameter r={r!r} outside [0, pi/4]")
    return r


def build_channel(r: float) -> np.ndarray:
    """Kraus pair for damping angle r as a (2, 2, 2) array k[term, out, in]; the identity channel at r = 0."""
    r = _check_r(r)
    return np.array([[[math.cos(r), 0.0], [0.0, 1.0]], [[0.0, 0.0], [math.sin(r), 0.0]]], dtype=complex)


def dilate(psi: np.ndarray, mode: int, r: float) -> np.ndarray:
    """Isometric dilation of one mode of a pure state.

    The designated mode is replaced by its visible-wedge component and a
    new hidden-wedge mode is appended as the trailing (least significant)
    mode, per the two state maps above.  Norm is preserved exactly.
    """
    r = _check_r(r)
    n = mode_count(len(density(psi)))  # density's check rejects a non-finite or non-unit ket
    if not 1 <= mode <= n:
        raise ValueError(f"mode {mode} out of range 1..{n}")
    t = np.moveaxis(np.asarray(psi, dtype=complex).reshape((2,) * n), mode - 1, 0)
    out = np.zeros((2,) + t.shape[1:] + (2,), dtype=complex)
    out[0, ..., 0] = math.cos(r) * t[0]
    out[1, ..., 1] = math.sin(r) * t[0]
    out[1, ..., 0] += t[1]
    return np.moveaxis(out, 0, mode - 1).reshape(-1)


def apply_channel(rho: np.ndarray, mode: int, r: float) -> np.ndarray:
    """Kraus action of the damping channel on one mode of a density operator.

    Must equal ``partial_trace(density(dilate(psi, mode, r)), n + 1)`` for
    every pure state psi; that dual-path contract is enforced by the tests.
    """
    rho, n = _state(rho)
    if not 1 <= mode <= n:
        raise ValueError(f"mode {mode} out of range 1..{n}")
    k = build_channel(r)
    left, right = 2 ** (mode - 1), 2 ** (n - mode)
    t = rho.reshape(left, 2, right, left, 2, right)
    return np.einsum("kab,xbyudv,ked->xayuev", k, t, k.conj()).reshape(rho.shape)


def dilate_and_trace(psi: np.ndarray, mode: int, r: float) -> np.ndarray:
    """Reference path for the channel: dilate, project to a density operator,
    trace out the trailing hidden mode."""
    big = density(dilate(psi, mode, r))
    return partial_trace(big, mode_count(len(big)))
