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

``build_channel`` gives the Kraus pairs as a (..., 2, 2, 2) array k[..., term, out, in].
``apply_channel`` contracts them with the damped mode's two axes of the
reshaped density operators, so no Kronecker operator is built; the leading
axes of the state stack and of r broadcast.  It and ``dilate`` followed by a
partial trace (``dilate_and_trace``, one ket) are two independent implementations
of the same map and must agree to 1e-12; the cross-check lives in the test suite
and in ``checks.verify``.  ``_check_r`` is the package's one r-domain check.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _check_mode, _state, density, mode_count, partial_trace

R_MAX = math.pi / 4.0

__all__ = ["R_MAX", "acceleration_parameter", "build_channel", "dilate", "apply_channel"]


def acceleration_parameter(omega_ratio: float) -> float:
    """Damping angle r for the frequency-to-acceleration ratio W = omega c / a.

    Monotone decreasing in W: the boundary W = 0 (infinite acceleration)
    gives r = pi/4, and W -> infinity (inertial) gives r -> 0.  Negative,
    non-finite and bool input is rejected (True is not W = 1).
    """
    w = float(omega_ratio)
    if isinstance(omega_ratio, (bool, np.bool_)) or not (math.isfinite(w) and w >= 0.0):
        raise ValueError(f"frequency-to-acceleration ratio must be a finite number >= 0, got {omega_ratio!r}")
    # exp underflows to 0 for large w, giving r = 0 exactly
    return math.acos(1.0 / math.sqrt(1.0 + math.exp(-2.0 * math.pi * w)))


def _check_r(r) -> np.ndarray:
    """r as a float array; ValueError unless every entry lies in [0, pi/4] (NaN does not)."""
    r = np.asarray(r, dtype=float)
    outside = ~((r >= 0.0) & (r <= R_MAX + 1e-12))
    if outside.any():
        raise ValueError(f"acceleration parameter r={float(r[outside][0])!r} outside [0, pi/4]")
    return r


def build_channel(r) -> np.ndarray:
    """Kraus pairs for damping angles r (...) as a (..., 2, 2, 2) array k[..., term, out, in]; the identity at r = 0."""
    r = _check_r(r)
    k = np.zeros(r.shape + (2, 2, 2), dtype=complex)
    k[..., 0, 0, 0], k[..., 0, 1, 1], k[..., 1, 1, 0] = np.cos(r), 1.0, np.sin(r)
    return k


def dilate(psi: np.ndarray, mode: int, r: float) -> np.ndarray:
    """Isometric dilation of one mode of a pure state.

    The designated mode is replaced by its visible-wedge component and a
    new hidden-wedge mode is appended as the trailing (least significant)
    mode, per the two state maps above.  Norm is preserved exactly.
    """
    if np.ndim(r):  # float() of an array would raise TypeError
        raise ValueError(f"dilate takes one acceleration parameter r, got an array of shape {np.shape(r)}")
    r = float(_check_r(r))
    n = mode_count(len(density(psi)))  # density's check rejects a non-finite or non-unit ket
    _check_mode(mode, n)
    t = np.moveaxis(np.asarray(psi, dtype=complex).reshape((2,) * n), mode - 1, 0)
    out = np.zeros((2,) + t.shape[1:] + (2,), dtype=complex)
    out[0, ..., 0] = math.cos(r) * t[0]
    out[1, ..., 1] = math.sin(r) * t[0]
    out[1, ..., 0] += t[1]
    return np.moveaxis(out, 0, mode - 1).reshape(-1)


def apply_channel(rho: np.ndarray, mode: int, r) -> np.ndarray:
    """Damping channel on one mode of each state of ``rho`` (..., d, d); the leading axes of rho and r broadcast.

    Must equal ``partial_trace(density(dilate(psi, mode, r)), n + 1)`` for
    every pure state psi; that dual-path contract is enforced by the tests.
    """
    rho, n = _state(rho)
    _check_mode(mode, n)
    k = build_channel(r)
    left, right = 2 ** (mode - 1), 2 ** (n - mode)
    t = rho.reshape(rho.shape[:-2] + (left, 2, right, left, 2, right))
    out = np.einsum("...kab,...xbyudv,...ked->...xayuev", k, t, k.conj())
    return out.reshape(out.shape[:-6] + rho.shape[-2:])


def dilate_and_trace(psi: np.ndarray, mode: int, r: float) -> np.ndarray:
    """Reference path for the channel: dilate, project to a density operator,
    trace out the trailing hidden mode."""
    big = density(dilate(psi, mode, r))
    return partial_trace(big, mode_count(len(big)))
