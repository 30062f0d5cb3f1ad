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

On the blocks rho_ab of the damped mode's row bit a and column bit b, with
c = cos r and s = sin r, the pair acts as four elementwise products:

    rho'_00 = c rho_00 c    rho'_01 = c rho_01    rho'_10 = rho_10 c    rho'_11 = rho_11 + s rho_00 s

``apply_channel`` checks its states, mode and r, and its private body ``_apply_channel`` computes exactly these,
with no Kronecker operator or Kraus array; the leading axes of the state stack and of r broadcast.  The sweep calls
the body on ``density``'s product, whose kets, mode and r are already read: the channel maps states to states.  It and
``dilate`` followed by a partial trace (``dilate_and_trace``, one ket) are two independent implementations of the
same map and must agree to 1e-12, in the tests and in ``checks.verify``.  ``_check_r`` is the one r-domain check, on
``linalg._numbers``; ``linalg._number`` reads the one W or r of ``acceleration_parameter`` and ``dilate``,
``linalg._unit_vectors`` the ket of ``dilate``, and modes follow ``_check_integer``.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (_check_broadcast, _check_integer, _number, _numbers, _partial_trace, _state, _unit_vectors,
                     density, mode_count)

R_MAX = math.pi / 4.0

__all__ = ["R_MAX", "acceleration_parameter", "dilate", "apply_channel"]


def acceleration_parameter(omega_ratio: float) -> float:
    """Damping angle r for the frequency-to-acceleration ratio W = omega c / a.

    Monotone decreasing in W: the boundary W = 0 (infinite acceleration)
    gives r = pi/4, and W -> infinity (inertial) gives r -> 0.  Only one real
    number is accepted: negative and non-finite numbers, ints beyond 64 bits,
    bools (True is not W = 1), strings, bytes and arrays raise ValueError.
    """
    w = _number(omega_ratio, "frequency-to-acceleration ratio")
    if w < 0.0:
        raise ValueError(f"frequency-to-acceleration ratio must be >= 0, got {omega_ratio!r}")
    # exp underflows to 0 for large w, giving r = 0 exactly
    return math.acos(1.0 / math.sqrt(1.0 + math.exp(-2.0 * math.pi * w)))


def _check_r(r) -> np.ndarray:
    """r as a float array; ValueError unless it is finite numbers, each in [0, pi/4]."""
    r = _numbers(r, "acceleration parameter r")
    outside = (r < 0.0) | (r > R_MAX + 1e-12)
    if outside.any():
        raise ValueError(f"acceleration parameter r={float(r[outside][0])!r} outside [0, pi/4]")
    return r


def dilate(psi: np.ndarray, mode: int, r: float) -> np.ndarray:
    """Isometric dilation of one mode of a pure state.

    The designated mode is replaced by its visible-wedge component and a
    new hidden-wedge mode is appended as the trailing (least significant)
    mode, per the two state maps above.  Norm is preserved exactly.
    """
    r = _check_r(_number(r, "acceleration parameter r"))
    psi = _unit_vectors(psi, "ket", complex)
    if psi.ndim != 1:
        raise ValueError(f"dilate takes one ket, got shape {psi.shape}")
    n = mode_count(len(psi))
    _check_integer("mode", mode, 1, n)
    t = np.moveaxis(psi.reshape((2,) * n), mode - 1, 0)
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
    _check_integer("mode", mode, 1, n)
    r = _check_r(r)
    _check_broadcast("states of leading shape", rho.shape[:-2], "r of shape", r.shape)
    return _apply_channel(rho, n, mode, r)


def _apply_channel(rho: np.ndarray, n: int, mode: int, r) -> np.ndarray:  # states, mode and r already read
    left, right = 2 ** (mode - 1), 2 ** (n - mode)
    # t[a, b] is the block of the damped mode's row bit a and column bit b, (..., left, right, left, right)
    t = np.moveaxis(rho.reshape(rho.shape[:-2] + (left, 2, right, left, 2, right)), (-5, -2), (0, 1))
    c, s = (f(r).reshape(np.shape(r) + (1,) * 4) for f in (np.cos, np.sin))
    out = np.array([[c * t[0, 0] * c, c * t[0, 1]], [t[1, 0] * c, t[1, 1] + s * t[0, 0] * s]])
    return np.moveaxis(out, (0, 1), (-5, -2)).reshape(out.shape[2:-4] + rho.shape[-2:])


def dilate_and_trace(psi: np.ndarray, mode: int, r: float) -> np.ndarray:
    """Reference path for the channel: dilate, project to a density operator,
    trace out the trailing hidden mode."""
    big = density(dilate(psi, mode, r))
    n = mode_count(len(big))
    return _partial_trace(big, n, n)
