"""Negativity and the residual tripartite tangle built from it.

Convention: N(rho) = ||rho^{T_mode}||_1 - 1, not halved, so a Bell pair
has N = 1 and the GHZ state has tangle 1.  The negativity of a pair of
modes is that of their two-mode reduction: trace the third mode out with
``linalg.partial_trace`` first.

Each public call takes a state or a stack of them (..., d, d), checked in one
``_state`` call, and gives floats for one state, arrays of the leading axes for a
stack.  ``linalg``'s private partial trace and transpose take the checked array
unread, into ``np.linalg.eigvalsh``.  Squares are products ``x * x``, not ``** 2``
(C ``pow`` on a scalar), so a stack's row equals its lone call bit for bit.  The
``pi_tangle`` sweep column runs ``_pi_tangle`` on the channel's checked output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _partial_trace, _partial_transpose, _state
from .nonlocality import _maybe_scalar

__all__ = ["PiTangle", "negativity", "pi_tangle"]


def negativity(rho, mode: int) -> float | np.ndarray:
    """Negativity of each state of ``rho`` (..., d, d) across the bipartition mode | rest (1-based mode).

    Always >= 0; zero iff the partial transpose stays positive semidefinite.  A one-mode state raises ValueError.
    """
    rho, n = _state(rho)
    if n < 2:
        raise ValueError("a one-mode state has no bipartition mode | rest")
    return _maybe_scalar(_negativity(rho, n, mode))


def _negativity(rho: np.ndarray, n: int, mode: int) -> np.ndarray:  # rho (..., 2^n, 2^n) already checked
    return np.maximum(np.abs(np.linalg.eigvalsh(_partial_transpose(rho, n, mode))).sum(axis=-1) - 1.0, 0.0)


@dataclass(frozen=True)
class PiTangle:
    """Residual tangle pi and its per-mode components (raw, unclamped): floats for one state, arrays for a stack."""

    pi: float | np.ndarray
    pi_1: float | np.ndarray
    pi_2: float | np.ndarray
    pi_3: float | np.ndarray


def pi_tangle(rho) -> PiTangle:
    """Residual tripartite tangle of each three-mode state of ``rho`` (..., 8, 8).

    For each mode m the residual is N(m|rest)^2 minus the squared negativities of the pairs (m, j), j != m; pi is
    the average of the three residuals.  The pair (m, j) is the reduction with mode 6 - m - j traced out, and
    transposing either of its modes gives spectra related by a full transpose, so its negativity is computed once,
    across its first mode.  Components are reported raw; only the aggregate is clamped to zero when it is negative by
    less than 1e-12.
    """
    return _pi_tangle(_state(rho, 3)[0])


def _pi_tangle(rho: np.ndarray) -> PiTangle:  # rho (..., 8, 8) already checked
    ones = [_negativity(rho, 3, m) for m in (1, 2, 3)]  # ones[m] = N(m + 1 | rest)
    pairs = [_negativity(_partial_trace(rho, 3, k), 2, 1) for k in (1, 2, 3)]  # pairs[k]: without mode k + 1
    residuals = [ones[m] * ones[m] - sum(pairs[k] * pairs[k] for k in range(3) if k != m) for m in range(3)]
    aggregate = sum(residuals) / 3.0
    aggregate = np.where((-1e-12 < aggregate) & (aggregate < 0.0), 0.0, aggregate)
    return PiTangle(*map(_maybe_scalar, (aggregate, *residuals)))
