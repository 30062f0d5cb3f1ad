"""Negativity and the residual tripartite tangle built from it.

Convention: N(rho) = ||rho^{T_mode}||_1 - 1, not halved, so a Bell pair
has N = 1 and the GHZ state has tangle 1.  The negativity of a pair of
modes is that of their two-mode reduction: trace the third mode out with
``linalg.partial_trace`` first.

Each public call takes one state, not a stack, and checks it once; ``linalg``'s
private partial trace and transpose take the checked array unread, straight into
``np.linalg.eigvalsh``.  The sweep's ``pi_tangle`` column runs ``_pi_tangle`` on
the states ``cli._damped`` built, channel outputs of a checked block, so a block
is checked once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _partial_trace, _partial_transpose, _state

__all__ = ["PiTangle", "negativity", "pi_tangle"]


def negativity(rho, mode: int) -> float:
    """Negativity of a state across the bipartition mode | rest (1-based mode).

    Always >= 0; zero iff the partial transpose stays positive semidefinite.
    A one-mode state has no such bipartition and raises ValueError.
    """
    rho, n = _one_state(rho)
    if n < 2:
        raise ValueError("a one-mode state has no bipartition mode | rest")
    return _negativity(rho, n, mode)


def _one_state(rho, modes: int | None = None) -> tuple[np.ndarray, int]:
    """One checked state (d, d) and its mode count; the measures here are not taken over a stack."""
    rho, n = _state(rho, modes)
    if rho.ndim != 2:
        raise ValueError(f"expected one state, got a stack of shape {rho.shape}")
    return rho, n


def _negativity(rho: np.ndarray, n: int, mode: int) -> float:  # rho (2^n, 2^n) already checked
    return max(float(np.sum(np.abs(np.linalg.eigvalsh(_partial_transpose(rho, n, mode))))) - 1.0, 0.0)


@dataclass(frozen=True)
class PiTangle:
    """Residual tangle pi and its per-mode components (raw, unclamped)."""

    pi: float
    pi_1: float
    pi_2: float
    pi_3: float


def pi_tangle(rho) -> PiTangle:
    """Residual tripartite tangle of a three-mode state.

    For each mode m the residual is N(m|rest)^2 minus the squared
    negativities of the pairs (m, j), j != m; pi is the average of the three
    residuals.  The pair (m, j) is the reduction with mode 6 - m - j traced
    out, and transposing either of its modes gives spectra related by a full
    transpose, so its negativity is computed once, across its first mode.
    Components are reported raw; only the aggregate is clamped to zero when
    it is negative by less than 1e-12.
    """
    return _pi_tangle(_one_state(rho, 3)[0])


def _pi_tangle(rho: np.ndarray) -> PiTangle:  # rho (8, 8) already checked
    pair_sq = {k: _negativity(_partial_trace(rho, 3, k), 2, 1) ** 2 for k in (1, 2, 3)}  # the pair without mode k
    residuals = [_negativity(rho, 3, m) ** 2 - sum(pair_sq[6 - m - j] for j in (1, 2, 3) if j != m) for m in (1, 2, 3)]
    aggregate = sum(residuals) / 3.0
    if -1e-12 < aggregate < 0.0:
        aggregate = 0.0
    return PiTangle(pi=aggregate, pi_1=residuals[0], pi_2=residuals[1], pi_3=residuals[2])
