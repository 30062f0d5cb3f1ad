"""Negativity and the residual tripartite tangle built from it.

Convention: N(rho) = ||rho^{T_mode}||_1 - 1, not halved, so a Bell pair
has N = 1 and the GHZ state has tangle 1.  The negativity of a pair of
modes is that of their two-mode reduction: trace the third mode out with
``linalg.partial_trace`` first.

Each call checks its state once; the partial transposes go straight to ``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _state, partial_trace, partial_transpose

__all__ = ["PiTangle", "negativity", "pi_tangle"]


def negativity(rho, mode: int) -> float:
    """Negativity of a state across the bipartition mode | rest (1-based mode).

    Always >= 0; zero iff the partial transpose stays positive semidefinite.
    """
    return _negativity(_state(rho)[0], mode)


def _negativity(rho: np.ndarray, mode: int) -> float:  # rho already checked
    return max(float(np.sum(np.abs(np.linalg.eigvalsh(partial_transpose(rho, mode))))) - 1.0, 0.0)


@dataclass(frozen=True)
class PiTangle:
    """Residual tangle pi and its per-mode components (raw, unclamped)."""

    pi: float
    pi_1: float
    pi_2: float
    pi_3: float

    def components(self) -> tuple[float, float, float]:
        return (self.pi_1, self.pi_2, self.pi_3)


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
    rho, _ = _state(rho, 3)
    pair_sq = {k: _negativity(partial_trace(rho, k), 1) ** 2 for k in (1, 2, 3)}  # the pair without mode k
    residuals = [_negativity(rho, m) ** 2 - sum(pair_sq[6 - m - j] for j in (1, 2, 3) if j != m) for m in (1, 2, 3)]
    aggregate = sum(residuals) / 3.0
    if -1e-12 < aggregate < 0.0:
        aggregate = 0.0
    return PiTangle(pi=aggregate, pi_1=residuals[0], pi_2=residuals[1], pi_3=residuals[2])
