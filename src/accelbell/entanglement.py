"""Negativity and the residual tripartite tangle built from it.

Convention: N(rho) = ||rho^{T_pivot}||_1 - 1, not halved, so a Bell pair
has N = 1 and the GHZ state has tangle 1.  A pair label (i, j) means the
complement is traced out first and the transpose acts on mode i of the
two-mode reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import mode_count, partial_trace, partial_transpose, trace_norm

__all__ = ["PiTangle", "negativity", "pi_tangle"]


def negativity(rho, pivot) -> float:
    """Negativity of a state across pivot | rest, or of a two-mode reduction.

    pivot: a 1-based mode index for the one-vs-rest bipartition, or a pair
    (i, j) of distinct modes; for a pair the remaining modes are traced out
    and the transpose acts on mode i.  Always >= 0; zero iff the partial
    transpose stays positive semidefinite.
    """
    rho = np.asarray(rho, dtype=complex)
    n = mode_count(rho.shape[0])
    if isinstance(pivot, (tuple, list)):
        if len(pivot) != 2:
            raise ValueError(f"pair label must have two entries, got {pivot!r}")
        i, j = int(pivot[0]), int(pivot[1])
        if i == j or not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"pair label {pivot!r} invalid for {n} modes")
        for m in sorted(set(range(1, n + 1)) - {i, j}, reverse=True):
            rho = partial_trace(rho, m)
        pivot_index = 1 if i < j else 2
    else:
        pivot_index = int(pivot)
        if not 1 <= pivot_index <= n:
            raise ValueError(f"pivot {pivot!r} out of range 1..{n}")
    transposed = partial_transpose(rho, pivot_index)
    return max(trace_norm(transposed) - 1.0, 0.0)


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

    For each mode m the residual is N(m|rest)^2 minus the squared pairwise
    negativities N(m,k)^2 of the two-mode reductions; pi is the average of
    the three residuals.  N(m,k) = N(k,m), since transposing either mode of
    a two-mode operator gives spectra related by a full transpose, so each
    pair is computed once.  Components are reported raw; only the aggregate
    is clamped to zero when it is negative by less than 1e-12.
    """
    rho = np.asarray(rho, dtype=complex)
    if mode_count(rho.shape[0]) != 3:
        raise ValueError("pi_tangle needs a three-mode operator")
    pair_sq = {}
    for i, j in ((1, 2), (1, 3), (2, 3)):
        pair_sq[i, j] = pair_sq[j, i] = negativity(rho, (i, j)) ** 2
    residuals = [negativity(rho, m) ** 2 - sum(pair_sq[m, k] for k in (1, 2, 3) if k != m) for m in (1, 2, 3)]
    aggregate = sum(residuals) / 3.0
    if -1e-12 < aggregate < 0.0:
        aggregate = 0.0
    return PiTangle(pi=aggregate, pi_1=residuals[0], pi_2=residuals[1], pi_3=residuals[2])
