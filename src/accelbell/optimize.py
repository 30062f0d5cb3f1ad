"""Derivative-free maximization over products of unit spheres.

Objectives live on n-tuples of unit 3-vectors.  The maximizer runs a
multistart Nelder-Mead simplex in the 2n-dimensional (theta, phi) angle
space: angles are left unconstrained since the direction map is periodic.
Restart points are drawn by a seeded, rejection-free uniform sphere
sampler (z = 2u - 1, phi = 2 pi v from two uniform variates), so a fixed
seed gives bit-identical results; ties between restarts go to the lowest
restart index.

``grid_oracle`` is the independent certification path: a brute-force scan
of the full (theta, phi) product lattice.  It is a certified lower bound
on the true maximum and never shares code with the simplex search.  The
lattice grows as ((pi/res + 1) * 2 pi/res)^n, so calls whose lattice
exceeds the evaluation budget are rejected with ``BudgetError``.

Objective protocol: ``f(dirs)`` takes an (n, 3) array of unit rows and
returns a float; for the grid oracle it must also accept leading batch
axes, i.e. (..., n, 3) -> (...).  The evaluators in ``nonlocality`` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nonlocality import chsh_value, svetlichny_value

DEFAULT_BUDGET = 10**8

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetError",
    "OptimizerConfig",
    "OptimizeResult",
    "maximize_over_spheres",
    "grid_oracle",
    "maximize_chsh",
    "maximize_svetlichny",
]


class BudgetError(RuntimeError):
    """Raised when a lattice scan would exceed the evaluation budget."""


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 64
    max_iterations: int = 2000
    tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iterations < 1 or self.tolerance <= 0.0:
            raise ValueError("restarts, max_iterations and tolerance must be positive")


@dataclass(frozen=True)
class OptimizeResult:
    """Best value found, with the settings that achieve it.

    ``angles`` holds (theta, phi) rows matching ``directions``;
    ``start_values`` are the objective values at every restart's initial
    point (the reported value never falls below any of them);
    ``oracle_value`` is the lattice witness when one was requested.
    """

    value: float
    directions: np.ndarray
    angles: np.ndarray
    restart: int
    evaluations: int
    start_values: tuple = field(default=())
    oracle_value: float | None = None


def _angles_to_directions(x: np.ndarray) -> np.ndarray:
    ang = np.asarray(x, dtype=float).reshape(-1, 2)
    st = np.sin(ang[:, 0])
    return np.stack([st * np.cos(ang[:, 1]), st * np.sin(ang[:, 1]), np.cos(ang[:, 0])], axis=1)


def _sample_start(rng: np.random.Generator, n_vectors: int) -> np.ndarray:
    z = 2.0 * rng.random(n_vectors) - 1.0
    phi = 2.0 * math.pi * rng.random(n_vectors)
    return np.column_stack([np.arccos(z), phi]).reshape(-1)


_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1.0, 2.0, 0.5, 0.5


def _nelder_mead(fn, x0: np.ndarray, max_iterations: int, tolerance: float, step: float = 0.35):
    """Minimize fn from x0; returns (x_best, f_best, evaluations).

    Standard reflect/expand/contract/shrink moves; terminates when the
    simplex objective spread falls below ``tolerance``.
    """
    dim = x0.size
    pts = np.tile(np.asarray(x0, dtype=float), (dim + 1, 1))
    for i in range(dim):
        pts[i + 1, i] += step
    vals = np.array([fn(p) for p in pts])
    evals = dim + 1
    for _ in range(max_iterations):
        order = np.argsort(vals, kind="stable")
        pts, vals = pts[order], vals[order]
        if vals[-1] - vals[0] <= tolerance:
            break
        centroid = pts[:-1].mean(axis=0)
        reflected = centroid + _REFLECT * (centroid - pts[-1])
        f_r = fn(reflected)
        evals += 1
        if f_r < vals[0]:
            expanded = centroid + _EXPAND * (reflected - centroid)
            f_e = fn(expanded)
            evals += 1
            if f_e < f_r:
                pts[-1], vals[-1] = expanded, f_e
            else:
                pts[-1], vals[-1] = reflected, f_r
        elif f_r < vals[-2]:
            pts[-1], vals[-1] = reflected, f_r
        else:
            toward = reflected if f_r < vals[-1] else pts[-1]
            contracted = centroid + _CONTRACT * (toward - centroid)
            f_c = fn(contracted)
            evals += 1
            if f_c < min(f_r, vals[-1]):
                pts[-1], vals[-1] = contracted, f_c
            else:
                pts[1:] = pts[0] + _SHRINK * (pts[1:] - pts[0])
                vals[1:] = [fn(p) for p in pts[1:]]
                evals += dim
    best = int(np.argmin(vals))
    return pts[best], float(vals[best]), evals


def maximize_over_spheres(
    objective,
    n_vectors: int,
    config: OptimizerConfig | None = None,
    witness_resolution: float | None = None,
    budget: int = DEFAULT_BUDGET,
) -> OptimizeResult:
    """Multistart simplex maximization of an objective over n unit vectors.

    When ``witness_resolution`` is given, the grid oracle also runs at that
    resolution and its best lattice point seeds one extra polish, so the
    reported value is never below the lattice witness.
    """
    cfg = config if config is not None else OptimizerConfig()
    rng = np.random.default_rng(cfg.seed)
    total_evals = 0

    def scalar_objective(x: np.ndarray) -> float:
        value = float(objective(_angles_to_directions(x)))
        if not math.isfinite(value):
            raise ValueError(f"objective returned non-finite value {value!r} at angles {np.round(x, 6)!r}")
        return value

    def negated(x: np.ndarray) -> float:
        return -scalar_objective(x)

    best_value, best_x, best_restart = -math.inf, None, -1
    start_values = []
    for restart in range(cfg.restarts):
        x0 = _sample_start(rng, n_vectors)
        start_values.append(scalar_objective(x0))
        total_evals += 1
        x, neg_val, evals = _nelder_mead(negated, x0, cfg.max_iterations, cfg.tolerance)
        total_evals += evals
        if -neg_val > best_value:
            best_value, best_x, best_restart = -neg_val, x, restart

    oracle_value = None
    if witness_resolution is not None:
        oracle_value, oracle_angles = _grid_search(objective, n_vectors, witness_resolution, budget)
        if oracle_value > best_value:
            best_value, best_x = oracle_value, oracle_angles

    # polish with a tight simplex around the winner
    x, neg_val, evals = _nelder_mead(negated, best_x, cfg.max_iterations, cfg.tolerance, step=0.05)
    total_evals += evals
    if -neg_val > best_value:
        best_value, best_x = -neg_val, x

    return OptimizeResult(
        value=best_value,
        directions=_angles_to_directions(best_x),
        angles=np.asarray(best_x, dtype=float).reshape(-1, 2),
        restart=best_restart,
        evaluations=total_evals,
        start_values=tuple(start_values),
        oracle_value=oracle_value,
    )


def _lattice(resolution: float) -> np.ndarray:
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution {resolution!r} must be a positive angle")
    k = round(math.pi / resolution)
    if k < 1 or abs(math.pi / resolution - k) > 1e-9:
        raise ValueError(f"resolution {resolution!r} must divide pi")
    thetas = np.arange(k + 1) * resolution
    phis = np.arange(2 * k) * resolution
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    return np.column_stack([tt.ravel(), pp.ravel()])


def _grid_search(objective, n_vectors: int, resolution: float, budget: int, chunk: int = 16384):
    angles = _lattice(resolution)
    dirs = _angles_to_directions(angles)
    n_points = dirs.shape[0]
    total = n_points**n_vectors
    if total > budget:
        raise BudgetError(
            f"lattice scan needs {total} evaluations "
            f"({n_points} points per vector to the power {n_vectors}), budget is {budget}"
        )
    best_value, best_multi = -math.inf, None
    shape = (n_points,) * n_vectors
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        multi = np.stack(np.unravel_index(idx, shape), axis=-1)
        values = np.asarray(objective(dirs[multi]), dtype=float).reshape(-1)
        if values.shape != idx.shape:
            raise ValueError("grid oracle objectives must support batched (..., n, 3) input")
        if not np.all(np.isfinite(values)):
            where = int(idx[int(np.argmin(np.isfinite(values)))])
            raise ValueError(f"objective returned non-finite value at lattice index {where}")
        local = int(np.argmax(values))
        if values[local] > best_value:
            best_value, best_multi = float(values[local]), multi[local]
    return best_value, angles[best_multi].reshape(-1)


def grid_oracle(objective, n_vectors: int, resolution: float, budget: int = DEFAULT_BUDGET) -> float:
    """Brute-force maximum of the objective over the full product lattice.

    theta runs over {0, res, ..., pi} and phi over {0, res, ..., 2pi - res}
    for every vector; the result is a certified lower bound on the true
    maximum.  Raises BudgetError when the lattice exceeds ``budget``.
    """
    value, _ = _grid_search(objective, n_vectors, resolution, budget)
    return value


def maximize_chsh(
    rho: np.ndarray,
    config: OptimizerConfig | None = None,
    witness_resolution: float | None = None,
) -> float:
    """Numerically maximized CHSH value of a two-mode state."""
    rho = np.asarray(rho, dtype=complex)
    result = maximize_over_spheres(lambda d: chsh_value(rho, d), 4, config, witness_resolution)
    return result.value


def maximize_svetlichny(
    rho: np.ndarray,
    config: OptimizerConfig | None = None,
    witness_resolution: float | None = None,
) -> OptimizeResult:
    """Numerically maximized Svetlichny value of a three-mode state."""
    rho = np.asarray(rho, dtype=complex)
    return maximize_over_spheres(lambda d: svetlichny_value(rho, d), 6, config, witness_resolution)
