"""Maximization of the Bell values over products of unit spheres.

A Bell value |sum beta T(u_x, v_y(, w_z))| is multilinear in the settings
(see ``nonlocality``), so both maximizers contract T one party at a time.

``maximize_chsh``/``maximize_svetlichny`` solve the first party in closed
form: with X_x = sum beta[x, ...] T(., v_y(, w_z)) (``bell_fields``), the
maximum of |a.X_0 + a'.X_1| over unit a, a' is |X_0| + |X_1| (Horodecki,
Horodecki & Horodecki, PLA 200, 340 (1995)).  A Nelder-Mead simplex in
(theta, phi) angles maximizes it over the other settings once per start:
``restarts`` seeded uniform starts, then the lattice witness's other
settings (small initial step) when ``witness_resolution`` is given.  The
best run wins, ties to the earliest start.  Then a, a' = X/|X| (z where
X = 0) and the evaluator gives the value at the full setting.  A simplex
stops at objective spread ``TOLERANCE`` or after ``MAX_ITERATIONS``
iterations; ``OptimizeResult.converged`` says which.

``grid_oracle``, the independent certification path, scans the lattice
theta in {0, res, ..., pi} x phi in {0, res, ..., 2 pi - res} for every
setting, a and a' included: with M_x the fields X_x of every lattice tuple
of the other settings, P = dirs M_0^T and Q = dirs M_1^T, it maximizes
|P[a] + Q| for each lattice point a; ties go to the lowest C-order index.
Its value is a certified lower bound.  Scans over ``DEFAULT_BUDGET``
settings raise ``BudgetError``; the lattice grows as
((pi/res + 1) * 2 pi/res)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nonlocality import _tensor, bell_fields, chsh_value, correlation_tensor, svetlichny_value

DEFAULT_BUDGET = 10**8
MAX_ITERATIONS = 2000
TOLERANCE = 1e-10

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetError",
    "OptimizeResult",
    "grid_oracle",
    "maximize_chsh",
    "maximize_svetlichny",
]


class BudgetError(RuntimeError):
    """Raised when a lattice scan would exceed the evaluation budget."""


@dataclass(frozen=True)
class OptimizeResult:
    """Best value found, with the settings that achieve it.

    ``evaluations`` counts the calls of the reduced objective |X_0| + |X_1|
    over every simplex run, the witness's included; the final evaluator
    call is not counted.  ``converged`` is False when the winning run's
    simplex stopped at ``MAX_ITERATIONS`` rather than at ``TOLERANCE``: it
    reports the stopping rule on the spread of the simplex's values, not
    the distance to the maximum.  The damped singlet at r = 1.06e-4 (16
    restarts, seed 1) converges 2.5e-9 below ``horodecki_max``.
    """

    value: float
    directions: np.ndarray
    evaluations: int
    converged: bool


def _angles_to_directions(x: np.ndarray) -> np.ndarray:
    ang = np.asarray(x, dtype=float).reshape(-1, 2)
    st = np.sin(ang[:, 0])
    return np.stack([st * np.cos(ang[:, 1]), st * np.sin(ang[:, 1]), np.cos(ang[:, 0])], axis=1)


def _sample_start(rng: np.random.Generator, n_vectors: int) -> np.ndarray:
    z = 2.0 * rng.random(n_vectors) - 1.0
    phi = 2.0 * math.pi * rng.random(n_vectors)
    return np.column_stack([np.arccos(z), phi]).reshape(-1)


_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1.0, 2.0, 0.5, 0.5


def _nelder_mead(fn, x0: np.ndarray, step: float = 0.35):
    """Minimize fn from x0; returns (x_best, f_best, evaluations, converged).

    Standard reflect/expand/contract/shrink moves; terminates when the
    simplex objective spread falls below ``TOLERANCE`` (converged) or
    after ``MAX_ITERATIONS`` iterations (not converged).
    """
    dim = x0.size
    pts = np.tile(np.asarray(x0, dtype=float), (dim + 1, 1))
    for i in range(dim):
        pts[i + 1, i] += step
    vals = np.array([fn(p) for p in pts])
    evals = dim + 1
    converged = True
    for _ in range(MAX_ITERATIONS):
        order = np.argsort(vals, kind="stable")
        pts, vals = pts[order], vals[order]
        if vals[-1] - vals[0] <= TOLERANCE:
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
    else:
        converged = False
    best = int(np.argmin(vals))
    return pts[best], float(vals[best]), evals, converged


def _lattice_steps(resolution: float) -> int:
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution {resolution!r} must be a positive angle")
    k = round(math.pi / resolution)
    if k < 1 or abs(math.pi / resolution - k) > 1e-9:
        raise ValueError(f"resolution {resolution!r} must divide pi")
    return k


def _lattice(resolution: float) -> np.ndarray:
    k = _lattice_steps(resolution)
    thetas = np.arange(k + 1) * resolution
    phis = np.arange(2 * k) * resolution
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    return np.column_stack([tt.ravel(), pp.ravel()])


def _grid_search(t: np.ndarray, resolution: float):
    """Best lattice value of |sum beta T(u_x, v_y(, w_z))| and its angles; ties go to the lowest C-order index."""
    k = _lattice_steps(resolution)
    n_points, n_vectors = (k + 1) * 2 * k, 2 * t.ndim
    if n_points**n_vectors > DEFAULT_BUDGET:  # checked before any lattice array is built
        raise BudgetError(f"lattice scan needs {n_points}^{n_vectors} evaluations, budget is {DEFAULT_BUDGET}")
    angles = _lattice(resolution)
    dirs = _angles_to_directions(angles)
    # every lattice tuple of the later settings, (b, b') or (c, c', b, b'), in C order
    later = dirs[np.indices((n_points,) * (n_vectors - 2)).reshape(n_vectors - 2, -1).T]
    p, q = dirs @ bell_fields(t, later).transpose(1, 2, 0)
    best_value, best_index = -math.inf, 0
    for a in range(n_points):
        values = np.abs(p[a] + q)  # over (a', later settings) in C order
        local = int(np.argmax(values))
        if values.flat[local] > best_value:
            best_value, best_index = float(values.flat[local]), a * values.size + local
    return best_value, angles[list(np.unravel_index(best_index, (n_points,) * n_vectors))].reshape(-1)


def grid_oracle(rho: np.ndarray, resolution: float) -> tuple[float, np.ndarray]:
    """Lattice maximum of the CHSH (two modes) or Svetlichny (three modes) value, and an (n, 3) setting at it."""
    value, angles = _grid_search(correlation_tensor(rho), resolution)
    return value, _angles_to_directions(angles)


def _check_search(restarts: int, witness_resolution: float | None) -> None:
    """Raise ValueError for restarts < 1 or a witness resolution that is not a positive angle dividing pi."""
    if restarts < 1:
        raise ValueError(f"restarts must be positive, got {restarts!r}")
    if witness_resolution is not None:
        _lattice_steps(witness_resolution)


def _maximize_bell(rho, modes, witness_resolution, restarts, seed) -> OptimizeResult:
    _check_search(restarts, witness_resolution)
    t = _tensor(rho, modes)

    def negated(x: np.ndarray) -> float:
        value = float(np.linalg.norm(bell_fields(t, _angles_to_directions(x)), axis=1).sum())
        if not math.isfinite(value):
            raise ValueError(f"objective returned non-finite value {value!r} at angles {np.round(x, 6)!r}")
        return -value

    rng = np.random.default_rng(seed)
    starts = [(_sample_start(rng, 2 * modes - 2), 0.35) for _ in range(restarts)]
    if witness_resolution is not None:
        # a and a' dropped; the witness lies within one lattice cell of a maximum, so its simplex starts small
        starts.append((_grid_search(t, witness_resolution)[1][4:], 0.05))
    runs = [_nelder_mead(negated, x0, step) for x0, step in starts]
    best_x, _, _, converged = min(runs, key=lambda run: run[1])  # the earliest start wins a tie
    later = _angles_to_directions(best_x)
    fields = bell_fields(t, later)
    norms = np.linalg.norm(fields, axis=1, keepdims=True)
    first = np.divide(fields, norms, out=np.tile([0.0, 0.0, 1.0], (2, 1)), where=norms > 0.0)
    directions = np.vstack([first, later])
    value = (chsh_value if modes == 2 else svetlichny_value)(rho, directions)
    return OptimizeResult(value, directions, sum(run[2] for run in runs), converged)


def maximize_chsh(
    rho: np.ndarray, witness_resolution: float | None = None, *, restarts: int = 64, seed: int = 0
) -> OptimizeResult:
    """Numerically maximized CHSH value of a two-mode state; the simplex searches b and b' only."""
    return _maximize_bell(rho, 2, witness_resolution, restarts, seed)


def maximize_svetlichny(
    rho: np.ndarray, witness_resolution: float | None = None, *, restarts: int = 64, seed: int = 0
) -> OptimizeResult:
    """Numerically maximized Svetlichny value of a three-mode state; the simplex searches c, c', b and b' only."""
    return _maximize_bell(rho, 3, witness_resolution, restarts, seed)
