"""Maximization of the Bell values over products of unit spheres.

A Bell value |sum beta T(u_x, v_y(, w_z))| is multilinear in the settings
(see ``nonlocality``), so the maximizer contracts T one party at a time.

``maximize_bell`` is the one maximizer.  It takes a stack of states, checked
in one call, and maximizes CHSH for 4x4 operators and Svetlichny for 8x8
ones; a single state is a stack of one, [rho].  It solves the first party in closed
form: with X_x = sum beta[x, ...] T(., v_y(, w_z)) (``_bell_fields``), the
maximum of |a.X_0 + a'.X_1| over unit a, a' is |X_0| + |X_1| (Horodecki,
Horodecki & Horodecki, PLA 200, 340 (1995)).  A Nelder-Mead simplex in
(theta, phi) angles maximizes it over the other settings once per start:
``restarts`` seeded uniform starts, the same for every state, then the
lattice witness's other settings (small initial step) when
``witness_resolution`` is given.  The runs of a stack of states step in
lockstep, one (dim + 1, dim) simplex row per (state, start) pair: each
move is a masked update whose rows share one batched objective call, and
each row stops on its own at objective spread ``TOLERANCE`` or after
``MAX_ITERATIONS`` iterations (``OptimizeResult.converged`` says which).
A row sees only its own values, so a state's result does not depend on
the rest of the stack.  Per state the best run wins, ties to the earliest
start.  Then a, a' = X/|X| (z where X = 0), and one call of ``bell_value``'s
body gives the values at the full settings from the T already built.

``grid_oracle``, the independent certification path, takes the same stack
and scans the lattice theta in {0, res, ..., pi} x phi in {0, res, ...,
2 pi - res} for every setting, a and a' included: with M_x the fields X_x of
every lattice tuple j of the other settings, P = dirs M_0^T, Q = dirs M_1^T,
the value at (a, a', j) is |P[a, j] + Q[a', j]|.  Floating-point addition is
monotone in each argument, so over a' it peaks at the largest or the smallest
Q[., j]: max(|P[a, j] + max Q[., j]|, |P[a, j] + min Q[., j]|) is exactly the
best value for (a, j), and two passes over P give every a's best.  The first
a at the lattice maximum then has its |P[a] + Q| scanned in full, so ties go
to the lowest C-order index.  Its value is a certified lower bound.  Scans
over ``DEFAULT_BUDGET`` settings raise ``BudgetError``; the lattice grows as
((pi/res + 1) * 2 pi/res)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nonlocality import _bell_fields, _bell_value, correlation_tensor

DEFAULT_BUDGET = 10**8
MAX_ITERATIONS = 2000
TOLERANCE = 1e-10

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetError",
    "OptimizeResult",
    "grid_oracle",
    "maximize_bell",
]


class BudgetError(RuntimeError):
    """Raised when a lattice scan would exceed the evaluation budget."""


@dataclass(frozen=True)
class OptimizeResult:
    """Best value found, with the settings that achieve it.

    ``evaluations`` counts the points at which the reduced objective
    |X_0| + |X_1| was evaluated over the state's simplex runs, the
    witness's included; the final evaluator call is not counted.
    ``converged`` is False when the winning run's simplex stopped at
    ``MAX_ITERATIONS`` rather than at ``TOLERANCE``: it reports the stopping
    rule on the spread of the simplex's values, not the distance to the
    maximum.  The damped singlet at r = 1.06e-4 (16 restarts, seed 1)
    converges 2.5e-9 below ``horodecki_max``.
    """

    value: float
    directions: np.ndarray
    evaluations: int
    converged: bool


def _angles_to_directions(x: np.ndarray) -> np.ndarray:
    ang = np.asarray(x, dtype=float).reshape(-1, 2)
    sin, cos = np.sin(ang), np.cos(ang)
    return np.concatenate([sin[:, :1] * cos[:, 1:], sin[:, :1] * sin[:, 1:], cos[:, :1]], axis=1)


def _sample_start(rng: np.random.Generator, n_vectors: int) -> np.ndarray:
    z = 2.0 * rng.random(n_vectors) - 1.0
    phi = 2.0 * math.pi * rng.random(n_vectors)
    return np.column_stack([np.arccos(z), phi]).reshape(-1)


_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1.0, 2.0, 0.5, 0.5


def _nelder_mead(fn, x0: np.ndarray, step: np.ndarray):
    """Minimize fn from each row of x0 in lockstep; returns (x_best, f_best, evaluations, converged) per row.

    ``fn(rows, x)`` gives the values at the points x (k, dim) of the rows
    ``rows`` (k,).  Row s starts from the simplex x0[s] + step[s] e_i and
    makes the standard reflect/expand/contract/shrink moves on its own.
    """
    n, dim = x0.shape
    rows, diag = np.arange(n), np.arange(dim)
    pts = np.repeat(x0[:, None, :], dim + 1, axis=1)
    pts[:, diag + 1, diag] += step[:, None]
    vals = fn(np.repeat(rows, dim + 1), pts.reshape(-1, dim)).reshape(n, dim + 1)
    evals = np.full(n, dim + 1)
    x_best, f_best, n_evals, converged = pts[:, 0].copy(), vals[:, 0].copy(), evals.copy(), np.zeros(n, dtype=bool)
    live = rows[:, None]  # row positions as a column, to index each row's vertex order
    for iteration in range(MAX_ITERATIONS):  # each iteration evaluates every live row's reflection once
        order = vals.argsort(axis=1, kind="stable")
        pts, vals = pts[live, order], vals[live, order]
        done = vals[:, -1] - vals[:, 0] <= TOLERANCE
        if done.any():
            out = rows[done]
            x_best[out], f_best[out], converged[out] = pts[done, 0], vals[done, 0], True
            n_evals[out] = evals[done] + iteration
            rows, pts, vals, evals, live = rows[~done], pts[~done], vals[~done], evals[~done], live[: (~done).sum()]
            if not rows.size:
                return x_best, f_best, n_evals, converged
        centroid = np.add.reduce(pts[:, :-1], axis=1) / dim
        reflected = centroid + _REFLECT * (centroid - pts[:, -1])
        f_r = fn(rows, reflected)
        worst = vals[:, -1]
        expand, contract = f_r < vals[:, 0], f_r >= vals[:, -2]  # an expansion has f_r < every vertex value
        second = expand | contract
        # the expansion or contraction point is fixed by f_r, so both kinds share one call
        toward = np.where((f_r < worst)[:, None], reflected, pts[:, -1])
        trial = centroid + np.where(expand, _EXPAND, _CONTRACT)[:, None] * (toward - centroid)
        f_t = f_r.copy()
        if second.any():
            f_t[second] = fn(rows[second], trial[second])
        accept = f_t < np.minimum(f_r, worst)  # an expansion has f_r < worst, so this is f_e < f_r there
        shrink = contract & ~accept
        new_x, new_f = np.where(accept[:, None], trial, reflected), np.where(accept, f_t, f_r)
        if shrink.any():
            best = pts[shrink, :1]
            pts[shrink, 1:] = best + _SHRINK * (pts[shrink, 1:] - best)
            vals[shrink, 1:] = fn(np.repeat(rows[shrink], dim), pts[shrink, 1:].reshape(-1, dim)).reshape(-1, dim)
            new_x[shrink], new_f[shrink] = pts[shrink, -1], vals[shrink, -1]
            evals[shrink] += dim
        pts[:, -1], vals[:, -1] = new_x, new_f
        evals += second
    best = np.argmin(vals, axis=1)
    x_best[rows], f_best[rows], n_evals[rows] = pts[live[:, 0], best], vals[live[:, 0], best], evals + MAX_ITERATIONS
    return x_best, f_best, n_evals, converged


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


def _grid_search(ts: np.ndarray, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Best lattice value of |sum beta T(u_x, v_y(, w_z))| and its angles for each tensor of the stack ``ts``.

    Returns values (n,) and angles (n, 2 * vectors); ties go to the lowest
    C-order index.  The lattice and its later-setting tuples are built once
    for the whole stack.
    """
    k = _lattice_steps(resolution)
    n_points, n_vectors = (k + 1) * 2 * k, 2 * (ts.ndim - 1)
    if n_points**n_vectors > DEFAULT_BUDGET:  # checked before any lattice array is built
        raise BudgetError(f"lattice scan needs {n_points}^{n_vectors} evaluations, budget is {DEFAULT_BUDGET}")
    angles = _lattice(resolution)
    dirs = _angles_to_directions(angles)
    # every lattice tuple of the later settings, (b, b') or (c, c', b, b'), in C order
    later = dirs[np.indices((n_points,) * (n_vectors - 2)).reshape(n_vectors - 2, -1).T]
    values, best_angles = np.empty(len(ts)), np.empty((len(ts), 2 * n_vectors))
    for s, t in enumerate(ts):  # one state at a time bounds the (n_points, tuples) arrays held at once
        p, q = dirs @ _bell_fields(t, later, ts.ndim - 1).transpose(1, 2, 0)
        # fl(x + y) is monotone in y, so over a' the largest |p[a] + q[a']| sits at q's max or min over a'
        best = np.maximum(np.abs(p + q.max(axis=0)), np.abs(p + q.min(axis=0))).max(axis=1)  # per a, exactly
        a = int(np.argmax(best))  # the first a at the lattice maximum
        scan = np.abs(p[a] + q).ravel()  # over (a', later settings) in C order
        local = int(np.argmax(scan))
        index = np.unravel_index(a * scan.size + local, (n_points,) * n_vectors)
        values[s], best_angles[s] = scan[local], angles[list(index)].reshape(-1)
    return values, best_angles


def _tensors(rhos) -> np.ndarray:
    """Correlation tensors (k, 3, 3(, 3)) of a non-empty stack of equal-shape states, checked in one call."""
    rhos = list(rhos)  # a generator is read once; an array gives its rows
    if len(rhos) == 0 or np.ndim(rhos[0]) != 2:  # a lone (d, d) array would read as d / 2 states
        raise ValueError("expected a non-empty stack of 4x4 or of 8x8 operators; wrap a single state as [rho]")
    return correlation_tensor(np.stack(rhos))


def grid_oracle(rhos, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Lattice maxima (k,) of the CHSH (4x4) or Svetlichny (8x8) value of k states, and settings (k, 2n, 3) at them."""
    values, angles = _grid_search(_tensors(rhos), resolution)
    return values, _angles_to_directions(angles).reshape(len(values), -1, 3)


def _check_search(restarts: int, witness_resolution: float | None, seed: int) -> None:
    """Raise ValueError for restarts < 1, a seed < 0, either not a non-bool integer, or a bad witness resolution."""
    for name, value, low in (("restarts", restarts, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    if witness_resolution is not None:
        _lattice_steps(witness_resolution)


def maximize_bell(
    rhos, witness_resolution: float | None = None, *, restarts: int = 64, seed: int = 0
) -> list[OptimizeResult]:
    """Numerically maximized CHSH (4x4 operators) or Svetlichny (8x8 operators) value of each state of ``rhos``.

    The simplex searches the later settings only; its rows are (state, start) pairs, stepped in lockstep.
    """
    _check_search(restarts, witness_resolution, seed)
    t = _tensors(rhos)
    modes = t.ndim - 1
    rng = np.random.default_rng(seed)
    # (state, start, dim): angles of the 2 * modes - 2 later settings
    x0 = np.tile([_sample_start(rng, 2 * modes - 2) for _ in range(restarts)], (len(t), 1, 1))
    steps = [0.35] * restarts
    if witness_resolution is not None:
        # a and a' dropped; the witness lies within one lattice cell of a maximum, so its simplex starts small
        witness = _grid_search(t, witness_resolution)[1][:, 4:]
        x0 = np.concatenate([x0, witness[:, None]], axis=1)
        steps.append(0.05)
    n_starts = len(steps)
    point = np.repeat(np.arange(len(t)), n_starts)

    def negated(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        fields = _bell_fields(t[point[rows]], _angles_to_directions(x).reshape(len(x), x.shape[1] // 2, 3), modes)
        values = np.sqrt(np.add.reduce(fields * fields, axis=-1)).sum(axis=-1)  # |X_0| + |X_1|
        if not np.isfinite(values).all():
            bad = np.flatnonzero(~np.isfinite(values))[0]
            value, angles = float(values[bad]), np.round(x[bad], 6)
            raise ValueError(f"objective returned non-finite value {value!r} at angles {angles!r}")
        return -values

    x_best, f_best, evals, converged = _nelder_mead(negated, x0.reshape(len(point), -1), np.tile(steps, len(t)))
    # per state the earliest start wins a tie
    best = np.argmin(f_best.reshape(len(t), n_starts), axis=1) + n_starts * np.arange(len(t))
    later = _angles_to_directions(x_best[best]).reshape(len(t), -1, 3)
    fields = _bell_fields(t, later, modes)
    norms = np.linalg.norm(fields, axis=-1, keepdims=True)
    first = np.divide(fields, norms, out=np.tile([0.0, 0.0, 1.0], (len(t), 2, 1)), where=norms > 0.0)
    directions = np.concatenate([first, later], axis=1)
    totals, converged = evals.reshape(len(t), n_starts).sum(axis=1), converged[best]
    # bell_value's unit-vector check and quantum-maximum guard, on the T built above
    values = _bell_value(t, directions, modes)
    return [OptimizeResult(float(v), d, int(e), bool(c)) for v, d, e, c in zip(values, directions, totals, converged)]
