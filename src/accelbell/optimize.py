"""Maximization of the Bell values over products of unit spheres.

A Bell value |sum beta T(u_x, v_y(, w_z))| is multilinear in the settings
(see ``nonlocality``), so the maximizer contracts T one party at a time.

``maximize_bell`` is the one maximizer.  It takes states (..., d, d), read
with their mode count by ``nonlocality._tensor``, and maximizes CHSH for 4x4
operators and Svetlichny for 8x8 ones.  It solves the first party in closed
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
``MAX_ITERATIONS`` iterations.  Each state also has an upper bound from
its T, ``_upper_bound``, the body of ``nonlocality.bell_upper``: exact for
CHSH, a bound for Svetlichny.  All rows of a state retire together at the
first iteration in which one of them has a best value within ``TOLERANCE``
of that bound, since no row can do better; the block ends when every state
has converged or been certified this way (``OptimizeResult.converged`` and
``certified``).
A row sees only its own state's values, so a state's result does not depend
on the rest of the stack.  Per state the best run wins, ties to the earliest
start.  Then a, a' = X/|X| (z where X = 0), and one call of ``bell_value``'s
body gives the values at the full settings from the T already built.

``grid_oracle``, the independent certification path, takes the same state
form and scans the lattice theta in {0, res, ..., pi} x phi in {0, res, ...,
2 pi - res} for every setting, a and a' included, on T projected onto the
lattice, M (``_projected``): the value at (a, a', j) is |P[a, j] + Q[a', j]|.
Each point's antipode is on the lattice with the negated direction, and
flipping a later party's pair negates P and Q exactly, so only the j whose
later parties' first directions lie in H, the lower index of each pair, are
scanned, in chunks.  Over a' the value peaks at Q[., j]'s max or min (addition
is monotone), and the first a at the maximum is scanned in full, so ties go
to the lowest C-order index; the value is a certified lower bound.  The scan
makes 3 n^3 / 2 (CHSH) or 3 n^5 / 4 sums on n points; over ``DEFAULT_BUDGET``
it raises ``BudgetError`` (Svetlichny: at pi/5, not at pi/4 with 7.7e7 sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _check_integer, _numbers
from .nonlocality import _bell_fields, _bell_value, _maybe_scalar, _tensor, _upper_bound

DEFAULT_BUDGET = 10**8
MAX_RESTARTS = 1024  # the simplex rows of all starts are built at once, about 0.3 MB each for a Svetlichny block
MAX_ITERATIONS = 2000
TOLERANCE = 1e-10
_CHUNK = 2**19  # entries of each (first-party point, tuple) array of one chunk of the lattice scan

__all__ = [
    "DEFAULT_BUDGET",
    "MAX_RESTARTS",
    "BudgetError",
    "OptimizeResult",
    "grid_oracle",
    "maximize_bell",
]


class BudgetError(RuntimeError):
    """Raised when a lattice scan would exceed the evaluation budget."""


@dataclass(frozen=True)
class OptimizeResult:
    """Best value found for each state, with the settings that achieve it.

    Each field has the states' leading axes (...), and ``directions`` two
    more, (2n, 3) for n modes; a lone state's are a float, an int and bools.

    ``evaluations`` counts the points at which the reduced objective
    |X_0| + |X_1| was evaluated over the state's simplex runs, the
    witness's included; the final evaluator call is not counted.
    ``converged`` says how the winning run stopped: True at the value
    spread ``TOLERANCE`` or at the state's upper bound, False at
    ``MAX_ITERATIONS``.  It says nothing of the distance to the maximum:
    the damped singlet at r = 1.06e-4 (16 restarts, seed 1) converges
    2.5e-9 below ``bell_upper``.  ``certified`` says that ``value`` is
    within ``TOLERANCE`` of the state's ``bell_upper``, exact for CHSH and a
    bound for Svetlichny, so it is the maximum to that tolerance.  It is
    False for that damped singlet, and for every state whose Svetlichny
    maximum sits below the bound.
    """

    value: float | np.ndarray
    directions: np.ndarray
    evaluations: int | np.ndarray
    converged: bool | np.ndarray
    certified: bool | np.ndarray


def _angles_to_directions(x: np.ndarray) -> np.ndarray:
    ang = np.asarray(x, dtype=float).reshape(-1, 2)
    sin, cos = np.sin(ang), np.cos(ang)
    return np.concatenate([sin[:, :1] * cos[:, 1:], sin[:, :1] * sin[:, 1:], cos[:, :1]], axis=1)


def _sample_start(rng: np.random.Generator, n_vectors: int) -> np.ndarray:
    z = 2.0 * rng.random(n_vectors) - 1.0
    phi = 2.0 * math.pi * rng.random(n_vectors)
    return np.column_stack([np.arccos(z), phi]).reshape(-1)


_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1.0, 2.0, 0.5, 0.5


def _nelder_mead(fn, x0: np.ndarray, step: np.ndarray, goal: np.ndarray):
    """Minimize fn from each start of each state in lockstep; returns (x_best, f_best, evaluations, converged).

    x0 is (states, starts, dim), step (starts,) and goal (states,); each
    result has the states and starts as its two leading axes.  ``fn(rows,
    x)`` gives the values at the points x (k, dim) of the rows ``rows`` (k,),
    row state * starts + start.  A row starts from the simplex x0 + step e_i,
    makes the standard reflect/expand/contract/shrink moves on its own and
    stops at value spread ``TOLERANCE``.  The state's goal is a lower bound
    of fn on its rows: all of them stop together, as converged, at the first
    iteration in which one has a best value within ``TOLERANCE`` of it.
    """
    n_states, n_starts, dim = x0.shape
    n = n_states * n_starts
    rows, diag = np.arange(n), np.arange(dim)
    pts = np.repeat(x0.reshape(n, 1, dim), dim + 1, axis=1)
    pts[:, diag + 1, diag] += np.tile(step, n_states)[:, None]
    vals = fn(np.repeat(rows, dim + 1), pts.reshape(-1, dim)).reshape(n, dim + 1)
    reach = np.repeat(goal, n_starts) + TOLERANCE  # per row: a best value at or below it certifies the row's state
    evals = np.full(n, dim + 1)
    x_best, f_best, n_evals, converged = pts[:, 0].copy(), vals[:, 0].copy(), evals.copy(), np.zeros(n, dtype=bool)
    live = rows[:, None]  # row positions as a column, to index each row's vertex order
    for iteration in range(MAX_ITERATIONS):  # each iteration evaluates every live row's reflection once
        order = vals.argsort(axis=1, kind="stable")
        pts, vals = pts[live, order], vals[live, order]
        done = vals[:, -1] - vals[:, 0] <= TOLERANCE
        reached = vals[:, 0] <= reach[rows]
        if reached.any():  # retire every row of a certified state, or its other rows keep the lockstep going
            done |= np.isin(rows // n_starts, rows[reached] // n_starts)
        if done.any():
            out = rows[done]
            x_best[out], f_best[out], converged[out] = pts[done, 0], vals[done, 0], True
            n_evals[out] = evals[done] + iteration
            rows, pts, vals, evals, live = rows[~done], pts[~done], vals[~done], evals[~done], live[: (~done).sum()]
        if not rows.size:  # every row has stopped, or an empty stack had none
            break
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
    if rows.size:  # rows still live after MAX_ITERATIONS
        best = np.argmin(vals, axis=1)
        x_best[rows], f_best[rows], n_evals[rows] = pts[live[:, 0], best], vals[live[:, 0], best], evals + MAX_ITERATIONS
    shape = (n_states, n_starts)
    return x_best.reshape(shape + (dim,)), f_best.reshape(shape), n_evals.reshape(shape), converged.reshape(shape)


def _lattice_steps(resolution: float) -> int:
    step = _numbers(resolution, "lattice resolution")
    if step.ndim or not step > 0.0:
        raise ValueError(f"resolution {resolution!r} must be one positive angle")
    steps = math.pi / float(step)
    if not math.isfinite(steps):
        raise ValueError(f"resolution {resolution!r} is too small: pi / resolution is not finite")
    k = round(steps)
    if k < 1 or abs(steps - k) > 1e-9:
        raise ValueError(f"resolution {resolution!r} must divide pi")
    return k


def _lattice(resolution: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Angles (n, 2) and directions (n, 3) of the lattice points in C order, H, and each point's row in (H's, -H's)."""
    k = _lattice_steps(resolution)
    theta, phi = np.divmod(np.arange((k + 1) * 2 * k), 2 * k)
    antipode = (k - theta) * 2 * k + (phi + k) % (2 * k)
    half = np.flatnonzero(np.arange(antipode.size) < antipode)
    order = np.argsort(np.concatenate([half, antipode[half]]))
    angles = np.column_stack([theta, phi]) * resolution
    h = _angles_to_directions(angles[half])
    return angles, np.concatenate([h, -h])[order], half, order


def _projected(t: np.ndarray, dirs: np.ndarray, half: np.ndarray, order: np.ndarray, modes: int) -> np.ndarray:
    """M[a, b] = a.T b or M[a, c, b] = T(a, c, b) at lattice directions; later axes are filled from H by negation."""
    m = dirs @ t.reshape(3, -1)
    m = m @ dirs[half].T if modes == 2 else dirs[half] @ (m.reshape(-1, 3, 3) @ dirs[half].T)
    for axis in range(1, modes):
        m = np.concatenate([m, -m], axis=axis).take(order, axis=axis)
    return m


def _fields(m: np.ndarray, half: np.ndarray, outer: np.ndarray, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """P[a, j] and Q[a', j] (beta expanded into sums of M's columns) in C order of j = (b, b') with b = H[outer], or
    of j = (c, c', b, b') with c = H[outer // n], c' = outer % n and b in H, on n lattice points."""
    if modes == 2:  # take, not fancy indexing, keeps the C layout that lets the results reshape without a copy
        b, rest = m.take(half[outer], axis=1)[..., None], m[:, None, :]
        p, q = b + rest, b - rest
    else:
        mc, mc2 = m.take(half[outer // len(m)], axis=1), m.take(outer % len(m), axis=1)
        s, d = mc + mc2, mc2 - mc
        p, q = s.take(half, axis=2)[..., None] + d[..., None, :], s[..., None, :] - d.take(half, axis=2)[..., None]
    return p.reshape(len(m), -1), q.reshape(len(m), -1)


def _grid_search(ts: np.ndarray, modes: int, resolution: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lattice maxima (s,) of the tensors ``ts`` (s, 3, 3(, 3)), angles (s, 4 * modes), directions (s, 2 * modes, 3)."""
    k = _lattice_steps(resolution)
    n = (k + 1) * 2 * k
    tuples = (n * n // 2) ** (modes - 1)  # later tuples j with each later party's first direction in H
    if 3 * n * tuples > DEFAULT_BUDGET:  # the sums P, Q and P + Q; checked before any lattice array is built
        raise BudgetError(f"lattice scan needs {3 * n * tuples} sums, budget is {DEFAULT_BUDGET}")
    angles, dirs, half, order = _lattice(resolution)
    outers = np.arange(n ** (modes - 1) // 2)  # b in H, or (c, c') with c in H
    chunks = np.array_split(outers, min(outers.size, -(-n * tuples // _CHUNK)))  # about _CHUNK entries per array
    values, index = np.empty(len(ts)), np.empty((len(ts), 2 * modes), dtype=int)
    for s, t in enumerate(ts):  # one state at a time, one chunk of tuples at a time, bounds the arrays held at once
        m = _projected(t, dirs, half, order, modes)
        best = np.empty((len(chunks), n))  # per chunk and a, the best over a' and the chunk's tuples
        for i, outer in enumerate(chunks):
            p, q = _fields(m, half, outer, modes)
            # fl(x + y) is monotone in y: over a', p + q spans [p + min q, p + max q] and |p + q| peaks at an end
            best[i] = np.maximum((p + q.max(axis=0)).max(axis=1), -(p + q.min(axis=0)).min(axis=1))
        a = int(np.argmax(best.max(axis=0)))  # the first a at the lattice maximum
        values[s] = best[:, a].max()
        first = (n, 0)  # the first (a', j) at the maximum in C order, over the chunks where a reaches it
        for i in np.flatnonzero(best[:, a] == values[s])[::-1]:  # min() takes any order; the last chunk's are held
            p, q = (p, q) if i == len(chunks) - 1 else _fields(m, half, chunks[i], modes)
            primed, j = np.unravel_index(np.argmax(np.abs(p[a] + q)), q.shape)
            first = min(first, (primed, chunks[i][0] * (tuples // outers.size) + j))
        later = np.array(np.unravel_index(first[1], (n // 2, n) * (modes - 1)))  # (b, b') or (c, c', b, b')
        later[::2] = half[later[::2]]  # each later party's first direction, from its position in H
        index[s] = [a, first[0], *later]
    return values, angles[index].reshape(len(ts), 4 * modes), dirs[index]


def grid_oracle(rhos, resolution: float) -> tuple[float | np.ndarray, np.ndarray]:
    """Lattice maxima (...) of the CHSH or Svetlichny value of states (..., d, d), and settings (..., 2n, 3) there."""
    t, modes = _tensor(rhos)
    lead = t.shape[:-modes]
    values, _, directions = _grid_search(t.reshape((-1,) + (3,) * modes), modes, resolution)
    return _maybe_scalar(values.reshape(lead)), directions.reshape(lead + (2 * modes, 3))


def _check_search(restarts: int, witness_resolution: float | None, seed: int) -> None:
    """Raise ValueError for restarts outside 1..MAX_RESTARTS, a seed < 0, a bool or non-integer, or a bad resolution."""
    _check_integer("restarts", restarts, 1, MAX_RESTARTS)
    _check_integer("seed", seed, 0)
    if witness_resolution is not None:
        _lattice_steps(witness_resolution)


def maximize_bell(
    rhos, witness_resolution: float | None = None, *, restarts: int = 64, seed: int = 0
) -> OptimizeResult:
    """Numerically maximized CHSH (4x4 operators) or Svetlichny (8x8 operators) value of each state (..., d, d).

    The simplex searches the later settings only; its rows are (state, start) pairs, stepped in lockstep, and a
    state's rows stop once one of them reaches the state's ``bell_upper`` (``OptimizeResult.certified``).
    """
    _check_search(restarts, witness_resolution, seed)
    t, modes = _tensor(rhos)
    lead, t = t.shape[:-modes], t.reshape((-1,) + (3,) * modes)  # one axis of states for the simplex rows
    rng = np.random.default_rng(seed)
    # (state, start, dim): angles of the 2 * modes - 2 later settings
    x0 = np.tile([_sample_start(rng, 2 * modes - 2) for _ in range(restarts)], (len(t), 1, 1))
    steps = [0.35] * restarts
    if witness_resolution is not None:
        # a and a' dropped; the witness lies within one lattice cell of a maximum, so its simplex starts small
        witness = _grid_search(t, modes, witness_resolution)[1][:, 4:]
        x0 = np.concatenate([x0, witness[:, None]], axis=1)
        steps.append(0.05)
    n_starts = len(steps)
    reference = _upper_bound(t, modes)  # each state's upper bound

    def negated(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        fields = _bell_fields(t[rows // n_starts], _angles_to_directions(x).reshape(len(x), x.shape[1] // 2, 3), modes)
        return -np.sqrt(np.add.reduce(fields * fields, axis=-1)).sum(axis=-1)  # -(|X_0| + |X_1|)

    x_best, f_best, evals, converged = _nelder_mead(negated, x0, np.array(steps), -reference)
    best = np.argmin(f_best, axis=1)  # per state the earliest start wins a tie
    states = np.arange(len(t))
    later = _angles_to_directions(x_best[states, best]).reshape(len(t), 2 * modes - 2, 3)
    fields = _bell_fields(t, later, modes)
    norms = np.linalg.norm(fields, axis=-1, keepdims=True)
    first = np.divide(fields, norms, out=np.tile([0.0, 0.0, 1.0], (len(t), 2, 1)), where=norms > 0.0)
    directions = np.concatenate([first, later], axis=1)
    # bell_value's body with its unit-vector check, on the T built above
    values = _bell_value(t, directions, modes)
    value, evaluations, stopped, certified = (_maybe_scalar(field.reshape(lead)) for field in (
        values, evals.sum(axis=1), converged[states, best], values >= reference - TOLERANCE))
    return OptimizeResult(value, directions.reshape(lead + (2 * modes, 3)), evaluations, stopped, certified)
