"""The benchmark's workloads: the `accelbell sweep` invocations one pass makes.

A workload is a tuple of `Sweep`s.  Each sweep carries the exact CLI
arguments (without `--out`, which the pass adds) and the grid the CLI will
evaluate, so the output checks can rebuild every row independently.

The workload seed is passed to the CLI as `--seed` and moves each grid end
point inward by at most `SHIFT` of its range, so different seeds evaluate
different but equally sized grids.  The certification point is the
threshold r_t itself and is not moved: that sweep is about the threshold.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

QUARTER = math.pi / 4.0
R_T = math.acos(2.0 / math.sqrt(5.0))
SHIFT = 1e-3

FLAGGED = {
    "chsh_restricted_max": 2.0,
    "chsh_horodecki": 2.0,
    "chsh_numeric": 2.0,
    "svetlichny_bound": 4.0,
    "svetlichny_envelope": 4.0,
    "svetlichny_numeric": 4.0,
}


@dataclass(frozen=True)
class Sweep:
    state: str
    mode: int
    columns: tuple
    params: np.ndarray
    rs: np.ndarray
    argv: tuple

    @property
    def points(self) -> int:
        return self.params.size * self.rs.size

    def header(self) -> list:
        out = ["param", "r"]
        for col in self.columns:
            out.append(col)
            if col in FLAGGED:
                out.append(col + "_violation")
        return out

    def grid(self) -> tuple:
        """(param, r) of every output row, in the CLI's row-major order."""
        p, r = np.meshgrid(self.params, self.rs, indexing="ij")
        return p.ravel(), r.ravel()


def _ends(rng: random.Random, lo: float, hi: float, steps: int) -> tuple:
    if steps == 1:
        return lo, hi
    span = hi - lo
    return lo + rng.random() * SHIFT * span, hi - rng.random() * SHIFT * span


def _sweep(rng, seed, state, mode, columns, param, r, extra=()) -> Sweep:
    (p_lo, p_hi, p_steps), (r_lo, r_hi, r_steps) = param, r
    p0, p1 = _ends(rng, p_lo, p_hi, p_steps)
    r0, r1 = _ends(rng, r_lo, r_hi, r_steps)
    argv = (
        "sweep", "--state", state, "--mode", str(mode),
        "--param-start", repr(p0), "--param-stop", repr(p1), "--param-steps", str(p_steps),
        "--r-start", repr(r0), "--r-stop", repr(r1), "--r-steps", str(r_steps),
        "--columns", ",".join(columns), "--seed", str(seed), *extra,
    )
    return Sweep(
        state=state,
        mode=mode,
        columns=tuple(columns),
        params=np.linspace(p0, p1, p_steps),
        rs=np.linspace(r0, r1, r_steps),
        argv=argv,
    )


def surface(seed: int, tiny: bool = False) -> tuple:
    """The paper's bound surfaces: pi_tangle dominates (entanglement + linalg)."""
    rng = random.Random(seed)
    n1, n2 = (4, 2) if tiny else (64, 32)
    return (
        _sweep(rng, seed, "gghz", 3, ("svetlichny_bound", "svetlichny_envelope", "pi_tangle"),
               (0.0, QUARTER, n1), (0.0, QUARTER, n1)),
        _sweep(rng, seed, "ms", 3, ("svetlichny_bound", "pi_tangle"),
               (0.0, 2.0 * QUARTER, n2), (0.0, QUARTER, n2)),
    )


def numeric(seed: int, tiny: bool = False) -> tuple:
    """The optimizer path: scalar Bell evaluations inside the numeric maximizer."""
    rng = random.Random(seed)
    r_steps, restarts_2, restarts_3 = (2, 4, 2) if tiny else (4, 16, 8)
    return (
        _sweep(rng, seed, "singlet", 2, ("chsh_horodecki", "chsh_numeric"),
               (0.0, 0.0, 1), (0.0, QUARTER, r_steps), ("--restarts", str(restarts_2))),
        _sweep(rng, seed, "gghz", 3, ("svetlichny_envelope", "svetlichny_numeric"),
               (QUARTER / 4.0, QUARTER, 2), (0.0, QUARTER, 2 if tiny else 3),
               ("--restarts", str(restarts_3))),
    )


def certify(seed: int, tiny: bool = False) -> tuple:
    """The certification path: the batched lattice certificate at the CHSH threshold."""
    rng = random.Random(seed)
    restarts, resolution = (1, 2.0 * QUARTER) if tiny else (4, QUARTER)
    return (
        _sweep(rng, seed, "singlet", 2, ("chsh_restricted_max", "chsh_horodecki", "chsh_numeric"),
               (0.0, 0.0, 1), (R_T, R_T, 1), ("--restarts", str(restarts), "--certify", repr(resolution))),
    )


WORKLOADS = {"surface": surface, "numeric": numeric, "certify": certify}
