"""Correctness checks on the CSV a sweep wrote, computed outside the timed region.

Every check is evaluated row by row and counted, so a pass reports how
many checks it attempted and how many failed.  The references here share
no code with accelbell: states, the damping channel, partial traces and
partial transposes are rebuilt from their definitions with reshapes, and
the spectra come from `np.linalg.eigvalsh`.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import FLAGGED, QUARTER, SHIFT, Sweep

VIOLATION_TOL = 1e-9
GRID_RTOL = 1e-11          # the CSV carries 12 significant digits
CLOSED_FORM_ATOL = 1e-9
PI_TANGLE_ATOL = 1e-10
NUMERIC_VS_HORODECKI_ATOL = 1e-4
ENVELOPE_SLACK = 1e-6
TIGHT_ATOL = 1e-3


def _states(state: str, params: np.ndarray) -> np.ndarray:
    """State vectors, shape (G, 8), with mode 1 as the most significant bit."""
    psi = np.zeros((params.size, 8))
    if state == "gghz":        # cos t |000> + sin t |111>
        psi[:, 0], psi[:, 7] = np.cos(params), np.sin(params)
    else:                      # (|000> + |11>(cos t |0> + sin t |1>)) / sqrt 2
        psi[:, 0], psi[:, 6], psi[:, 7] = 1.0, np.cos(params), np.sin(params)
        psi /= math.sqrt(2.0)
    return psi


def _damped(psi: np.ndarray, rs: np.ndarray, mode: int) -> np.ndarray:
    """Kraus pair diag(cos r, 1), sin r |1><0| on one mode; shape (G, 2,2,2, 2,2,2)."""
    g = psi.shape[0]
    kraus = np.zeros((g, 2, 2, 2))
    kraus[:, 0, 0, 0] = np.cos(rs)
    kraus[:, 0, 1, 1] = 1.0
    kraus[:, 1, 1, 0] = np.sin(rs)
    ket = np.moveaxis(psi.reshape(g, 2, 2, 2), mode, 1)
    branches = np.einsum("gkab,gb...->gka...", kraus, ket)
    branches = np.moveaxis(branches, 2, mode + 1).reshape(g, 2, 8)
    rho = np.einsum("gki,gkj->gij", branches, branches.conj())
    return rho.reshape((g,) + (2,) * 6)


def _negativity(rho: np.ndarray, modes: int, pivot: int) -> np.ndarray:
    """max(||rho^T_pivot||_1 - 1, 0) for a batch of (G,) + (2,)*2*modes tensors."""
    pt = np.swapaxes(rho, 1 + pivot, 1 + pivot + modes)
    d = 2**modes
    eig = np.linalg.eigvalsh(pt.reshape(-1, d, d))
    return np.maximum(np.abs(eig).sum(axis=1) - 1.0, 0.0)


def pi_tangle_reference(state: str, mode: int, params: np.ndarray, rs: np.ndarray) -> np.ndarray:
    rho = _damped(_states(state, params), rs, mode)
    one_vs_rest = [_negativity(rho, 3, m) for m in range(3)]
    pair = {}
    for traced in range(3):
        reduced = np.trace(rho, axis1=1 + traced, axis2=4 + traced)
        kept = [m for m in range(3) if m != traced]
        pair[tuple(kept)] = _negativity(reduced, 2, 0)
    residuals = [
        one_vs_rest[m] ** 2 - sum(pair[tuple(sorted((m, k)))] ** 2 for k in range(3) if k != m)
        for m in range(3)
    ]
    pi = sum(residuals) / 3.0
    return np.where((pi > -1e-12) & (pi < 0.0), 0.0, pi)


def parse(sweep: Sweep, text: str | None) -> dict | None:
    """Column name -> values, or None when the CSV is missing or malformed."""
    if text is None or not text.endswith("\n"):
        return None
    lines = text[:-1].split("\n")
    if lines[0].split(",") != sweep.header() or len(lines) - 1 != sweep.points:
        return None
    try:
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError:
        return None
    if table.shape != (sweep.points, len(sweep.header())):
        return None
    return dict(zip(sweep.header(), table.T))


def _row_checks(sweep: Sweep) -> list:
    """(label, rows it applies to, predicate on the parsed table) triples."""
    p, r = sweep.grid()
    every = np.ones(p.size, dtype=bool)
    cols = set(sweep.columns)
    checks = [("grid", every, lambda t: (np.abs(t["param"] - p) <= GRID_RTOL * np.maximum(1.0, np.abs(p)))
                                        & (np.abs(t["r"] - r) <= GRID_RTOL * np.maximum(1.0, np.abs(r))))]

    def flag(col, bound):
        def ok(t):
            edge = bound + VIOLATION_TOL
            near = np.abs(t[col] - edge) <= GRID_RTOL * edge
            return near | (t[col + "_violation"] == (t[col] > edge))
        return ok

    for col in sweep.columns:
        if col in FLAGGED:
            checks.append((f"flag:{col}", every, flag(col, FLAGGED[col])))

    def close(col, ref, atol):
        return lambda t: np.abs(t[col] - ref) <= atol

    if "pi_tangle" in cols:
        ref = pi_tangle_reference(sweep.state, sweep.mode, p, r)
        checks.append(("pi_tangle_reference", every, close("pi_tangle", ref, PI_TANGLE_ATOL)))
    if "chsh_horodecki" in cols:     # damped singlet: 2 sqrt(2) cos r
        checks.append(("horodecki_closed_form", every,
                       close("chsh_horodecki", 2.0 * math.sqrt(2.0) * np.cos(r), CLOSED_FORM_ATOL)))
    if "chsh_restricted_max" in cols:  # 2 cos^2 r * 5/4
        checks.append(("restricted_closed_form", every,
                       close("chsh_restricted_max", 2.5 * np.cos(r) ** 2, CLOSED_FORM_ATOL)))
    if "chsh_numeric" in cols:
        checks.append(("numeric_vs_horodecki", every,
                       lambda t: np.abs(t["chsh_numeric"] - t["chsh_horodecki"]) <= NUMERIC_VS_HORODECKI_ATOL))
    if "svetlichny_envelope" in cols:
        axial = 4.0 * (2.0 * np.cos(p) ** 2 * np.cos(r) ** 2 - 1.0)
        equatorial = 4.0 * math.sqrt(2.0) * np.sin(2.0 * p) * np.cos(r)
        checks.append(("envelope_closed_form", every,
                       close("svetlichny_envelope", np.maximum(axial, equatorial), CLOSED_FORM_ATOL)))
    if sweep.state == "ms" and "svetlichny_bound" in cols and sweep.mode == 3:
        slice_bound = 4.0 * np.sqrt(np.cos(p) ** 2 * np.cos(2.0 * r) ** 2 + 2.0 * np.sin(p) ** 2 * np.cos(r) ** 2)
        checks.append(("ms_slice_closed_form", every, close("svetlichny_bound", slice_bound, CLOSED_FORM_ATOL)))
    if "svetlichny_numeric" in cols:
        checks.append(("numeric_below_envelope", every,
                       lambda t: t["svetlichny_numeric"] <= t["svetlichny_envelope"] + ENVELOPE_SLACK))
        # the envelope is reached at the undamped end when sin^2 2 t1 >= 1/2
        undamped_end = sweep.rs[0] <= SHIFT * QUARTER
        tight_rows = (r == sweep.rs[0]) & undamped_end & (np.sin(2.0 * p) ** 2 >= 0.5)
        checks.append(("numeric_tight", tight_rows,
                       lambda t: np.abs(t["svetlichny_numeric"] - t["svetlichny_envelope"]) <= TIGHT_ATOL))
    return checks


def check(sweep: Sweep, texts: list) -> tuple:
    """(attempted, failed) over every row check of one sweep's CSV in each pass.

    A missing (None) or malformed CSV fails every check it would have had.
    """
    checks = _row_checks(sweep)
    attempted = failed = 0
    for text in texts:
        table = parse(sweep, text)
        for _, rows, predicate in checks:
            n = int(rows.sum())
            attempted += n
            failed += n if table is None else int(np.sum(rows & ~predicate(table)))
    return attempted, failed


def numeric_gap(sweep: Sweep, text: str | None) -> float | None:
    """Largest |numeric - closed form| in one sweep's CSV (0 without numeric
    columns, None when the CSV is missing or malformed)."""
    table = parse(sweep, text)
    if table is None:
        return None
    gaps = [0.0]
    if "chsh_numeric" in table:
        gaps.append(float(np.max(np.abs(table["chsh_numeric"] - table["chsh_horodecki"]))))
    if "svetlichny_numeric" in table:
        gaps.append(float(np.max(np.abs(table["svetlichny_numeric"] - table["svetlichny_envelope"]))))
    return max(gaps)
