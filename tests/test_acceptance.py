"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite targets well under five minutes.
"""

import math

import numpy as np

from accelbell.cli import SweepSpec, run_sweep
from accelbell.entanglement import pi_tangle
from accelbell.linalg import density
from accelbell.nonlocality import (
    bell_upper,
    chsh_restricted,
    chsh_threshold,
    correlation_tensor,
    svetlichny_bound_gghz,
    svetlichny_bound_ms,
)
from accelbell.optimize import maximize_bell
from accelbell.states import Z_AXIS, gghz, maximal_slice, singlet
from accelbell.unruh import R_MAX, apply_channel, dilate_and_trace

from helpers import random_density, random_state

SQRT2 = math.sqrt(2.0)
R_T = math.acos(2.0 / math.sqrt(5.0))


def _report(number, name, ok, detail=""):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def restricted_gamma_max(r):
    gammas = np.linspace(0.0, math.pi, 40001)
    return float(np.max(chsh_restricted(r, gammas)))


def test_criterion_1_chsh_threshold():
    # violation iff cos^2 r > 4/5, with margin 1e-3 on both sides
    iff_ok = all(restricted_gamma_max(float(r)) > 2.0 for r in np.linspace(0.0, R_T - 1e-3, 20)) and all(
        restricted_gamma_max(float(r)) <= 2.0 for r in np.linspace(R_T + 1e-3, R_MAX, 20)
    )
    lo, hi = 0.3, 0.6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if restricted_gamma_max(mid) > 2.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    crossing_ok = abs(crossing - R_T) < 1e-6
    ratio_ok = abs(chsh_threshold().a_t_over_omega_c - 2.0 * math.pi / math.log(4.0)) < 1e-9
    _report(
        1,
        "chsh-threshold",
        iff_ok and crossing_ok and ratio_ok,
        f"crossing={crossing:.9f} target={R_T:.9f} a_t/(wc)={chsh_threshold().a_t_over_omega_c:.11f}",
    )


def test_criterion_2_damped_correlation_law():
    worst = 0.0
    for r in np.linspace(0.0, R_MAX, 20):
        t = correlation_tensor(apply_channel(density(singlet()), 2, float(r)))
        for theta in np.linspace(0.0, math.pi, 20):
            got = Z_AXIS @ t @ [math.sin(theta), 0.0, math.cos(theta)]
            worst = max(worst, abs(got + math.cos(r) ** 2 * math.cos(theta)))
    _report(2, "damped-correlation-law", worst <= 1e-12, f"max residual {worst:.2e} on 20x20 grid")


def test_criterion_3_gghz_surface():
    thetas = np.linspace(0.0, math.pi / 4.0, 64)
    rs = np.linspace(0.0, R_MAX, 64)
    ref = svetlichny_bound_gghz(thetas[:, None], rs[None, :])
    surface, envelope = ref.bound, ref.envelope
    corner_ok = abs(surface[-1, 0] - 4.0 * SQRT2) < 1e-12 and abs(surface[-1, -1] - 4.0) < 1e-12
    limit_ok = bool(np.all(surface[:, -1] <= 4.0 + 1e-12) and np.all(envelope[:, -1] <= 4.0 + 1e-12))
    per_r_ok = bool(np.all(surface[:, :-1].max(axis=0) > 4.0))
    _report(
        3,
        "gghz-surface",
        corner_ok and limit_ok and per_r_ok,
        f"corner={surface[-1, 0]:.9f} limit_max={surface[:, -1].max():.9f}",
    )


def test_criterion_4_ms_surfaces():
    thetas = np.linspace(0.0, math.pi / 2.0, 64)
    rs = np.linspace(0.0, R_MAX, 64)
    pair = svetlichny_bound_ms(thetas[None, :], rs[:, None], 1)
    closed = 4.0 * np.cos(rs)[:, None] * np.sqrt(1.0 + np.sin(thetas) ** 2)[None, :]
    pointwise_ok = float(np.max(np.abs(pair - closed))) <= 1e-12
    exists_pair = bool(np.all(pair[:-1].max(axis=1) > 4.0))
    limit_pair = bool(np.all(pair[-1] <= 4.0 + 1e-12))
    slice_surface = svetlichny_bound_ms(thetas[None, :], rs[:, None], 3)
    exists_slice = bool(np.all(slice_surface[:-1].max(axis=1) > 4.0))
    limit_slice = bool(np.all(slice_surface[-1] <= 4.0 + 1e-12))
    _report(
        4,
        "ms-surfaces",
        pointwise_ok and exists_pair and limit_pair and exists_slice and limit_slice,
        f"pair residual {float(np.max(np.abs(pair - closed))):.2e}",
    )


def test_criterion_5_optimizer_certification():
    ghz = density(gghz(math.pi / 4.0))
    ghz_value = maximize_bell(ghz, restarts=24, seed=50).value
    ghz_ok = abs(ghz_value - 4.0 * SQRT2) < 1e-6

    envelope_ok, tight_ok = True, True
    details = []
    grid = [(t1, r) for t1 in (math.pi / 16.0, math.pi / 8.0, 3.0 * math.pi / 16.0, math.pi / 4.0)
            for r in (0.0, math.pi / 8.0, R_MAX)]
    rhos = [apply_channel(density(gghz(t1)), 3, r) for t1, r in grid]
    for (t1, r), numeric in zip(grid, maximize_bell(rhos, restarts=16, seed=51).value):
        ref = svetlichny_bound_gghz(t1, r)
        if numeric > ref.envelope + 1e-6:
            envelope_ok = False
            details.append(f"exceeds envelope at t1={t1:.4f} r={r:.4f}")
        if r == 0.0 and math.sin(2.0 * t1) ** 2 >= 0.5 and abs(numeric - ref.equatorial_value) > 1e-3:
            tight_ok = False
            details.append(f"loose at t1={t1:.4f}: {numeric:.6f} vs {ref.equatorial_value:.6f}")
    _report(
        5,
        "optimizer-certification",
        ghz_ok and envelope_ok and tight_ok,
        f"ghz={ghz_value:.8f} " + "; ".join(details),
    )


def test_criterion_6_channel_contract():
    rng = np.random.default_rng(606)
    worst_dual, worst_cptp = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        mode = int(rng.integers(1, n + 1))
        r = float(rng.uniform(0.0, R_MAX))
        psi = random_state(rng, n)
        kraus = apply_channel(density(psi), mode, r)
        worst_dual = max(worst_dual, float(np.max(np.abs(kraus - dilate_and_trace(psi, mode, r)))))
        worst_cptp = max(
            worst_cptp,
            float(np.max(np.abs(kraus - kraus.conj().T))),
            abs(complex(np.trace(kraus)) - 1.0),
        )
        lowest = float(np.linalg.eigvalsh((kraus + kraus.conj().T) / 2.0)[0])
        assert lowest >= -1e-10
    _report(
        6,
        "channel-contract",
        worst_dual <= 1e-12 and worst_cptp <= 1e-12,
        f"dual-path {worst_dual:.2e}, cptp {worst_cptp:.2e} on 200 cases",
    )


def test_criterion_7_entanglement_measures():
    ends_ok = abs(pi_tangle(density(gghz(0.0))).pi) < 1e-10 and abs(pi_tangle(density(gghz(math.pi / 4.0))).pi - 1.0) < 1e-10
    thetas = np.linspace(math.pi / 40.0, math.pi / 4.0, 10)
    increasing_ok = True
    for r in (0.0, math.pi / 16.0, math.pi / 8.0, 3.0 * math.pi / 16.0, R_MAX - 0.01):
        vals = [pi_tangle(apply_channel(density(gghz(float(t))), 3, r)).pi for t in thetas]
        if not all(b - a > 1e-12 for a, b in zip(vals, vals[1:])):
            increasing_ok = False
    ghz_vals = [
        pi_tangle(apply_channel(density(gghz(math.pi / 4.0)), 3, float(r))).pi for r in np.linspace(0.0, R_MAX, 10)
    ]
    decreasing_ok = all(b <= a + 1e-12 for a, b in zip(ghz_vals, ghz_vals[1:]))
    _report(7, "entanglement-measures", ends_ok and increasing_ok and decreasing_ok, f"ghz tangle ends {ghz_vals[0]:.6f}->{ghz_vals[-1]:.6f}")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(808)
    rhos = [random_density(rng, 2, rank=int(rng.integers(1, 5))) for _ in range(50)]
    rhos += [apply_channel(density(singlet()), 2, float(r)) for r in np.linspace(0.0, R_MAX, 10)]
    numeric = maximize_bell(rhos, restarts=14, seed=88).value
    worst = max(abs(bell_upper(rho) - value) for rho, value in zip(rhos, numeric))
    _report(8, "oracle-equivalence", worst <= 1e-4, f"max |closed-form - numeric| = {worst:.2e}")


def test_criterion_9_sweep_determinism():
    spec = SweepSpec(
        state="gghz",
        param_start=0.0,
        param_stop=math.pi / 4.0,
        param_steps=2,
        r_start=0.0,
        r_stop=R_MAX,
        r_steps=3,
        mode=3,
        columns=("svetlichny_bound", "svetlichny_numeric", "pi_tangle"),
        seed=99,
        restarts=6,
    )
    first = run_sweep(spec)
    second = run_sweep(spec)
    _report(9, "sweep-determinism", first.encode() == second.encode(), f"{len(first)} bytes")
