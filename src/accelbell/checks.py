"""Cross-module consistency checks behind the ``verify`` command.

Levels: "quick" runs the cheap invariants (channel dual path, Bell
evaluator dual path, CPTP, correlation law, restricted-family equivalence,
threshold, eigensolver, tangle endpoints, optimizer determinism); "full" adds
the optimizer-vs-bound grids, the oracle cross-check and the tangle
monotonicity sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entanglement, linalg, nonlocality, optimize, states, unruh

QUICK_SEED = 20260808


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


def _random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def _random_mixed(rng, n, rank):
    g = rng.normal(size=(2**n, rank)) + 1j * rng.normal(size=(2**n, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_directions(rng, shape):
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _check(name, residual, tolerance, detail=""):
    return CheckResult(name, residual <= tolerance, float(residual), tolerance, detail)


def _damped_singlet(r):
    return unruh.apply_channel(linalg.density(states.singlet()), 2, r)


def check_channel_dual_path(cases=50, seed=QUICK_SEED):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 4))
        mode = int(rng.integers(1, n + 1))
        r = float(rng.uniform(0.0, unruh.R_MAX))
        psi = _random_state(rng, n)
        kraus = unruh.apply_channel(linalg.density(psi), mode, r)
        reference = unruh.dilate_and_trace(psi, mode, r)
        worst = max(worst, float(np.max(np.abs(kraus - reference))))
    return _check("channel-dual-path", worst, 1e-12, f"{cases} random states")


def operator_bell_value(rho, dirs):
    """|Tr[rho S]| with S built from explicit Kronecker products of spin observables.

    The independent reference for the correlation-tensor evaluators: dirs
    holds (a, a', b, b') for CHSH or (a, a', c, c', b, b') for Svetlichny.
    """
    obs = [states.spin_observable(d) for d in dirs]
    if len(obs) == 4:
        a, ap, b, bp = obs
        s = linalg.tensor(a, b + bp) + linalg.tensor(ap, b - bp)
    else:
        a, ap, c, cp, b, bp = obs
        k, kp = b + bp, b - bp
        s = linalg.tensor(a, c, kp) + linalg.tensor(a, cp, k) + linalg.tensor(ap, c, k) - linalg.tensor(ap, cp, kp)
    return abs(linalg.expectation(rho, s))


def check_evaluator_dual_path(cases=20, settings=25, seed=QUICK_SEED + 7):
    """Correlation-tensor evaluators, scalar and batched, against the operator trace."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        for modes, evaluate in ((2, nonlocality.chsh_value), (3, nonlocality.svetlichny_value)):
            rho = _random_mixed(rng, modes, int(rng.integers(1, 5)))
            dirs = _random_directions(rng, (settings, 2 * modes))
            batched = evaluate(rho, dirs)
            for k in range(settings):
                reference = operator_bell_value(rho, dirs[k])
                worst = max(worst, abs(batched[k] - reference), abs(evaluate(rho, dirs[k]) - reference))
        rho = _random_mixed(rng, 2, int(rng.integers(1, 5)))
        a, b = _random_directions(rng, (2,))
        pair = linalg.tensor(states.spin_observable(a), states.spin_observable(b))
        worst = max(worst, abs(nonlocality.correlation(rho, a, b) - linalg.expectation(rho, pair)))
    detail = f"{cases} random mixed states per inequality, {settings} settings each, scalar and batched"
    return _check("evaluator-dual-path", worst, 1e-12, detail)


def check_channel_cptp(cases=50, seed=QUICK_SEED + 1):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 4))
        mode = int(rng.integers(1, n + 1))
        r = float(rng.uniform(0.0, unruh.R_MAX))
        out = unruh.apply_channel(linalg.density(_random_state(rng, n)), mode, r)
        herm = float(np.max(np.abs(out - out.conj().T)))
        tr = abs(complex(np.trace(out)) - 1.0)
        low = -float(linalg.hermitian_eigenvalues((out + out.conj().T) / 2)[0])
        worst = max(worst, herm, tr, low / 100.0)  # eigenvalue floor 1e-10 vs 1e-12 scale
    return _check("channel-cptp", worst, 1e-12, "hermiticity, trace, positivity of outputs")


def check_channel_identity():
    rng = np.random.default_rng(QUICK_SEED + 2)
    rho = linalg.density(_random_state(rng, 2))
    residual = float(np.max(np.abs(unruh.apply_channel(rho, 1, 0.0) - rho)))
    return _check("channel-identity-at-rest", residual, 0.0, "r = 0 must be the identity map")


def check_damped_correlation_law(grid=12):
    worst = 0.0
    for r in np.linspace(0.0, unruh.R_MAX, grid):
        rho = _damped_singlet(r)
        for theta in np.linspace(0.0, math.pi, grid):
            got = nonlocality.correlation(rho, states.Z_AXIS, (theta, 0.0))
            want = -math.cos(r) ** 2 * math.cos(theta)
            worst = max(worst, abs(got - want))
    return _check("damped-correlation-law", worst, 1e-12, "C = -cos^2(r) cos(theta) on a grid")


def check_restricted_equivalence(cases=40, seed=QUICK_SEED + 3):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        r = float(rng.uniform(0.0, unruh.R_MAX))
        gamma = float(rng.uniform(0.0, math.pi))
        full = nonlocality.chsh_value(_damped_singlet(r), nonlocality.restricted_settings(gamma, r))
        closed = nonlocality.chsh_restricted(r, gamma)
        worst = max(worst, abs(full - closed))
    return _check("restricted-chsh-equivalence", worst, 1e-12, f"{cases} random (r, gamma)")


def check_threshold_consistency():
    th = nonlocality.chsh_threshold()
    gammas = np.linspace(0.0, math.pi, 200001)
    scan_max = float(np.max(nonlocality.chsh_restricted(th.r_t, gammas)))
    residuals = [
        abs(unruh.acceleration_parameter(1.0 / th.a_t_over_omega_c) - th.r_t),
        abs(math.cos(th.r_t) ** 2 - th.cos2_rt),
        abs(scan_max - 2.0),
    ]
    return _check("threshold-consistency", max(residuals), 1e-9, "round trip and gamma scan at r_t")


def check_eigensolver(cases=150, seed=QUICK_SEED + 4):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 9))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (g + g.conj().T) / 2
        evs = linalg.hermitian_eigenvalues(h)
        worst = max(worst, abs(float(np.sum(evs)) - float(np.trace(h).real)))
    return _check("eigensolver-trace-sum", worst, 1e-10, f"{cases} random Hermitian matrices")


def check_tangle_endpoints():
    ground = linalg.density(states.gghz(0.0))
    ghz = linalg.density(states.gghz(math.pi / 4))
    residual = max(abs(entanglement.pi_tangle(ground).pi), abs(entanglement.pi_tangle(ghz).pi - 1.0))
    return _check("pi-tangle-endpoints", residual, 1e-10, "product state 0, GHZ 1")


def check_optimizer_determinism():
    rho = _damped_singlet(0.2)
    first = optimize.maximize_chsh(rho, restarts=4, seed=11)
    second = optimize.maximize_chsh(rho, restarts=4, seed=11)
    same = first.value == second.value and np.array_equal(first.directions, second.directions)
    return _check("optimizer-determinism", 0.0 if same else 1.0, 0.0, "identical seeds, identical output")


def check_horodecki_vs_numeric(points=8, seed=QUICK_SEED + 5):
    worst = 0.0
    for r in np.linspace(0.0, unruh.R_MAX, points):
        rho = _damped_singlet(float(r))
        numeric = optimize.maximize_chsh(rho, restarts=12, seed=seed).value
        worst = max(worst, abs(nonlocality.horodecki_max(rho) - numeric))
    return _check("horodecki-vs-numeric", worst, 1e-4, f"damped singlet, {points} r values")


def check_svetlichny_vs_envelope(seed=QUICK_SEED + 6):
    margins = []
    worst = -math.inf
    for t1 in (math.pi / 16, math.pi / 8, math.pi / 4):
        for r in (0.0, math.pi / 8, unruh.R_MAX):
            rho = unruh.apply_channel(linalg.density(states.gghz(t1)), 3, r)
            numeric = optimize.maximize_svetlichny(rho, restarts=12, seed=seed).value
            ref = nonlocality.svetlichny_bound_gghz(t1, r)
            margins.append(f"t1={t1:.4f} r={r:.4f} numeric={numeric:.6f} envelope={ref.envelope:.6f}")
            worst = max(worst, numeric - ref.envelope)
    return _check("svetlichny-numeric-vs-envelope", max(worst, 0.0), 1e-6, "; ".join(margins))


def check_tangle_monotonicity():
    thetas = np.linspace(math.pi / 24, math.pi / 4, 8)
    worst = -math.inf
    for r in (0.0, math.pi / 8, unruh.R_MAX - 0.01):
        vals = [
            entanglement.pi_tangle(unruh.apply_channel(linalg.density(states.gghz(float(t))), 3, r)).pi
            for t in thetas
        ]
        worst = max(worst, float(np.max(-np.diff(vals))))
    ghz_vals = [
        entanglement.pi_tangle(unruh.apply_channel(linalg.density(states.gghz(math.pi / 4)), 3, float(r))).pi
        for r in np.linspace(0.0, unruh.R_MAX, 8)
    ]
    worst = max(worst, float(np.max(np.diff(ghz_vals))))
    return _check("pi-tangle-monotonicity", max(worst, 0.0), 1e-12, "increasing in theta1, decreasing in r")


def check_ms_bounds():
    thetas = np.linspace(0.0, math.pi / 2, 33)
    rs = np.linspace(0.0, unruh.R_MAX, 17)
    worst = 0.0
    for bound in (nonlocality.svetlichny_bound_ms_pair, nonlocality.svetlichny_bound_ms_slice):
        surface = bound(thetas[None, :], rs[:, None])
        worst = max(worst, float(np.max(np.diff(surface, axis=0))))  # non-increasing in r
        near_limit = bound(thetas, unruh.R_MAX - 0.01)
        if not np.any(near_limit > 4.0):
            worst = max(worst, 1.0)
    return _check("ms-bounds-structure", max(worst, 0.0), 1e-12, "non-increasing in r, violation exists below r_max")


QUICK_CHECKS = [
    check_channel_dual_path,
    check_evaluator_dual_path,
    check_channel_cptp,
    check_channel_identity,
    check_damped_correlation_law,
    check_restricted_equivalence,
    check_threshold_consistency,
    check_eigensolver,
    check_tangle_endpoints,
    check_optimizer_determinism,
]

FULL_CHECKS = QUICK_CHECKS + [
    check_horodecki_vs_numeric,
    check_svetlichny_vs_envelope,
    check_tangle_monotonicity,
    check_ms_bounds,
]


def run_checks(level: str = "quick") -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verify level {level!r} (use 'quick' or 'full')")
    results = []
    for fn in FULL_CHECKS if level == "full" else QUICK_CHECKS:
        try:
            results.append(fn())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(fn.__name__.replace("check_", "").replace("_", "-"), False, math.inf, 0.0, f"raised {exc!r}"))
    return results


def verify(level: str = "quick") -> tuple[int, str]:
    """Run the invariant suite; returns (exit_code, report text)."""
    results = run_checks(level)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.name:<32} residual={res.residual:.3e}  tol={res.tolerance:.0e}")
        if res.detail and (not res.passed or res.name == "svetlichny-numeric-vs-envelope"):
            lines.append(f"      {res.detail}")
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed} passed, {failed} failed (level={level})")
    return (0 if failed == 0 else 1), "\n".join(lines)
