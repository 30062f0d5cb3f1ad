"""Cross-module consistency checks behind the ``verify`` command.

Levels: "quick" runs the cheap invariants (channel, Bell evaluator and
lattice oracle dual paths, CPTP, correlation law, restricted-family equivalence,
threshold, eigensolver, tangle endpoints, optimizer determinism); "full" adds
the optimizer-vs-bound grids, the oracle cross-check and the tangle
monotonicity sweeps.

Each ``check_*`` function returns (residual, tolerance, detail).
``run_checks`` times it and reports it under its function name without
"check_" and with dashes, whether it passes, fails or raises.
"""

from __future__ import annotations

import math
import time
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
    seconds: float = 0.0


def _random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def _random_mixed(rng, n, rank=None):
    rank = rank or 2**n  # full rank by default
    g = rng.normal(size=(2**n, rank)) + 1j * rng.normal(size=(2**n, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_directions(rng, shape):
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


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
    return worst, 1e-12, f"{cases} random states"


def operator_bell_value(rho, dirs):
    """|Tr[rho S]| with S built from explicit Kronecker products of spin observables.

    The independent reference for the correlation-tensor ``bell_value``: dirs
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
    """The correlation-tensor ``bell_value``, scalar and batched, against the operator trace."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        for modes in (2, 3):
            rho = _random_mixed(rng, modes, int(rng.integers(1, 5)))
            dirs = _random_directions(rng, (settings, 2 * modes))
            batched = nonlocality.bell_value(rho, dirs)
            for k in range(settings):
                reference, single = operator_bell_value(rho, dirs[k]), nonlocality.bell_value(rho, dirs[k])
                worst = max(worst, abs(batched[k] - reference), abs(single - reference))
        rho = _random_mixed(rng, 2, int(rng.integers(1, 5)))
        a, b = _random_directions(rng, (2,))
        pair = linalg.tensor(states.spin_observable(a), states.spin_observable(b))
        worst = max(worst, abs(nonlocality.correlation(rho, a, b) - linalg.expectation(rho, pair)))
    detail = f"{cases} random mixed states per inequality, {settings} settings each, scalar and batched"
    return worst, 1e-12, detail


def check_lattice_dual_path(cases=10, seed=QUICK_SEED + 8):
    """Lattice oracle against a batched ``bell_value`` scan of every lattice setting.

    CHSH on the pi/2 lattice (12^4 settings), Svetlichny on the pi lattice
    (4^6).  The oracle's setting must reach the scan maximum: sign-flipped
    settings tie, so its index may differ from the scan's by rounding.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        for modes, resolution in ((2, math.pi / 2), (3, math.pi)):
            rho = _random_mixed(rng, modes, int(rng.integers(1, 5)))
            (value,), (setting,) = optimize.grid_oracle([rho], resolution)
            dirs = optimize._angles_to_directions(optimize._lattice(resolution))
            every = dirs[np.stack(np.indices((len(dirs),) * 2 * modes), axis=-1)]  # every lattice setting
            scan = float(np.max(nonlocality.bell_value(rho, every)))
            worst = max(worst, abs(value - scan), abs(nonlocality.bell_value(rho, setting) - scan))
    return worst, 1e-12, f"{cases} random mixed states per inequality"


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
    return worst, 1e-12, "hermiticity, trace, positivity of outputs"


def check_channel_identity_at_rest():
    rng = np.random.default_rng(QUICK_SEED + 2)
    rho = linalg.density(_random_state(rng, 2))
    residual = float(np.max(np.abs(unruh.apply_channel(rho, 1, 0.0) - rho)))
    return residual, 0.0, "r = 0 must be the identity map"


def check_damped_correlation_law(grid=12):
    worst = 0.0
    rs = np.linspace(0.0, unruh.R_MAX, grid)
    for r, rho in zip(rs, _damped_singlet(rs)):
        for theta in np.linspace(0.0, math.pi, grid):
            got = nonlocality.correlation(rho, states.Z_AXIS, [math.sin(theta), 0.0, math.cos(theta)])
            want = -math.cos(r) ** 2 * math.cos(theta)
            worst = max(worst, abs(got - want))
    return worst, 1e-12, "C = -cos^2(r) cos(theta) on a grid"


def check_restricted_chsh_equivalence(cases=40, seed=QUICK_SEED + 3):
    # one (r, gamma) draw per case, in the order of the scalar draws
    rs, gammas = np.random.default_rng(seed).uniform((0.0, 0.0), (unruh.R_MAX, math.pi), size=(cases, 2)).T
    full = nonlocality.bell_value(_damped_singlet(rs), nonlocality.restricted_settings(gammas, rs))
    worst = float(np.max(np.abs(full - nonlocality.chsh_restricted(rs, gammas))))
    return worst, 1e-12, f"{cases} random (r, gamma)"


def check_threshold_consistency():
    th = nonlocality.chsh_threshold()
    gammas = np.linspace(0.0, math.pi, 200001)
    scan_max = float(np.max(nonlocality.chsh_restricted(th.r_t, gammas)))
    residuals = [
        abs(unruh.acceleration_parameter(1.0 / th.a_t_over_omega_c) - th.r_t),
        abs(math.cos(th.r_t) ** 2 - th.cos2_rt),
        abs(scan_max - 2.0),
    ]
    return max(residuals), 1e-9, "round trip and gamma scan at r_t"


def check_eigensolver_trace_sum(cases=150, seed=QUICK_SEED + 4):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 9))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (g + g.conj().T) / 2
        evs = linalg.hermitian_eigenvalues(h)
        worst = max(worst, abs(float(np.sum(evs)) - float(np.trace(h).real)))
    return worst, 1e-10, f"{cases} random Hermitian matrices"


def check_pi_tangle_endpoints():
    ground, ghz = linalg.density(states.gghz([0.0, math.pi / 4]))
    residual = max(abs(entanglement.pi_tangle(ground).pi), abs(entanglement.pi_tangle(ghz).pi - 1.0))
    return residual, 1e-10, "product state 0, GHZ 1"


def check_optimizer_determinism():
    rho = _damped_singlet(0.2)
    first, second = (optimize.maximize_bell([rho], restarts=4, seed=11)[0] for _ in range(2))
    same = first.value == second.value and np.array_equal(first.directions, second.directions)
    return 0.0 if same else 1.0, 0.0, "identical seeds, identical output"


def check_horodecki_vs_numeric(points=8, seed=QUICK_SEED + 5):
    rhos = _damped_singlet(np.linspace(0.0, unruh.R_MAX, points))
    numeric = [res.value for res in optimize.maximize_bell(rhos, restarts=12, seed=seed)]
    worst = float(np.max(np.abs(nonlocality.horodecki_max(rhos) - numeric)))
    return worst, 1e-4, f"damped singlet, {points} r values"


def check_svetlichny_numeric_vs_envelope(seed=QUICK_SEED + 6):
    """The envelope is the closed-form maximum on this family, so the numeric value must meet it from both sides."""
    t1s, rs = (axis.ravel() for axis in np.meshgrid(
        (math.pi / 16, math.pi / 8, math.pi / 4), (0.0, math.pi / 8, unruh.R_MAX), indexing="ij"))
    rhos = unruh.apply_channel(linalg.density(states.gghz(t1s)), 3, rs)
    numeric = [res.value for res in optimize.maximize_bell(rhos, restarts=12, seed=seed)]
    envelope = nonlocality.svetlichny_bound_gghz(t1s, rs).envelope
    margins = [f"t1={t1:.4f} r={r:.4f} numeric={n:.6f} envelope={e:.6f}"
               for t1, r, n, e in zip(t1s, rs, numeric, envelope)]
    return max(abs(n - e) for n, e in zip(numeric, envelope)), 1e-6, "; ".join(margins)


def check_pi_tangle_monotonicity():
    rs = np.array([[0.0], [math.pi / 8], [unruh.R_MAX - 0.01]])  # rows of the (r, theta1) stack
    by_theta = unruh.apply_channel(linalg.density(states.gghz(np.linspace(math.pi / 24, math.pi / 4, 8))), 3, rs)
    by_r = unruh.apply_channel(linalg.density(states.gghz(math.pi / 4)), 3, np.linspace(0.0, unruh.R_MAX, 8))
    theta_vals = [[entanglement.pi_tangle(rho).pi for rho in row] for row in by_theta]
    r_vals = [entanglement.pi_tangle(rho).pi for rho in by_r]
    worst = max(float(np.max(-np.diff(theta_vals, axis=1))), float(np.max(np.diff(r_vals))))
    return max(worst, 0.0), 1e-12, "increasing in theta1, decreasing in r"


def check_ms_bounds_structure():
    thetas = np.linspace(0.0, math.pi / 2, 33)
    rs = np.linspace(0.0, unruh.R_MAX, 17)
    worst = 0.0
    for bound in (nonlocality.svetlichny_bound_ms_pair, nonlocality.svetlichny_bound_ms_slice):
        surface = bound(thetas[None, :], rs[:, None])
        worst = max(worst, float(np.max(np.diff(surface, axis=0))))  # non-increasing in r
        near_limit = bound(thetas, unruh.R_MAX - 0.01)
        if not np.any(near_limit > 4.0):
            worst = max(worst, 1.0)
    return max(worst, 0.0), 1e-12, "non-increasing in r, violation exists below r_max"


QUICK_CHECKS = [
    check_channel_dual_path,
    check_evaluator_dual_path,
    check_lattice_dual_path,
    check_channel_cptp,
    check_channel_identity_at_rest,
    check_damped_correlation_law,
    check_restricted_chsh_equivalence,
    check_threshold_consistency,
    check_eigensolver_trace_sum,
    check_pi_tangle_endpoints,
    check_optimizer_determinism,
]

FULL_CHECKS = QUICK_CHECKS + [
    check_horodecki_vs_numeric,
    check_svetlichny_numeric_vs_envelope,
    check_pi_tangle_monotonicity,
    check_ms_bounds_structure,
]


def run_checks(level: str = "quick") -> list[CheckResult]:
    """Run and time each check; it passes when residual <= tolerance, and a check that raises fails."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verify level {level!r} (use 'quick' or 'full')")
    results = []
    for fn in FULL_CHECKS if level == "full" else QUICK_CHECKS:
        name = fn.__name__.removeprefix("check_").replace("_", "-")
        start = time.perf_counter()
        try:
            residual, tolerance, detail = fn()
            passed = residual <= tolerance
        except Exception as exc:
            residual, tolerance, detail, passed = math.inf, 0.0, f"raised {exc!r}", False
        results.append(CheckResult(name, passed, float(residual), tolerance, detail, time.perf_counter() - start))
    return results


def verify(level: str = "quick") -> tuple[int, str]:
    """Run the invariant suite; returns (exit_code, report text)."""
    results = run_checks(level)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.name:<32} residual={res.residual:.3e}  tol={res.tolerance:.0e}  time={res.seconds:.3f}s")
        if res.detail and (not res.passed or res.name == "svetlichny-numeric-vs-envelope"):
            lines.append(f"      {res.detail}")
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed} passed, {failed} failed (level={level})")
    return (0 if failed == 0 else 1), "\n".join(lines)
