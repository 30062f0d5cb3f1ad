"""Cross-module consistency checks behind the ``verify`` command.

One suite, ``CHECKS``: the channel, evaluator and lattice oracle dual paths, CPTP,
the correlation law, restricted-family equivalence, threshold, tangle endpoints,
optimizer determinism, the optimizer against the Horodecki maximum and the Svetlichny
envelope, the pi/4 Svetlichny lattice witness, the Svetlichny upper bound against the
closed forms, the tangle monotonicity sweeps and the maximal-slice bound structure.

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

SEED = 20260808


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


def check_channel_dual_path():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        mode = int(rng.integers(1, n + 1))
        r = float(rng.uniform(0.0, unruh.R_MAX))
        psi = _random_state(rng, n)
        kraus = unruh.apply_channel(linalg.density(psi), mode, r)
        reference = unruh.dilate_and_trace(psi, mode, r)
        worst = max(worst, float(np.max(np.abs(kraus - reference))))
    return worst, 1e-12, "50 random states"


def operator_bell_value(rho, dirs):
    """|Tr[rho S]| with S built from explicit Kronecker products of spin observables.

    The independent reference for the correlation-tensor ``bell_value``: dirs
    holds (a, a', b, b') for CHSH or (a, a', c, c', b, b') for Svetlichny.
    """
    obs = [states.spin_observable(d) for d in dirs]
    if len(obs) == 4:
        a, ap, b, bp = obs
        s = np.kron(a, b + bp) + np.kron(ap, b - bp)
    else:
        a, ap, c, cp, b, bp = obs
        k, kp = b + bp, b - bp
        s = np.kron(a, np.kron(c, kp) + np.kron(cp, k)) + np.kron(ap, np.kron(c, k) - np.kron(cp, kp))
    return abs(float(np.einsum("ij,ji->", rho, s).real))


def check_evaluator_dual_path():
    """The correlation-tensor ``bell_value``, scalar and batched, against the operator trace."""
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    for _ in range(20):
        for modes in (2, 3):
            rho = _random_mixed(rng, modes, int(rng.integers(1, 5)))
            dirs = _random_directions(rng, (25, 2 * modes))
            batched = nonlocality.bell_value(rho, dirs)
            for setting, value in zip(dirs, batched):
                reference, single = operator_bell_value(rho, setting), nonlocality.bell_value(rho, setting)
                worst = max(worst, abs(value - reference), abs(single - reference))
        rho = _random_mixed(rng, 2, int(rng.integers(1, 5)))
        a, b = _random_directions(rng, (2,))
        pair = np.kron(states.spin_observable(a), states.spin_observable(b))
        worst = max(worst, abs(a @ nonlocality.correlation_tensor(rho) @ b - np.einsum("ij,ji->", rho, pair).real))
    return worst, 1e-12, "20 random mixed states per inequality, 25 settings each, scalar and batched"


def check_lattice_dual_path():
    """Lattice oracle against a batched ``bell_value`` scan of every lattice setting.

    CHSH on the pi/2 lattice (12^4 settings), Svetlichny on the pi lattice
    (4^6).  The oracle's setting must reach the scan maximum: sign-flipped
    settings tie, so its index may differ from the scan's by rounding.
    """
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    for _ in range(10):
        for modes, resolution in ((2, math.pi / 2), (3, math.pi)):
            rho = _random_mixed(rng, modes, int(rng.integers(1, 5)))
            value, setting = optimize.grid_oracle(rho, resolution)
            dirs = optimize._lattice(resolution)[1]
            every = dirs[np.stack(np.indices((len(dirs),) * 2 * modes), axis=-1)]  # every lattice setting
            scan = float(np.max(nonlocality.bell_value(rho, every)))
            worst = max(worst, abs(value - scan), abs(nonlocality.bell_value(rho, setting) - scan))
    return worst, 1e-12, "10 random mixed states per inequality"


def check_channel_cptp():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        mode = int(rng.integers(1, n + 1))
        r = float(rng.uniform(0.0, unruh.R_MAX))
        out = unruh.apply_channel(linalg.density(_random_state(rng, n)), mode, r)
        herm = float(np.max(np.abs(out - out.conj().T)))
        tr = abs(complex(np.trace(out)) - 1.0)
        low = -float(np.linalg.eigvalsh((out + out.conj().T) / 2)[0])
        worst = max(worst, herm, tr, low / 100.0)  # eigenvalue floor 1e-10 vs 1e-12 scale
    return worst, 1e-12, "hermiticity, trace, positivity of outputs"


def check_channel_identity_at_rest():
    rng = np.random.default_rng(SEED + 2)
    rho = linalg.density(_random_state(rng, 2))
    residual = float(np.max(np.abs(unruh.apply_channel(rho, 1, 0.0) - rho)))
    return residual, 0.0, "r = 0 must be the identity map"


def check_damped_correlation_law():
    rs, thetas = np.linspace(0.0, unruh.R_MAX, 12), np.linspace(0.0, math.pi, 12)
    b = np.stack([np.sin(thetas), np.zeros(12), np.cos(thetas)])  # one direction per column
    got = states.Z_AXIS @ nonlocality.correlation_tensor(_damped_singlet(rs)) @ b  # (r, theta)
    worst = float(np.max(np.abs(got + np.cos(rs)[:, None] ** 2 * np.cos(thetas))))
    return worst, 1e-12, "C = -cos^2(r) cos(theta) on a grid"


def check_restricted_chsh_equivalence():
    # one (r, gamma) draw per case, in the order of the scalar draws
    rs, gammas = np.random.default_rng(SEED + 3).uniform((0.0, 0.0), (unruh.R_MAX, math.pi), size=(40, 2)).T
    full = nonlocality.bell_value(_damped_singlet(rs), nonlocality.restricted_settings(gammas, rs))
    worst = float(np.max(np.abs(full - nonlocality.chsh_restricted(rs, gammas))))
    return worst, 1e-12, "40 random (r, gamma)"


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


def check_pi_tangle_endpoints():
    ground, ghz = entanglement.pi_tangle(linalg.density(states.gghz([0.0, math.pi / 4]))).pi
    return max(abs(ground), abs(ghz - 1.0)), 1e-10, "product state 0, GHZ 1"


def check_optimizer_determinism():
    rho = _damped_singlet(0.2)
    first, second = (optimize.maximize_bell(rho, restarts=4, seed=11) for _ in range(2))
    same = first.value == second.value and np.array_equal(first.directions, second.directions)
    return 0.0 if same else 1.0, 0.0, "identical seeds, identical output"


def check_horodecki_vs_numeric():
    rhos = _damped_singlet(np.linspace(0.0, unruh.R_MAX, 8))
    numeric = optimize.maximize_bell(rhos, restarts=12, seed=SEED + 5).value
    worst = float(np.max(np.abs(nonlocality.bell_upper(rhos) - numeric)))
    return worst, 1e-8, "damped singlet, 8 r values"


def check_svetlichny_numeric_vs_envelope():
    """The envelope is the closed-form maximum on this family, so the numeric value must meet it from both sides."""
    t1s, rs = (axis.ravel() for axis in np.meshgrid(
        (math.pi / 16, math.pi / 8, math.pi / 4), (0.0, math.pi / 8, unruh.R_MAX), indexing="ij"))
    rhos = unruh.apply_channel(linalg.density(states.gghz(t1s)), 3, rs)
    numeric = optimize.maximize_bell(rhos, restarts=12, seed=SEED + 6).value
    envelope = nonlocality.svetlichny_bound_gghz(t1s, rs).envelope
    margins = [f"t1={t1:.4f} r={r:.4f} numeric={n:.6f} envelope={e:.6f}"
               for t1, r, n, e in zip(t1s, rs, numeric, envelope)]
    return max(abs(n - e) for n, e in zip(numeric, envelope)), 1e-8, "; ".join(margins)


def check_svetlichny_lattice_vs_envelope():
    """The pi/4 lattice holds the damped GGHZ's optimal settings, so its value is the envelope; no optimizer runs."""
    t1s, rs = np.array([0.1, 0.5]), np.array([0.2, 0.3])
    lattice = optimize.grid_oracle(unruh.apply_channel(linalg.density(states.gghz(t1s)), 3, rs), math.pi / 4)[0]
    return (float(np.max(np.abs(lattice - nonlocality.svetlichny_bound_gghz(t1s, rs).envelope))), 1e-12,
            "damped GGHZ at (t1, r) = (0.1, 0.2) on the axial branch and (0.5, 0.3) on the equatorial")


def check_svetlichny_upper_vs_closed_forms():
    """The unfolding bound against the damped GGHZ envelope and both maximal-slice closed forms, on a 9x9 grid."""
    t, rs = (axis.ravel() for axis in np.meshgrid(np.linspace(0.0, math.pi / 2, 9),
                                                  np.linspace(0.0, unruh.R_MAX, 9), indexing="ij"))
    cases = [(states.gghz, 3, nonlocality.svetlichny_bound_gghz(t, rs).envelope)]
    cases += [(states.maximal_slice, mode, nonlocality.svetlichny_bound_ms(t, rs, mode)) for mode in (1, 2, 3)]
    worst = 0.0
    for build, mode, closed in cases:
        upper = nonlocality.bell_upper(unruh.apply_channel(linalg.density(build(t)), mode, rs))
        worst = max(worst, float(np.max(np.abs(upper - closed))))
    return worst, 1e-12, "GGHZ (mode 3) and maximal slice (modes 1-3) on a 9x9 (angle, r) grid"


def check_pi_tangle_monotonicity():
    rs = np.array([[0.0], [math.pi / 8], [unruh.R_MAX - 0.01]])  # rows of the (r, theta1) stack
    by_theta = unruh.apply_channel(linalg.density(states.gghz(np.linspace(math.pi / 24, math.pi / 4, 8))), 3, rs)
    by_r = unruh.apply_channel(linalg.density(states.gghz(math.pi / 4)), 3, np.linspace(0.0, unruh.R_MAX, 8))
    theta_vals, r_vals = entanglement.pi_tangle(by_theta).pi, entanglement.pi_tangle(by_r).pi
    worst = max(float(np.max(-np.diff(theta_vals, axis=1))), float(np.max(np.diff(r_vals))))
    return max(worst, 0.0), 1e-12, "increasing in theta1, decreasing in r"


def check_ms_bounds_structure():
    thetas = np.linspace(0.0, math.pi / 2, 33)
    rs = np.linspace(0.0, unruh.R_MAX, 17)
    worst = 0.0
    for mode in (1, 2, 3):
        surface = nonlocality.svetlichny_bound_ms(thetas[None, :], rs[:, None], mode)
        worst = max(worst, float(np.max(np.diff(surface, axis=0))))  # non-increasing in r
        near_limit = nonlocality.svetlichny_bound_ms(thetas, unruh.R_MAX - 0.01, mode)
        if not np.any(near_limit > 4.0):
            worst = max(worst, 1.0)
    return max(worst, 0.0), 1e-12, "non-increasing in r, violation exists below r_max"


CHECKS = [
    check_channel_dual_path,
    check_evaluator_dual_path,
    check_lattice_dual_path,
    check_channel_cptp,
    check_channel_identity_at_rest,
    check_damped_correlation_law,
    check_restricted_chsh_equivalence,
    check_threshold_consistency,
    check_pi_tangle_endpoints,
    check_optimizer_determinism,
    check_horodecki_vs_numeric,
    check_svetlichny_numeric_vs_envelope,
    check_svetlichny_lattice_vs_envelope,
    check_svetlichny_upper_vs_closed_forms,
    check_pi_tangle_monotonicity,
    check_ms_bounds_structure,
]


def run_checks() -> list[CheckResult]:
    """Run and time each check; it passes when residual <= tolerance, and a check that raises fails."""
    results = []
    for fn in CHECKS:
        name = fn.__name__.removeprefix("check_").replace("_", "-")
        start = time.perf_counter()
        try:
            residual, tolerance, detail = fn()
            passed = residual <= tolerance
        except Exception as exc:
            residual, tolerance, detail, passed = math.inf, 0.0, f"raised {exc!r}", False
        results.append(CheckResult(name, passed, float(residual), tolerance, detail, time.perf_counter() - start))
    return results


def verify() -> tuple[int, str]:
    """Run the invariant suite; returns (exit_code, report text) with each check's detail under its line."""
    results = run_checks()
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.name:<32} residual={res.residual:.3e}  tol={res.tolerance:.0e}  time={res.seconds:.3f}s")
        lines.append(f"      {res.detail}")
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed} passed, {failed} failed")
    return (0 if failed == 0 else 1), "\n".join(lines)
