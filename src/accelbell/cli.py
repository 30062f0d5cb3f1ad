"""Command line driver: parameter sweeps, threshold report, verification.

Exit codes: 0 success, 1 failed check, exceeded evaluation budget or out
of memory, 2 usage error, including an ``--out`` file that cannot be
opened (checked before any computation).  The seed comes from ``--seed`` only (default
0), never from the environment; a negative seed is a usage error.  Sweep
output is CSV with a header row, 12 significant digits and "\n" line
endings; scalar reports are JSON.  Identical specs and seeds give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import checks, entanglement, linalg, nonlocality, optimize, states, unruh


STATE_BUILDERS = {
    "singlet": lambda param: states.singlet(),
    "gghz": states.gghz,
    "ms": states.maximal_slice,
}
STATE_MODES = {"singlet": (2, 2), "gghz": (3, 3), "ms": (3, 2)}  # state: (modes, default accelerated mode)
BLOCK = 64  # grid points evaluated together: bounds the damped states and simplex rows held at once


@dataclass(frozen=True)
class SweepSpec:
    state: str
    param_start: float
    param_stop: float
    param_steps: int
    r_start: float
    r_stop: float
    r_steps: int
    mode: int
    columns: tuple
    seed: int = 0
    restarts: int = 64
    certify_resolution: float | None = None


def _check_state(state: str, mode: int) -> int:
    """Mode count of ``state``; raises ValueError for an unknown state or a mode it does not have."""
    if state not in STATE_MODES:
        raise ValueError(f"unknown state {state!r}; choose from {sorted(STATE_MODES)}")
    n = STATE_MODES[state][0]
    linalg._check_mode(mode, n)
    return n


def _damped(state: str, params, mode: int, rs) -> np.ndarray:
    """The damped states (..., d, d) of ``state`` at broadcast parameters and r, built in one call per step."""
    return unruh.apply_channel(linalg.density(STATE_BUILDERS[state](params)), mode, rs)


def _svetlichny_bound(spec: SweepSpec, params: np.ndarray, rs: np.ndarray, envelope: bool) -> np.ndarray:
    if spec.state == "gghz":
        ref = nonlocality.svetlichny_bound_gghz(params, rs)
        return ref.envelope if envelope else ref.bound
    if spec.mode in (1, 2):
        return nonlocality.svetlichny_bound_ms_pair(params, rs)
    return nonlocality.svetlichny_bound_ms_slice(params, rs)


def _numeric(spec: SweepSpec, params, rs, rhos) -> list:
    """Maximize every damped state of the block in one lockstep simplex."""
    results = optimize.maximize_bell(rhos, spec.certify_resolution, restarts=spec.restarts, seed=spec.seed)
    return [result.value for result in results]


# column: (modes, evaluator(spec, params, rs, damped states) -> one value per point, flagged); a flagged column
# is followed by its violation flag, nonlocality.violates of its value under the inequality of its mode count;
# params and rs are the block's (k,) arrays and the damped states its (k, d, d) stack, each taken in one call
COLUMNS = {
    "chsh_restricted_max": (2, lambda spec, params, rs, rhos: nonlocality.chsh_restricted_max(rs), True),
    "chsh_horodecki": (2, lambda spec, params, rs, rhos: nonlocality.horodecki_max(rhos), True),
    "chsh_numeric": (2, _numeric, True),
    "svetlichny_bound": (3, lambda spec, params, rs, rhos: _svetlichny_bound(spec, params, rs, envelope=False), True),
    "svetlichny_envelope": (3, lambda spec, params, rs, rhos: _svetlichny_bound(spec, params, rs, envelope=True), True),
    "svetlichny_numeric": (3, _numeric, True),
    "pi_tangle": (3, lambda spec, params, rs, rhos: [entanglement.pi_tangle(rho).pi for rho in rhos], False),
}


def _validate_spec(spec: SweepSpec) -> None:
    n = _check_state(spec.state, spec.mode)
    for label, start, stop, steps in (
        ("param", spec.param_start, spec.param_stop, spec.param_steps),
        ("r", spec.r_start, spec.r_stop, spec.r_steps),
    ):
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"{label} grid ends must be finite")
        if steps < 1:
            raise ValueError(f"{label} grid needs at least one step")
        if stop < start:
            raise ValueError(f"{label} grid has stop < start")
    if spec.r_start < 0.0 or spec.r_stop > unruh.R_MAX + 1e-12:
        raise ValueError("r grid must live inside [0, pi/4]")
    if not spec.columns:
        raise ValueError("no output columns requested")
    if len(set(spec.columns)) != len(spec.columns):
        raise ValueError(f"duplicate column in {','.join(spec.columns)!r}")
    for col in spec.columns:
        if col not in COLUMNS:
            raise ValueError(f"unknown column {col!r}; choose from {tuple(COLUMNS)}")
        modes = COLUMNS[col][0]
        if modes != n:
            raise ValueError(f"column {col!r} needs a {'two' if modes == 2 else 'three'}-mode state, not {spec.state!r}")
    optimize._check_search(spec.restarts, spec.certify_resolution, spec.seed)


def _fmt(value) -> str:
    return f"{value:.12g}"


def run_sweep(spec: SweepSpec) -> str:
    """Evaluate the sweep grid and render it as CSV text.

    Rows are in row-major order: the state parameter is the slow axis, r
    the fast one.  Requested columns are followed by their violation flag
    where one applies (1 = clears the classical bound beyond 1e-9).
    """
    _validate_spec(spec)
    params, rs = (axis.ravel() for axis in np.meshgrid(np.linspace(spec.param_start, spec.param_stop, spec.param_steps),
                                                       np.linspace(spec.r_start, spec.r_stop, spec.r_steps), indexing="ij"))
    header = ["param", "r"]
    for col in spec.columns:
        header += [col, col + "_violation"] if COLUMNS[col][2] else [col]
    lines = [",".join(header)]
    for start in range(0, params.size, BLOCK):
        block_params, block_rs = params[start:start + BLOCK], rs[start:start + BLOCK]
        rhos = _damped(spec.state, block_params, spec.mode, block_rs)
        cells = [[_fmt(v) for v in block_params], [_fmt(v) for v in block_rs]]
        for col in spec.columns:
            modes, evaluate, flagged = COLUMNS[col]
            values = evaluate(spec, block_params, block_rs, rhos)
            cells.append([_fmt(v) for v in values])
            if flagged:
                cells.append(["1" if flag else "0" for flag in nonlocality.violates(values, modes)])
        lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _sig(x: float) -> float:
    return float(f"{x:.12g}")


def solve_threshold() -> dict:
    """Scalar threshold report for the restricted CHSH family."""
    th = nonlocality.chsh_threshold()
    return {
        "r_t": _sig(th.r_t),
        "cos2_rt": _sig(th.cos2_rt),
        "a_t_over_omega_c": _sig(th.a_t_over_omega_c),
        "gamma_star": _sig(th.gamma_star),
    }


def solve_pi_tangle(state: str, param: float, r: float, mode: int) -> dict:
    if _check_state(state, mode) != 3:
        raise ValueError("pi-tangle needs a three-mode state")
    tangle = entanglement.pi_tangle(_damped(state, param, mode, r))
    return {
        "state": state,
        "param": _sig(param),
        "r": _sig(r),
        "mode": mode,
        "pi": _sig(tangle.pi),
        "pi_1": _sig(tangle.pi_1),
        "pi_2": _sig(tangle.pi_2),
        "pi_3": _sig(tangle.pi_3),
    }


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="accelbell", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="grid sweep over (state parameter, r), CSV output")
    sweep.add_argument("--state", required=True, choices=sorted(STATE_BUILDERS))
    sweep.add_argument("--param-start", type=float, default=0.0)
    sweep.add_argument("--param-stop", type=float, default=0.0)
    sweep.add_argument("--param-steps", type=int, default=1)
    sweep.add_argument("--r-start", type=float, default=0.0)
    sweep.add_argument("--r-stop", type=float, default=unruh.R_MAX)
    sweep.add_argument("--r-steps", type=int, default=33)
    sweep.add_argument("--mode", type=int, default=None, help="accelerated mode (default 2 for singlet/ms, 3 for gghz)")
    sweep.add_argument("--columns", required=True, help="comma-separated list, e.g. svetlichny_bound,pi_tangle")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--restarts", type=int, default=64)
    sweep.add_argument("--certify", type=float, default=None, metavar="RES",
                       help="also run the lattice witness at this resolution for numeric columns")
    sweep.add_argument("--out", default=None)

    th = sub.add_parser("threshold", help="CHSH threshold report, JSON output")
    th.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run the cross-module invariant suite")
    ver.add_argument("--level", choices=("quick", "full"), default="quick")

    pt = sub.add_parser("pi-tangle", help="residual tangle of a damped state, JSON output")
    pt.add_argument("--state", required=True, choices=[s for s, (n, _) in STATE_MODES.items() if n == 3])
    pt.add_argument("--param", type=float, required=True)
    damping = pt.add_mutually_exclusive_group(required=True)
    damping.add_argument("--r", type=float, help="damping angle in [0, pi/4]")
    damping.add_argument("--omega", type=float, help="frequency-to-acceleration ratio omega c / a")
    pt.add_argument("--mode", type=int, default=None)
    pt.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None):
            open(args.out, "a").close()  # a bad path fails before computing, and existing content is kept
        if "state" in vars(args) and args.mode is None:
            args.mode = STATE_MODES[args.state][1]
        if args.command == "sweep":
            spec = SweepSpec(
                state=args.state,
                param_start=args.param_start,
                param_stop=args.param_stop,
                param_steps=args.param_steps,
                r_start=args.r_start,
                r_stop=args.r_stop,
                r_steps=args.r_steps,
                mode=args.mode,
                columns=tuple(c.strip() for c in args.columns.split(",") if c.strip()),
                seed=args.seed,
                restarts=args.restarts,
                certify_resolution=args.certify,
            )
            _write(run_sweep(spec), args.out)
            return 0
        if args.command == "threshold":
            _write(json.dumps(solve_threshold(), indent=2) + "\n", args.out)
            return 0
        if args.command == "verify":
            code, report = checks.verify(args.level)
            print(report)
            return code
        if args.command == "pi-tangle":
            r = args.r if args.omega is None else unruh.acceleration_parameter(args.omega)
            _write(json.dumps(solve_pi_tangle(args.state, args.param, r, args.mode), indent=2) + "\n", args.out)
            return 0
        raise ValueError(f"unknown command {args.command!r}")
    except (optimize.BudgetError, MemoryError) as exc:  # a lattice or a grid too large to evaluate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
