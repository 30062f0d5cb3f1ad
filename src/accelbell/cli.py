"""Command line driver: parameter sweeps, threshold report, verification.

Exit codes: 0 success, 1 failed check or exceeded evaluation budget,
2 usage error, including an ``--out`` file that cannot be opened (checked
before any computation).  The default seed comes from the ACCELBELL_SEED
environment variable when set; a value that is not an integer is a usage
error.  Sweep output is CSV with a header row, 12 significant digits and
"\n" line endings; scalar reports are JSON.  Identical specs and seeds
give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import checks, entanglement, linalg, nonlocality, optimize, states, unruh


def _default_seed() -> int:
    """The seed named by ACCELBELL_SEED, or 0 when it is unset."""
    text = os.environ.get("ACCELBELL_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"ACCELBELL_SEED must be an integer, got {text!r}") from None


STATE_BUILDERS = {
    "singlet": lambda param: states.singlet(),
    "gghz": states.gghz,
    "ms": states.maximal_slice,
}
STATE_MODES = {"singlet": 2, "gghz": 3, "ms": 3}

TWO_MODE_COLUMNS = ("chsh_restricted_max", "chsh_horodecki", "chsh_numeric")
THREE_MODE_COLUMNS = ("svetlichny_bound", "svetlichny_envelope", "svetlichny_numeric", "pi_tangle")
ALL_COLUMNS = TWO_MODE_COLUMNS + THREE_MODE_COLUMNS
FLAGGED = {
    "chsh_restricted_max": nonlocality.violates_chsh,
    "chsh_horodecki": nonlocality.violates_chsh,
    "chsh_numeric": nonlocality.violates_chsh,
    "svetlichny_bound": nonlocality.violates_svetlichny,
    "svetlichny_envelope": nonlocality.violates_svetlichny,
    "svetlichny_numeric": nonlocality.violates_svetlichny,
}


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
    seed: int = field(default_factory=_default_seed)
    restarts: int = 64
    certify_resolution: float | None = None


def _validate_spec(spec: SweepSpec) -> None:
    if spec.state not in STATE_BUILDERS:
        raise ValueError(f"unknown state {spec.state!r}; choose from {sorted(STATE_BUILDERS)}")
    n = STATE_MODES[spec.state]
    if not 1 <= spec.mode <= n:
        raise ValueError(f"mode {spec.mode} out of range 1..{n} for state {spec.state!r}")
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
    for col in spec.columns:
        if col not in ALL_COLUMNS:
            raise ValueError(f"unknown column {col!r}; choose from {ALL_COLUMNS}")
        if n == 2 and col in THREE_MODE_COLUMNS:
            raise ValueError(f"column {col!r} needs a three-mode state, not {spec.state!r}")
        if n == 3 and col in TWO_MODE_COLUMNS:
            raise ValueError(f"column {col!r} needs a two-mode state, not {spec.state!r}")


def _svetlichny_bound(spec: SweepSpec, param: float, r: float, envelope: bool) -> float:
    if spec.state == "gghz":
        ref = nonlocality.svetlichny_bound_gghz(param, r)
        return ref.envelope if envelope else ref.bound
    if spec.mode in (1, 2):
        return nonlocality.svetlichny_bound_ms_pair(param, r)
    return nonlocality.svetlichny_bound_ms_slice(param, r)


def _row_values(spec: SweepSpec, param: float, r: float) -> list:
    psi = STATE_BUILDERS[spec.state](param)
    damped = unruh.apply_channel(linalg.density(psi), spec.mode, r)
    numeric = {"witness_resolution": spec.certify_resolution, "restarts": spec.restarts, "seed": spec.seed}
    out = [param, r]
    for col in spec.columns:
        if col == "chsh_restricted_max":
            value = nonlocality.chsh_restricted_max(r)
        elif col == "chsh_horodecki":
            value = nonlocality.horodecki_max(damped)
        elif col == "chsh_numeric":
            value = optimize.maximize_chsh(damped, **numeric).value
        elif col == "svetlichny_bound":
            value = _svetlichny_bound(spec, param, r, envelope=False)
        elif col == "svetlichny_envelope":
            value = _svetlichny_bound(spec, param, r, envelope=True)
        elif col == "svetlichny_numeric":
            value = optimize.maximize_svetlichny(damped, **numeric).value
        else:
            value = entanglement.pi_tangle(damped).pi
        out.append(value)
        if col in FLAGGED:
            out.append(FLAGGED[col](value))
    return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return f"{value:.12g}"


def run_sweep(spec: SweepSpec) -> str:
    """Evaluate the sweep grid and render it as CSV text.

    Rows are in row-major order: the state parameter is the slow axis, r
    the fast one.  Requested columns are followed by their violation flag
    where one applies (1 = clears the classical bound beyond 1e-9).
    """
    _validate_spec(spec)
    params = np.linspace(spec.param_start, spec.param_stop, spec.param_steps)
    rs = np.linspace(spec.r_start, spec.r_stop, spec.r_steps)
    rows = [_row_values(spec, float(p), float(r)) for p in params for r in rs]
    header = ["param", "r"]
    for col in spec.columns:
        header.append(col)
        if col in FLAGGED:
            header.append(col + "_violation")
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
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
    if state not in STATE_BUILDERS:
        raise ValueError(f"unknown state {state!r}")
    if not 1 <= mode <= STATE_MODES[state]:
        raise ValueError(f"mode {mode} out of range for state {state!r}")
    if STATE_MODES[state] != 3:
        raise ValueError("pi-tangle needs a three-mode state")
    if not math.isfinite(param):
        raise ValueError(f"state parameter must be finite, got {param!r}")
    damped = unruh.apply_channel(linalg.density(STATE_BUILDERS[state](param)), mode, r)
    tangle = entanglement.pi_tangle(damped)
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
    sweep.add_argument("--seed", type=int, default=None, help="default: ACCELBELL_SEED, else 0")
    sweep.add_argument("--restarts", type=int, default=64)
    sweep.add_argument("--certify", type=float, default=None, metavar="RES",
                       help="also run the lattice witness at this resolution for numeric columns")
    sweep.add_argument("--out", default=None)

    th = sub.add_parser("threshold", help="CHSH threshold report, JSON output")
    th.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run the cross-module invariant suite")
    ver.add_argument("--level", choices=("quick", "full"), default="quick")

    pt = sub.add_parser("pi-tangle", help="residual tangle of a damped state, JSON output")
    pt.add_argument("--state", required=True, choices=("gghz", "ms"))
    pt.add_argument("--param", type=float, required=True)
    pt.add_argument("--r", type=float, default=None)
    pt.add_argument("--omega", type=float, default=None, help="frequency-to-acceleration ratio; --r wins if both given")
    pt.add_argument("--mode", type=int, default=None)
    pt.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        seed = _default_seed()
        if getattr(args, "out", None):
            open(args.out, "a").close()  # a bad path fails before computing, and existing content is kept
        if args.command == "sweep":
            mode = args.mode if args.mode is not None else (3 if args.state == "gghz" else 2)
            spec = SweepSpec(
                state=args.state,
                param_start=args.param_start,
                param_stop=args.param_stop,
                param_steps=args.param_steps,
                r_start=args.r_start,
                r_stop=args.r_stop,
                r_steps=args.r_steps,
                mode=mode,
                columns=tuple(c.strip() for c in args.columns.split(",") if c.strip()),
                seed=seed if args.seed is None else args.seed,
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
            if args.r is not None:
                r = args.r
            elif args.omega is not None:
                r = unruh.acceleration_parameter(args.omega)
            else:
                raise ValueError("pi-tangle needs --r or --omega")
            mode = args.mode if args.mode is not None else (3 if args.state == "gghz" else 2)
            _write(json.dumps(solve_pi_tangle(args.state, args.param, r, mode), indent=2) + "\n", args.out)
            return 0
        raise ValueError(f"unknown command {args.command!r}")
    except optimize.BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
