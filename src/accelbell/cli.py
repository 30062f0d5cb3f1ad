"""Command line driver: parameter sweeps, threshold report, verification.

Exit codes: 0 success, 1 failed check, exceeded evaluation budget or out of
memory, 2 usage error, including an ``--out`` file that cannot be opened
(checked before any computation).  A failed command leaves no new ``--out``
file.  The seed comes from ``--seed`` only (default 0), never from the
environment; a negative seed is a usage error.  Sweep output is CSV with a
header row, 12 significant digits and "\n" line endings; scalar reports are
JSON.  Identical specs and seeds give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import entanglement, linalg, nonlocality, optimize, states, unruh


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


def _check_state(state: str, mode: int) -> None:
    """Raise ValueError for an unknown state or a mode it does not have."""
    if state not in STATE_MODES:
        raise ValueError(f"unknown state {state!r}; choose from {sorted(STATE_MODES)}")
    linalg._check_integer("mode", mode, 1, STATE_MODES[state][0])


def _damped(state: str, params, mode: int, rs) -> np.ndarray:
    """The damped states (..., d, d) of ``state`` at broadcast parameters and r, built in one call per step."""
    return unruh.apply_channel(linalg.density(STATE_BUILDERS[state](params)), mode, rs)


def _numeric(spec: SweepSpec, params, rs, rhos) -> np.ndarray:
    """Maximize every damped state of the block in one lockstep simplex."""
    return optimize.maximize_bell(rhos, spec.certify_resolution, restarts=spec.restarts, seed=spec.seed).value


def _ms_bound(spec: SweepSpec, params, rs, rhos) -> np.ndarray:
    return nonlocality.svetlichny_bound_ms(params, rs, spec.mode)


# column: ({state: evaluator(spec, params, rs, damped states) -> one value per point}, flagged); a column has a value
# for the states it names and for no other, as a closed form holds for one state family only; a flagged column is
# followed by its violation flag, nonlocality.violates of its value under the inequality of the state's mode count;
# params and rs are the block's (k,) arrays and the damped states its (k, d, d) stack, each taken in one call
COLUMNS = {
    "chsh_restricted_max": ({"singlet": lambda spec, params, rs, rhos: nonlocality.chsh_restricted_max(rs)}, True),
    "chsh_horodecki": ({"singlet": lambda spec, params, rs, rhos: nonlocality.bell_upper(rhos)}, True),
    "chsh_numeric": ({"singlet": _numeric}, True),
    "svetlichny_bound": ({"gghz": lambda spec, params, rs, rhos: nonlocality.svetlichny_bound_gghz(params, rs).bound,
                          "ms": _ms_bound}, True),
    "svetlichny_envelope": ({"gghz": lambda spec, params, rs, rhos:
                             nonlocality.svetlichny_bound_gghz(params, rs).envelope, "ms": _ms_bound}, True),
    "svetlichny_upper": (dict.fromkeys(("gghz", "ms"),
                                       lambda spec, params, rs, rhos: nonlocality.bell_upper(rhos)), True),
    "svetlichny_numeric": (dict.fromkeys(("gghz", "ms"), _numeric), True),
    "pi_tangle": (dict.fromkeys(("gghz", "ms"), lambda spec, params, rs, rhos:
                                [entanglement._pi_tangle(rho).pi for rho in rhos]), False),
}


def _grid_end(spec: SweepSpec, name: str) -> float:
    end = linalg._numbers(getattr(spec, name), f"grid end {name}")
    if end.ndim:
        raise ValueError(f"grid end {name} must be one number, got {getattr(spec, name)!r}")
    return float(end)


def _validate_spec(spec: SweepSpec) -> None:
    _check_state(spec.state, spec.mode)
    for label, steps in (("param", spec.param_steps), ("r", spec.r_steps)):
        start, stop = (_grid_end(spec, f"{label}_{end}") for end in ("start", "stop"))
        linalg._check_integer(f"{label} grid steps", steps, 1)
        if stop < start:
            raise ValueError(f"{label} grid has stop < start")
    unruh._check_r([spec.r_start, spec.r_stop])
    # a list or tuple of names; a string is a sequence of characters, and an iterator has no length
    if not isinstance(spec.columns, (list, tuple)) or not spec.columns or not all(
            isinstance(col, str) for col in spec.columns):
        raise ValueError(f"columns must be a non-empty sequence of column names, got {spec.columns!r}")
    if len(set(spec.columns)) != len(spec.columns):
        raise ValueError(f"duplicate column in {','.join(spec.columns)!r}")
    for col in spec.columns:
        if col not in COLUMNS:
            raise ValueError(f"unknown column {col!r}; choose from {tuple(COLUMNS)}")
        if spec.state not in COLUMNS[col][0]:
            raise ValueError(f"column {col!r} has no value for state {spec.state!r}; it takes {list(COLUMNS[col][0])}")
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
        header += [col, col + "_violation"] if COLUMNS[col][1] else [col]
    lines, modes = [",".join(header)], STATE_MODES[spec.state][0]
    for start in range(0, params.size, BLOCK):
        block_params, block_rs = params[start:start + BLOCK], rs[start:start + BLOCK]
        rhos = _damped(spec.state, block_params, spec.mode, block_rs)
        table = [block_params, block_rs]  # one float column each; a flag is 1.0 or 0.0, which _fmt writes 1 or 0
        for col in spec.columns:
            evaluators, flagged = COLUMNS[col]
            values = evaluators[spec.state](spec, block_params, block_rs, rhos)
            table += [values, nonlocality.violates(values, modes)] if flagged else [values]
        lines.extend(",".join(map(_fmt, row)) for row in np.stack(table, axis=1).tolist())
    return "\n".join(lines) + "\n"


def _sig(x: float) -> float:
    return float(f"{x:.12g}")


def solve_threshold() -> dict:
    """Scalar threshold report for the restricted CHSH family."""
    return {name: _sig(value) for name, value in asdict(nonlocality.chsh_threshold()).items()}


def solve_pi_tangle(state: str, param: float, r: float, mode: int) -> dict:
    _check_state(state, mode)
    if state not in COLUMNS["pi_tangle"][0]:
        raise ValueError(f"pi-tangle has no value for {state!r}; it takes {list(COLUMNS['pi_tangle'][0])}")
    tangle = entanglement.pi_tangle(_damped(state, param, mode, r))
    report = {"state": state, "param": _sig(param), "r": _sig(r), "mode": mode}
    return report | {name: _sig(value) for name, value in asdict(tangle).items()}


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):  # its subparsers are _Parsers too
    def error(self, message):  # usage, then the one "error:" line main prints for a refused command; exit 2
        self.exit(2, f"{self.format_usage()}error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="accelbell", description=__doc__.splitlines()[0])
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
    sweep.add_argument("--columns", required=True, help="comma-separated list, e.g. svetlichny_bound,pi_tangle",
                       type=lambda text: tuple(c.strip() for c in text.split(",") if c.strip()))
    sweep.add_argument("--seed", type=int, default=SweepSpec.seed)
    sweep.add_argument("--restarts", type=int, default=SweepSpec.restarts)
    sweep.add_argument("--certify", type=float, default=None, metavar="RES", dest="certify_resolution",
                       help="also start numeric columns at the lattice maximum; RES divides pi, >= pi/4 for Svetlichny")
    sweep.add_argument("--out", default=None)

    th = sub.add_parser("threshold", help="CHSH threshold report, JSON output")
    th.add_argument("--out", default=None)

    sub.add_parser("verify", help="run the cross-module invariant suite")

    pt = sub.add_parser("pi-tangle", help="residual tangle of a damped state, JSON output")
    pt.add_argument("--state", required=True, choices=list(COLUMNS["pi_tangle"][0]))
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
    created = bool(getattr(args, "out", None)) and not os.path.lexists(args.out)  # removed if the command fails
    try:
        if getattr(args, "out", None):
            open(args.out, "a").close()  # a bad path fails before computing, and existing content is kept
        if "state" in vars(args) and args.mode is None:
            args.mode = STATE_MODES[args.state][1]
        if args.command == "sweep":
            _write(run_sweep(SweepSpec(**{f.name: getattr(args, f.name) for f in fields(SweepSpec)})), args.out)
            return 0
        if args.command == "threshold":
            _write(json.dumps(solve_threshold(), indent=2) + "\n", args.out)
            return 0
        if args.command == "verify":
            from . import checks  # the invariant suite is loaded by this command only

            code, report = checks.verify()
            print(report)
            return code
        if args.command == "pi-tangle":
            r = args.r if args.omega is None else unruh.acceleration_parameter(args.omega)
            _write(json.dumps(solve_pi_tangle(args.state, args.param, r, args.mode), indent=2) + "\n", args.out)
            return 0
        raise ValueError(f"unknown command {args.command!r}")
    except (optimize.BudgetError, MemoryError) as exc:  # a lattice or a grid too large to evaluate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        code = 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    if created and os.path.lexists(args.out):  # absent when the path could not be opened
        os.remove(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
