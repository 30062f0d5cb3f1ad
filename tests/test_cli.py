import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from accelbell import checks, cli, nonlocality, optimize, unruh
from accelbell.cli import COLUMNS, SweepSpec, main, run_sweep, solve_pi_tangle, solve_threshold
from accelbell.linalg import density
from accelbell.nonlocality import horodecki_max, violates
from accelbell.states import singlet

SQRT2 = math.sqrt(2.0)
SRC = Path(__file__).resolve().parent.parent / "src"
FULL_CHECK_NAMES = [
    "channel-dual-path", "evaluator-dual-path", "lattice-dual-path", "channel-cptp", "channel-identity-at-rest",
    "damped-correlation-law", "restricted-chsh-equivalence", "threshold-consistency", "eigensolver-trace-sum",
    "pi-tangle-endpoints", "optimizer-determinism", "horodecki-vs-numeric", "svetlichny-numeric-vs-envelope",
    "pi-tangle-monotonicity", "ms-bounds-structure",
]


def bound_spec(**overrides):
    base = dict(
        state="gghz",
        param_start=0.0,
        param_stop=math.pi / 4.0,
        param_steps=5,
        r_start=0.0,
        r_stop=math.pi / 4.0,
        r_steps=5,
        mode=3,
        columns=("svetlichny_bound", "pi_tangle"),
        seed=7,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_sweep_header_and_shape():
    text = run_sweep(bound_spec())
    lines = text.strip().split("\n")
    assert lines[0] == "param,r,svetlichny_bound,svetlichny_bound_violation,pi_tangle"
    assert len(lines) == 1 + 25
    assert text.endswith("\n")
    for line in lines[1:]:
        assert all(np.isfinite(float(x)) for x in line.split(","))


def test_sweep_known_corners():
    text = run_sweep(bound_spec())
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    table = {(row[0], row[1]): row for row in rows}
    ghz_rest = table[(f"{math.pi/4:.12g}", "0")]
    assert ghz_rest[2] == f"{4.0 * SQRT2:.12g}"
    assert ghz_rest[3] == "1"  # violation flag
    ghz_limit = table[(f"{math.pi/4:.12g}", f"{math.pi/4:.12g}")]
    assert abs(float(ghz_limit[2]) - 4.0) < 1e-12
    assert ghz_limit[3] == "0"
    assert abs(float(ghz_rest[4]) - 1.0) < 1e-10  # GHZ tangle


def test_sweep_row_major_order():
    text = run_sweep(bound_spec(param_steps=2, r_steps=3))
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    params = [row[0] for row in rows]
    assert params == sorted(params)  # slow axis first: 0 rows then pi/4 rows
    assert params[0] == params[1] == params[2]


def test_sweep_deterministic_bytes():
    spec = bound_spec()
    assert run_sweep(spec) == run_sweep(spec)


def test_sweep_ms_matches_pair_bound():
    from accelbell.nonlocality import svetlichny_bound_ms_pair

    spec = bound_spec(state="ms", param_stop=math.pi / 2.0, mode=2, columns=("svetlichny_bound",))
    rows = [line.split(",") for line in run_sweep(spec).strip().split("\n")[1:]]
    grid = [(p, r) for p in np.linspace(0.0, math.pi / 2.0, 5) for r in np.linspace(0.0, math.pi / 4.0, 5)]
    assert len(rows) == len(grid)
    for row, (p, r) in zip(rows, grid):
        assert row[2] == f"{svetlichny_bound_ms_pair(p, r):.12g}"


def test_sweep_singlet_restricted_crossing():
    spec = SweepSpec(
        state="singlet",
        param_start=0.0,
        param_stop=0.0,
        param_steps=1,
        r_start=0.0,
        r_stop=math.pi / 4.0,
        r_steps=41,
        mode=2,
        columns=("chsh_restricted_max",),
        seed=1,
    )
    rows = [line.split(",") for line in run_sweep(spec).strip().split("\n")[1:]]
    values = np.array([float(row[2]) for row in rows])
    rs = np.array([float(row[1]) for row in rows])
    r_t = math.acos(2.0 / math.sqrt(5.0))
    assert np.all(values[rs < r_t - 1e-9] > 2.0)
    assert np.all(values[rs > r_t + 1e-9] < 2.0)
    flags = np.array([row[3] == "1" for row in rows])
    assert np.array_equal(flags, values > 2.0 + 1e-9)


def test_sweep_numeric_across_blocks_matches_per_point_calls():
    # 3 x 30 points span two blocks of the stacked simplex, the second one partial
    spec = SweepSpec(state="singlet", param_start=0.0, param_stop=1.0, param_steps=3, r_start=0.0,
                     r_stop=math.pi / 4.0, r_steps=30, mode=2, columns=("chsh_numeric", "chsh_horodecki"),
                     seed=3, restarts=2)
    rows = [line.split(",") for line in run_sweep(spec).strip().split("\n")[1:]]
    grid = [(p, r) for p in np.linspace(0.0, 1.0, 3) for r in np.linspace(0.0, math.pi / 4.0, 30)]
    assert len(rows) == len(grid) > cli.BLOCK
    for row, (p, r) in zip(rows, grid):
        rho = unruh.apply_channel(density(singlet()), 2, r)
        numeric, closed = optimize.maximize_bell([rho], restarts=2, seed=3)[0].value, horodecki_max(rho)
        assert row == [f"{p:.12g}", f"{r:.12g}", f"{numeric:.12g}", "1" if violates(numeric, 2) else "0",
                       f"{closed:.12g}", "1" if violates(closed, 2) else "0"]


def test_sweep_calls_public_maximizer_once_per_block(monkeypatch):
    # the numeric columns look up optimize.maximize_bell at call time, so a rebinding of it sees every block
    spec = SweepSpec(state="singlet", param_start=0.0, param_stop=1.0, param_steps=3, r_start=0.0,
                     r_stop=math.pi / 4.0, r_steps=30, mode=2, columns=("chsh_numeric",), seed=3, restarts=2)
    plain = run_sweep(spec)
    real, calls = optimize.maximize_bell, []
    monkeypatch.setattr(optimize, "maximize_bell", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    assert run_sweep(spec) == plain
    assert len(calls) == 2


def test_sweep_validation_errors():
    with pytest.raises(ValueError):
        run_sweep(bound_spec(columns=("chsh_horodecki",)))  # two-mode column on gghz
    with pytest.raises(ValueError):
        run_sweep(bound_spec(state="singlet", mode=2, columns=("svetlichny_bound",)))
    with pytest.raises(ValueError):
        run_sweep(bound_spec(param_steps=0))
    with pytest.raises(ValueError):
        run_sweep(bound_spec(r_stop=1.0))
    with pytest.raises(ValueError):
        run_sweep(bound_spec(mode=4))
    with pytest.raises(ValueError):
        run_sweep(bound_spec(columns=("nonsense",)))


def test_sweep_spec_validation_rejects_bool_and_out_of_range_modes(monkeypatch):
    # the one mode check (linalg._check_mode) runs in _validate_spec, before any state is built
    monkeypatch.setattr(cli, "_damped", lambda *args: pytest.fail("state built before the mode was checked"))
    for mode in (True, 0, 4, 2.0):
        with pytest.raises(ValueError, match="expected an integer in 1..3"):
            run_sweep(bound_spec(mode=mode))
    with pytest.raises(ValueError, match="expected an integer in 1..2"):
        run_sweep(bound_spec(state="singlet", mode=np.True_, columns=("chsh_horodecki",)))


def test_threshold_json_values():
    payload = solve_threshold()
    assert payload["cos2_rt"] == 0.8
    assert abs(payload["a_t_over_omega_c"] - 2.0 * math.pi / math.log(4.0)) < 1e-11
    assert abs(payload["r_t"] - math.acos(2.0 / math.sqrt(5.0))) < 1e-11
    assert abs(payload["gamma_star"] - math.pi / 3.0) < 1e-11


def test_pi_tangle_report():
    payload = solve_pi_tangle("gghz", math.pi / 4.0, 0.0, 3)
    assert abs(payload["pi"] - 1.0) < 1e-10
    with pytest.raises(ValueError):
        solve_pi_tangle("bogus", 0.1, 0.1, 3)


def test_main_threshold_and_out_file(tmp_path, capsys):
    out = tmp_path / "th.json"
    assert main(["threshold", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["cos2_rt"] == 0.8


def test_main_sweep_byte_identical_files(tmp_path):
    args = [
        "sweep", "--state", "gghz", "--param-start", "0", "--param-stop", f"{math.pi/4}",
        "--param-steps", "3", "--r-start", "0", "--r-stop", f"{math.pi/4}", "--r-steps", "3",
        "--columns", "svetlichny_bound", "--seed", "11",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_pi_tangle_omega_precedence(tmp_path, capsys):
    out_r = tmp_path / "r.json"
    out_w = tmp_path / "w.json"
    # --r and --omega exclude each other: giving both is a usage error, not a silent choice
    with pytest.raises(SystemExit) as exc:
        main(["pi-tangle", "--state", "gghz", "--param", "0.5", "--r", "0.2", "--omega", "9.9", "--out", str(out_r)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out_r.exists()
    assert main(["pi-tangle", "--state", "gghz", "--param", "0.5", "--r", "0.2", "--out", str(out_r)]) == 0
    assert json.loads(out_r.read_text())["r"] == 0.2
    omega = math.log(4.0) / (2.0 * math.pi)
    assert main(["pi-tangle", "--state", "gghz", "--param", "0.5", "--omega", str(omega),
                 "--out", str(out_w)]) == 0
    assert abs(json.loads(out_w.read_text())["r"] - unruh.acceleration_parameter(omega)) < 1e-11


def test_main_usage_errors(capsys, monkeypatch, tmp_path):
    assert main(["sweep", "--state", "singlet", "--columns", "svetlichny_bound"]) == 2
    for argv in (["sweep", "--state", "unknown", "--columns", "pi_tangle"],
                 ["sweep", "--state", "gghz", "--columns", "pi_tangle", "--max-iterations", "5"],
                 ["pi-tangle", "--state", "gghz", "--param", "0.3"]):  # no --r or --omega
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    small = ["sweep", "--state", "gghz", "--param-steps", "2", "--r-steps", "2",
             "--columns", "svetlichny_bound,pi_tangle"]
    assert main(small + ["--param-start", "nan", "--param-stop", "0.5"]) == 2
    assert main(small + ["--param-stop", "inf"]) == 2
    assert main(["pi-tangle", "--state", "gghz", "--param", "nan", "--r", "0.2"]) == 2
    assert main(["pi-tangle", "--state", "gghz", "--param", "0.5", "--omega", "inf"]) == 2
    # --restarts and --certify are checked for every column set, before any row and before the lattice budget
    singlet = ["sweep", "--state", "singlet", "--r-steps", "2"]
    assert main(singlet + ["--columns", "chsh_horodecki", "--restarts", "0"]) == 2
    assert main(singlet + ["--columns", "chsh_horodecki", "--certify", "-1"]) == 2
    assert main(singlet + ["--columns", "chsh_numeric", "--restarts", "0", "--certify", "0.19634954084936207"]) == 2
    # a column named twice would write a duplicate CSV header
    assert main(singlet + ["--columns", "chsh_horodecki,chsh_horodecki"]) == 2
    # so is --seed, before the first block's states are built
    monkeypatch.setattr(cli, "_damped", lambda *args: pytest.fail("state built before the seed was checked"))
    assert main(singlet + ["--columns", "chsh_horodecki", "--seed", "-1"]) == 2
    assert main(singlet + ["--columns", "chsh_numeric", "--seed", "-1"]) == 2
    # a rejected command leaves an existing --out file as it was
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier results\n")
    assert main(["sweep", "--state", "gghz", "--columns", "bogus", "--out", str(kept)]) == 2
    assert kept.read_text() == "earlier results\n"
    # an --out in a missing directory fails before the sweep is computed
    missing = str(tmp_path / "missing" / "out.txt")
    monkeypatch.setattr(cli, "run_sweep", lambda spec: pytest.fail("sweep computed before opening --out"))
    assert main(small + ["--out", missing]) == 2
    assert main(["threshold", "--out", missing]) == 2
    assert main(["pi-tangle", "--state", "gghz", "--param", "0.3", "--r", "0.2", "--out", missing]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 14 and all(line.startswith("error: ") for line in errors)


def test_main_out_of_memory_is_a_one_line_error():
    # a 1e10-point grid cannot be allocated under a 1.5 GB address-space limit, set in the child process only
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000)); "
            "from accelbell.cli import main; sys.exit(main(sys.argv[1:]))")
    argv = ["sweep", "--state", "singlet", "--param-steps", "100000", "--r-steps", "100000",
            "--columns", "chsh_restricted_max"]
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1


def test_seed_comes_from_the_command_line_only(monkeypatch):
    # the environment does not set the seed: the same command line gives the same spec
    monkeypatch.setenv("ACCELBELL_SEED", "5")
    specs = []
    monkeypatch.setattr(cli, "run_sweep", lambda spec: specs.append(spec) or "")
    assert main(["sweep", "--state", "gghz", "--columns", "pi_tangle"]) == 0
    assert main(["sweep", "--state", "gghz", "--columns", "pi_tangle", "--seed", "3"]) == 0
    assert [spec.seed for spec in specs] == [0, 3]
    assert SweepSpec(state="gghz", param_start=0.0, param_stop=0.0, param_steps=1, r_start=0.0,
                     r_stop=0.0, r_steps=1, mode=3, columns=("pi_tangle",)).seed == 0


@pytest.mark.parametrize(
    "state, mode, columns",
    [("gghz", 3, ("svetlichny_bound", "svetlichny_envelope")), ("ms", 1, ("svetlichny_bound",)),
     ("ms", 3, ("svetlichny_envelope",)), ("singlet", 2, ("chsh_restricted_max",))],
)
def test_closed_form_columns_equal_per_point_calls(state, mode, columns):
    # a 3 x 30 grid crosses a block boundary; each column is one closed-form call per block
    spec = SweepSpec(state=state, param_start=0.1, param_stop=1.4, param_steps=3, r_start=0.0,
                     r_stop=math.pi / 4.0, r_steps=30, mode=mode, columns=columns)
    assert spec.param_steps * spec.r_steps > cli.BLOCK
    rows = run_sweep(spec).splitlines()[1:]
    grid = [(float(p), float(r)) for p in np.linspace(0.1, 1.4, 3) for r in np.linspace(0.0, math.pi / 4.0, 30)]
    assert len(rows) == len(grid)
    for row, (p, r) in zip(rows, grid):
        cells = []
        for col in columns:
            if col == "chsh_restricted_max":
                value = nonlocality.chsh_restricted_max(r)
            elif state == "gghz":
                ref = nonlocality.svetlichny_bound_gghz(p, r)
                value = ref.bound if col == "svetlichny_bound" else ref.envelope
            else:
                form = nonlocality.svetlichny_bound_ms_pair if mode in (1, 2) else nonlocality.svetlichny_bound_ms_slice
                value = form(p, r)
            cells += [cli._fmt(value), "1" if violates(value, COLUMNS[col][0]) else "0"]
        assert row.split(",")[2:] == cells


def test_main_verify_quick(capsys):
    assert main(["verify", "--level", "quick"]) == 0
    report = capsys.readouterr().out
    assert "channel-dual-path" in report
    assert "evaluator-dual-path" in report
    assert "lattice-dual-path" in report
    assert "0 failed" in report


def test_verify_full_level_passes():
    code, report = checks.verify("full")
    assert code == 0, report
    # the optimizer-vs-envelope margins are part of the full report
    assert "svetlichny-numeric-vs-envelope" in report
    assert "envelope=" in report
    passes = [line.split() for line in report.split("\n") if line.startswith("PASS")]
    assert [fields[1] for fields in passes] == FULL_CHECK_NAMES
    assert all(fields[4].startswith("time=") and fields[4].endswith("s") for fields in passes)


class _Raising:
    def __getattr__(self, name):
        raise RuntimeError(f"forced failure at {name}")


def test_verify_raising_checks_keep_their_names(monkeypatch):
    # every check reaches one of these modules before doing any work
    for module in ("np", "linalg", "states", "unruh", "nonlocality", "optimize", "entanglement"):
        monkeypatch.setattr(checks, module, _Raising())
    results = checks.run_checks("full")
    assert [res.name for res in results] == FULL_CHECK_NAMES
    assert all(not res.passed and res.residual == math.inf and "forced failure" in res.detail for res in results)


def _failed_residual(report, name):
    """Residual of the named check's FAIL line; a check that raised reports inf."""
    line = next(line for line in report.split("\n") if line.startswith("FAIL") and name in line)
    return float(line.split("residual=")[1].split()[0])


def test_verify_fault_injection(monkeypatch):
    import accelbell.unruh as unruh_mod

    real_build = unruh_mod.build_channel

    def corrupted(r):
        k = real_build(r)
        k[0, 1, 1] = -k[0, 1, 1]  # sign flip breaks coherences but not probabilities
        return k

    monkeypatch.setattr(unruh_mod, "build_channel", corrupted)
    code, report = checks.verify("quick")
    assert code == 1
    # a finite residual: the check ran and measured the fault instead of crashing
    assert math.isfinite(_failed_residual(report, "channel-dual-path"))


def test_verify_catches_stalled_simplex(monkeypatch):
    # five simplex iterations leave the Svetlichny maxima up to 1.0 below the envelope
    monkeypatch.setattr(optimize, "MAX_ITERATIONS", 5)
    results = {res.name: res for res in checks.run_checks("full")}
    assert not results["svetlichny-numeric-vs-envelope"].passed
    assert math.isfinite(results["svetlichny-numeric-vs-envelope"].residual)


def test_verify_catches_corrupted_correlation_tensor(monkeypatch):
    import accelbell.nonlocality as nonlocality_mod

    corrupted = {n: ineq._replace(paulis=ineq.paulis.copy()) for n, ineq in nonlocality_mod.INEQUALITIES.items()}
    for ineq in corrupted.values():
        ineq.paulis[[0, 1]] = ineq.paulis[[1, 0]]  # T_xx and T_xy (T_xxx and T_xxy) trade places
    monkeypatch.setattr(nonlocality_mod, "INEQUALITIES", corrupted)
    results = {res.name: res for res in checks.run_checks("quick")}
    assert not results["evaluator-dual-path"].passed
    assert math.isfinite(results["evaluator-dual-path"].residual)


def test_verify_catches_corrupted_lattice_oracle(monkeypatch):
    # a transposed tensor swaps the parties inside `optimize` only
    real = optimize.correlation_tensor
    monkeypatch.setattr(optimize, "correlation_tensor", lambda rho: np.swapaxes(real(rho), -1, -2))
    residual, tolerance, _ = checks.check_lattice_dual_path()
    assert not residual <= tolerance
    assert math.isfinite(residual)
