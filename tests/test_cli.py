import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from accelbell import checks, cli, entanglement, nonlocality, optimize, unruh
from accelbell.cli import COLUMNS, SweepSpec, main, run_sweep, solve_pi_tangle, solve_threshold
from accelbell.linalg import density
from accelbell.nonlocality import bell_upper, violates
from accelbell.states import maximal_slice, singlet

SQRT2 = math.sqrt(2.0)
SRC = Path(__file__).resolve().parent.parent / "src"
CHECK_NAMES = [
    "channel-dual-path", "evaluator-dual-path", "lattice-dual-path", "channel-cptp", "channel-identity-at-rest",
    "damped-correlation-law", "restricted-chsh-equivalence", "threshold-consistency", "pi-tangle-endpoints",
    "optimizer-determinism", "horodecki-vs-numeric", "svetlichny-numeric-vs-envelope",
    "svetlichny-lattice-vs-envelope", "svetlichny-upper-vs-closed-forms", "pi-tangle-monotonicity",
    "ms-bounds-structure",
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
    from accelbell.nonlocality import svetlichny_bound_ms

    spec = bound_spec(state="ms", param_stop=math.pi / 2.0, mode=2, columns=("svetlichny_bound",))
    rows = [line.split(",") for line in run_sweep(spec).strip().split("\n")[1:]]
    grid = [(p, r) for p in np.linspace(0.0, math.pi / 2.0, 5) for r in np.linspace(0.0, math.pi / 4.0, 5)]
    assert len(rows) == len(grid)
    for row, (p, r) in zip(rows, grid):
        assert row[2] == f"{svetlichny_bound_ms(p, r, 2):.12g}"


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
        numeric, closed = optimize.maximize_bell(rho, restarts=2, seed=3).value, bell_upper(rho)
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
    # each grid end is one number: an array is named as the grid end it is, not read as an ambiguous truth value
    for field in ("param_start", "param_stop", "r_start", "r_stop"):
        with pytest.raises(ValueError, match=f"^grid end {field} must be one number"):
            run_sweep(bound_spec(**{field: np.array([0.0, 0.1])}))
        with pytest.raises(ValueError, match=f"^non-finite grid end {field}"):
            run_sweep(bound_spec(**{field: math.nan}))


def test_columns_reject_states_they_have_no_value_for(capsys, monkeypatch):
    # one table: a column has a value for the states its COLUMNS entry names, and is refused for every other state
    # before any state is built, by the library call and by the command alike
    refused = []
    for col, (evaluators, flagged) in COLUMNS.items():
        for state, (_, mode) in cli.STATE_MODES.items():
            if state not in evaluators:
                refused.append((col, state))
                continue
            spec = SweepSpec(state=state, param_start=0.3, param_stop=0.3, param_steps=1, r_start=0.2, r_stop=0.2,
                             r_steps=1, mode=mode, columns=(col,), restarts=2)
            rows = run_sweep(spec).splitlines()
            assert len(rows) == 2 and len(rows[1].split(",")) == (4 if flagged else 3)
    assert len(refused) == 11
    monkeypatch.setattr(cli, "_damped", lambda *args: pytest.fail("state built before the column was checked"))
    for col, state in refused:
        spec = SweepSpec(state=state, param_start=0.3, param_stop=0.3, param_steps=1, r_start=0.2, r_stop=0.2,
                         r_steps=1, mode=cli.STATE_MODES[state][1], columns=(col,))
        with pytest.raises(ValueError, match=f"^column '{col}' has no value for state '{state}'; it takes \\[") as no:
            run_sweep(spec)
        assert main(["sweep", "--state", state, "--r-steps", "1", "--columns", col]) == 2
        assert capsys.readouterr() == ("", f"error: {no.value}\n")  # one line on stderr, nothing on stdout
        if col == "pi_tangle":  # the pi-tangle command reads the same entry
            with pytest.raises(ValueError, match=f"^pi-tangle has no value for '{state}'; it takes \\['gghz', 'ms'"):
                solve_pi_tangle(state, 0.3, 0.2, cli.STATE_MODES[state][1])
            with pytest.raises(SystemExit) as exc:
                main(["pi-tangle", "--state", state, "--param", "0.3", "--r", "0.2"])
            assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


def test_sweep_spec_validation_rejects_bool_and_out_of_range_modes(monkeypatch):
    # the one integer rule (linalg._check_integer) checks the mode in _validate_spec, before any state is built
    monkeypatch.setattr(cli, "_damped", lambda *args: pytest.fail("state built before the mode was checked"))
    for mode in (True, 0, 4, 2.0):
        with pytest.raises(ValueError, match="expected an integer in 1..3"):
            run_sweep(bound_spec(mode=mode))
    with pytest.raises(ValueError, match="expected an integer in 1..2"):
        run_sweep(bound_spec(state="singlet", mode=np.True_, columns=("chsh_horodecki",)))


def test_sweep_spec_validation_rejects_non_integer_steps_and_string_columns(monkeypatch):
    # the step counts follow the rule of the restarts count (linalg._check_integer), before any state is built
    monkeypatch.setattr(cli, "_damped", lambda *args: pytest.fail("state built before the spec was checked"))
    for field, label in (("param_steps", "param"), ("r_steps", "r")):
        for steps in (0, -1, 2.5, 2.0, "3", None, True, np.True_):
            with pytest.raises(ValueError, match=f"^{label} grid steps .*: expected an integer >= 1$"):
                run_sweep(bound_spec(**{field: steps}))
    # a string is a sequence of characters, not of column names; an iterator has no length, and a list is not a name
    with pytest.raises(ValueError, match="sequence of column names, got 'svetlichny_bound'"):
        run_sweep(bound_spec(columns="svetlichny_bound"))
    for columns in (iter(["svetlichny_bound"]), [["svetlichny_bound"]], ("svetlichny_bound", 3)):
        with pytest.raises(ValueError, match="sequence of column names"):
            run_sweep(bound_spec(columns=columns))
    monkeypatch.undo()
    assert run_sweep(bound_spec(param_steps=np.int64(2), r_steps=np.int64(1))).count("\n") == 3


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


def test_argparse_usage_errors_end_in_one_error_line(capsys):
    # a refusal by argparse reads like one by main: the usage, then one "error:" line, and exit 2
    for argv in (["pi-tangle", "--state", "singlet", "--param", "0.3", "--r", "0.1"],
                 ["sweep", "--state", "gghz", "--columns", "pi_tangle", "--restarts", "x"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: accelbell")
        assert [line for line in err if "error:" in line] == [err[-1]] and err[-1].startswith("error: ")


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
    # a rejected command leaves an existing --out file as it was
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier results\n")
    assert main(["sweep", "--state", "gghz", "--columns", "bogus", "--out", str(kept)]) == 2
    assert kept.read_text() == "earlier results\n"
    # and removes one that it created, on exit 2 and on exit 1
    new = tmp_path / "new.csv"
    assert main(["sweep", "--state", "gghz", "--columns", "bogus", "--out", str(new)]) == 2
    assert not new.exists()
    assert main(["sweep", "--state", "gghz", "--r-steps", "1", "--columns", "svetlichny_numeric",
                 "--certify", "0.6283185307179586", "--out", str(new)]) == 1  # the pi/5 lattice exceeds the budget
    assert not new.exists()
    # --restarts and --certify are checked for every column set, before any row and before the lattice budget
    singlet = ["sweep", "--state", "singlet", "--r-steps", "2"]
    assert main(singlet + ["--columns", "chsh_horodecki", "--restarts", "0"]) == 2
    assert main(singlet + ["--columns", "chsh_horodecki", "--certify", "-1"]) == 2
    assert main(singlet + ["--columns", "chsh_numeric", "--restarts", "0", "--certify", "0.19634954084936207"]) == 2
    assert main(singlet + ["--columns", "chsh_numeric", "--certify", "5e-324"]) == 2  # pi / resolution is inf
    # a column named twice would write a duplicate CSV header
    assert main(singlet + ["--columns", "chsh_horodecki,chsh_horodecki"]) == 2
    # so is --seed, before the first block's states are built
    monkeypatch.setattr(cli, "_damped", lambda *args: pytest.fail("state built before the seed was checked"))
    assert main(singlet + ["--columns", "chsh_horodecki", "--seed", "-1"]) == 2
    assert main(singlet + ["--columns", "chsh_numeric", "--seed", "-1"]) == 2
    # an --out in a missing directory fails before the sweep is computed
    missing = str(tmp_path / "missing" / "out.txt")
    monkeypatch.setattr(cli, "run_sweep", lambda spec: pytest.fail("sweep computed before opening --out"))
    assert main(small + ["--out", missing]) == 2
    assert main(["threshold", "--out", missing]) == 2
    assert main(["pi-tangle", "--state", "gghz", "--param", "0.3", "--r", "0.2", "--out", missing]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 17 and all(line.startswith("error: ") for line in errors)


def test_restarts_above_the_cap_rejected_before_any_allocation(capsys, monkeypatch):
    # every start's simplex rows are built at once, so an unbounded --restarts would fill memory before any error
    argv = ["sweep", "--state", "singlet", "--r-steps", "1", "--columns", "chsh_numeric"]
    assert main(argv + ["--restarts", str(optimize.MAX_RESTARTS)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0,2.82842712474,1"
    monkeypatch.setattr(cli, "_damped", lambda *args: pytest.fail("state built before the restarts were checked"))
    monkeypatch.setattr(optimize, "_tensor", lambda rhos: pytest.fail("state read before the restarts were checked"))
    for restarts in (optimize.MAX_RESTARTS + 1, 100_000_000):
        assert main(argv + ["--restarts", str(restarts)]) == 2
        assert capsys.readouterr().err == f"error: restarts {restarts}: expected an integer in 1..1024\n"
        with pytest.raises(ValueError, match="restarts"):
            optimize.maximize_bell(density(singlet()), restarts=restarts)


def test_cli_import_leaves_the_invariant_suite_unloaded():
    # accelbell.checks is imported by the verify command only, so a sweep does not pay for it; nor does the package
    # load logging, which it has no use for
    code = "import sys, accelbell.cli; print('accelbell.checks' in sys.modules, 'logging' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stdout == "False False\n", done.stderr


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
    # a 3 x 30 grid crosses a block boundary, and a one-point grid is a block of one; each column is one
    # closed-form call per block
    for param_steps, r_steps in ((3, 30), (1, 1)):
        spec = SweepSpec(state=state, param_start=0.1, param_stop=1.4, param_steps=param_steps, r_start=0.0,
                         r_stop=math.pi / 4.0, r_steps=r_steps, mode=mode, columns=columns)
        rows = run_sweep(spec).splitlines()[1:]
        grid = [(float(p), float(r)) for p in np.linspace(0.1, 1.4, param_steps)
                for r in np.linspace(0.0, math.pi / 4.0, r_steps)]
        assert len(rows) == len(grid) and (len(grid) > cli.BLOCK or len(grid) == 1)
        for row, (p, r) in zip(rows, grid):
            cells = [cli._fmt(p), cli._fmt(r)]
            for col in columns:
                if col == "chsh_restricted_max":
                    value = nonlocality.chsh_restricted_max(r)
                elif state == "gghz":
                    ref = nonlocality.svetlichny_bound_gghz(p, r)
                    value = ref.bound if col == "svetlichny_bound" else ref.envelope
                else:
                    value = nonlocality.svetlichny_bound_ms(p, r, mode)
                cells += [cli._fmt(value), "1" if violates(value, cli.STATE_MODES[state][0]) else "0"]
            assert row.split(",") == cells


@pytest.mark.parametrize("state, mode", [("gghz", 1), ("gghz", 2), ("gghz", 3), ("ms", 1), ("ms", 2), ("ms", 3)])
def test_pi_tangle_column_equals_per_point_public_calls(state, mode):
    # the column runs the private body on the channel's output unread; each cell is the checked public call on
    # the state damped alone, bit for bit, across a block boundary (3 x 30) and on a block of one
    for param_steps, r_steps in ((3, 30), (1, 1)):
        spec = SweepSpec(state=state, param_start=0.1, param_stop=1.4, param_steps=param_steps, r_start=0.0,
                         r_stop=math.pi / 4.0, r_steps=r_steps, mode=mode, columns=("pi_tangle",))
        rows = run_sweep(spec).splitlines()[1:]
        grid = [(float(p), float(r)) for p in np.linspace(0.1, 1.4, param_steps)
                for r in np.linspace(0.0, math.pi / 4.0, r_steps)]
        assert len(rows) == len(grid) and (len(grid) > cli.BLOCK or len(grid) == 1)
        for row, (p, r) in zip(rows, grid):
            value = entanglement.pi_tangle(cli._damped(state, p, mode, r)).pi
            assert row.split(",") == [cli._fmt(p), cli._fmt(r), cli._fmt(value)]


def test_svetlichny_upper_column_one_call_per_block(monkeypatch):
    # 3 x 30 points are two blocks; each row is the bound of its damped state alone, with its violation flag
    spec = SweepSpec(state="ms", param_start=0.1, param_stop=1.4, param_steps=3, r_start=0.0,
                     r_stop=math.pi / 4.0, r_steps=30, mode=3, columns=("svetlichny_upper",))
    real, calls = nonlocality.bell_upper, []
    monkeypatch.setattr(nonlocality, "bell_upper", lambda rhos: calls.append(len(rhos)) or real(rhos))
    rows = run_sweep(spec).splitlines()
    assert calls == [cli.BLOCK, 90 - cli.BLOCK]
    assert rows[0] == "param,r,svetlichny_upper,svetlichny_upper_violation"
    grid = [(p, r) for p in np.linspace(0.1, 1.4, 3) for r in np.linspace(0.0, math.pi / 4.0, 30)]
    for row, (p, r) in zip(rows[1:], grid):
        value = real(unruh.apply_channel(density(maximal_slice(p)), 3, r))
        assert row.split(",")[2:] == [cli._fmt(value), "1" if violates(value, 3) else "0"]


def test_main_verify_quick(capsys):
    # the former quick checks, the three dual paths, lead the one suite that `verify` runs
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # every check's PASS line, in order, each with its detail line under it, then the summary
    assert len(lines) == 2 * len(CHECK_NAMES) + 1 and lines[-1] == f"{len(CHECK_NAMES)} passed, 0 failed"
    passes = [line.split() for line in lines[0:-1:2]]
    assert [fields[0] for fields in passes] == ["PASS"] * len(CHECK_NAMES)
    assert [fields[1] for fields in passes[:3]] == ["channel-dual-path", "evaluator-dual-path", "lattice-dual-path"]
    assert all(line.startswith("      ") and line.strip() for line in lines[1:-1:2])
    # there are no levels to choose from
    for level in ("quick", "full"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--level", level])
        assert exc.value.code == 2


def test_verify_full_level_passes():
    # the former full level is the one suite
    code, report = checks.verify()
    assert code == 0, report
    lines = report.split("\n")
    passes = [line.split() for line in lines if line.startswith("PASS")]
    assert [fields[1] for fields in passes] == CHECK_NAMES
    assert all(fields[4].startswith("time=") and fields[4].endswith("s") for fields in passes)
    # the optimizer-vs-envelope margins are part of the report, on the detail line under the check
    assert "envelope=" in lines[2 * CHECK_NAMES.index("svetlichny-numeric-vs-envelope") + 1]


class _Raising:
    def __getattr__(self, name):
        raise RuntimeError(f"forced failure at {name}")


def test_verify_raising_checks_keep_their_names(monkeypatch):
    # every check reaches one of these modules before doing any work
    for module in ("np", "linalg", "states", "unruh", "nonlocality", "optimize", "entanglement"):
        monkeypatch.setattr(checks, module, _Raising())
    results = checks.run_checks()
    assert [res.name for res in results] == CHECK_NAMES
    assert all(not res.passed and res.residual == math.inf and "forced failure" in res.detail for res in results)


def _failed_residual(report, name):
    """Residual of the named check's FAIL line; a check that raised reports inf."""
    line = next(line for line in report.split("\n") if line.startswith("FAIL") and name in line)
    return float(line.split("residual=")[1].split()[0])


def test_verify_fault_injection(monkeypatch):
    real_apply = unruh.apply_channel

    def corrupted(rho, mode, r):
        out = real_apply(rho, mode, r)
        left = 2 ** (mode - 1)
        right = out.shape[-1] // (2 * left)
        blocks = out.reshape(out.shape[:-2] + (left, 2, right, left, 2, right))
        # negate the damped mode's coherence blocks: breaks coherences but not probabilities
        blocks[..., :, 0, :, :, 1, :] *= -1
        blocks[..., :, 1, :, :, 0, :] *= -1
        return out

    monkeypatch.setattr(unruh, "apply_channel", corrupted)
    code, report = checks.verify()
    assert code == 1
    # a finite residual: the check ran and measured the fault instead of crashing
    assert math.isfinite(_failed_residual(report, "channel-dual-path"))


def test_verify_catches_stalled_simplex(monkeypatch):
    # five simplex iterations leave the Svetlichny maxima up to 1.0 below the envelope
    monkeypatch.setattr(optimize, "MAX_ITERATIONS", 5)
    results = {res.name: res for res in checks.run_checks()}
    assert not results["svetlichny-numeric-vs-envelope"].passed
    assert math.isfinite(results["svetlichny-numeric-vs-envelope"].residual)


def test_verify_catches_corrupted_correlation_tensor(monkeypatch):
    import accelbell.nonlocality as nonlocality_mod

    corrupted = {n: ineq._replace(paulis=ineq.paulis.copy()) for n, ineq in nonlocality_mod.INEQUALITIES.items()}
    for ineq in corrupted.values():
        ineq.paulis[[0, 1]] = ineq.paulis[[1, 0]]  # T_xx and T_xy (T_xxx and T_xxy) trade places
    monkeypatch.setattr(nonlocality_mod, "INEQUALITIES", corrupted)
    residual, tolerance, _ = checks.check_evaluator_dual_path()
    assert not residual <= tolerance
    assert math.isfinite(residual)


def test_verify_catches_corrupted_lattice_oracle(monkeypatch):
    # a transposed tensor swaps the parties inside `optimize` only
    real = optimize._tensor

    def transposed(rho):
        t, modes = real(rho)
        return np.swapaxes(t, -1, -2), modes

    monkeypatch.setattr(optimize, "_tensor", transposed)
    residual, tolerance, _ = checks.check_lattice_dual_path()
    assert not residual <= tolerance
    assert math.isfinite(residual)
