import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from accelbell import checks, unruh
from accelbell.cli import SweepSpec, main, run_sweep, solve_pi_tangle, solve_threshold

SQRT2 = math.sqrt(2.0)
SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_main_pi_tangle_omega_precedence(tmp_path):
    out_r = tmp_path / "r.json"
    out_w = tmp_path / "w.json"
    # --r wins when both are given
    assert main(["pi-tangle", "--state", "gghz", "--param", "0.5", "--r", "0.2",
                 "--omega", "9.9", "--out", str(out_r)]) == 0
    assert json.loads(out_r.read_text())["r"] == 0.2
    omega = math.log(4.0) / (2.0 * math.pi)
    assert main(["pi-tangle", "--state", "gghz", "--param", "0.5", "--omega", str(omega),
                 "--out", str(out_w)]) == 0
    assert abs(json.loads(out_w.read_text())["r"] - unruh.acceleration_parameter(omega)) < 1e-11


def test_main_usage_errors(capsys):
    assert main(["sweep", "--state", "singlet", "--columns", "svetlichny_bound"]) == 2
    assert main(["pi-tangle", "--state", "gghz", "--param", "0.3"]) == 2  # no --r or --omega
    for argv in (["sweep", "--state", "unknown", "--columns", "pi_tangle"],
                 ["sweep", "--state", "gghz", "--columns", "pi_tangle", "--max-iterations", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    small = ["sweep", "--state", "gghz", "--param-steps", "2", "--r-steps", "2",
             "--columns", "svetlichny_bound,pi_tangle"]
    assert main(small + ["--param-start", "nan", "--param-stop", "0.5"]) == 2
    assert main(small + ["--param-stop", "inf"]) == 2
    assert main(["pi-tangle", "--state", "gghz", "--param", "nan", "--r", "0.2"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 3 and all(line.startswith("error: ") for line in errors)


def test_bad_seed_environment_is_usage_error():
    # a fresh interpreter, as a user runs the command
    env = dict(os.environ, ACCELBELL_SEED="abc",
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    for args in (["threshold"], ["sweep", "--state", "singlet", "--r-steps", "2", "--columns", "chsh_horodecki"]):
        proc = subprocess.run([sys.executable, "-m", "accelbell.cli", *args],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ACCELBELL_SEED")
        assert "Traceback" not in proc.stderr


def test_seed_environment_sets_default(monkeypatch):
    monkeypatch.setenv("ACCELBELL_SEED", "5")
    spec = SweepSpec(state="gghz", param_start=0.0, param_stop=0.0, param_steps=1, r_start=0.0,
                     r_stop=0.0, r_steps=1, mode=3, columns=("pi_tangle",))
    assert spec.seed == 5


def test_main_verify_quick(capsys):
    assert main(["verify", "--level", "quick"]) == 0
    report = capsys.readouterr().out
    assert "channel-dual-path" in report
    assert "evaluator-dual-path" in report
    assert "0 failed" in report


def test_verify_full_level_passes():
    code, report = checks.verify("full")
    assert code == 0, report
    # the optimizer-vs-envelope margins are part of the full report
    assert "svetlichny-numeric-vs-envelope" in report
    assert "envelope=" in report


def test_verify_fault_injection(monkeypatch, capsys):
    import accelbell.unruh as unruh_mod

    real_build = unruh_mod.build_channel

    def corrupted(r):
        ch = real_build(r)
        bad = ch.kraus[0].copy()
        bad[1, 1] = -1.0  # sign flip breaks coherences but not probabilities
        return unruh_mod.UnruhChannel(r=ch.r, kraus=(bad, ch.kraus[1]))

    monkeypatch.setattr(unruh_mod, "build_channel", corrupted)
    code, report = checks.verify("quick")
    assert code == 1
    failing = [line for line in report.split("\n") if line.startswith("FAIL")]
    assert any("channel-dual-path" in line for line in failing)


def test_verify_catches_corrupted_correlation_tensor(monkeypatch):
    import accelbell.nonlocality as nonlocality_mod

    corrupted = {n: basis.copy() for n, basis in nonlocality_mod._PAULI_PRODUCTS.items()}
    for basis in corrupted.values():
        basis[[0, 1]] = basis[[1, 0]]  # T_xx and T_xy (T_xxx and T_xxy) trade places
    monkeypatch.setattr(nonlocality_mod, "_PAULI_PRODUCTS", corrupted)
    results = {res.name: res for res in checks.run_checks("quick")}
    assert not results["evaluator-dual-path"].passed
