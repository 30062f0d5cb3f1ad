"""accelbell benchmark: time the sweep workloads end to end, or trace them per layer.

    python3 bench/run.py --workload surface --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each pass is a fresh single-threaded
interpreter (BLAS threads pinned to 1) that runs the workload's sweeps
through `accelbell.cli.main`, timing each call; passes run back to back,
one at a time (a closed loop with one client), for about `--seconds` and
at least MIN_PASSES passes.
Every output is checked outside the timed region.

The host is shared, and other tenants switch it between a fast and a
slow state, about 1.8x apart in CPU time as much as in wall time, every
second or so; the share of slow time drifts over minutes, so raw timings
of the same code differ by 30% and more between runs.  Each pass
therefore times a fixed reference kernel (`passrunner.reference_s`, no
accelbell code) every 50 ms while its sweeps run, and its times are
rescaled to a host on which that kernel takes REF_S: multiplied by the
pass's mean of REF_S over each reference time (the host's mean speed
relative to the quiet host).  A code change moves
the sweep times and not the kernel, so it shows in full.  The raw
per-pass figures are printed next to each rescaled value.

--trace 0 reports the end-to-end metrics, as seconds at reference speed:
  points_per_s  grid points per second of sweep time
  cpu_s         process CPU time of one pass's sweeps
  setup_s       spawn to "ready to evaluate" (import, parse, build the spec)
  peak_rss_mb   peak resident set size of one pass process (not rescaled)
Each is the median over passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see tracing.py), the tracing overhead, and the
per-call times next to the baseline table in ROADMAP.md.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Everything else (samples, check
counts, the environment) is printed above it and written to
.bench_out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import outputs
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
REF_S = 0.0005               # passrunner.reference_s on a quiet 2-core Xeon host
RUN_LIMIT_S = 170.0          # a run must end well inside 180 s
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# per-call times measured once on a 2-core box (ROADMAP.md, baseline table)
ROADMAP_US = {
    "nonlocality.svetlichny_value.us_per_call": 45.0,
    "linalg.hermitian_eigenvalues.8x8.us_per_call": 58.0,
    "unruh.apply_channel.us_per_call": 169.0,
    "entanglement.pi_tangle.us_per_call": 445.0,
    "nonlocality.horodecki_max.us_per_call": 406.0,
}


class Runner:
    """Spawns pass processes and collects their timings and outputs."""

    def __init__(self, sweeps, work: Path, deadline: float):
        self.sweeps = sweeps
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if k != "ACCELBELL_SEED"}
        self.env.update(PINNED, PYTHONPATH=str(ROOT / "src"))

    def run(self, probe: bool = False, traced: bool = False) -> dict:
        """One pass; `probe` stops it when the first sweep is ready (a warm-up)."""
        label = f"pass{self.count}"
        self.count += 1
        outs = [self.work / f"{label}-sweep{j}.csv" for j in range(len(self.sweeps))]
        spec = {
            "pass_id": label,
            "sweeps": [list(s.argv) + ["--out", str(out)] for s, out in zip(self.sweeps, outs)],
            "report": str(self.work / f"{label}.report.json"),
            "probe": probe,
            "spans": str(self.work / f"{label}.spans.npz") if traced else None,
        }
        spec_path = self.work / f"{label}.spec.json"
        spec_path.write_text(json.dumps(spec))
        err_path = self.work / f"{label}.stderr"
        with open(err_path, "w") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "passrunner.py"), str(spec_path)],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
            )
            code, usage = _wait(proc, max(1.0, self.deadline - time.monotonic()))
        if code != 0:
            print(f"{label} exited with code {code}:\n{err_path.read_text()[-2000:]}", file=sys.stderr)
        record = {"label": label, "traced": traced, "exit": code, "spans": spec["spans"],
                  "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0}
        report = json.loads(Path(spec["report"]).read_text()) if code == 0 else {}
        ready = report.get("ready")
        record["setup_s"] = ready - spawned if ready is not None else None
        record["wall"], record["cpu"], record["ref"] = report.get("wall"), report.get("cpu"), report.get("ref")
        if not probe:
            record["csv"] = [out.read_text() if code == 0 and out.exists() else None for out in outs]
        return record


def _measure(runner: Runner, seconds: float, traced_run: bool) -> list:
    """Run passes back to back for about `seconds`.

    A new pass starts only when one more, as long as the previous ones of
    its kind, still ends within `seconds`, so a run does not overshoot by a
    whole pass.  A traced run alternates untraced and traced passes.
    """
    passes, cost = [], {False: [], True: []}
    minimum = 2 if traced_run else MIN_PASSES
    start = time.monotonic()
    while True:
        traced = traced_run and len(passes) % 2 == 1
        expected = statistics.median(cost[traced]) if cost[traced] else 0.0
        if len(passes) >= minimum and time.monotonic() - start + expected > seconds:
            break
        if passes and time.monotonic() + 2.0 * expected + 5.0 > runner.deadline:
            break
        began = time.monotonic()
        passes.append(runner.run(traced=traced))
        cost[traced].append(time.monotonic() - began)
    return passes


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the process with its resource usage; kill it past the timeout, or
    when this process is interrupted or terminated while waiting."""
    limit = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > limit:
                os.kill(proc.pid, signal.SIGKILL)   # not reaped yet, so the pid is still ours
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _summary(values: list) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def _checks(sweeps, passes) -> tuple:
    """(attempted, failed) over all passes: row checks plus byte-identity with the first pass."""
    attempted = failed = 0
    for j, sweep in enumerate(sweeps):
        texts = [p["csv"][j] for p in passes]
        a, f = outputs.check(sweep, texts)
        attempted += a + len(texts) - 1
        failed += f + sum(text is None or text != texts[0] for text in texts[1:])
    return attempted, failed


def _numeric_gap(sweeps, passes) -> float:
    gaps = [outputs.numeric_gap(s, p["csv"][j]) for p in passes for j, s in enumerate(sweeps)]
    gaps = [g for g in gaps if g is not None]
    return max(gaps) if gaps else 0.0


def _rescaled(p: dict, seconds: float) -> float:
    """`seconds` measured in pass `p`, at reference speed."""
    return seconds * statistics.mean(REF_S / ref for ref in p["ref"])


def _sweep_s(passes, key: str) -> float | None:
    """Median over `passes` of their total `key` sweep time at reference speed."""
    return statistics.median(_rescaled(p, sum(p[key])) for p in passes) if passes else None


def end_to_end(sweeps, passes) -> dict:
    """name -> (value, unit, per-pass samples for the printed summary)."""
    good = [p for p in passes if p["exit"] == 0]
    points = sum(s.points for s in sweeps)
    wall, cpu = _sweep_s(good, "wall"), _sweep_s(good, "cpu")
    setup = [_rescaled(p, p["setup_s"]) for p in good]
    rss = [p["rss_mb"] for p in good]
    return {
        "points_per_s": (points / wall if wall else None, "points/s", [points / sum(p["wall"]) for p in good]),
        "cpu_s": (cpu, "s", [sum(p["cpu"]) for p in good]),
        "setup_s": (statistics.median(setup) if setup else None, "s", [p["setup_s"] for p in good]),
        "peak_rss_mb": (statistics.median(rss) if rss else None, "MB", rss),
    }


def per_layer(sweeps, passes) -> dict:
    traced = [p for p in passes if p["traced"] and p["exit"] == 0]
    plain = [p for p in passes if not p["traced"] and p["exit"] == 0]
    layers = [tracing.summarize(p["spans"]) for p in traced]
    out = {}
    for name, (_, unit) in (layers[0].items() if layers else ()):
        samples = [layer[name][0] for layer in layers]
        out[name] = (statistics.median(samples), unit, samples)
    if traced and plain:
        t_wall, u_wall = _sweep_s(traced, "wall"), _sweep_s(plain, "wall")
        out["trace.overhead_s"] = (t_wall - u_wall, "s", [])
        out["trace.overhead_frac"] = ((t_wall - u_wall) / u_wall, "ratio", [])
    out["optimize.numeric_gap"] = (_numeric_gap(sweeps, passes), "abs", [])
    return out


def _calibration_s() -> float:
    """Median time of a fixed pure-Python loop: how fast this host ran at the time."""
    times = []
    for _ in range(5):
        began, total = time.perf_counter(), 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def environment(workload: str, seed: int, sweeps) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k]['name']} {deps[k]['version']}" for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError, AttributeError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "accelbell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "calibration_s": _calibration_s(),
        "pinned": PINNED,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "argv": [list(s.argv) for s in sweeps],
    }


def _fmt(name: str, value: float, unit: str, samples: list) -> str:
    line = f"{name:48s} {value:.6g} {unit}"
    if len(samples) > 1:
        s = _summary(samples)
        line += (f"  (raw per pass: median {s['median']:.6g} of {s['n']}; "
                 f"quartiles {s['q1']:.6g}..{s['q3']:.6g}; range {s['min']:.6g}..{s['max']:.6g})")
    return line


def _terminate(signum, frame):
    raise SystemExit(128 + signum)   # unwinds through _wait, which kills the running pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small grids, for a smoke check")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "accelbell" / "cli.py").is_file():
        print(f"error: no accelbell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    began = time.monotonic()
    sweeps = WORKLOADS[args.workload](args.seed, args.tiny)
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(sweeps, work, began + RUN_LIMIT_S)
    try:
        runner.run(probe=True)   # fills the bytecode and file caches; not measured
        passes = _measure(runner, args.seconds, bool(args.trace))
        attempted, failed = _checks(sweeps, passes)
        metrics = per_layer(sweeps, passes) if args.trace else end_to_end(sweeps, passes)
        if args.trace:
            spans = [p["spans"] for p in passes if p["traced"] and p["exit"] == 0]
            if spans:
                shutil.copyfile(spans[-1], out_dir / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.workload, args.seed, sweeps)
    traced = sum(p["traced"] for p in passes)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes) - traced} untraced and {traced} traced passes of {len(sweeps)} sweeps each")
    for name, (value, unit, samples) in metrics.items():
        if value is not None:
            print(_fmt(name, value, unit, samples))
    print(f"{'failed_frac':48s} {failed / attempted if attempted else 1.0:.6g} fraction  "
          f"({failed} of {attempted} output checks failed)")
    for name, reference in ROADMAP_US.items():
        if name in metrics and metrics[name][0]:
            value = metrics[name][0]
            print(f"baseline {name}: traced {value:.1f} us, ROADMAP table {reference:.0f} us "
                  f"(ratio {value / reference:.2f})")
    print("env " + json.dumps(env))
    record = {"env": env, "attempted": attempted, "failed": failed,
              "passes": [{k: v for k, v in p.items() if k != "csv"} for p in passes],
              "metrics": {n: {"value": v, "unit": u, "samples": s} for n, (v, u, s) in metrics.items()}}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {n: {"value": v if v is not None else 0.0, "unit": u} for n, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
