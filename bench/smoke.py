"""Smoke check of the benchmark on tiny grids: `python3 bench/smoke.py` from the repo root.

For every workload, with and without tracing, the last line printed by
run.py must be one JSON object with exactly the keys correct, attempted,
failed and metrics; every output check must pass; and the metric names
and units must be exactly those BENCHMARK.json lists.  A copy of the
benchmark without the accelbell sources must exit non-zero and print no
result.  Exits 0 when all of this holds.  Not part of the pytest suite.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _problems(spec: dict, workload: str, trace: int) -> list:
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"checks: correct={result.get('correct')} failed={result.get('failed')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: metric.get("unit") for name, metric in result.get("metrics", {}).items()}
    if got != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    for name, metric in result.get("metrics", {}).items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r}")
    return problems


def _bare_copy_refuses() -> bool:
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = _run(bare, "--workload", "surface", "--seed", "1", "--seconds", "1", "--trace", "0")
        return done.returncode != 0 and not done.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = _problems(spec, workload, trace)
            failures += bool(problems)
            print(f"{workload} trace {trace}: {'ok' if not problems else '; '.join(problems)}")
    refuses = _bare_copy_refuses()
    failures += not refuses
    print(f"without sources: {'refuses' if refuses else 'did not refuse'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
