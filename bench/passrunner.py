"""One benchmark pass, run in a fresh interpreter: `python3 passrunner.py SPEC.json`.

SPEC holds the pass id, the CLI argument lists of the pass's sweeps, the
report path, and optionally a span file (traced pass) or `probe: true`
(stop as soon as the first sweep is ready to evaluate).  Every sweep goes
through the public entry point `accelbell.cli.main`, and each call is
timed on its own, in wall and in process CPU time.  While the sweeps run,
a `Sampler` times `reference_s`, a fixed kernel that shares no code with
accelbell, every SAMPLE_PERIOD_S of wall time, so the parent can tell how
fast the host ran during the pass; the sampler's own time is taken out of
each call's times.  The pass is "ready" when the CLI enters `run_sweep`,
i.e. after import, argument parsing and building the spec; the report
carries that instant on the system-wide monotonic clock, so the parent can
time set-up from the moment it spawned this process.
"""

import json
import signal
import sys
import time

import numpy as np

SAMPLE_PERIOD_S = 0.05
_MATRICES = np.random.default_rng(0).standard_normal((16, 8, 8))


def reference_s() -> float:
    """Time of a fixed kernel of small numpy calls driven from Python, the mix
    of work accelbell's layers do; about 0.5 ms on a quiet 2-core host."""
    began, acc = time.perf_counter(), 0.0
    for m in _MATRICES:
        for _ in range(5):
            acc += float(np.trace(m @ m.T)) + float(np.abs(m).sum())
    return time.perf_counter() - began


class Sampler:
    """Times `reference_s` on entry, on exit, and from a SIGALRM handler every
    SAMPLE_PERIOD_S of wall time in between.  The handler runs between
    bytecodes of the main thread, so it sees the host as the sweeps do;
    `spent` is the wall and CPU time the handler took."""

    def __init__(self):
        self.samples = []
        self.spent = [0.0, 0.0]

    def _tick(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(reference_s())
        self.spent[0] += time.perf_counter() - w0
        self.spent[1] += time.process_time() - c0

    def __enter__(self):
        self.samples.append(reference_s())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.samples.append(reference_s())


class Ready(Exception):
    """Raised in a probe pass once the sweep is ready to evaluate."""


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    from accelbell import cli

    recorder = None
    if spec.get("spans"):
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    ready = []
    run_sweep = cli.run_sweep

    def hooked(sweep_spec):
        if not ready:
            ready.append(time.monotonic())
        if spec.get("probe"):
            raise Ready
        return run_sweep(sweep_spec)

    cli.run_sweep = hooked
    codes, wall, cpu = [], [], []
    sampler = Sampler()
    try:
        with sampler:
            for argv in spec["sweeps"]:
                (s0, t0), w0, c0 = sampler.spent, time.perf_counter(), time.process_time()
                codes.append(cli.main(argv))
                wall.append(time.perf_counter() - w0 - (sampler.spent[0] - s0))
                cpu.append(time.process_time() - c0 - (sampler.spent[1] - t0))
    except Ready:
        pass
    if recorder is not None:
        recorder.dump(spec["spans"], spec["pass_id"])
    report = {"ready": ready[0] if ready else None, "codes": codes, "wall": wall, "cpu": cpu, "ref": sampler.samples}
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
