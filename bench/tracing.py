"""Span tracing of the accelbell layers, installed from outside the package.

`install` wraps every public function of the traced modules and rebinds
the wrapper wherever a caller looks the function up: module globals such
as `optimize.chsh_value` or `nonlocality.hermitian_eigenvalues`, and
module-level dicts such as `cli.STATE_BUILDERS`.  Each call records one
span (function, start, end, parent span, and a tag: the batch size for a
Bell evaluator, the matrix dimension for the eigensolver).  Spans stay in
memory and are written out once, with the pass id, when the traced pass
ends.

`summarize` turns one pass's spans into the per-layer metrics.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "states", "unruh", "linalg", "entanglement", "nonlocality", "optimize")
EVALUATORS = ("nonlocality.chsh_value", "nonlocality.svetlichny_value")
EIGEN = "linalg.hermitian_eigenvalues"


def _batch_size(args, kwargs) -> int:
    """Settings in a Bell evaluator call; 0 for an un-batched call."""
    settings = args[1] if len(args) > 1 else kwargs.get("settings")
    shape = np.shape(settings) if isinstance(settings, (np.ndarray, list, tuple)) else ()
    return math.prod(shape[:-2]) if len(shape) > 2 else 0


def _dimension(args, kwargs) -> int:
    return int(np.shape(args[0] if args else kwargs["matrix"])[0])


TAGGERS = {name: _batch_size for name in EVALUATORS} | {EIGEN: _dimension}


class Recorder:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("q")
        self.tag = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        tagger = TAGGERS.get(qualname)
        name_id, parent, tag, start, end, stack = (
            self.name_id, self.parent, self.tag, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            span = len(start)
            name_id.append(index)
            parent.append(stack[-1])
            tag.append(tagger(args, kwargs) if tagger else 0)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()

        return traced

    def dump(self, path, pass_id: str) -> None:
        np.savez(
            path,
            pass_id=np.array(pass_id),
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            tag=np.frombuffer(self.tag, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def install(recorder: Recorder) -> None:
    """Wrap the public functions of LAYERS at every binding in the package."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"accelbell.{layer}")
        for name, fn in _public_functions(module):
            wrappers[id(fn)] = recorder.wrap(f"{layer}.{name}", fn)
    modules = [m for n, m in sys.modules.items() if n == "accelbell" or n.startswith("accelbell.")]
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, name, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in value.items():
                    if id(item) in wrappers:
                        value[key] = wrappers[id(item)]


def summarize(path) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name_id, parent, tag = data["name_id"], data["parent"], data["tag"]
        duration = data["end"] - data["start"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
    self_time = duration - children

    def mask(*qualnames):
        ids = [i for i, n in enumerate(names) if n in qualnames]
        return np.isin(name_id, ids)

    def layer(name):
        return mask(*[n for n in names if n.split(".")[0] == name])

    def us_per(total, count):
        return 1e6 * float(total) / count if count else 0.0

    optimize_spans = layer("optimize")
    in_optimize, under = optimize_spans.tolist(), [False] * duration.size
    for i, p in enumerate(parent.tolist()):   # parents are recorded before their children
        under[i] = p >= 0 and (in_optimize[p] or under[p])
    under_optimize = np.array(under, dtype=bool)

    evaluators = mask(*EVALUATORS)
    scalar, batched = evaluators & (tag == 0), evaluators & (tag > 0)
    eigen, eigen8 = mask(EIGEN), mask(EIGEN) & (tag == 8)
    scalar_svetlichny = mask("nonlocality.svetlichny_value") & (tag == 0)
    apply_channel, pi_tangle, horodecki = (
        mask("unruh.apply_channel"), mask("entanglement.pi_tangle"), mask("nonlocality.horodecki_max"))
    return {
        "cli.run_sweep.self_s": (float(self_time[mask("cli.run_sweep")].sum()), "s"),
        "states.self_s": (float(self_time[layer("states")].sum()), "s"),
        "unruh.apply_channel.calls": (int(apply_channel.sum()), "count"),
        "unruh.apply_channel.self_s": (float(self_time[apply_channel].sum()), "s"),
        "unruh.apply_channel.us_per_call": (us_per(duration[apply_channel].sum(), apply_channel.sum()), "us"),
        "linalg.hermitian_eigenvalues.calls": (int(eigen.sum()), "count"),
        "linalg.hermitian_eigenvalues.self_s": (float(self_time[eigen].sum()), "s"),
        "linalg.hermitian_eigenvalues.us_per_call": (us_per(duration[eigen].sum(), eigen.sum()), "us"),
        "linalg.hermitian_eigenvalues.8x8.us_per_call": (us_per(duration[eigen8].sum(), eigen8.sum()), "us"),
        "linalg.other.self_s": (float(self_time[layer("linalg") & ~eigen].sum()), "s"),
        "entanglement.pi_tangle.calls": (int(pi_tangle.sum()), "count"),
        "entanglement.pi_tangle.us_per_call": (us_per(duration[pi_tangle].sum(), pi_tangle.sum()), "us"),
        "entanglement.self_s": (float(self_time[layer("entanglement")].sum()), "s"),
        "nonlocality.self_s": (float(self_time[layer("nonlocality")].sum()), "s"),
        "nonlocality.batched.settings": (int(tag[batched].sum()), "count"),
        "nonlocality.batched.us_per_setting": (us_per(duration[batched].sum(), tag[batched].sum()), "us"),
        "nonlocality.scalar.calls": (int(scalar.sum()), "count"),
        "nonlocality.scalar.us_per_call": (us_per(duration[scalar].sum(), scalar.sum()), "us"),
        "nonlocality.svetlichny_value.us_per_call": (
            us_per(duration[scalar_svetlichny].sum(), scalar_svetlichny.sum()), "us"),
        "nonlocality.horodecki_max.self_s": (float(self_time[horodecki].sum()), "s"),
        "nonlocality.horodecki_max.us_per_call": (us_per(duration[horodecki].sum(), horodecki.sum()), "us"),
        "optimize.evaluations": (int((scalar & under_optimize).sum()), "count"),
        "optimize.self_s": (float(self_time[optimize_spans].sum()), "s"),
        "trace.spans": (int(duration.size), "count"),
    }
