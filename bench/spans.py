"""Layer spans for the benchmark's traced passes, recorded from outside the package.

The layers are beamsweep's modules. A call crosses a layer boundary where one
module calls a function it imported from another, so each such binding in a
module's namespace is replaced by a wrapper for the duration of a traced
pass. Nothing in ``src/`` changes. A function a later version removes simply
has no binding to wrap, and its layer reports zero work.

scipy's incomplete-gamma ufuncs count as the ``specfun`` layer wherever the
package binds them, so element counts stay comparable if the hand-written
``specfun`` module is replaced by scipy.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
import types
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("cli", "optimizer", "analysis", "specfun", "core", "montecarlo")
_GAMMA_UFUNCS = frozenset({"gammainc", "gammaincc"})


def layer_modules() -> dict[str, types.ModuleType]:
    """The package's layer modules that exist in this version, imported."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"beamsweep.{layer}")
        except ModuleNotFoundError:
            continue
    return modules


def _layer_of(host: str, name: str, obj) -> str | None:
    """Layer that a module-level binding in layer ``host`` calls into, if another."""
    if isinstance(obj, types.FunctionType):
        package, _, layer = obj.__module__.partition(".")
        if package == "beamsweep" and layer in LAYERS and layer != host:
            return layer
    elif isinstance(obj, np.ufunc) and name in _GAMMA_UFUNCS and host != "specfun":
        return "specfun"
    return None


def bindings(modules: dict[str, types.ModuleType]):
    """(module, name, function, callee layer) for every cross-layer binding."""
    for host, module in modules.items():
        for name, obj in list(vars(module).items()):
            layer = _layer_of(host, name, obj)
            if layer is not None:
                yield module, name, obj, layer


class _Patch:
    """Replaces module attributes and puts the originals back on exit."""

    def __init__(self, replacements) -> None:
        self._replacements = list(replacements)
        self._saved = []

    def __enter__(self):
        for module, name, wrapper in self._replacements:
            self._saved.append((module, name, getattr(module, name)))
            setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


# Work units a span carries, by callee layer: elements evaluated, sweep
# entries produced, or (trials, samples per trial) simulated.
def _elements(args, result):
    if all(type(a) in (float, int) for a in args):
        return 1
    return int(np.broadcast(*args).size)


def _entries(args, result):
    return len(getattr(result, "entries", ()))


def _mc_work(args, result):
    for arg in args:
        trials, l_s = getattr(arg, "trials", None), getattr(arg, "l_sector_int", None)
        if trials is not None and l_s is not None:
            return trials, l_s
    return None


_UNITS = {"specfun": _elements, "optimizer": _entries, "montecarlo": _mc_work}


@dataclass(slots=True)
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int  # index into the pass's span list, -1 for a root
    units: object = None


@dataclass
class Summary:
    """Per-layer totals of one traced pass."""

    self_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    calls: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    root_s: float = 0.0
    specfun_evals: int = 0
    optimizer_entries: int = 0
    mc_calls: int = 0
    mc_trials: int = 0  # trials summed over both hypotheses
    mc_samples: int = 0  # trials x samples per trial, both hypotheses


class Tracer:
    """Records a span for every cross-layer call made inside ``traced()``."""

    def __init__(self, modules: dict[str, types.ModuleType]) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patch = _Patch(
            (module, name, self.wrap(layer, name, fn))
            for module, name, fn, layer in bindings(modules)
        )

    def wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        units = _UNITS.get(layer)

        def traced_call(*args, **kwargs):
            span = Span(layer, name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if units is not None:
                span.units = units(args, result)
            return result

        return traced_call

    def traced(self) -> _Patch:
        return self._patch

    def summarize(self) -> Summary:
        """Totals of the spans recorded so far, which are then cleared.

        A span's self time is its duration minus its children's durations.
        """
        out = Summary()
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            out.self_s[span.layer] += duration - child_s[index]
            out.calls[span.layer] += 1
            if span.parent < 0:
                out.root_s += duration
            if span.units is None:
                continue
            if span.layer == "specfun":
                out.specfun_evals += span.units
            elif span.layer == "optimizer":
                out.optimizer_entries += span.units
            elif span.layer == "montecarlo":
                trials, l_s = span.units
                out.mc_calls += 1
                out.mc_trials += 2 * trials
                out.mc_samples += 2 * trials * l_s
        self.spans.clear()
        return out


class AllocProbe:
    """Peak tracemalloc allocation inside any single call into one layer."""

    def __init__(self, modules: dict[str, types.ModuleType], layer: str) -> None:
        self.peak_bytes = 0
        self._patch = _Patch(
            (module, name, self._wrap(fn))
            for module, name, fn, callee in bindings(modules)
            if callee == layer
        )

    def _wrap(self, fn):
        def probed_call(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1] - base)

        return probed_call

    def __enter__(self):
        tracemalloc.start()
        self._patch.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._patch.__exit__(*exc)
        tracemalloc.stop()
