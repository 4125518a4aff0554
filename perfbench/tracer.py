"""Outside-in tracer: spans around the public functions of each asianfb module.

Nothing under ``src/`` is edited.  ``instrument`` wraps every function
listed in a module's ``__all__`` (and ``__init__`` plus the public methods
of the dataclasses listed there), rebinds each wrapped name in every
``asianfb`` module namespace that imported it, wraps the active Thomas
kernel, and restores everything on exit.

A span is (layer, name, start, end, parent, time-layer).  Spans are kept
in memory; ``write_spans`` writes them out once the run is over.  A
span's self time is its duration minus the durations of its direct
children, which nest inside it because the program is single-threaded.
A span whose call raises is still recorded.

Time layers.  ``newton_layer`` and ``predictor`` are each called once per
time layer, so the start of one of them opens a time layer that lasts
until the next one starts or the enclosing march returns.  Every span
opened meanwhile is tagged with that time layer, which gives per-layer
wall time and the first-10 / plateau / last-10 band split.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import sys
import time
from collections import defaultdict

# Benchmark layer -> asianfb modules attributed to it.
LAYERS = {
    "cli": ("cli",),
    "analysis": ("analysis",),
    "solver_newton": ("solver_newton",),
    "solver_pc": ("solver_pc",),
    "scheme": ("scheme",),
    "tridiag": ("tridiag",),
    "other": ("mesh", "model", "results"),
}
KERNELS = "kernels"
ALL_LAYERS = tuple(LAYERS) + (KERNELS,)

# Calls that open a time layer, and the marches that close the last one.
LAYER_OPENERS = {("solver_newton", "newton_layer"): "newton",
                 ("solver_pc", "predictor"): "pc"}
MARCHES = {("solver_newton", "march_newton"): "newton",
           ("solver_pc", "march_pc"): "pc"}

# Engine settings objects are built while the CLI resolves its configuration,
# whichever engine runs; their construction stays with the caller (cli's
# "config" work) so that an engine's metrics are 0 when the engine never runs.
CALLER_ATTRIBUTED = {("solver_newton", "NewtonConfig"), ("solver_pc", "PredictorConfig")}

BAND_EDGE = 10  # layers in each of the first and last bands


def band_of(layer: int, n_layers: int) -> str:
    """'first10' for layers 1..10, 'last10' for the final 10, else 'plateau'."""
    if layer <= BAND_EDGE:
        return "first10"
    if layer > n_layers - BAND_EDGE:
        return "last10"
    return "plateau"


@dataclasses.dataclass
class TimeLayer:
    engine: str
    index: int      # 1..n_layers within its march
    n_layers: int
    start: float
    end: float = float("nan")

    @property
    def band(self) -> str:
        return band_of(self.index, self.n_layers)


class Tracer:
    """In-memory span recorder with per-time-layer tagging."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # each span: [layer, name, start, end, parent index, time-layer index]
        self.spans: list[list] = []
        self.time_layers: list[TimeLayer] = []
        self.kernel_rows = 0
        self.newton_iterations: list[int] = []   # per Newton layer
        self.pc_root_iters = 0
        self.pc_fallback_layers = 0
        self._stack: list[int] = []
        self._open_layer: int | None = None

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [layer, name, 0.0, 0.0, parent, self._open_layer]
        self.spans.append(record)
        self._stack.append(index)
        record[2] = self.clock()
        try:
            yield
        finally:
            record[3] = self.clock()
            self._stack.pop()

    # -- time layers ---------------------------------------------------
    def open_time_layer(self, engine: str, index: int, n_layers: int) -> None:
        now = self.clock()
        self.close_time_layer(now)
        self.time_layers.append(TimeLayer(engine, index, n_layers, now))
        self._open_layer = len(self.time_layers) - 1

    def close_time_layer(self, now: float | None = None) -> None:
        if self._open_layer is not None:
            self.time_layers[self._open_layer].end = self.clock() if now is None else now
            self._open_layer = None

    def record_march(self, engine: str, diagnostics) -> None:
        """Iteration counts of one finished march, from its layer diagnostics."""
        if engine == "newton":
            self.newton_iterations += [d.iterations for d in diagnostics]
        else:
            self.pc_root_iters += sum(d.iterations for d in diagnostics)
            self.pc_fallback_layers += sum(bool(d.predictor_fallback) for d in diagnostics)

    # -- derived figures -----------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, _, start, end, _, _) in enumerate(self.spans)]

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(ALL_LAYERS, 0.0)
        for span, self_s in zip(self.spans, self.self_times()):
            totals[span[0]] += self_s
        return totals

    def band_self_s(self) -> dict[tuple[str, str], float]:
        """(layer, band) -> self time of the spans opened inside that band."""
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            if span[5] is not None:
                totals[span[0], self.time_layers[span[5]].band] += self_s
        return totals

    def entries(self, layer: str) -> int:
        """Calls into ``layer`` from another layer (or from outside any span)."""
        return sum(1 for span in self.spans if span[0] == layer
                   and (span[4] < 0 or self.spans[span[4]][0] != layer))

    def calls(self, layer: str, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == layer and s[1] == name)


def write_spans(tracer: Tracer, path) -> None:
    """Write every span as CSV: layer, name, start_s, end_s, self_s, parent, time_layer."""
    base = tracer.spans[0][2] if tracer.spans else 0.0
    with open(path, "w") as fh:
        fh.write("layer,name,start_s,end_s,self_s,parent,time_layer\n")
        for span, self_s in zip(tracer.spans, tracer.self_times()):
            layer, name, start, end, parent, tl = span
            fh.write(f"{layer},{name},{start - base:.9f},{end - base:.9f},"
                     f"{self_s:.9f},{parent},{'' if tl is None else tl}\n")


# -- instrumentation -------------------------------------------------------

def _wrap(tracer: Tracer, layer: str, name: str, fn, before=None, after=None):
    """``fn`` run inside a span; ``before(args, kwargs)`` and ``after(result)`` are hooks."""
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        result = None
        try:
            with tracer.span(layer, name):
                result = fn(*args, **kwargs)
            return result
        finally:
            if after is not None:
                after(result)

    wrapper.__wrapped__ = fn
    return wrapper


def _hooks(tracer: Tracer, module: str, name: str):
    """(before, after) hooks of the calls that open time layers or end marches."""
    if (module, name) in LAYER_OPENERS:
        engine = LAYER_OPENERS[module, name]

        def open_layer(args, kwargs):
            prev = args[0] if args else kwargs["prev"]
            grid = args[2] if len(args) > 2 else kwargs["g"]
            tracer.open_time_layer(engine, prev.j + 1, grid.M)
        return open_layer, None
    if (module, name) in MARCHES:
        engine = MARCHES[module, name]

        def end_march(result):
            tracer.close_time_layer()
            if result is not None:  # None when the march raised
                tracer.record_march(engine, result.diagnostics)
        return None, end_march
    return None, None


def _count_rows(tracer: Tracer):
    def before(args, kwargs):  # thomas(lower, diag, upper, rhs, pivot_floor)
        tracer.kernel_rows += len(args[1])
    return before


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every public asianfb call through ``tracer`` for the block."""
    kernels = importlib.import_module("asianfb._kernels")
    replacements: dict[int, object] = {}     # id(original function) -> wrapper
    patches: list[tuple[object, str, object]] = []   # (owner, attribute, wrapper)
    for layer, modules in LAYERS.items():
        for short in modules:
            module = importlib.import_module(f"asianfb.{short}")
            for name in module.__all__:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-exported from elsewhere; wrapped at its home
                if not isinstance(obj, type):
                    replacements[id(obj)] = _wrap(tracer, layer, name, obj,
                                                  *_hooks(tracer, short, name))
                elif dataclasses.is_dataclass(obj) and (short, name) not in CALLER_ATTRIBUTED:
                    for attr, value in vars(obj).items():
                        if (attr == "__init__" or not attr.startswith("_")) and \
                                inspect.isfunction(value):
                            patches.append((obj, attr, _wrap(tracer, layer,
                                                             f"{name}.{attr}", value)))
    for backend in (kernels.pure, kernels.native):
        if backend is not None:
            patches.append((backend, "thomas", _wrap(tracer, KERNELS, "thomas", backend.thomas,
                                                     before=_count_rows(tracer))))

    # Rebind the wrapped functions wherever an asianfb module holds them.
    for mod_name, module in list(sys.modules.items()):
        if module is not None and (mod_name == "asianfb" or mod_name.startswith("asianfb.")):
            for attr, value in vars(module).items():
                if id(value) in replacements:
                    patches.append((module, attr, replacements[id(value)]))

    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        tracer.close_time_layer()
