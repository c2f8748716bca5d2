"""Outside-in span tracing of the geolearn package.

The tracer wraps, for the duration of a traced run, every public function and
method of the package's layer modules, in the namespace where the calling
code looks it up: a class's own dict for methods, and each module's globals
for functions (so ``algos.apply_barrier``, imported by name from psync, is
wrapped inside algos as well as inside psync). Node hooks, which are closures
or bound methods stored on node instances, are wrapped through
``run_experiment``'s ``on_nodes`` callback with :meth:`Tracer.wrap_hooks`.

Each call records a span: name, layer, start, end, parent span and
experiment. A span's self time is its duration minus the time its child
spans cover; in this single-threaded program children never overlap, so the
self times of all spans under a root add up to the root's duration.

Nothing here edits the package's source: :meth:`Tracer.uninstall` puts every
original object back, and :func:`find_wrappers` checks that none is left.
"""

import importlib
import inspect
import time
from typing import NamedTuple

PACKAGE = "geolearn"
LAYERS = ("models", "numerics", "data", "psync", "algos", "wansim",
          "skewscout", "harness")

_MARK = "__bench_traced__"


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int          # index of the parent span, -1 for a root
    experiment: object
    value: object        # what the span's probe extracted, or None


def _layer_of(fn):
    """Layer module that defined fn, or None when it is outside the layers."""
    fn = getattr(fn, "__func__", fn)
    module = getattr(fn, "__module__", None) or ""
    prefix = PACKAGE + "."
    if not module.startswith(prefix):
        return None
    layer = module[len(prefix):]
    return layer if layer in LAYERS else None


def is_traced(obj):
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    return getattr(getattr(obj, "__func__", obj), _MARK, False)


class Tracer:
    """Collects spans from wrapped callables; install/uninstall patches.

    probes maps a span name to fn(args, kwargs, result) whose return value is
    stored on the span; the benchmark uses it to count indexes walked, gate
    decisions and events processed from arguments and return values.
    """

    def __init__(self, probes=None, clock=time.perf_counter):
        self.probes = dict(probes or {})
        self.clock = clock
        self.spans = []
        self.experiment = None
        self._stack = []
        self._patches = []      # (owner, attribute, original raw value)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name, layer):
        """fn wrapped so that each call records a span."""
        spans, stack, clock = self.spans, self._stack, self.clock
        probe = self.probes.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(name, layer, start, end, parent,
                                  self.experiment, None)
            if probe is not None:
                spans[sid] = spans[sid]._replace(value=probe(args, kwargs, out))
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        setattr(traced, _MARK, True)
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the layer modules' public functions and methods."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{name}")
                   for name in LAYERS]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer)
                elif (inspect.isfunction(obj) and not attr.startswith("_")
                      and _layer_of(obj)):
                    fn_layer = _layer_of(obj)
                    self._patch(module, attr,
                                self.wrap(obj, f"{fn_layer}.{obj.__name__}",
                                          fn_layer))

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self.wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, name, layer)
            else:
                continue
            self._patch(cls, attr, new)

    HOOKS = ("epoch_hook", "iter_hook", "round_hook", "travel_sink")

    def wrap_hooks(self, nodes):
        """Wrap the hooks run_experiment stored on its nodes (for on_nodes).

        A hook is named after the layer that defined it and its function;
        when the travel sink belongs to a SkewScout controller, the probe
        evaluator and knob setter it calls are wrapped as well.
        """
        for node in nodes:
            scout = getattr(node.travel_sink, "__self__", None)
            for attr in self.HOOKS:
                self._wrap_hook(node, attr)
            if scout is not None:
                for attr in ("evaluate", "apply_theta"):
                    self._wrap_hook(scout, attr)

    def _wrap_hook(self, owner, attr):
        fn = getattr(owner, attr, None)
        if fn is None or is_traced(fn):
            return
        layer = _layer_of(fn) or "bench"
        self._patch(owner, attr,
                    self.wrap(fn, f"{layer}.hook.{fn.__name__}", layer))

    def uninstall(self):
        """Put back every original object, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def find_wrappers():
    """Names of tracer wrappers still reachable from the layer modules."""
    left = []
    for name in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{name}")
        for attr, obj in vars(module).items():
            if is_traced(obj):
                left.append(f"{name}.{attr}")
            if inspect.isclass(obj):
                left.extend(f"{name}.{obj.__name__}.{a}"
                            for a, raw in vars(obj).items() if is_traced(raw))
    return left


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans):
    """Per-span duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - covered[i] for i, span in enumerate(spans)]


def categories(spans, classify):
    """Kind of work of each span.

    classify(span) names a span's kind, or returns None when its name says
    nothing. A span whose caller is in the same layer and has a kind takes
    that kind, so a function a layer calls on itself counts as the work of
    its entry point (objective -> loss_and_grad is evaluation); any other
    span gets classify(span).
    """
    out = []
    for span in spans:
        parent = span.parent
        kind = None
        if parent >= 0 and spans[parent].layer == span.layer:
            kind = out[parent]
        out.append(kind if kind is not None else classify(span))
    return out
