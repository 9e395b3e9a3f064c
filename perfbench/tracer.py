"""Layer spans recorded from outside the program.

The tracer wraps every public function of every ``toursid`` module and
rebinds the wrapper wherever a ``toursid`` namespace holds the original, so
calls made through ``from .hom import hom_path`` are seen too.  A function
added to a module later is traced without editing this file.  Generator
functions are timed per ``next()`` call, since the caller runs between them.

A span is the list ``[id, parent_id, key, t0, t1]`` with key
``"<layer>.<function>"`` and parent -1 at the top.  Spans stay in memory until
``summarize`` and ``write_spans`` read them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "toursid"

# Per-call result hooks: key -> function(counters, result).  They read the
# counts the public return values already carry.
HOOKS = {}


def _hook(key):
    def register(fn):
        HOOKS[key] = fn
        return fn
    return register


@_hook("hom.hom_generic")
def _generic_maps(counters, result):
    counters["hom.generic.maps"] += result.host_n ** result.pattern_v


@_hook("search.optimize_density")
def _optimizer_steps(counters, result):
    counters["search.optimize.iterations"] += result.iterations
    counters["search.optimize.restarts"] += result.restarts
    counters["search.optimize.accepted"] += sum(len(t) - 1 for t in result.trajectories)


@_hook("search.certify")
def _certify_hits(counters, result):
    counters["search.certify.hits"] += result is not None


@_hook("trees.strong_tas_check")
@_hook("trees.amgm_check")
def _trees_checked(counters, result):
    counters["trees.checked"] += result.checked


@_hook("spectral.expand_path")
def _expand_terms(counters, result):
    counters["spectral.expand.terms"] += len(result.terms)


@_hook("stochastic.lyapunov_estimate")
def _lyapunov_steps(counters, result):
    counters["stochastic.steps"] += result.steps


@_hook("stochastic.sample_fg")
def _sample_steps(counters, result):
    counters["stochastic.steps"] += result.n * result.trials


class Tracer:
    """Records nested spans around the public functions of ``toursid``."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._bindings = []  # (namespace dict, attribute, original, wrapper)
        self._wrappers = {}  # original function -> wrapper, kept across installs

    def _wrap_function(self, fn, key):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = HOOKS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, key, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, key):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        yields = key.split(".", 1)[0] + ".yields"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = [len(spans), stack[-1] if stack else -1, key, clock(), 0.0]
                spans.append(rec)
                stack.append(rec[0])
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec[4] = clock()
                    stack.pop()
                counters[yields] += 1
                yield item

        return wrapper

    def install(self):
        """Wrap and rebind; a no-op when already installed."""
        if self._bindings:
            return
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        wrappers = self._wrappers
        for name, mod in modules.items():
            layer = name.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != name or obj in wrappers):
                    continue
                key = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    wrappers[obj] = self._wrap_generator(obj, key)
                else:
                    wrappers[obj] = self._wrap_function(obj, key)
        for mod in modules.values():
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    ns[attr] = wrappers[obj]
                    self._bindings.append((ns, attr, obj, wrappers[obj]))

    def uninstall(self):
        for ns, attr, original, wrapper in self._bindings:
            if ns.get(attr) is wrapper:
                ns[attr] = original
        self._bindings = []


def layer_of(key):
    return key.split(".", 1)[0]


def summarize(spans, layers):
    """Per-layer calls, busy and self times, plus per-function figures.

    * ``calls``: spans of the layer.
    * ``busy``: summed duration of the layer's outermost spans, those with no
      ancestor in the same layer.
    * ``self``: summed duration of the layer's spans minus the durations of
      their direct children.  Every instant covered by some span is counted
      once, in the layer of the innermost span covering it, so the self
      times of all layers add up to the time covered by top-level spans.

    Returns ``(layer_stats, fn_stats, covered, ancestors)``.  ``fn_stats``
    maps a span key to its calls, the busy time of its outermost spans and
    their durations; ``ancestors`` maps a span id to the set of keys above it.
    """
    key_of = {}
    child_time = defaultdict(float)
    for sid, parent, key, t0, t1 in spans:
        key_of[sid] = key
        if parent >= 0:
            child_time[parent] += t1 - t0
    layer_stats = {name: {"calls": 0, "busy": 0.0, "self": 0.0} for name in layers}
    fn_stats = defaultdict(lambda: {"calls": 0, "busy": 0.0, "durations": []})
    ancestors = {-1: frozenset()}
    interned = {}
    covered = 0.0
    for sid, parent, key, t0, t1 in spans:
        dur = t1 - t0
        if parent < 0:
            covered += dur
        anc = ancestors[parent]
        if parent >= 0:
            anc = anc | {key_of[parent]}
        anc = interned.setdefault(anc, anc)
        ancestors[sid] = anc
        layer = layer_of(key)
        stats = layer_stats.setdefault(layer, {"calls": 0, "busy": 0.0, "self": 0.0})
        stats["calls"] += 1
        stats["self"] += dur - child_time[sid]
        if not any(layer_of(a) == layer for a in anc):
            stats["busy"] += dur
        f = fn_stats[key]
        f["calls"] += 1
        if key not in anc:
            f["busy"] += dur
            f["durations"].append(dur)
    return layer_stats, dict(fn_stats), covered, ancestors


def write_spans(spans, path):
    """One span per line: id, parent, key, start and end in seconds."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,key,t0,t1\n")
        for sid, parent, key, t0, t1 in spans:
            fh.write(f"{sid},{parent},{key},{t0:.9f},{t1:.9f}\n")
