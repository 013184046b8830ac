"""Per-layer call counts and self times, measured from outside the package.

A layer is one module of the ``ehctrl`` package. ``Spans.install`` wraps the
public functions and methods each layer module defines, found by
introspection, and rebinds every ``ehctrl`` namespace that holds one of them
(``from``-imports included) to the wrapper. Properties and dunder methods
are left alone. A call into the layer that is already on top of the span
stack folds into that span, so ``compute_primal -> compute_s`` is one
scheduler call. A span's self time is its duration minus the durations of
the spans opened inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "config", "control", "comm", "energy", "scheduler",
    "coordination", "sim", "telemetry", "cli",
)


def _public(name: str) -> bool:
    return not name.startswith("_")


def layer_functions(module):
    """(owner, name, function) for each public function and plain method
    defined in ``module``; owner is the module or the class."""
    found = []
    for name, obj in vars(module).items():
        if not _public(name) or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, obj))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if _public(attr) and inspect.isfunction(member):
                    found.append((obj, attr, member))
    return found


def rebind(wrappers: dict) -> None:
    """Replace each original function (keyed by id) with its wrapper in every
    loaded ``ehctrl`` module namespace."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ehctrl" or mod_name.startswith("ehctrl.")):
            continue
        for name, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(mod, name, wrapper)


class Spans:
    """Span stack with per-layer counters; one instance per process."""

    def __init__(self):
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.sim_inclusive_s = 0.0
        self.under_sim_self_s = 0.0
        self.exchanges = 0
        self._stack: list[list] = []

    def install(self, select=lambda layer, name: True) -> None:
        """Wrap every public function of every layer for which
        ``select(layer, name)`` holds."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ehctrl.{layer}")
            for owner, name, fn in layer_functions(module):
                if not select(layer, name):
                    continue
                wrapper = self._wrap(layer, fn)
                if owner is module:
                    wrappers[id(fn)] = wrapper
                else:
                    setattr(owner, name, wrapper)
        rebind(wrappers)

    def _wrap(self, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            under_sim = parent is not None and (parent[2] or parent[0] == "sim")
            frame = [layer, 0.0, under_sim]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[1]
                self.calls[layer] += 1
                self.self_s[layer] += own
                if not under_sim and layer == "sim":
                    self.sim_inclusive_s += elapsed
                elif under_sim and layer != "sim":
                    self.under_sim_self_s += own
                if parent is not None:
                    parent[1] += elapsed
            # Exchange decisions carry a boolean (receiver, sender) matrix.
            if layer == "coordination":
                exchange = getattr(result, "exchange", None)
                if exchange is not None:
                    self.exchanges += int(exchange.sum())
            return result

        return wrapper
