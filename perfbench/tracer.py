"""Outside-in tracer: spans around calls into chainbounds' public functions.

The tracer changes nothing under ``src/``. It finds each layer module's
public functions by introspection and, while installed, replaces every
module attribute in the package that refers to one of them with a timing
wrapper. Calls between modules and inside a module go through those
attributes, so ``gap_report -> ip_gap -> embed_weighted`` nests as spans
with parent ids. A function that a later change renames or merges is
traced under its new name without editing this file.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Span fields, stored as lists in memory and written out when the run ends.
NAME, PARENT, START, END, OP, CONFIG = range(6)


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: fn
        for name, fn in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    }


def _sim_config(args):
    # (replicas, n) of a simulation config passed as the first argument
    if args and hasattr(args[0], "replicas"):
        return (args[0].replicas, getattr(args[0], "n", None))
    return None


class Tracer:
    """Records one span per call of a traced function, in memory."""

    def __init__(self, package: str, layers: tuple[str, ...]):
        self.package = package
        self.names: dict = {}  # original function -> "layer.function"
        for layer in layers:
            module = sys.modules[f"{package}.{layer}"]
            for name, fn in public_functions(module).items():
                self.names[fn] = f"{layer}.{name}"
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, self.op, _sim_config(args)]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    def install(self) -> None:
        wrappers = {fn: self._wrap(fn, name) for fn, name in self.names.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def summarize(spans: list[list], root: str) -> dict:
    """Per-function totals and counts, root self time and top-level split.

    A function's total counts only its outermost spans, so recursion is not
    counted twice. Self time is a span's duration minus its children's.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    total_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    top_level: dict = defaultdict(float)
    root_total = root_self = 0.0
    sim = []  # (duration, replicas, n) of outermost simulating spans
    for i, span in enumerate(spans):
        name, parent = span[NAME], span[PARENT]
        duration = span[END] - span[START]
        calls[name] += 1
        ancestor, outermost = parent, True
        while ancestor >= 0:
            if spans[ancestor][NAME] == name:
                outermost = False
                break
            ancestor = spans[ancestor][PARENT]
        if outermost:
            total_s[name] += duration
        if name == root:
            root_total += duration
            root_self += duration - child_time[i]
        elif parent >= 0 and spans[parent][NAME] == root:
            top_level[name.split(".")[0]] += duration
        if span[CONFIG] is not None and (parent < 0 or spans[parent][CONFIG] is None):
            sim.append((duration, *span[CONFIG]))
    return {
        "total_s": dict(total_s),
        "calls": dict(calls),
        "root_total_s": root_total,
        "root_self_s": root_self,
        "top_level_s": dict(top_level),
        "simulations": sim,
    }
