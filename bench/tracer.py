"""Outside-in tracer: per-layer call counts and self times for iopsim.

The tracer changes no library code.  `install()` replaces every public
function of every layer module, every public method and constructor of
the classes those modules define, and `numpy.linalg.eigh`/`eigvalsh`,
with timing wrappers.  It replaces them at every binding site: a module
attribute or module-level dict entry anywhere in the `iopsim` package
that holds an original function, so the `from .iop import validate`
copies in `dynamics`, `measurement` and the rest are timed as well.
`uninstall()` puts every original back.

A span's self time is its duration minus the durations of the spans
nested directly inside it.  Eigensolver calls are counted only while an
iopsim span is open, so calls made by the benchmark's own checks are not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "iop", "dynamics", "condensation", "composite",
          "measurement", "ivec", "scenarios", "serialize", "cli")
KERNEL = "kernel"
KERNEL_FUNCS = ("eigh", "eigvalsh")


# serialize moves text, so bytes are counted at its two text boundaries
BYTE_HOOKS = {
    ("serialize", "dumps"): lambda args, result: ("bytes_out", len(result)),
    ("serialize", "loads"): lambda args, result: ("bytes_in", len(args[0])),
}


def _public_callables(module):
    """(owner, attribute, function, wrapped kind) for one layer module."""
    found = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            found.append((module, name, obj, None))
        elif inspect.isclass(obj) and not name.startswith("_"):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    found.append((obj, attr, member.__func__, type(member)))
                elif inspect.isfunction(member):
                    found.append((obj, attr, member, None))
    return found


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)        # (layer, name) -> count
        self.self_s = defaultdict(float)     # (layer, name) -> seconds
        self.incl_s = defaultdict(float)     # (layer, name) -> seconds
        self.counters = defaultdict(float)   # bytes_out, bytes_in, eigh_n3
        self._stack = []
        self._patches = []
        self._wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"iopsim.{layer}")
            for owner, attr, fn, kind in _public_callables(module):
                name = attr if owner is module else f"{owner.__name__}.{attr}"
                wrapper = self._wrap(fn, layer, name)
                self._wrappers[id(fn)] = wrapper
                self._patches.append(
                    (owner, attr, vars(owner)[attr],
                     kind(wrapper) if kind else wrapper))
        for name in KERNEL_FUNCS:
            fn = getattr(np.linalg, name)
            self._patches.append((np.linalg, name, fn,
                                  self._wrap(fn, KERNEL, name, kernel=True)))

    def _wrap(self, fn, layer, name, kernel=False):
        key = (layer, name)
        hook = BYTE_HOOKS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kernel and not self._stack:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dur
                self.calls[key] += 1
                self.self_s[key] += dur - frame[0]
                self.incl_s[key] += dur
            if hook:
                counter, n = hook(args, result)
                self.counters[counter] += n
            if kernel:
                self.counters["eigh_n3"] += float(np.shape(args[0])[-1]) ** 3
            return result

        return wrapper

    def _binding_sites(self):
        """Every (container, key) in iopsim that holds an original function."""
        sites = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "iopsim"
                                      or modname.startswith("iopsim.")):
                continue
            for attr, value in vars(module).items():
                if id(value) in self._wrappers:
                    sites.append((module, attr, value))
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if id(v) in self._wrappers:
                            sites.append((value, k, v))
        return sites

    def install(self):
        self._undo = []
        for owner, attr, original, replacement in self._patches:
            self._undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
        for container, key, original in self._binding_sites():
            self._undo.append((container, key, original))
            replacement = self._wrappers[id(original)]
            if isinstance(container, dict):
                container[key] = replacement
            else:
                setattr(container, key, replacement)

    def uninstall(self):
        for container, key, original in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._undo = []

    def layer_totals(self):
        """{layer: (calls, self seconds)}, including the kernel pseudo-layer."""
        totals = {layer: [0, 0.0] for layer in LAYERS + (KERNEL,)}
        for (layer, _), n in self.calls.items():
            totals[layer][0] += n
        for (layer, _), s in self.self_s.items():
            totals[layer][1] += s
        return {layer: tuple(v) for layer, v in totals.items()}
