"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps every public function of the traced cosetalg modules
and rebinds the wrapper in every `cosetalg.*` namespace that holds the
original, so calls made through `from .x import f` names are traced too.
Each call records one span (name, start, end, parent); spans stay in memory
until the run ends. Nothing in the package itself is edited: the wrappers
exist only while `install` is active.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from typing import Callable, Optional

import numpy as np

# Layers in pipeline order; each is a module of the cosetalg package.
LAYERS = ("groups", "_kernels", "measures", "quotient_ops", "quotient_algebra",
          "exact", "verifier", "cli")

# Classes whose constructions are counted (not timed).
COUNTED_CLASSES = (("measures", "ComplexMeasure"), ("measures", "DensityFunction"))


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list[list] = []          # [name id, start, end, parent index]
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None,
             suffix: Optional[Callable] = None) -> Callable:
        """A traced version of fn. `suffix(args, kwargs)` refines the span name per
        call; `observe(tracer, args, kwargs, result)` updates counters."""
        spans, stack, clock = self.spans, self._stack, self.clock
        fixed_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed_id if suffix is None else self.name_id(f"{name}.{suffix(args, kwargs)}")
            index = len(spans)
            span = [nid, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self, hooks: dict[str, dict]):
        """Trace every public function of LAYERS while the block runs.

        `hooks` maps "layer.function" to keyword arguments for `wrap`.
        """
        package = sys.modules["cosetalg"]
        namespaces = [m for n, m in sys.modules.items()
                      if n == "cosetalg" or n.startswith("cosetalg.")]
        originals: list[tuple[object, str, object]] = []
        try:
            for layer in LAYERS:
                module = getattr(package, layer)
                for fname, fn in list(vars(module).items()):
                    if (fname.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != module.__name__):
                        continue
                    key = f"{layer}.{fname}"
                    wrapper = self.wrap(key, fn, **hooks.get(key, {}))
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is fn:
                                originals.append((ns, attr, fn))
                                setattr(ns, attr, wrapper)
            for layer, cname in COUNTED_CLASSES:
                cls = getattr(getattr(package, layer), cname)
                post_init = cls.__post_init__
                originals.append((cls, "__post_init__", post_init))
                setattr(cls, "__post_init__", self._counting(f"{layer}.{cname}", post_init))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def _counting(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return counted

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        if not self.spans:
            return {}
        arr = np.array(self.spans, dtype=np.float64)
        name = arr[:, 0].astype(np.int64)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(np.int64)
        nested = parent >= 0
        covered = np.zeros(len(arr))
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        selft = np.bincount(name, weights=own, minlength=n)
        return {nm: {"calls": int(calls[i]), "total": float(total[i]),
                     "self": float(selft[i])}
                for i, nm in enumerate(self.names) if calls[i]}

    def write(self, path) -> None:
        """Save the spans as arrays: names, name id, start, end, parent."""
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=arr[:, 0].astype(np.int32), start=arr[:, 1],
                 end=arr[:, 2], parent=arr[:, 3].astype(np.int64))
