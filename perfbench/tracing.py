"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces each target function in every ``coamoeba.*``
namespace that binds it (so ``from .x import f`` call sites are caught too),
and each target method on its class.  Every call records one span
``(name, start, end, parent)``; spans stay in memory until ``write``.
A span's self time is its duration minus the durations of its direct child
spans, which nest inside it because all traced calls run on one thread.
"""

from __future__ import annotations

import functools
import json
import threading
import time


class Tracer:
    def __init__(self, targets):
        """``targets``: dicts with ``module``, ``attr`` and ``metric`` keys."""
        self.targets = targets
        self.names = [t["metric"] for t in targets]
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []
        self._thread = threading.get_ident()
        # inputs to the two yield ratios
        self._closure_matroids: dict[int, object] = {}
        self.distinct_closures: set = set()
        self.chains_enumerated = 0
        self.complete_flags = 0

    # -- observers for the yield ratios ---------------------------------------

    def _observe_closure(self, args, result):
        matroid = args[0]
        self._closure_matroids[id(matroid)] = matroid  # keeps the id unique
        self.distinct_closures.add((id(matroid), result.forms))

    def _observe_all_flags(self, args, result):
        self.chains_enumerated += len(result)

    def _observe_complete_flags(self, args, result):
        self.complete_flags += len(result)

    # -- installation -----------------------------------------------------------

    def _wrap(self, name_id, fn, observe):
        spans, stack, main = self.spans, self._stack, self._thread
        clock, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != main:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def install(self, modules) -> None:
        """Patch the targets; ``modules`` maps ``coamoeba.*`` names to modules."""
        observers = {
            "matroid.closure": self._observe_closure,
            "tropical.all_flags": self._observe_all_flags,
            "tropical.complete_flags": self._observe_complete_flags,
        }
        for name_id, target in enumerate(self.targets):
            owner = modules[f"coamoeba.{target['module']}"]
            observe = observers.get(target["metric"])
            cls_name, _, method = target["attr"].rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(name_id, original, observe))
                continue
            original = getattr(owner, method)
            wrapper = self._wrap(name_id, original, observe)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def per_name(self) -> tuple[list[int], list[float]]:
        """Call counts and self seconds per target, in target order."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        spans = self.spans
        for name_id, start, end, parent in spans:
            duration = end - start
            calls[name_id] += 1
            self_s[name_id] += duration
            if parent >= 0:
                self_s[spans[parent][0]] -= duration
        return calls, self_s

    def write(self, path, origin: float) -> None:
        """All spans as JSON, times in seconds from ``origin``."""
        payload = {
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [name_id, start - origin, end - origin, parent]
                for name_id, start, end, parent in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
