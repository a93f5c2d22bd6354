"""Per-module tracing of mffdfa from outside the package.

The tracer rebinds the package's public functions by identity: every
loaded ``mffdfa`` module whose namespace holds the original object gets the
wrapper instead, so a name is caught wherever a module imported it.
Methods are patched on their class.  Each call records a span in memory
(name, start, end, parent); counts are taken at the same boundaries.  A
target that no longer exists is listed as absent, not raised.

Self time of a span is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import Counter, defaultdict


def _resolve(path: str):
    """'pkg.module:Name.attr' -> (owner, attribute, object), or None if absent."""
    modname, _, attrs = path.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *parents, last = attrs.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, last):
        return None
    return owner, last, getattr(owner, last)


class Tracer:
    """Spans, counts and per-call peak memory of wrapped mffdfa callables."""

    def __init__(self):
        self.spans: list[list] = []           # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.peak_bytes: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []  # [base, max] per open memory frame
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def _install(self, paths, make_wrapper) -> None:
        for path in paths:
            found = _resolve(path)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = functools.wraps(original)(make_wrapper(original))
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                for modname, module in list(sys.modules.items()):
                    if modname != "mffdfa" and not modname.startswith("mffdfa."):
                        continue
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, name, original))
                            setattr(module, name, wrapper)
            return
        self.absent.append(" | ".join(paths))

    def span(self, name: str, *paths: str, count=None) -> None:
        """Record a span per call; count(args, kwargs) adds to counts[name]."""
        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(self.spans)
                self.spans.append([name, time.perf_counter(), None,
                                   self._stack[-1] if self._stack else -1])
                self._stack.append(idx)
                if count is not None:
                    self.counts[name] += count(args, kwargs)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    self.spans[idx][2] = time.perf_counter()
            return wrapper
        self._install(paths, make)

    def count(self, name: str, *paths: str) -> None:
        """Count calls without a span (the time stays in the caller)."""
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        self._install(paths, make)

    def memory(self, name: str, *paths: str) -> None:
        """Peak traced heap above the level at entry, maximum over calls.

        Needs tracemalloc running.  Nested frames share the interpreter's
        single peak counter, so it is folded into every open frame and
        reset at each entry and exit.
        """
        def fold():
            current, peak = tracemalloc.get_traced_memory()
            for frame in self._mem_stack:
                frame[1] = max(frame[1], peak)
            tracemalloc.reset_peak()
            return current

        def make(fn):
            def wrapper(*args, **kwargs):
                base = fold()
                self._mem_stack.append([base, base])
                try:
                    return fn(*args, **kwargs)
                finally:
                    fold()
                    frame_base, frame_max = self._mem_stack.pop()
                    self.peak_bytes[name] = max(self.peak_bytes.get(name, 0),
                                                frame_max - frame_base)
            return wrapper
        self._install(paths, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.peak_bytes.clear()

    def totals(self) -> tuple[dict, dict]:
        """(total seconds, self seconds) per span name."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own = defaultdict(float), defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return dict(total), dict(own)
