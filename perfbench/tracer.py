"""Span tracer that wraps modsample's public functions from the outside.

`Tracer.installed` swaps each public function of the traced modules, on
its defining module and on the package namespace, for a wrapper that
records a span, and puts the originals back when the block ends, also when
it ends by an exception. Nothing in the package is edited. A span is
[name, start, end, parent, op, raised]; `parent` indexes the enclosing
span (-1 for none) and `op` is the operation the benchmark was running.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict

MODULES = ("cli", "harness", "signal_model", "folding", "spectral", "recovery")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.op, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every public function defined in `package.<module>` for the
        length of the block; yields the sorted list of wrapped names."""
        saved, wrapped = [], []
        try:
            for mod_name in MODULES:
                module = getattr(package, mod_name, None)
                if module is None:
                    continue
                for attr, fn in list(vars(module).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != module.__name__):
                        continue
                    wrapped.append(f"{mod_name}.{attr}")
                    wrapper = self.wrap(wrapped[-1], fn)
                    for owner in (module, package):
                        if getattr(owner, attr, None) is fn:
                            saved.append((owner, attr, fn))
                            setattr(owner, attr, wrapper)
            yield sorted(wrapped)
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def dump(self, path, ops):
        """Write the spans and the operation labels as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"ops": ops, "spans": self.spans}, fh)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans, ops=None):
    """Per function name: total inclusive time, self time, calls and raised
    calls, over the spans of the given operations (all when None)."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"time_s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0})
    for span, self_s in zip(spans, selfs):
        name, start, end, _, op, raised = span
        if ops is not None and op not in ops:
            continue
        row = out[name]
        row["time_s"] += end - start
        row["self_s"] += self_s
        row["calls"] += 1
        row["errors"] += int(raised)
    return dict(out)
