"""Spans around the driver's library calls, and a cProfile rollup by module.

Spans are recorded only in the benchmark's own code, around each call it
makes into a public hbcells function; the library itself is not touched.
The profile rollup covers the inner layers (field, poly, linalg, ...) that
the driver never calls directly.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
from time import perf_counter

# Layers of the profile rollup: every hbcells module, plus the standard
# library's rationals (counted as field arithmetic), C builtins, the
# benchmark's own code and everything else.
LAYERS = ("field", "poly", "linalg", "groebner", "staircase", "hilbert_burch",
          "betti", "generic_cells", "census", "builtins", "driver", "other")
FIELD_FILES = ("fractions.py", "numbers.py")

# Inner functions whose call counts the rollup reports on their own,
# as (module, qualified name).
PROFILED_FUNCTIONS = (("groebner", "_normal_form_dict"),
                      ("poly", "Polynomial.__mul__"),
                      ("poly", "Polynomial.substitute"),
                      ("linalg", "echelon_insert"))


class Tracer:
    """Keeps spans in memory as [name, start, end, parent, item, error] rows.

    ``parent`` is the index of the enclosing span (an item or the set-up),
    ``item`` the index of the item in its pass.  ``counts`` accumulates the
    measures taken from call results: ``measures`` maps a span name to
    (count names, function of the call's arguments, result and item).
    """

    FIELDS = ("name", "start", "end", "parent", "item", "error")

    def __init__(self, measures):
        self.spans = []
        self.counts = {}
        self.parent = None
        self.item = None
        self.item_obj = None
        self._measures = measures

    def begin(self, name, item=None, item_obj=None):
        """Open an enclosing span; calls made until ``end`` become its children."""
        self.spans.append([name, perf_counter(), None, None, item, False])
        self.parent = len(self.spans) - 1
        self.item = item
        self.item_obj = item_obj

    def end(self, error=False):
        span = self.spans[self.parent]
        span[2] = perf_counter()
        span[5] = error
        self.parent = self.item = self.item_obj = None

    def wrap(self, name, fn):
        _, measure = self._measures.get(name, ((), None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append([name, start, perf_counter(), self.parent, self.item, True])
                raise
            self.spans.append([name, start, perf_counter(), self.parent, self.item, False])
            if measure is not None:
                for key, value in measure(args, result, self.item_obj).items():
                    self._count(f"{name}.{key}", value)
            return result

        return traced

    def _count(self, key, value):
        if key.endswith("_max"):
            self.counts[key] = max(self.counts.get(key, 0), value)
        else:
            self.counts[key] = self.counts.get(key, 0) + value

    def call_stats(self):
        """{span name: (calls, busy seconds)} over library-call spans."""
        out = {}
        for name, start, end, parent, _, _ in self.spans:
            if parent is None:
                continue
            calls, busy = out.get(name, (0, 0.0))
            out[name] = (calls + 1, busy + end - start)
        return out

    def rows(self):
        return [list(self.FIELDS)] + self.spans


def layer_of(filename, src_pkg, bench_dir):
    """Map a profiled code object's file to one of LAYERS."""
    if filename == "~":
        return "builtins"
    path = os.path.abspath(filename)
    if os.path.dirname(path) == src_pkg:
        stem = os.path.splitext(os.path.basename(path))[0]
        return stem if stem in LAYERS else "other"
    if os.path.basename(path) in FIELD_FILES:
        return "field"
    if os.path.dirname(path) == bench_dir:
        return "driver"
    return "other"


def profile(fn, modules, src_pkg, bench_dir):
    """Run ``fn()`` under cProfile and return the rollup by module.

    The rollup holds ``<layer>.calls`` and ``<layer>.self_s`` for every
    layer and ``<module>.<function>.calls`` for PROFILED_FUNCTIONS.
    """
    targets = {}
    for module, qualname in PROFILED_FUNCTIONS:
        obj = modules[module]
        for part in qualname.split("."):
            obj = getattr(obj, part)
        code = obj.__code__
        targets[(code.co_filename, code.co_firstlineno)] = f"{module}.{qualname}.calls"

    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()

    rollup = {f"{layer}.{kind}": 0 for layer in LAYERS for kind in ("calls", "self_s")}
    rollup.update({name: 0 for name in targets.values()})
    for (filename, line, _), (_, ncalls, self_s, _, _) in pstats.Stats(prof).stats.items():
        layer = layer_of(filename, src_pkg, bench_dir)
        rollup[f"{layer}.calls"] += ncalls
        rollup[f"{layer}.self_s"] += self_s
        name = targets.get((filename, line))
        if name is not None:
            rollup[name] += ncalls
    return rollup
