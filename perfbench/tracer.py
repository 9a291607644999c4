"""Span tracer that instruments dualcalc from outside the package.

``Tracer.install()`` replaces the public functions and methods of every
dualcalc module with wrappers.  Each wrapped call is a span with a name,
start, end and parent; spans are kept in memory and written out when the
traced process ends.  Calls, total time and self time (duration minus the
time covered by child spans) are also aggregated per name as the spans
close, so the per-layer figures do not depend on how many spans are kept.

Scalar operations run tens of millions of times in one workload; timing
each would cost more than the operation, so they get count-only wrappers
and their time stays in the enclosing span.  ``Tracer.uninstall()`` puts
every original object back.
"""
from __future__ import annotations

import importlib
import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "dualcalc"
MODULES = ("scalars", "series", "qfunc", "partitions", "schur",
           "chern_simons", "pseries", "hurwitz", "hodge", "vertex",
           "intersections", "nilpotent", "mirror", "verify", "cli")

# private functions that carry a named per-layer metric
PRIVATE = {
    "hurwitz": ("_disconnected_coeff", "_connected_coeff", "_bare_polynomial",
                "_adds_rank", "_solve_overdetermined", "_cutjoin_slices"),
    "intersections": ("_norm",),
    "hodge": ("_one_family_term", "_two_family_term"),
    "cli": ("_cmd_hurwitz", "_cmd_w", "_cmd_mv", "_cmd_vertex", "_cmd_witten",
            "_cmd_mirror", "_cmd_verify_all"),
}

# special methods traced under a plain name, per class
DUNDERS = {
    "scalars.GaussianRational": {"__mul__": "mul", "__rmul__": "mul",
                                 "__add__": "add", "__radd__": "add"},
    "series.TauLaurent": {"__mul__": "mul"},
    "series.LambdaSeries": {"__mul__": "mul"},
    "qfunc.ULaurent": {"__mul__": "mul"},
    "qfunc.QFunction": {"__init__": "init", "__mul__": "mul"},
    "pseries.PSeries": {"__mul__": "mul"},
    "nilpotent.XPoly": {"__mul__": "mul"},
}

# names wrapped by a call counter only (no span, no clock reads)
COUNT_ONLY = frozenset({"scalars.GaussianRational.mul",
                        "scalars.GaussianRational.add"})
# left unwrapped: runs inside every scalar add, which is already counted
SKIP = frozenset({"scalars.GaussianRational.coerce"})

MAX_SPANS = 200_000       # spans kept for writing out; aggregates count all

Span = Tuple[str, float, float, int]        # name, start, end, parent index
Observer = Callable[["Tracer", tuple, object, Optional[str]], None]


def self_times(spans: List[Span]) -> List[float]:
    """Self time of each span: its duration minus what its children cover.

    Spans come from one thread, so the children of a span are nested inside
    it and do not overlap each other.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_n, start, end, _p), c in zip(spans, covered)]


class Tracer:
    """Wraps dualcalc callables with span recorders; see the module doc."""

    def __init__(self, observers: Optional[Dict[str, Observer]] = None):
        self.observers = dict(observers or {})
        self.spans: List[list] = []          # [name, start, end, parent]
        self.dropped = 0
        self.stats: Dict[str, List[float]] = {}   # name -> [calls, total, self]
        self.counters: Dict[str, float] = {}
        self.top_level_s = 0.0               # time inside outermost spans
        self.caches: Dict[str, object] = {}  # name -> lru_cache'd original
        self._stack: List[list] = []         # [name, child_time, span index]
        self._undo: List[Tuple[object, str, object, bool]] = []

    # -- wrappers -----------------------------------------------------------
    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped as a span (or a counter) named ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                stats[0] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        stack, spans, clock = self._stack, self.spans, time.perf_counter
        observe = self.observers.get(name)

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = -1
            if len(spans) < MAX_SPANS:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, parent[2] if parent else -1])
            else:
                self.dropped += 1
            frame = [name, 0.0, idx]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                else:
                    self.top_level_s += dur
                if idx >= 0:
                    spans[idx][1] = start
                    spans[idx][2] = end
            if observe is not None:
                observe(self, args, result, parent[0] if parent else None)
                # the observer's own time is tracing cost, not the parent's
                spent = clock() - end
                self.counters["trace.observer_s"] = (
                    self.counters.get("trace.observer_s", 0.0) + spent)
                if parent is not None:
                    parent[1] += spent
            return result

        timed.__wrapped__ = fn
        return timed

    # -- install / uninstall ---------------------------------------------------
    def _replace(self, owner, key: str, new, in_dict: bool = False):
        old = owner[key] if in_dict else owner.__dict__[key]
        self._undo.append((owner, key, old, in_dict))
        if in_dict:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def install(self) -> None:
        """Wrap every traced callable in every dualcalc module namespace."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        mods["__init__"] = importlib.import_module(PACKAGE)
        originals: Dict[int, object] = {}   # id(original) -> wrapper
        for short, mod in mods.items():
            if short == "__init__":
                continue
            wanted = set(PRIVATE.get(short, ()))
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None)
                if home != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not attr.startswith("_"):
                        self._wrap_class(f"{short}.{attr}", obj)
                elif callable(obj) and (not attr.startswith("_") or attr in wanted):
                    name = f"{short}.{attr}"
                    if hasattr(obj, "cache_info"):
                        self.caches[name] = obj
                    originals[id(obj)] = self.wrap(name, obj)
        # rebind imported names and registry entries in every namespace
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._replace(mod, attr, originals[id(obj)])
                elif isinstance(obj, dict) and attr.isupper():
                    for key, value in list(obj.items()):
                        if id(value) in originals:
                            self._replace(obj, key, originals[id(value)], True)

    def _wrap_class(self, qual: str, cls) -> None:
        special = DUNDERS.get(qual, {})
        for attr, raw in list(vars(cls).items()):
            if attr in special:
                label = special[attr]
            elif attr.startswith("_"):
                continue
            else:
                label = attr
            name = f"{qual}.{label}"
            if name in SKIP:
                continue
            if isinstance(raw, staticmethod):
                self._replace(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._replace(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._replace(cls, attr, self.wrap(name, raw))

    def uninstall(self) -> None:
        """Put back every object ``install`` replaced, newest first."""
        while self._undo:
            owner, key, old, in_dict = self._undo.pop()
            if in_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)

    # -- results --------------------------------------------------------------
    def bump(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def raise_to(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def summary(self) -> dict:
        """Aggregates in a JSON-ready form, with each cache's final state."""
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses,
                            "size": info.currsize}
        return {"stats": {k: v for k, v in self.stats.items() if v[0]},
                "caches": caches, "counters": dict(self.counters),
                "top_level_s": self.top_level_s, "spans": len(self.spans),
                "dropped_spans": self.dropped}
