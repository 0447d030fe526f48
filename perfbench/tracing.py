"""Span tracing of diagmap's layers, installed from outside the library.

`Tracer.install()` wraps the public functions of each layer module (and the
public methods of its classes) in every diagmap module namespace that holds
them, including names bound by `from ... import`, so that `eta_array` is
traced in `diagmap.roof` and `diagmap.face_minimum` as well as in
`diagmap.entropy`.  Each call records a span (id, parent, name, start, end)
in memory, in `array` columns; `restore()` puts every original back.
"""

import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("entropy", "lambert", "states", "hull", "symmetric_curve", "face_minimum", "roof", "cli")

# The CLI layer is entered through main; its handlers are internal to it,
# so main's self time is the argument parsing, CSV formatting and write.
ENTRY_POINTS = {"cli": ("main",)}

# the span whose input size is recorded as an element count, and whose
# calls are counted under the innermost open search
ETA = "entropy.eta_array"

SEARCHES = {
    "roof": ("roof.roof_upper_bound", "roof.real_roof_upper_bound"),
    "face_minimum": ("face_minimum.brute_force_min_face",),
}
SEARCH_KIND = {n: kind for kind, names in SEARCHES.items() for n in names}

ROOT = "bench.pass"


def _public_callables(module):
    """(owner, attribute, function, span name) for each public function of
    the module and each public method of the classes it defines."""
    layer = module.__name__.rsplit(".", 1)[1]
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if layer in ENTRY_POINTS and attr not in ENTRY_POINTS[layer]:
            continue
        if inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    out.append((obj, meth, fn, f"{layer}.{attr}.{meth}"))
        elif callable(obj):
            out.append((module, attr, obj, f"{layer}.{attr}"))
    return out


def _library_modules():
    return [m for name, m in list(sys.modules.items()) if name == "diagmap" or name.startswith("diagmap.")]


class Tracer:
    """Records spans of the wrapped library calls made inside `root()`."""

    def __init__(self):
        self.names = [ROOT]
        self.layer_of = ["bench"]
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.elems = array("q")
        self._stack = [-1]
        self._searches = [None]
        self.eta_calls_under = dict.fromkeys([None, *SEARCHES], 0)
        self._patched = []
        self._wrappers = set()

    def _open(self, name_id: int, elems: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.elems.append(elems)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(name.split(".", 1)[0])
        open_, close = self._open, self._close
        searches, eta_under = self._searches, self.eta_calls_under
        if name == ETA:

            def wrapper(*args, **kwargs):
                eta_under[searches[-1]] += 1
                sid = open_(name_id, np.size(args[0]))
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid)

        elif name in SEARCH_KIND:
            kind = SEARCH_KIND[name]

            def wrapper(*args, **kwargs):
                searches.append(kind)
                sid = open_(name_id, 0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid)
                    searches.pop()

        else:

            def wrapper(*args, **kwargs):
                sid = open_(name_id, 0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid)

        self._wrappers.add(id(wrapper))
        return wrapper

    @contextmanager
    def root(self):
        """The span of one timed pass; its self time is the residual."""
        sid = self._open(0, 0)
        try:
            yield
        finally:
            self._close(sid)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            for owner, attr, fn, name in _public_callables(sys.modules[f"diagmap.{layer}"]):
                if inspect.isclass(owner):
                    wrapper = self._wrap(fn, name)
                    setattr(owner, attr, wrapper)
                    self._patched.append((owner, attr, fn))
                else:
                    wrappers[id(fn)] = (fn, self._wrap(fn, name))
        for module in _library_modules():
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere."""
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        restored = all(vars(owner)[attr] is fn for owner, attr, fn in self._patched)
        for module in _library_modules():
            holders = [module] + [c for c in vars(module).values() if inspect.isclass(c)]
            for holder in holders:
                if any(id(v) in self._wrappers for v in vars(holder).values()):
                    restored = False
        self._patched.clear()
        return restored

    def columns(self) -> dict:
        return {k: np.frombuffer(getattr(self, k), dtype=np.int64) for k in ("parent", "name", "start", "end", "elems")}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())

    def summary(self) -> dict:
        """Per-span-name calls, self time and elements, per-layer self time,
        and the eta_array calls made under each kind of search."""
        c = self.columns()
        parent, name = c["parent"], c["name"]
        dur = (c["end"] - c["start"]).astype(float) * 1e-9
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        by_name = {
            n: {"calls": int(calls), "self_s": float(s), "elems": int(e)}
            for n, calls, s, e in zip(
                self.names,
                np.bincount(name, minlength=k),
                np.bincount(name, weights=self_s, minlength=k),
                np.bincount(name, weights=c["elems"], minlength=k),
            )
        }
        layers = {}
        for n, layer in zip(self.names, self.layer_of):
            layers[layer] = layers.get(layer, 0.0) + by_name[n]["self_s"]
        roots = name == 0
        return {
            "by_name": by_name,
            "layers": layers,
            "eta_calls_under": {k: self.eta_calls_under[k] for k in SEARCHES},
            "wall_s": float(dur[roots].sum()),
            "spans": int(dur.size),
        }
