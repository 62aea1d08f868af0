"""In-memory call tracer for the murmurations modules.

`install()` wraps the public functions of each pipeline module and rebinds
every module namespace that holds a reference to one of them, so calls made
through `from .x import f` copies are seen too.  Each wrapped call updates
per-function counters (calls, inclusive seconds, self seconds) and a
parent->child call count.  The first SPAN_CAP calls of each function are
also kept as spans; hot leaves such as `arith.kronecker` make 1e5-1e6
calls per step, so past the cap they are only aggregated.  Nothing is written until
`Tracer.dump()`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

MODULES = ("arith", "classnumbers", "multfns", "constants", "traceformula",
           "density", "signcheck", "cli")

# Methods traced in addition to module-level functions.
METHODS = (("classnumbers", "HurwitzTable", "__getitem__"),)

SPAN_CAP = 10_000


class Tracer:
    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.stack: list[list] = []           # open frames: [name, child_s, span_id]
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s, depth]
        self.edges: dict[tuple[str, str], int] = {}
        self.spans: list[tuple] = []          # (id, parent_id, name, start, end, self_s)
        self.dropped_spans = 0
        self._next_id = 0

    def wrap(self, name: str, fn):
        stack, edges, spans = self.stack, self.edges, self.spans
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if st[0] < SPAN_CAP:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = -1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            st[3] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st[3] -= 1
                st[0] += 1
                if st[3] == 0:          # count recursive calls' time once
                    st[1] += dt
                st[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0) + 1
                if span_id >= 0:
                    spans.append((span_id,
                                  parent[2] if parent is not None else -1,
                                  name, t0 - self.t0, t0 + dt - self.t0,
                                  dt - frame[1]))
                else:
                    self.dropped_spans += 1

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "stats": {n: s[:3] for n, s in self.stats.items()},
                "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
                "spans": sorted(self.spans),
                "dropped_spans": self.dropped_spans,
            }, fh)


def _targets():
    """(qualified name, function or (class, method name)) for every traced
    callable."""
    import murmurations.cli  # noqa: F401  (imports every pipeline module)
    out = []
    for short in MODULES:
        mod = sys.modules[f"murmurations.{short}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            inner = getattr(obj, "__wrapped__", obj)   # lru_cache wrappers
            if (callable(obj) and inspect.isfunction(inner)
                    and inner.__module__ == mod.__name__):
                out.append((f"{short}.{attr}", obj))
    for short, cls, meth in METHODS:
        owner = getattr(sys.modules[f"murmurations.{short}"], cls)
        out.append((f"{short}.{cls}.{meth}", (owner, meth)))
    return out


def install() -> Tracer:
    """Wrap every traced callable and rebind it in all murmurations modules."""
    tracer = Tracer()
    replace: dict[int, object] = {}
    for name, obj in _targets():
        if isinstance(obj, tuple):
            owner, meth = obj
            setattr(owner, meth, tracer.wrap(name, getattr(owner, meth)))
        else:
            replace[id(obj)] = tracer.wrap(name, obj)
    for modname, mod in list(sys.modules.items()):
        if not (modname == "murmurations" or modname.startswith("murmurations.")):
            continue
        ns = vars(mod)
        for attr, obj in list(ns.items()):
            new = replace.get(id(obj))
            if new is not None:
                ns[attr] = new
    return tracer
