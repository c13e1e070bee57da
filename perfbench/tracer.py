"""Out-of-process-code tracer for the istrata modules.

The tracer wraps every public function and public method of the ten
istrata modules, and replaces each original at *every* binding site: the
defining module, every other istrata module that imported it with
``from .x import f``, and the class that owns a method.  Nothing under
``src/`` is edited; ``enable()`` swaps the wrappers in and ``disable()``
puts the originals back, so an untraced call runs no tracer code at all.

Each wrapped call records a span (op id, span id, parent span id, name,
start, end) and adds to per-name counters: calls, inclusive seconds, self
seconds (duration minus the time covered by child spans) and returned
items (``len`` of a list, tuple, dict or set result).  Counters are kept per
scope, so set-up and ops can be reported apart.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = (
    "exact",
    "lattices",
    "roots",
    "tori",
    "monodromy",
    "strata",
    "torelli",
    "normalform",
    "io",
    "cli",
)

# spans kept per tracer; counters stay exact beyond this
SPAN_CAP = 100_000

# result types whose len() is counted as returned items
_SIZED = frozenset({list, tuple, dict, set, frozenset})


def _targets(mod):
    """(qualified name, owner, attribute, original, kind) for every public
    function and method defined in ``mod``."""
    short = mod.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                qual = f"{short}.{name}.{attr}"
                if inspect.isfunction(member):
                    out.append((qual, obj, attr, member, "method"))
                elif isinstance(member, classmethod):
                    out.append((qual, obj, attr, member, "classmethod"))
        elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            out.append((f"{short}.{name}", mod, name, obj, "function"))
    return out


class Tracer:
    def __init__(self):
        self.scope = "op"
        self.op = 0
        self.counters = {}  # scope -> name -> [calls, incl_s, self_s, out]
        self.table = self.counters.setdefault(self.scope, {})
        self.spans = []
        self.spans_dropped = 0
        self.sites = []  # (owner, attribute, original, replacement)
        self.names = set()  # qualified names of the wrapped functions
        self.module_sites = {}  # '<module>.<name>' -> qualified name bound there
        self._stack = []
        self._next_id = 0
        self._t0 = time.perf_counter()

    # -- installation ---------------------------------------------------

    def install(self, package="istrata"):
        """Build wrappers and find every binding site; does not enable."""
        mods = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        originals = {}  # id(original function) -> (wrapper, qualified name)
        for mod in mods:
            for qual, owner, attr, obj, kind in _targets(mod):
                if kind == "function":
                    originals[id(obj)] = (self._wrap(qual, obj), qual)
                elif kind == "method":
                    self.sites.append((owner, attr, obj, self._wrap(qual, obj)))
                else:
                    wrapped = classmethod(self._wrap(qual, obj.__func__))
                    self.sites.append((owner, attr, obj, wrapped))
        prefix = package + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(prefix)):
                continue
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None:
                    self.sites.append((mod, name, obj, hit[0]))
                    self.module_sites[f"{modname.rsplit('.', 1)[-1]}.{name}"] = hit[1]
        return self

    def enable(self):
        for owner, attr, _, repl in self.sites:
            setattr(owner, attr, repl)

    def disable(self):
        for owner, attr, orig, _ in self.sites:
            setattr(owner, attr, orig)

    # -- recording ------------------------------------------------------

    def _wrap(self, qual, fn):
        tracer = self
        stack, spans, t0 = self._stack, self.spans, self._t0
        clock = time.perf_counter
        self.names.add(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            table = tracer.table
            st = table.get(qual)
            if st is None:
                st = table[qual] = [0, 0.0, 0.0, 0]
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append(
                        (
                            tracer.op,
                            frame[0],
                            parent[0] if parent is not None else 0,
                            qual,
                            start - t0,
                            end - t0,
                        )
                    )
                else:
                    tracer.spans_dropped += 1
            if type(result) in _SIZED:
                st[3] += len(result)
            return result

        return traced

    def run(self, scope, op, fn, *args):
        """Call ``fn(*args)`` with tracing on, counting into ``scope``."""
        self.scope, self.op = scope, op
        self.table = self.counters.setdefault(scope, {})
        self.enable()
        try:
            return fn(*args)
        finally:
            self.disable()

    def absorb(self, op, dump):
        """Merge another tracer's ``dump()`` (a child process) as op ``op``."""
        table = self.counters.setdefault("op", {})
        for name, vals in dump["counters"].get("op", {}).items():
            acc = table.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        room = max(0, SPAN_CAP - len(self.spans))
        self.spans.extend((op, *s[1:]) for s in dump["spans"][:room])
        self.spans_dropped += dump["spans_dropped"] + max(0, len(dump["spans"]) - room)

    def dump(self):
        return {
            "counters": self.counters,
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }

