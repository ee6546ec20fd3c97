"""In-memory span tracer for the treecov package, installed without source edits.

``Tracer.install`` finds every public function and every public method of a
public class defined in a public ``treecov`` module, wraps it, and rebinds
the wrapper in every ``treecov.*`` module namespace (and class) that holds
the original.  Calls made through those names then record a span: name,
module, start, end, parent span id and op id.  Nothing private is wrapped, so
a refactor that renames or removes a public name only changes which spans
appear; metrics that need a specific name report it as absent.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

PACKAGE = "treecov"


def _is_public_module(name: str) -> bool:
    return name == PACKAGE or (
        name.startswith(PACKAGE + ".")
        and not any(part.startswith("_") for part in name.split("."))
    )


class Tracer:
    """Records spans of calls into the package while installed.

    ``capture`` names qualified functions (``module.qualname``) whose most
    recent arguments and result are kept in ``captured``.
    """

    def __init__(self, capture=()):
        self.capture = set(capture)
        self.captured: dict[str, tuple] = {}
        self.spans: list[tuple] = []  # (span_id, parent_id, op, name, module, t0, t1)
        self.op = -1
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name: str):
        module = fn.__module__
        keep = name in self.capture
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, module, t0, t1))
            if keep:
                self.captured[name] = (args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__module__ = module
        self.wrapped.add(name)
        return wrapper

    def _wrap_class(self, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(val, types.FunctionType):
                new = self._wrap(val, f"{cls.__module__}.{val.__qualname__}")
            elif isinstance(val, classmethod):
                new = classmethod(self._wrap(
                    val.__func__, f"{cls.__module__}.{val.__func__.__qualname__}"))
            elif isinstance(val, staticmethod):
                new = staticmethod(self._wrap(
                    val.__func__, f"{cls.__module__}.{val.__func__.__qualname__}"))
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((cls, attr, val))

    def install(self):
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}
        originals = {}
        for name, mod in sorted(modules.items()):
            if not _is_public_module(name):
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                    continue
                if isinstance(obj, types.FunctionType):
                    originals[id(obj)] = obj
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_class(obj)
        wrappers = {key: (fn, self._wrap(fn, f"{fn.__module__}.{fn.__qualname__}"))
                    for key, fn in originals.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Yield ``(op, name, module, self_seconds, total_seconds)`` per span."""
        child = defaultdict(float)
        for sid, parent, _op, _n, _m, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for sid, _parent, op, name, module, t0, t1 in self.spans:
            yield op, name, module, (t1 - t0) - child[sid], t1 - t0

    def write_csv(self, path):
        """Write every span as ``op,span_id,parent_id,name,start_s,end_s``."""
        with open(path, "w") as fh:
            fh.write("op,span_id,parent_id,name,start_s,end_s\n")
            for sid, parent, op, name, _m, t0, t1 in sorted(self.spans):
                fh.write(f"{op},{sid},{parent},{name},{t0:.9f},{t1:.9f}\n")
