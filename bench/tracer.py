"""Spans around every call into the program, recorded from outside it.

``Wrapping`` wraps each public function of each ``flagmaps`` module under
its name in every module that binds it, and each public method on its
class (with any alias of it on that class, such as ``__contains__``).  The
stabilizer chain's constructor is wrapped too, since building a chain is
the work it does.  ``Perm`` is left alone: its methods are single
permutation operations, each about as cheap as the wrapper itself.

A span records its name, start, end, parent span and operation id.  Spans
are kept in flat arrays in memory and written out by ``dump``.  A span's
self time is its duration minus the durations of its child spans, which
cover disjoint parts of it because the program is single-threaded.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from time import perf_counter

SKIPPED_CLASSES = {"Perm"}
EXTRA_METHODS = {"StabilizerChain": ("__init__",)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self.errors: dict[tuple[str, str], int] = {}
        self.counters: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.covered: list[float] = []
        self.op = -1

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name, func, before=None, after=None):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_time.append(0.0)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            pre = before(args) if before else None
            span = len(tracer.span_name)
            tracer.span_name.append(idx)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            tracer.stack.append(span)
            tracer.covered.append(0.0)
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span, idx, start)
                key = (name, type(exc).__name__)
                tracer.errors[key] = tracer.errors.get(key, 0) + 1
                raise
            tracer._close(span, idx, start)
            if after:
                after(args, result, pre)
            return result

        return traced

    def _close(self, span, idx, start):
        end = perf_counter()
        self.span_end[span] = end
        duration = end - start
        self.stack.pop()
        self.self_time[idx] += duration - self.covered.pop()
        self.calls[idx] += 1
        if self.covered:
            self.covered[-1] += duration

    def totals(self):
        """name -> (calls, self seconds)."""
        return {n: (c, s) for n, c, s in
                zip(self.names, self.calls, self.self_time)}

    def span_count(self):
        return len(self.span_name)

    def dump(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self.span_name)):
                out.write(f"{i}\t{names[self.span_name[i]]}\t"
                          f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                          f"{self.span_parent[i]}\t{self.span_op[i]}\n")


def _hooks(tracer):
    """Counts taken at the boundaries where the work happens."""

    def elements_before(args):
        return args[0]._elements is None

    def elements_after(args, result, enumerated):
        if enumerated:
            tracer.count("elements_enumerated", len(result))

    def product_after(args, result, _):
        tracer.count("flags_built", result.product.n_flags)

    def verdict_after(args, result, _):
        if result.decomposable is None:
            tracer.count("unknown_verdicts")

    return {
        "perm.PermGroup.elements": (elements_before, elements_after),
        "product.parallel_product": (None, product_after),
        "decomp.decomposability_general": (None, verdict_after),
        "decomp.decomposability_edge_transitive": (None, verdict_after),
    }


class Wrapping:
    """The program's public functions and methods, wrapped for a tracer.
    ``attach`` binds the wrappers in place of the originals, ``detach``
    restores the originals, so that untraced rounds run the program as is."""

    def __init__(self, tracer, package, modules):
        hooks = _hooks(tracer)
        wrappers: dict[int, object] = {}

        def wrap(name, func):
            before, after = hooks.get(name, (None, None))
            wrappers[id(func)] = tracer.wrap(name, func, before, after)
            return wrappers[id(func)]

        # (namespace, attribute, original, wrapped)
        self.bindings = []
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrap(f"{short}.{attr}", obj)
                elif (inspect.isclass(obj) and obj.__name__ not in SKIPPED_CLASSES
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(obj, f"{short}.{obj.__name__}", wrap)
        for namespace in [package, *modules]:
            for attr, obj in vars(namespace).items():
                if id(obj) in wrappers and not inspect.isclass(obj):
                    self.bindings.append((namespace, attr, obj, wrappers[id(obj)]))

    def _wrap_class(self, cls, prefix, wrap):
        methods = {}
        for attr, raw in vars(cls).items():
            if attr.startswith("_") and attr not in EXTRA_METHODS.get(cls.__name__, ()):
                continue
            if isinstance(raw, staticmethod):
                self.bindings.append((cls, attr, raw, staticmethod(
                    wrap(f"{prefix}.{attr}", raw.__func__))))
            elif inspect.isfunction(raw):
                methods[id(raw)] = wrap(f"{prefix}.{attr}", raw)
        # every name on the class bound to a wrapped method, aliases included
        for attr, raw in vars(cls).items():
            if id(raw) in methods:
                self.bindings.append((cls, attr, raw, methods[id(raw)]))

    def attach(self):
        for namespace, attr, _, wrapped in self.bindings:
            setattr(namespace, attr, wrapped)

    def detach(self):
        for namespace, attr, original, _ in self.bindings:
            setattr(namespace, attr, original)
