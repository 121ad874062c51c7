"""Per-layer tracing of the tcmf package from outside the program.

Every public function defined in a ``tcmf`` module is wrapped, and the wrapper
is bound at every name that refers to the original, in every ``tcmf`` module.
Modules import functions by name (``tcmf.alternating`` holds its own
``hard_threshold``, ``solve`` and ``recovery_errors``; ``tcmf.cli`` holds
``run_outer``), so wrapping only the defining module would miss those calls.
A layer is the defining module's name, and a span is recorded as
``<module>.<function>``.

Each call becomes a span (name, start, end, parent).  Spans are kept in
per-thread column arrays, so the ``parallel.thread_map`` workers never share a
buffer, and are merged and written out only at the end.  A span opened on a
worker thread, whose own stack is empty, takes as parent the innermost span
open on the thread that installed the tracer: the only cross-thread work in
the package is a ``thread_map`` called from that thread.

A few wrappers also count work through public hooks: inner iterations
(``objective_out`` of ``hmf_solve``, ``callback`` of ``perpca_solve``), bytes
of the ``.mat`` files read and written, and entries kept by thresholding.
"""

import functools
import inspect
import itertools
import os
import pkgutil
import threading
import time
from array import array
from importlib import import_module

import numpy as np

# Called hundreds of thousands of times per run; a span each would swamp the
# timings around it, so these are counted only.
COUNT_ONLY = frozenset({"numerics.as_matrix"})


class _ThreadBuffer:
    def __init__(self):
        self.stack = []
        self.name = array("i")
        self.span_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")


class Tracer:
    """Wraps the tcmf package while installed; collects spans and counters."""

    def __init__(self, package):
        self.package = package
        self.modules = _package_modules(package)
        self.names = []  # span name per index
        self.counters = {}
        self._counter_lock = threading.Lock()
        self._tls = threading.local()
        self._buffers = []
        self._buffers_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore = []
        self._main = None

    # installation -------------------------------------------------------

    def install(self):
        """Wrap every public tcmf function at every binding that names it."""
        self._main = self._buffer()
        wrapped = {}
        for mod_name, mod in self.modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped[fn] = self._make_wrapper(f"{mod_name}.{attr}", fn)
        namespaces = [self.package] + list(self.modules.values())
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrapped[value])

    def uninstall(self):
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # recording ----------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            self._tls.buf = buf
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def add(self, counter: str, amount):
        with self._counter_lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def _make_wrapper(self, name: str, fn):
        if name in COUNT_ONLY:
            key = f"{name}.calls"
            add = self.add

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                add(key, 1)
                return fn(*args, **kwargs)

            return counted

        idx = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        clock = time.perf_counter
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                main_stack = tracer._main.stack
                parent = main_stack[-1] if main_stack and buf is not tracer._main else 0
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, args, kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.name.append(idx)
                buf.span_id.append(sid)
                buf.parent.append(parent)
                buf.start.append(t0)
                buf.end.append(t1)

        return traced

    # results ------------------------------------------------------------

    def columns(self) -> dict:
        """All spans as numpy columns: name index, span id, parent id,
        start, end, thread number."""
        bufs = list(self._buffers)
        cols = {
            "name": np.concatenate([np.array(b.name, dtype=np.int64) for b in bufs]),
            "span": np.concatenate([np.array(b.span_id, dtype=np.int64) for b in bufs]),
            "parent": np.concatenate([np.array(b.parent, dtype=np.int64) for b in bufs]),
            "start": np.concatenate([np.array(b.start, dtype=np.float64) for b in bufs]),
            "end": np.concatenate([np.array(b.end, dtype=np.float64) for b in bufs]),
            "thread": np.concatenate([np.full(len(b.span_id), k, dtype=np.int64) for k, b in enumerate(bufs)]),
        }
        order = np.argsort(cols["start"], kind="stable")
        return {k: v[order] for k, v in cols.items()}

    def write_spans(self, path) -> int:
        """Write the spans as CSV, times in seconds from the first span."""
        c = self.columns()
        origin = c["start"][0] if len(c["start"]) else 0.0
        rows = zip(
            c["span"].tolist(),
            c["parent"].tolist(),
            c["thread"].tolist(),
            c["name"].tolist(),
            (c["start"] - origin).tolist(),
            (c["end"] - origin).tolist(),
        )
        with open(path, "w") as fh:
            fh.write("span,parent,thread,name,start_s,end_s\n")
            for sid, parent, thread, name, t0, t1 in rows:
                fh.write(f"{sid},{parent},{thread},{self.names[name]},{t0:.9f},{t1:.9f}\n")
        return len(c["span"])

    def summary(self) -> dict:
        """Per span name: calls, busy seconds summed over threads, wall
        seconds covered by the union of its spans, and self seconds (busy
        time not covered by its direct children)."""
        c = self.columns()
        if not len(c["span"]):
            return {}
        n = len(self.names)
        dur = c["end"] - c["start"]
        children = np.zeros(int(c["span"].max()) + 1)
        np.add.at(children, c["parent"], _covered(c["parent"], c["start"], c["end"]))
        self_s = dur - children[c["span"]]
        calls = np.bincount(c["name"], minlength=n)
        busy = np.bincount(c["name"], weights=dur, minlength=n)
        wall = np.bincount(c["name"], weights=_covered(c["name"], c["start"], c["end"]), minlength=n)
        own = np.bincount(c["name"], weights=self_s, minlength=n)
        return {
            name: {"calls": int(calls[k]), "s": float(busy[k]), "wall_s": float(wall[k]), "self_s": float(own[k])}
            for k, name in enumerate(self.names)
            if calls[k]
        }


def _covered(group, start, end):
    """Per interval, the time it adds to the union of the intervals of its
    group before it (by start); summed over a group, the time the group
    covers."""
    order = np.lexsort((start, group))
    g, s, e = group[order], start[order], end[order]
    origin = s.min()
    # shift each group past the previous one so a running max never crosses
    width = e.max() - origin + 1.0
    s = s - origin + g * width
    e = e - origin + g * width
    before = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
    out = np.empty(len(order))
    out[order] = np.clip(e - np.maximum(s, before), 0.0, None)
    return out


def _package_modules(package):
    mods = {}
    for info in pkgutil.iter_modules(package.__path__):
        mods[info.name] = import_module(f"{package.__name__}.{info.name}")
    return mods


# hooks: count work through the program's public arguments and results ----


def _hmf_solve(tracer, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    out = bound.arguments.get("objective_out")
    if out is None:
        out = []
        bound.arguments["objective_out"] = out
    before = len(out)
    try:
        return fn(*bound.args, **bound.kwargs)
    finally:
        tracer.add("hmf.inner_iters", len(out) - before)


def _perpca_solve(tracer, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    user_callback = bound.arguments.get("callback")

    def counting(*cb_args):
        tracer.add("perpca.inner_iters", 1)
        if user_callback is not None:
            user_callback(*cb_args)

    bound.arguments["callback"] = counting
    return fn(*bound.args, **bound.kwargs)


def _read_matrix(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.add("io.read_matrix.bytes", os.path.getsize(args[0] if args else kwargs["path"]))
    return result


def _write_matrix(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.add("io.write_matrix.bytes", os.path.getsize(args[0] if args else kwargs["path"]))
    return result


def _recovery_errors(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    s_hat = args[1] if len(args) > 1 else kwargs["s_hat"]
    tracer.add("thresholding.kept", sum(s_hat.support_sizes))
    return result


_HOOKS = {
    "hmf.hmf_solve": _hmf_solve,
    "perpca.perpca_solve": _perpca_solve,
    "io.read_matrix": _read_matrix,
    "io.write_matrix": _write_matrix,
    "metrics.recovery_errors": _recovery_errors,
}
