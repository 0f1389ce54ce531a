"""Spans around the program's public calls, recorded from benchmark code.

``install()`` wraps the public functions and methods listed in
:data:`FUNCTIONS`, :data:`METHODS` and :data:`SUBCLASS_METHODS` in every
``repro`` module loaded now or later (a meta-path hook patches modules as
they finish importing, so fresh interpreters that load this module from the
traced run's ``sitecustomize`` are covered too).  Nothing under ``src`` is
changed on disk.

A span is (name, start, end, id, parent id, phase).  Spans stay in memory
and are written, one JSON file per process, when the process ends: through
``atexit`` in fresh interpreters, and through a ``multiprocessing``
finalizer in forked workers, which inherit the wrappers but start an empty
buffer and leave through ``os._exit``.  All times come from
``time.perf_counter``, which on Linux is the system-wide monotonic clock,
so spans of different processes line up.

The same wrappers can add a fixed sleep to every kernel-seam call
(:data:`KERNEL_DELAY_ENV`); the benchmark's sensitivity canaries use it to
show that a slower kernel moves the count-space rate and little else.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

TRACE_ENV = "PERFBENCH_TRACE"
KERNEL_DELAY_ENV = "PERFBENCH_KERNEL_DELAY_S"
PHASE_ENV = "PERFBENCH_PHASE"
#: Name of the span that marks a timed phase in the benchmark process.
PHASE_SPAN = "phase"

#: (module, function, span name).  Every module-level reference to the
#: original function object in a loaded ``repro`` module is replaced, so
#: ``from x import f`` call sites are wrapped as well.
FUNCTIONS = (
    ("repro.experiments.runner", "run_cell", "experiments.run_cell"),
    ("repro.analysis.statistics", "compare_predictors", "analysis.fits"),
    ("repro.experiments.reporting", "format_report", "experiments.report"),
    ("repro.experiments.reporting", "format_figure1_table",
     "experiments.report"),
    ("repro.engine.batch", "run_batch", "engine.run_batch"),
    ("repro.engine.occupancy", "occupancy_outcome_profiles",
     "occupancy.profiles"),
    ("repro.engine.occupancy", "occupancy_transition_matrix_batch",
     "occupancy.transition"),
    ("repro.engine._multinomial", "sample_scatter_banded", "kernel.sample"),
    ("repro.engine._multinomial", "sample_flows_batch", "kernel.sample"),
    ("repro.engine._multinomial", "scatter_column_sums_batch",
     "kernel.sample"),
)
KERNEL_SPAN = "kernel.sample"

#: (module, class, method, span name).
METHODS = (
    ("repro.store.store", "ResultStore", "get", "store.get"),
    ("repro.store.store", "ResultStore", "put", "store.put"),
    ("repro.store.coordinator", "CoordinatorStore", "get",
     "store.remote_get"),
    ("repro.store.runner", "CachedSweepRunner", "partition",
     "store.partition"),
    ("repro.store.backends", "SerialBackend", "execute", "backend.execute"),
    ("repro.store.backends", "PoolBackend", "execute", "backend.execute"),
    ("repro.store.shard", "ShardBackend", "execute", "backend.execute"),
    ("repro.store.coordinator", "HttpBackend", "execute", "backend.execute"),
    ("repro.store.shard", "LeaseManager", "acquire", "lease.acquire"),
    ("repro.store.shard", "LeaseManager", "release", "lease.release"),
    ("repro.store.coordinator", "HttpLeaseClient", "acquire",
     "lease.acquire"),
    ("repro.store.coordinator", "HttpLeaseClient", "release",
     "lease.release"),
    ("repro.store.coordinator", "CoordinatorClient", "request",
     "coordinator.request"),
    ("repro.store.coordinator", "CoordinatorServer", "handle",
     "coordinator.handle"),
)

#: (module, base class, method, span name): the base and every subclass
#: that overrides the method.
SUBCLASS_METHODS = (
    ("repro.adversary.base", "Adversary", "corrupt_counts",
     "adversary.corrupt_counts"),
    ("repro.adversary.base", "Adversary", "propose", "adversary.propose"),
    ("repro.core.rules", "Rule", "apply_vectorized", "core.apply"),
    ("repro.core.rules", "Rule", "sample_contacts", "core.sample_contacts"),
)

_MARK = "__perfbench_original__"


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """Tracing off: the same interface, recording nothing."""

    enabled = False

    def span(self, name: str):
        return _NO_SPAN

    @contextmanager
    def phase(self, label: str):
        yield


class _Span:
    __slots__ = ("tracer", "name", "start", "id", "parent")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        self.parent = stack[-1] if stack else -1
        self.id = next(tracer._ids)
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        tracer.spans.append((self.name, self.start, end, self.id,
                             self.parent, tracer.phase_label))
        return False


class Tracer:
    """Spans and counters of one process, written to ``out_dir`` at exit."""

    enabled = True

    def __init__(self, out_dir: str | Path, role: str) -> None:
        self.out_dir = Path(out_dir)
        self.role = role
        self.phase_label = os.environ.get(PHASE_ENV, "")
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._draws = _draw_stats()

    def _after_fork(self) -> None:
        """In a forked worker: an empty buffer, written when it exits."""
        self.role = "worker"
        self._reset()
        multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured outside this process's wrappers."""
        stack = self._stack()
        self.spans.append((name, start, end, next(self._ids),
                           stack[-1] if stack else -1, self.phase_label))

    def count(self, name: str, value: float = 1) -> None:
        key = f"{self.phase_label}|{name}"
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    @contextmanager
    def phase(self, label: str):
        """Tag spans (here and in processes started inside) with ``label``."""
        self._close_draws()
        previous, self.phase_label = self.phase_label, label
        os.environ[PHASE_ENV] = label
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._close_draws()
            self.spans.append((PHASE_SPAN, start, end, next(self._ids), -1,
                               label))
            self.phase_label = previous
            os.environ[PHASE_ENV] = previous

    def _close_draws(self) -> None:
        """Book kernel calls and rows since the last mark to the phase."""
        now = _draw_stats()
        for name in ("calls", "rows"):
            delta = now[name] - self._draws[name]
            if delta:
                self.count(f"kernel.{name}", delta)
        self._draws = now

    def flush(self) -> None:
        """Write (and drop) the spans and counters recorded so far."""
        self._close_draws()
        if not self.spans and not self.counters:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        pid = os.getpid()
        path = self.out_dir / f"trace-{pid}-{next(_FLUSHES)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"pid": pid, "role": self.role,
                                   "spans": self.spans,
                                   "counters": self.counters}))
        os.replace(tmp, path)
        self.spans, self.counters = [], {}


_FLUSHES = itertools.count()


def _draw_stats() -> Dict[str, int]:
    module = sys.modules.get("repro.engine._multinomial")
    if module is None:
        return {"calls": 0, "rows": 0}
    return dict(module.DRAW_STATS)


# ---------------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------------- #
def _wrap(fn: Callable, name: str, tracer, delay: float) -> Callable:
    if name == KERNEL_SPAN and delay > 0:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                time.sleep(delay)
                return fn(*args, **kwargs)
    elif name == "lease.acquire":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                won = fn(*args, **kwargs)
            if won:
                tracer.count("lease.won")
            return won
    elif name == "store.put":
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            with tracer.span(name):
                key = fn(self, *args, **kwargs)
            tracer.count("store.bytes_written",
                         self._payload_path(key).stat().st_size)
            return key
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
    setattr(wrapper, _MARK, fn)
    return wrapper


def _counting(fn: Callable, tracer, after: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        after(tracer, args, out)
        return out
    setattr(wrapper, _MARK, fn)
    return wrapper


def _after_sweep(tracer, args, report) -> None:
    stats = args[0].last_stats
    tracer.count("cache.hits", stats.hits)
    tracer.count("cache.misses", stats.misses)


def _after_once(tracer, args, out) -> None:
    tracer.count("coordinator.attempts")


#: (module, class, method, hook): counters without spans.
COUNTERS = (
    ("repro.store.runner", "CachedSweepRunner", "run", _after_sweep),
    ("repro.store.coordinator", "CoordinatorClient", "_once", _after_once),
)


TRACER: "Tracer | NullTracer" = NullTracer()
_DELAY = 0.0
_WRAPPERS: Dict[int, Callable] = {}   # id(original function) -> wrapper
_LOCK = threading.Lock()


def _patch_loaded(module=None) -> None:
    """Wrap every target whose module is loaded (idempotent), and rebind
    references to wrapped functions in ``module`` (default: every loaded
    ``repro`` module)."""
    tracer, delay = TRACER, _DELAY
    with _LOCK:
        for module_name, attr, name in FUNCTIONS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None or hasattr(fn, _MARK):
                continue
            if tracer.enabled or (name == KERNEL_SPAN and delay > 0):
                _WRAPPERS[id(fn)] = _wrap(fn, name, tracer, delay)
        if tracer.enabled:
            for module_name, cls_name, method, name in METHODS:
                cls = getattr(sys.modules.get(module_name), cls_name, None)
                if cls is not None:
                    _patch_method(cls, method,
                                  lambda fn, n=name: _wrap(fn, n, tracer, 0))
            for module_name, cls_name, method, hook in COUNTERS:
                cls = getattr(sys.modules.get(module_name), cls_name, None)
                if cls is not None:
                    _patch_method(cls, method,
                                  lambda fn, h=hook: _counting(fn, tracer, h))
            for module_name, base_name, method, name in SUBCLASS_METHODS:
                base = getattr(sys.modules.get(module_name), base_name, None)
                for cls in _family(base):
                    _patch_method(cls, method,
                                  lambda fn, n=name: _wrap(fn, n, tracer, 0))
        modules = [module] if module is not None else [
            m for name, m in list(sys.modules.items())
            if name.split(".")[0] == "repro" and m is not None]
        for mod in modules:
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                wrapper = _WRAPPERS.get(id(value))
                if wrapper is not None and value is getattr(wrapper, _MARK):
                    namespace[attr] = wrapper


def _patch_method(cls, method: str, make: Callable) -> None:
    fn = cls.__dict__.get(method)
    if fn is None or hasattr(fn, _MARK) or not callable(fn):
        return
    setattr(cls, method, make(fn))


def _family(base) -> List[type]:
    if base is None:
        return []
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


class _Loader(importlib.abc.Loader):
    """Delegates to the real loader, then patches the new module."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module) -> None:
        self._inner.exec_module(module)
        _patch_loaded(module)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Finder(importlib.abc.MetaPathFinder):
    """Patches ``repro`` modules as they finish importing."""

    def find_spec(self, fullname, path, target=None):
        if fullname.split(".")[0] != "repro":
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                if spec.loader is not None and hasattr(spec.loader,
                                                       "exec_module"):
                    spec.loader = _Loader(spec.loader)
                return spec
        return None


def install(trace_dir: Optional[str], delay: float, role: str):
    """Wrap the program's public calls in this process and later imports.

    ``trace_dir`` turns span recording on (``None`` leaves it off);
    ``delay`` > 0 adds that many seconds to every kernel-seam call.
    Returns the process's tracer.
    """
    global TRACER, _DELAY
    if trace_dir:
        TRACER = Tracer(trace_dir, role)
        atexit.register(TRACER.flush)
    _DELAY = float(delay)
    if not any(isinstance(f, _Finder) for f in sys.meta_path):
        sys.meta_path.insert(0, _Finder())
    _patch_loaded()
    return TRACER


def install_from_env(role: str):
    """``install`` configured by the benchmark's environment variables."""
    return install(os.environ.get(TRACE_ENV) or None,
                   float(os.environ.get(KERNEL_DELAY_ENV) or 0), role)
