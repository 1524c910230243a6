"""Spans around the public surface of each ``repro`` layer, from outside.

The benchmark attributes time to layers without touching ``src/``: a
:class:`Tracer` replaces every public function and method of the modules in
:data:`LAYERS` with a wrapper that records a :class:`Span` (name, layer,
start, end, parent span, sweep id) and restores the originals on exit.
Module-level functions are also re-bound in every ``repro`` module that
imported them by name, so ``from x import f`` call sites are traced too.

* Stacks are per thread. A job handed to ``AsyncExecutor.submit`` carries
  the submitting span as its parent onto the worker thread, so a
  candidate trained on the fleet links back to the sweep that asked for it.
* A call whose caller is already a span of the same layer records no span
  of its own (its time stays in the caller's self time, the same layer)
  unless it is one of the named operations in :data:`OPERATIONS`.
* Generator functions are timed per resume, so a span never stays open
  while the consumer runs between two items.
* Spans stay in memory; :func:`dump_spans` writes them out at the end.

:func:`self_times` is the attribution rule: a span's self time is its
duration minus the part of that interval its child spans cover (the union
of the children's intervals, which may sit on other threads).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence

__all__ = [
    "LAYERS",
    "OPERATIONS",
    "Span",
    "Tracer",
    "covered_length",
    "dump_spans",
    "layer_of",
    "self_times",
]

#: layer name -> the modules (or packages) whose public surface it owns
LAYERS: dict[str, tuple[str, ...]] = {
    "api": ("repro.api",),
    "core.runtime": ("repro.core.runtime", "repro.core.search", "repro.parallel.jobs"),
    "core.cache": ("repro.core.cache",),
    "core.evaluator": ("repro.core.evaluator",),
    "core.qbuilder": ("repro.core.qbuilder",),
    "optimizers": ("repro.optimizers",),
    "simulators": ("repro.simulators",),
    "parallel": ("repro.parallel.async_executor",),
    "service": ("repro.service",),
    "workloads": ("repro.workloads",),
}

#: array primitives called dozens of times inside every engine op; they
#: belong to the same layer as every caller, so wrapping them would only
#: add overhead
UNWRAPPED_MODULES = frozenset({"repro.simulators.backends"})

#: private methods wrapped anyway, because they mark a unit of work: the
#: service runs each claimed job through ``_run_job`` (it also tags the
#: job's spans with the job id)
PRIVATE_TARGETS = {
    "repro.service.multiplexer": ("SweepMultiplexer._run_job",),
}

#: named operations the metrics read: always recorded, even when nested
#: in a span of the same layer
OPERATIONS: dict[str, tuple[str, ...]] = {
    "simulators.energy": ("repro.simulators.compiled.CompiledProgram.energy",),
    "simulators.energies": ("repro.simulators.compiled.CompiledProgram.energies",),
    "simulators.gradients": ("repro.simulators.compiled.CompiledProgram.gradients",),
    "simulators.compile": (
        "repro.simulators.compiled.compile_ansatz",
        "repro.simulators.compiled.compile_circuit",
    ),
    "core.evaluator.candidate": ("repro.core.evaluator.evaluate_candidate",),
    "core.qbuilder.build": ("repro.core.qbuilder.QBuilder.build_qaoa",),
    "core.cache.get": ("repro.core.cache.ResultCache.get",),
    "core.cache.put": ("repro.core.cache.ResultCache.put",),
    "core.cache.flush": ("repro.core.cache.ResultCache.flush",),
    "core.cache.claim": ("repro.core.cache.ResultCache.claim",),
    "core.cache.wait_for": ("repro.core.cache.ResultCache.wait_for",),
    "service.submit": ("repro.service.server.SearchService.submit",),
    "service.http": (
        "repro.service.server._Handler.do_GET",
        "repro.service.server._Handler.do_POST",
    ),
    "service.job": ("repro.service.multiplexer.SweepMultiplexer._run_job",),
    "workloads.oracle": ("repro.workloads.base.Workload.classical_optimum",
                         "repro.workloads.builtin.MaxCutWorkload.classical_optimum"),
    "parallel.job": ("repro.parallel.async_executor.AsyncExecutor.job",),
}

_ALWAYS = frozenset(name for names in OPERATIONS.values() for name in names)
_SUBMIT = "repro.parallel.async_executor.AsyncExecutor.submit"


def layer_of(module: str) -> str | None:
    """The layer owning ``module``, or None."""
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return None


class Span:
    """One timed call: ``[start, end]`` on ``thread``, caused by ``parent``."""

    __slots__ = ("name", "layer", "start", "end", "parent", "sweep", "thread",
                 "counted", "attrs", "call")

    def __init__(
        self,
        name: str,
        layer: str,
        parent: Span | None = None,
        sweep: str | None = None,
        *,
        start: float = 0.0,
        end: float = 0.0,
        thread: int = 0,
        counted: bool = True,
        attrs: dict | None = None,
        call: Span | None = None,
    ) -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.sweep = sweep
        self.start = start
        self.end = end
        self.thread = thread
        #: False for the second and later resumes of one generator call
        self.counted = counted
        self.attrs = attrs
        #: the first segment of the generator call this segment resumes
        self.call = call

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- probes: facts read from a call's arguments or result -------------------


def _rows(args: tuple, kwargs: dict, result: object) -> dict:
    batch = args[1] if len(args) > 1 else kwargs.get("X")
    shape = getattr(batch, "shape", None)
    rows = shape[0] if shape is not None and len(shape) == 2 else len(batch)
    return {"rows": int(rows)}


def _claim(args: tuple, kwargs: dict, result: object) -> dict:
    return {"lost": result is False}


def _nfev(args: tuple, kwargs: dict, result: object) -> dict | None:
    nfev = getattr(result, "nfev", None)
    return None if nfev is None else {"nfev": int(nfev)}


def _candidate(args: tuple, kwargs: dict, result: object) -> dict:
    # (graphs, tokens, p, config, ...) -> the training's identity
    return {"key": (tuple(args[1]), int(args[2]), args[3])}


_PROBES: dict[str, Callable[[tuple, dict, object], dict | None]] = {
    "repro.simulators.compiled.CompiledProgram.energies": _rows,
    "repro.simulators.compiled.CompiledProgram.gradients": _rows,
    "repro.core.cache.ResultCache.claim": _claim,
    "repro.core.evaluator.evaluate_candidate": _candidate,
}


def _job_id(args: tuple, kwargs: dict) -> str:
    return str(args[2].id)  # (self, slot, job)


_CONTEXTS: dict[str, Callable[[tuple, dict], str]] = {
    "repro.service.multiplexer.SweepMultiplexer._run_job": _job_id,
}


class Tracer:
    """Records spans while installed (``with Tracer() as tracer: ...``)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- context -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def set_sweep(self, sweep: str | None) -> None:
        """Tag root spans opened on this thread with ``sweep``."""
        self._local.sweep = sweep

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _open(self, name: str, layer: str, parent: Span | None,
              sweep: str | None = None, counted: bool = True) -> Span:
        if sweep is None:
            sweep = parent.sweep if parent is not None else getattr(
                self._local, "sweep", None
            )
        return Span(name, layer, parent, sweep,
                    thread=threading.get_ident(), counted=counted)

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, fn: Callable, name: str, layer: str) -> Callable:
        stack_of = self._stack
        spans = self.spans
        clock = time.perf_counter
        always = name in _ALWAYS
        probe = _PROBES.get(name) or (_nfev if layer == "optimizers" else None)
        context = _CONTEXTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            if parent is not None and parent.layer == layer and not always:
                return fn(*args, **kwargs)
            sweep = context(args, kwargs) if context is not None else None
            span = tracer._open(name, layer, parent, sweep)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                span.attrs = {"error": type(error).__name__}
                raise
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if probe is not None:
                span.attrs = probe(args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, fn: Callable, name: str, layer: str) -> Callable:
        stack_of = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = None
            try:
                while True:
                    stack = stack_of()
                    span = tracer._open(name, layer, stack[-1] if stack else None,
                                        counted=first is None)
                    span.call = first
                    first = first or span
                    stack.append(span)
                    span.start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span.end = clock()
                        stack.pop()
                        spans.append(span)
                    yield item
            finally:
                inner.close()

        return traced

    def _wrap_submit(self, fn: Callable) -> Callable:
        """``AsyncExecutor.submit``: run the job under a span whose parent
        is the span that submitted it, on the worker thread."""
        tracer = self
        clock = time.perf_counter
        job_name = "repro.parallel.async_executor.AsyncExecutor.job"

        @functools.wraps(fn)
        def submit(executor, job, *args):
            parent = tracer.current()
            submitted = clock()

            def carried(*job_args):
                span = tracer._open(job_name, "parallel", parent)
                saved = tracer._stack()
                tracer._local.stack = [span]
                span.start = clock()
                span.attrs = {"wait": span.start - submitted}
                try:
                    return job(*job_args)
                finally:
                    span.end = clock()
                    tracer._local.stack = saved
                    tracer.spans.append(span)

            return fn(executor, carried, *args)

        return submit

    def _wrapper(self, fn: Callable, name: str, layer: str) -> Callable:
        if name == _SUBMIT:
            return self._wrap_submit(fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, layer)
        return self._wrap_function(fn, name, layer)

    # -- installation ------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> Tracer:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install_all()
        except BaseException:
            self.uninstall()  # leave no half-traced package behind
            raise
        return self

    def _install_all(self) -> None:
        rebound: dict[int, Callable] = {}
        for module in _layer_modules():
            layer = layer_of(module.__name__)
            private = PRIVATE_TARGETS.get(module.__name__, ())
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if attr.startswith("_") or inspect.iscoroutinefunction(obj):
                        continue
                    wrapped = self._wrapper(obj, f"{module.__name__}.{attr}", layer)
                    rebound[id(obj)] = wrapped
                    self._patch(module, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(module.__name__, obj, layer, private)
        # ``from module import f`` copies the reference: re-bind every copy.
        if rebound:
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, obj in list(vars(module).items()):
                    wrapped = rebound.get(id(obj))
                    if wrapped is not None and wrapped is not obj:
                        self._patch(module, attr, wrapped)

    def _install_class(self, module: str, cls: type, layer: str,
                       private: Sequence[str]) -> None:
        for attr, raw in list(vars(cls).items()):
            qualname = f"{cls.__qualname__}.{attr}"
            if attr.startswith("_") and qualname not in private:
                continue
            name = f"{module}.{qualname}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(
                    self._wrapper(raw.__func__, name, layer)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(
                    self._wrapper(raw.__func__, name, layer)))
            elif inspect.isfunction(raw) and not inspect.iscoroutinefunction(raw):
                self._patch(cls, attr, self._wrapper(raw, name, layer))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _layer_modules() -> list:
    """Import and return every module of every layer (packages expanded)."""
    modules = []
    for prefixes in LAYERS.values():
        for prefix in prefixes:
            root = importlib.import_module(prefix)
            found = [root]
            if hasattr(root, "__path__"):
                for info in pkgutil.walk_packages(root.__path__, prefix + "."):
                    found.append(importlib.import_module(info.name))
            modules.extend(m for m in found if m.__name__ not in UNWRAPPED_MODULES)
    return modules


# -- attribution --------------------------------------------------------------


def dump_spans(spans: Sequence[Span], path) -> None:
    """Write ``spans`` as JSON lines, each parent by its line index."""
    index = {id(span): i for i, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as out:
        for i, span in enumerate(spans):
            attrs = {k: v for k, v in (span.attrs or {}).items() if k != "key"}
            out.write(json.dumps({
                "id": i,
                "parent": None if span.parent is None else index.get(id(span.parent)),
                "call": None if span.call is None else index.get(id(span.call)),
                "name": span.name,
                "layer": span.layer,
                "sweep": span.sweep,
                "thread": span.thread,
                "start": span.start,
                "end": span.end,
                "attrs": attrs,
            }) + "\n")


def covered_length(intervals: Iterable[tuple[float, float]], lo: float,
                   hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def _call_of(span: Span) -> Span:
    return span.call if span.call is not None else span


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part its children cover.

    The segments of one generator call share their children: a job
    submitted while the call ran one segment and still running during a
    later one covers the later segment too.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(_call_of(span.parent))].append((span.start, span.end))
    return [
        span.duration - covered_length(children.get(id(_call_of(span)), ()),
                                       span.start, span.end)
        for span in spans
    ]
