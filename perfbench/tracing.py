"""In-memory spans around the calls the benchmark makes into bregopt.

Nothing here changes the package: tracing works through delegating proxies
that stand in for a problem's objective and reference function, and through
temporary patches of module attributes (``problems.radon_matrix``,
``Battery.criterion_k``) that are restored on exit.

A span is ``[name, parent_index, start, end]``. Spans are appended to a list
while the traced repetition runs and aggregated afterwards, so the hot path
costs one list append and two clock reads per call.
"""

import contextlib
import copy
import dataclasses
from collections import defaultdict
from time import perf_counter
from unittest import mock

OBJECTIVE_METHODS = ("partial_grad", "full_grad", "value", "f_divergence")
MIRROR_METHODS = ("grad", "dual_violation_index", "grad_conjugate", "divergence")
# run() calls these only from its trace-record closure
RECORD_SPANS = ("objective.value", "mirror.divergence", "objective.f_divergence")
RUN_SPAN = "solver.run"


class Tracer:
    """Collects spans and counters for one traced repetition."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, parent, perf_counter(), 0.0])

    def exit(self):
        self.spans[self._stack.pop()][3] = perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @property
    def current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def summary(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children. ``record_s`` sums the record spans whose parent is a
        solver run.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        record_s = 0.0
        for k, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[k]
            if name in RECORD_SPANS and parent >= 0 and self.spans[parent][0] == RUN_SPAN:
                record_s += end - start
        return {"calls": dict(calls), "total_s": dict(total),
                "self_s": dict(self_s), "record_s": record_s,
                "counts": dict(self.counts)}

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            t0 = self.spans[0][2] if self.spans else 0.0
            for k, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{k},{name},{parent},{start - t0!r},{end - t0!r}\n")


class _Proxy:
    """Forwards every attribute to the wrapped object."""

    def __init__(self, target, tracer):
        self._target = target
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._target, name)


def _traced_method(span_name, method):
    def call(self, *args, **kwargs):
        tracer = self._tracer
        tracer.enter(span_name)
        try:
            return getattr(self._target, method)(*args, **kwargs)
        finally:
            tracer.exit()

    call.__name__ = method
    return call


def _proxy_class(class_name, layer, methods):
    body = {m: _traced_method(f"{layer}.{m}", m) for m in methods}
    return type(class_name, (_Proxy,), body)


ObjectiveProxy = _proxy_class("ObjectiveProxy", "objective", OBJECTIVE_METHODS)
ReferenceProxy = _proxy_class("ReferenceProxy", "mirror", MIRROR_METHODS)


class InnerProxy(_Proxy):
    """Counts the inner objective's full gradients taken by an inner solve."""

    def full_grad(self, x):
        if self._tracer.current == "mirror.grad_conjugate":
            self._tracer.counts["mirror.inner_grad.calls"] += 1
        return self._target.full_grad(x)


def traced_problem(problem, tracer):
    """A copy of ``problem`` whose objective and reference record spans.

    A preconditioner reference is shallow-copied so its inner objective can
    be wrapped without touching the original instance.
    """
    ref = problem.reference
    if hasattr(ref, "inner"):
        ref = copy.copy(ref)
        ref.inner = InnerProxy(ref.inner, tracer)
    return dataclasses.replace(
        problem,
        objective=ObjectiveProxy(problem.objective, tracer),
        reference=ReferenceProxy(ref, tracer),
    )


def _span_function(tracer, name, fn):
    def wrapped(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapped


@contextlib.contextmanager
def patched_radon(tracer):
    """Record ``problems.radon_matrix`` as a child span of generation."""
    import bregopt.problems as problems

    fn = _span_function(tracer, "problems.radon_matrix", problems.radon_matrix)
    with mock.patch.object(problems, "radon_matrix", fn):
        yield


def _criterion(tracer, name, fn, between):
    def wrapped(self):
        between()
        if tracer is None:
            return fn(self)
        with tracer.span(name):
            return fn(self)

    return wrapped


@contextlib.contextmanager
def patched_battery(tracer, criteria, between):
    """Call ``between()`` before each ``Battery.criterion_k`` and, with a
    tracer, record the criterion as a span."""
    from bregopt.verify import Battery

    with contextlib.ExitStack() as stack:
        for k in criteria:
            name = f"criterion_{k}"
            fn = _criterion(tracer, f"verify.{name}", getattr(Battery, name), between)
            stack.enter_context(mock.patch.object(Battery, name, fn))
        yield
