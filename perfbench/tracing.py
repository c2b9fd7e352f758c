"""Span tracer and the probes the traced benchmark run installs.

The benchmark traces the library from outside: :class:`Probes` swaps timing
wrappers in for the public functions and methods at each layer boundary
(``PlanAlgorithm.select``/``infer``, ``measure_plan``, ``QueryMatrix.matvec``,
``batched_laplace``, ``DataGenerator.generate_many``, ``Workload.evaluate``,
``scaled_average_per_query_error``, ``Algorithm.run``, ...) and restores the
originals on exit.  Nothing under ``src/`` knows it is being traced, and no
wrapper touches an argument or a generator, so a traced run draws the same
random stream as an untraced one.

:class:`Tracer` aggregates spans as they close instead of keeping a span
list: a grid pass opens about ten spans per trial, and per-name totals
are all the report needs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

__all__ = ["Probes", "Tracer", "tail_percentile"]

#: Percentiles a latency tail may be reported at, highest first.
TAIL_CANDIDATES = (99, 90, 50)


def tail_percentile(n_samples: int) -> int:
    """The highest percentile in :data:`TAIL_CANDIDATES` that has at least
    ten of ``n_samples`` beyond it; the median when none has."""
    for pct in TAIL_CANDIDATES:
        if n_samples * (100 - pct) >= 10 * 100:
            return pct
    return 50


class Tracer:
    """Nested span recorder with per-name totals, in nanoseconds.

    ``begin(name)``/``end()`` open and close a span on a stack.  When a span
    closes, its duration is added to ``inclusive[name]`` unless a span of the
    same name still encloses it (recursion and ``super()`` chains count
    once), and its self time — duration minus the time its direct children
    cover — to ``self_ns[name]``.  ``counts`` holds free-form work counters.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._stack: list[list] = []          # [name, start_ns, child_ns]
        self._open: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def begin(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0])
        self._open[name] += 1

    def end(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        name, start, child_ns = self._stack.pop()
        duration = self._clock() - start
        self._open[name] -= 1
        if not self._open[name]:
            self.inclusive[name] += duration
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def seconds(self, name: str) -> float:
        return self.inclusive[name] / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def snapshot(self) -> Counter:
        """A copy of the inclusive totals, for before/after deltas."""
        return Counter(self.inclusive)


class Probes:
    """Install timing wrappers on the library's layer boundaries.

    Use as a context manager around the traced section; every replaced
    attribute is restored on exit, even when the section raises.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    # -- patching primitives ----------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _everywhere(self, func, wrapper) -> None:
        """Rebind ``func`` to ``wrapper`` in every ``repro`` module that
        imported it, so ``from x import func`` call sites see the wrapper."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, wrapper)

    def _timed(self, name: str, func, amount=None):
        """Time ``func`` as span ``name``; with ``amount``, also add
        ``amount(args, kwargs)`` to the ``<name>_n`` work counter."""
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if amount is not None:
                tracer.counts[f"{name}_n"] += int(amount(args, kwargs))
            tracer.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.end()
        return wrapper

    def __enter__(self) -> Probes:
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the probes ---------------------------------------------------------------------
    def _install(self) -> None:
        from repro.algorithms.base import Algorithm, PlanAlgorithm
        from repro.core import error, gls, kernels, plan
        from repro.core.generator import DataGenerator
        from repro.serve import store
        from repro.workload import builders
        from repro.workload.linops import QueryMatrix
        from repro.workload.rangequery import Workload

        self._probe_algorithm_run(Algorithm)
        for cls in _subclasses(PlanAlgorithm):
            if "select" in cls.__dict__:
                self._set(cls, "select", self._timed("plan.select", cls.__dict__["select"]))
            if "infer" in cls.__dict__:
                self._set(cls, "infer", self._probe_infer(cls.__dict__["infer"]))

        self._everywhere(plan.measure_plan, self._timed("plan.measure", plan.measure_plan))
        self._everywhere(kernels.batched_laplace,
                         self._timed("plan.measure.noise", kernels.batched_laplace))
        for owner, attr in ((QueryMatrix, "matvec"),
                            (plan.MeasurementPlan, "measurement_vector")):
            self._set(owner, attr, self._when_open("plan.measure", "plan.measure.answer",
                                                   owner.__dict__[attr]))
        self._everywhere(plan.reconstruct, self._probe_reconstruct(plan.reconstruct))
        self._everywhere(gls.solve_gls, self._probe_solve_gls(gls.solve_gls))
        self._everywhere(kernels.get_kernel, self._probe_get_kernel(kernels.get_kernel))

        self._set(DataGenerator, "generate_many",
                  self._timed("data.generate", DataGenerator.generate_many,
                              lambda args, kwargs: args[2] if len(args) > 2
                              else kwargs["n_samples"]))
        self._everywhere(builders.default_workload,
                         self._timed("workload.build", builders.default_workload))
        self._set(Workload, "evaluate",
                  self._timed("workload.evaluate", Workload.evaluate, lambda a, k: 1))
        self._everywhere(error.scaled_average_per_query_error,
                         self._timed("error.eval", error.scaled_average_per_query_error))

        # Only the serving store's binding: rebinding the class everywhere
        # would break the isinstance checks in the query operators.
        self._set(store, "PrefixSum", self._timed("serve.prefix_build", store.PrefixSum))
        self._set(store.Release, "answer_batch",
                  self._timed("serve.answer_batch", store.Release.answer_batch))

    def _probe_algorithm_run(self, algorithm_cls) -> None:
        tracer = self.tracer
        run = algorithm_cls.run

        @functools.wraps(run)
        def wrapper(algorithm, *args, **kwargs):
            tracer.begin(algo_span(algorithm.name))
            try:
                return run(algorithm, *args, **kwargs)
            finally:
                tracer.end()
        self._set(algorithm_cls, "run", wrapper)

    def _probe_infer(self, infer):
        """``plan.infer`` span; an outermost infer that never reached
        ``reconstruct`` is a custom (closed-form or non-GLS) inference."""
        tracer = self.tracer

        @functools.wraps(infer)
        def wrapper(*args, **kwargs):
            outermost = not tracer.is_open("plan.infer")
            before = tracer.calls["plan.reconstruct"]
            tracer.begin("plan.infer")
            try:
                return infer(*args, **kwargs)
            finally:
                tracer.end()
                if outermost and tracer.calls["plan.reconstruct"] == before:
                    tracer.counts["plan.infer.custom_n"] += 1
        return wrapper

    def _probe_reconstruct(self, reconstruct):
        """A ``reconstruct`` that solved without ``solve_gls`` took the
        disjoint-scatter path."""
        tracer = self.tracer

        @functools.wraps(reconstruct)
        def wrapper(*args, **kwargs):
            before = tracer.calls["plan.solve_gls"]
            tracer.begin("plan.reconstruct")
            try:
                return reconstruct(*args, **kwargs)
            finally:
                tracer.end()
                if tracer.calls["plan.solve_gls"] == before:
                    tracer.counts["plan.infer.disjoint_n"] += 1
        return wrapper

    def _probe_solve_gls(self, solve_gls):
        """Count which solver ``solve_gls`` dispatches to, by its own rule:
        the two-pass tree solve for tree-tagged sets, LSMR (or the explicit
        normal equations) otherwise."""
        tracer = self.tracer

        @functools.wraps(solve_gls)
        def wrapper(measurements, *args, **kwargs):
            method = kwargs.get("method", args[0] if args else "auto")
            tree = method == "tree" or (method == "auto" and measurements.tree is not None)
            tracer.counts["plan.infer.tree_n" if tree else "plan.infer.lsmr_n"] += 1
            tracer.begin("plan.solve_gls")
            try:
                return solve_gls(measurements, *args, **kwargs)
            finally:
                tracer.end()
        return wrapper

    def _probe_get_kernel(self, get_kernel):
        probes = self

        @functools.wraps(get_kernel)
        def wrapper(name):
            return probes._timed(f"kernel.{name}", get_kernel(name))
        return wrapper

    def _when_open(self, scope: str, name: str, func):
        """Time ``func`` as ``name`` only while a ``scope`` span is open."""
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.is_open(scope):
                return func(*args, **kwargs)
            tracer.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.end()
        return wrapper


def algo_span(name: str) -> str:
    """Span (and metric stem) of one algorithm; ``*`` is spelled ``_star``."""
    return "algo." + name.replace("*", "_star")


def _subclasses(cls) -> list[type]:
    """``cls`` and every class below it, each once."""
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in out:
            out.append(current)
            todo.extend(current.__subclasses__())
    return out
