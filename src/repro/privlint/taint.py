"""Runtime taint sanitizer: prove the noise stage is the only declassifier.

The static rules catch leak *patterns*; this module catches leak *flows*.
A :class:`TaintedArray` is an ndarray subclass that propagates taint through
ufuncs, reductions, slicing and the dispatched numpy API: anything computed
from the true histogram stays tainted.  The one sanctioned declassifier is
calibrated noise — under :func:`sanitized_noise_stage` every metered noise
draw (each noise-drawing row of privlint's primitive table,
:data:`repro.privlint.dataflow.engine.PRIMITIVES`) returns a
:class:`SanitizedNoise` marker array, and **adding or
subtracting** sanitized noise to a tainted value clears the taint.  Running an
algorithm on a tainted histogram therefore yields an untainted release if and
only if every data-derived value in it passed through the noise stage — a
PR-3-style leak (true mass re-added unnoised after measurement) keeps the
release tainted and fails the registry-wide tier-1 test.

Two laundering seams are closed by the context manager rather than the
subclass, because they write through preallocated plain buffers that element
assignment cannot keep tainted: ``QueryMatrix.matvec`` / ``Workload.evaluate``
(the prefix-sum table build) and ``MeasurementPlan.measurement_vector`` (the
per-bucket summation loop).  The wrappers re-taint those outputs whenever the
input was tainted, so the true query answers arriving at the noise stage are
visibly tainted.

Known, documented declassifications the sanitizer does not track:

* scalar extraction — ``float(tainted)`` / ``int(tainted)`` return plain
  Python scalars (this is how UGrid/AGrid consume their true-scale *side
  information*, a paper-documented Principle violation);
* ``np.asarray`` and C-level constructors return base-class views;
* element assignment into a preallocated plain array.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager

import numpy as np

from .dataflow.engine import PRIMITIVES

__all__ = ["SanitizedNoise", "TaintedArray", "is_tainted", "sanitize",
           "sanitized_noise_stage", "taint"]

#: ufuncs through which sanitized noise clears taint: noise is *added*.
_CLEARING_UFUNCS = (np.add, np.subtract)


def taint(values) -> "TaintedArray":
    """View ``values`` as tainted true data (copies only if conversion must)."""
    return np.asarray(values, dtype=float).view(TaintedArray)


def sanitize(values) -> "SanitizedNoise":
    """Mark ``values`` as freshly drawn calibrated noise."""
    return np.asarray(values).view(SanitizedNoise)


def is_tainted(values) -> bool:
    return isinstance(values, TaintedArray)


def _strip(value):
    """Base-class view of any marker array; other objects pass through."""
    if isinstance(value, (TaintedArray, SanitizedNoise)):
        return value.view(np.ndarray)
    return value


def _strip_tree(value):
    if isinstance(value, (TaintedArray, SanitizedNoise)):
        return value.view(np.ndarray)
    if isinstance(value, (list, tuple)):
        return type(value)(_strip_tree(v) for v in value)
    if isinstance(value, dict):
        return {k: _strip_tree(v) for k, v in value.items()}
    return value


def _contains(value, cls) -> bool:
    if isinstance(value, cls):
        return True
    if isinstance(value, (list, tuple)):
        return any(_contains(v, cls) for v in value)
    if isinstance(value, dict):
        return any(_contains(v, cls) for v in value.values())
    return False


def _retaint(value):
    if isinstance(value, np.ndarray):
        return value.view(TaintedArray)
    if isinstance(value, np.generic):
        return np.asarray(value).view(TaintedArray)
    if isinstance(value, tuple):
        return tuple(_retaint(v) for v in value)
    return value


class TaintedArray(np.ndarray):
    """True data (or anything computed from it).  Views/slices stay tainted."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(_strip(o) for o in out)
        result = getattr(ufunc, method)(*(_strip(i) for i in inputs), **kwargs)
        if ufunc in _CLEARING_UFUNCS and method == "__call__" \
                and any(isinstance(i, SanitizedNoise) for i in inputs):
            return result                      # noise added: declassified
        return _retaint(result)

    def __array_function__(self, func, types, args, kwargs):
        result = func(*_strip_tree(args), **_strip_tree(kwargs or {}))
        if _contains(args, TaintedArray) or _contains(kwargs, TaintedArray):
            return _retaint(result)
        return result


class SanitizedNoise(np.ndarray):
    """Freshly drawn calibrated noise: clears taint when added, otherwise
    behaves as a plain array (noise combined with anything non-tainted is
    just a plain value — sanitization is consumed by one addition)."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(_strip(o) for o in out)
        result = getattr(ufunc, method)(*(_strip(i) for i in inputs), **kwargs)
        if any(isinstance(i, TaintedArray) for i in inputs) \
                and not (ufunc in _CLEARING_UFUNCS and method == "__call__"):
            return _retaint(result)
        return result

    def __array_function__(self, func, types, args, kwargs):
        result = func(*_strip_tree(args), **_strip_tree(kwargs or {}))
        if _contains(args, TaintedArray) or _contains(kwargs, TaintedArray):
            return _retaint(result)
        return result


def _wrap_noise_source(function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        return sanitize(function(*args, **kwargs))
    wrapper.__privlint_wrapped__ = function
    return wrapper


def _wrap_retaint_method(method, argument_index):
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        result = method(*args, **kwargs)
        vector = args[argument_index] if len(args) > argument_index else None
        if is_tainted(vector) and isinstance(result, np.ndarray) \
                and not is_tainted(result):
            return result.view(TaintedArray)
        return result
    wrapper.__privlint_wrapped__ = method
    return wrapper


@contextmanager
def sanitized_noise_stage():
    """Instrument the repository's noise seams for a taint-checked run.

    * every module-level binding of a noise-drawing primitive (the rows of
      ``PRIMITIVES`` with ``noise=True``) across all loaded ``repro``
      modules is wrapped to return :class:`SanitizedNoise`;
    * ``QueryMatrix.matvec``, ``Workload.evaluate`` and
      ``MeasurementPlan.measurement_vector`` re-taint their outputs for
      tainted inputs (their prefix-sum/bucket-sum internals write through
      plain buffers, which would otherwise launder the taint).

    Restores every binding on exit.
    """
    from ..core.plan import MeasurementPlan
    from ..workload.linops import QueryMatrix
    from ..workload.rangequery import Workload

    noise_sources = {
        name: getattr(importlib.import_module(row.module), name)
        for name, row in PRIMITIVES.items() if row.noise}
    wrappers = {name: _wrap_noise_source(fn)
                for name, fn in noise_sources.items()}

    module_patches: list[tuple[object, str, object]] = []
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith(
                "repro"):
            continue
        for name, original in noise_sources.items():
            if getattr(module, name, None) is original:
                module_patches.append((module, name, original))
                setattr(module, name, wrappers[name])

    method_patches = [
        (QueryMatrix, "matvec", QueryMatrix.matvec, 1),
        (Workload, "evaluate", Workload.evaluate, 1),
        (MeasurementPlan, "measurement_vector",
         MeasurementPlan.measurement_vector, 1),
    ]
    for cls, name, method, arg_index in method_patches:
        setattr(cls, name, _wrap_retaint_method(method, arg_index))

    try:
        yield
    finally:
        for module, name, original in module_patches:
            setattr(module, name, original)
        for cls, name, method, _ in method_patches:
            setattr(cls, name, method)
