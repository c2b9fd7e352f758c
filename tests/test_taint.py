"""Tests for the runtime taint sanitizer (repro.privlint.taint).

The unit tests pin the taint algebra: taint propagates through ufuncs,
reductions, slicing and the dispatched numpy API, and is cleared *only* by
adding/subtracting a :class:`SanitizedNoise` marker.  The registry-wide test
is the dynamic counterpart of the PL002/PL003 static rules — every algorithm
runs on a tainted histogram under :func:`sanitized_noise_stage` and must
release an untainted estimate, while a deliberately leaky algorithm (the PR-3
bug class reintroduced) must release a tainted one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.base import AlgorithmProperties, PlanAlgorithm
from repro.algorithms.mechanisms import as_rng
from repro.core.plan import MeasurementPlan
from repro.core.registry import ALGORITHM_REGISTRY
from repro.privlint.taint import (
    SanitizedNoise,
    TaintedArray,
    is_tainted,
    sanitize,
    sanitized_noise_stage,
    taint,
)
from repro.workload.builders import prefix_workload, random_range_workload
from repro.workload.linops import QueryMatrix


# -- taint algebra -------------------------------------------------------------------


class TestTaintAlgebra:
    def test_taint_marks_and_preserves_values(self):
        x = taint([1.0, 2.0, 3.0])
        assert is_tainted(x)
        assert np.array_equal(np.asarray(x), [1.0, 2.0, 3.0])

    def test_arithmetic_with_plain_values_stays_tainted(self):
        x = taint(np.arange(8.0))
        for derived in (x + 1.0, x * 2.0, x - x, np.sqrt(x + 1.0), -x):
            assert is_tainted(derived), derived

    def test_views_slices_and_reshapes_stay_tainted(self):
        x = taint(np.arange(16.0))
        assert is_tainted(x[3:9])
        assert is_tainted(x.reshape(4, 4))
        assert is_tainted(x.reshape(4, 4)[1])

    def test_reductions_stay_tainted(self):
        x = taint(np.arange(8.0))
        assert is_tainted(np.cumsum(x))
        assert isinstance(x.sum(), (TaintedArray, np.ndarray))
        # A scalar reduction re-enters as a 0-d tainted array.
        assert is_tainted(np.add.reduce(x) + np.zeros(1))

    def test_dispatched_numpy_api_stays_tainted(self):
        x = taint(np.arange(8.0))
        assert is_tainted(np.concatenate([x, np.zeros(2)]))
        assert is_tainted(np.clip(x, 0.0, 3.0))
        assert is_tainted(np.maximum(x, 0.0))
        assert is_tainted(np.sort(x))

    def test_taint_infects_mixed_expressions(self):
        x = taint(np.arange(4.0))
        plain = np.ones(4)
        assert is_tainted(plain + x)
        assert is_tainted(plain * x)

    def test_float_extraction_is_documented_declassification(self):
        x = taint(np.arange(4.0))
        assert isinstance(float(x.sum()), float)


class TestSanitizedClearing:
    def test_adding_sanitized_noise_clears_taint(self):
        x = taint(np.arange(8.0))
        noise = sanitize(np.full(8, 0.5))
        assert not is_tainted(x + noise)
        assert not is_tainted(noise + x)

    def test_subtracting_sanitized_noise_clears_taint(self):
        x = taint(np.arange(8.0))
        noise = sanitize(np.full(8, 0.5))
        assert not is_tainted(x - noise)

    def test_plain_noise_does_not_clear(self):
        x = taint(np.arange(8.0))
        assert is_tainted(x + np.full(8, 0.5))

    def test_multiplying_sanitized_noise_does_not_clear(self):
        x = taint(np.arange(8.0))
        noise = sanitize(np.full(8, 0.5))
        assert is_tainted(x * noise)
        assert is_tainted(x / (noise + 1.0))

    def test_sanitization_consumed_by_one_addition(self):
        # noise + plain is a plain value; it cannot clear a later taint.
        noise = sanitize(np.full(8, 0.5))
        spent = noise + np.zeros(8)
        assert not isinstance(spent, SanitizedNoise)
        assert is_tainted(taint(np.arange(8.0)) + spent)

    def test_derived_tainted_values_still_clearable(self):
        x = taint(np.arange(8.0))
        derived = np.cumsum(x * 2.0)
        assert not is_tainted(derived + sanitize(np.ones(8)))


# -- the instrumented noise stage ----------------------------------------------------


class TestSanitizedNoiseStage:
    def test_noise_sources_marked_inside_context(self):
        from repro.algorithms import mechanisms
        rng = np.random.default_rng(0)
        with sanitized_noise_stage():
            draw = mechanisms.laplace_noise(1.0, 8, rng)
            assert isinstance(draw, SanitizedNoise)
        draw = mechanisms.laplace_noise(1.0, 8, rng)
        assert not isinstance(draw, SanitizedNoise)

    def test_per_module_bindings_patched_and_restored(self):
        # `from .mechanisms import laplace_noise` creates per-module bindings;
        # the context manager must patch each one, not just the definition.
        from repro.algorithms import grids
        original = grids.laplace_noise
        rng = np.random.default_rng(0)
        with sanitized_noise_stage():
            assert grids.laplace_noise is not original
            assert isinstance(grids.laplace_noise(1.0, 4, rng), SanitizedNoise)
        assert grids.laplace_noise is original

    def test_query_answers_retainted_through_prefix_sums(self):
        # The summed-area table writes through plain buffers; the wrapper
        # must keep W @ x tainted anyway.
        x = taint(np.arange(16.0))
        queries = QueryMatrix(np.array([[0], [4]]), np.array([[7], [15]]), (16,))
        with sanitized_noise_stage():
            assert is_tainted(queries.matvec(x))
        assert not is_tainted(queries.matvec(np.arange(16.0)))

    def test_noise_draw_identical_under_instrumentation(self):
        from repro.algorithms import mechanisms
        plain = mechanisms.laplace_noise(1.0, 64, np.random.default_rng(5))
        with sanitized_noise_stage():
            marked = mechanisms.laplace_noise(1.0, 64, np.random.default_rng(5))
        assert np.asarray(marked).tobytes() == plain.tobytes()


# -- registry-wide: the noise stage is the only declassifier -------------------------


def _domain_cases():
    rng = np.random.default_rng(20160626)
    x1 = rng.multinomial(600, np.ones(64) / 64).astype(float)
    x2 = rng.multinomial(600, np.ones(64) / 64).reshape(8, 8).astype(float)
    return {
        1: (x1, prefix_workload(64)),
        2: (x2, random_range_workload((8, 8), 40, rng=np.random.default_rng(3))),
    }


DOMAIN_CASES = _domain_cases()

ALGORITHM_CASES = [
    (name, ndim)
    for name, cls in sorted(ALGORITHM_REGISTRY.items())
    for ndim in cls.properties.supported_dims
]


class TestRegistryWideTaint:
    @pytest.mark.parametrize("name,ndim", ALGORITHM_CASES,
                             ids=[f"{n}-{d}d" for n, d in ALGORITHM_CASES])
    def test_release_taint_cleared_only_by_noise_stage(self, name, ndim):
        x, workload = DOMAIN_CASES[ndim]
        algorithm = ALGORITHM_REGISTRY[name]()
        tainted_x = taint(x.copy())
        with sanitized_noise_stage():
            release = algorithm.run(tainted_x, 1.0, workload=workload,
                                    rng=np.random.default_rng(11))
        assert not is_tainted(release), (
            f"{name} ({ndim}-D) released a tainted estimate: some "
            f"data-derived value reached the release without passing "
            f"through the metered noise stage")
        assert np.isfinite(np.asarray(release)).all()

    @pytest.mark.parametrize("name,ndim", ALGORITHM_CASES[:4],
                             ids=[f"{n}-{d}d" for n, d in ALGORITHM_CASES[:4]])
    def test_instrumented_release_bitwise_identical(self, name, ndim):
        # The sanitizer observes; it must not perturb the release.
        x, workload = DOMAIN_CASES[ndim]
        algorithm = ALGORITHM_REGISTRY[name]()
        plain = algorithm.run(x.copy(), 1.0, workload=workload,
                              rng=np.random.default_rng(11))
        with sanitized_noise_stage():
            instrumented = algorithm.run(taint(x.copy()), 1.0,
                                         workload=workload,
                                         rng=np.random.default_rng(11))
        assert np.asarray(instrumented).tobytes() == plain.tobytes()


class _LeakyIdentity(PlanAlgorithm):
    """The PR-3 bug class reintroduced on purpose: select() stashes the true
    histogram on the instance and infer() blends it back in unnoised."""

    properties = AlgorithmProperties(
        name="LeakyIdentity", supported_dims=(1,), data_dependent=False)

    def select(self, x, workload, budget, rng):
        self._stash = x                       # the leak
        n = x.size
        idx = np.arange(n, dtype=np.intp)[:, None]
        queries = QueryMatrix(idx, idx, x.shape)
        return MeasurementPlan(
            queries=queries,
            epsilons=np.full(n, budget.total),
            domain_shape=x.shape,
            epsilon_measure=budget.total,
        )

    def infer(self, measurements, plan):
        estimate = super().infer(measurements, plan)
        return 0.5 * estimate + 0.5 * self._stash   # unnoised true mass


class TestLeakDetection:
    def test_reintroduced_leak_keeps_release_tainted(self):
        x, _ = DOMAIN_CASES[1]
        with sanitized_noise_stage():
            release = _LeakyIdentity().run(taint(x.copy()), 1.0,
                                           rng=np.random.default_rng(0))
        assert is_tainted(release)

    def test_same_algorithm_without_leak_is_clean(self):
        class HonestIdentity(_LeakyIdentity):
            def infer(self, measurements, plan):
                return PlanAlgorithm.infer(self, measurements, plan)

        x, _ = DOMAIN_CASES[1]
        with sanitized_noise_stage():
            release = HonestIdentity().run(taint(x.copy()), 1.0,
                                           rng=np.random.default_rng(0))
        assert not is_tainted(release)

    def test_static_rule_also_catches_the_leak(self):
        # The same bug class, seen by the other front: PL002 flags the
        # self-attribute read in infer() without running any code.
        import inspect
        import textwrap

        from repro.privlint import RULES_BY_ID, lint_source

        source = textwrap.dedent(inspect.getsource(_LeakyIdentity))
        source = source.replace("self._stash", "self._x")
        result = lint_source(source, "src/repro/algorithms/leaky.py",
                             [RULES_BY_ID["PL002"]])
        assert any(f.rule == "PL002" for f in result.findings)


class TestPriveletVisibility:
    """Privelet's Haar transforms are built from numpy array functions only,
    so the counts stay tainted through the coefficients up to the noise."""

    SHAPES = ((64,), (13,), (8, 8), (3, 5))

    @staticmethod
    def _counts(shape):
        return as_rng(4).poisson(10.0, shape).astype(float)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_unnoised_coefficients_keep_release_tainted(self, shape,
                                                        monkeypatch):
        from repro.algorithms import privelet

        with sanitized_noise_stage(), monkeypatch.context() as patch:
            patch.setattr(privelet, "laplace_noise",
                          lambda scale, size, rng: np.zeros(size))
            release = privelet.Privelet().run(taint(self._counts(shape)),
                                              1.0, rng=0)
        assert is_tainted(release)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_noised_release_is_clean(self, shape):
        from repro.algorithms.privelet import Privelet

        with sanitized_noise_stage():
            release = Privelet().run(taint(self._counts(shape)), 1.0, rng=0)
        assert not is_tainted(release)
