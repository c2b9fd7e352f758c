"""Tests for the Algorithm base class contract, applied to every registered algorithm."""

import numpy as np
import pytest

from repro import ALGORITHM_REGISTRY, algorithm_names, make_algorithm
from repro.algorithms.base import validate_input
from repro.workload import prefix_workload, random_range_workload

ALL_NAMES = algorithm_names(None)
NAMES_1D = algorithm_names(1)
NAMES_2D = algorithm_names(2)


@pytest.fixture(scope="module")
def data_1d():
    rng = np.random.default_rng(7)
    x = rng.multinomial(3000, np.ones(64) / 64).astype(float)
    return x, prefix_workload(64)


@pytest.fixture(scope="module")
def data_2d():
    rng = np.random.default_rng(8)
    x = rng.multinomial(3000, np.ones(64) / 64).astype(float).reshape(8, 8)
    return x, random_range_workload((8, 8), 50, rng=rng)


class TestValidateInput:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            validate_input(np.array([1.0, -1.0]), 1.0, (1,))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            validate_input(np.array([1.0, np.nan]), 1.0, (1,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_input(np.array([]), 1.0, (1,))

    def test_wrong_dim_rejected(self):
        with pytest.raises(ValueError):
            validate_input(np.zeros((2, 2)), 1.0, (1,))

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            validate_input(np.zeros(4), 0.0, (1,))

    def test_returns_copy(self):
        x = np.ones(4)
        out = validate_input(x, 1.0, (1,))
        out[0] = 99
        assert x[0] == 1


class TestRegistryMetadata:
    def test_every_algorithm_has_properties(self):
        for name, cls in ALGORITHM_REGISTRY.items():
            assert cls.properties.name == name
            assert cls.properties.supported_dims

    def test_unknown_parameter_override_rejected(self):
        with pytest.raises(ValueError):
            make_algorithm("MWEM", nonsense=3)

    def test_parameter_override_applied(self):
        algorithm = make_algorithm("MWEM", rounds=5)
        assert algorithm.params["rounds"] == 5

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_algorithm("NotAnAlgorithm")

    def test_table1_contains_both_classes(self):
        from repro import table1_rows
        rows = {row["algorithm"]: row for row in table1_rows()}
        assert rows["Identity"]["data_dependent"] is False
        assert rows["DAWA"]["data_dependent"] is True
        assert rows["MWEM"]["consistent"] is False
        assert rows["SF"]["scale_epsilon_exchangeable"] is False


class TestAlgorithmContract1D:
    @pytest.mark.parametrize("name", NAMES_1D)
    def test_output_shape_and_finiteness(self, name, data_1d):
        x, workload = data_1d
        estimate = make_algorithm(name).run(x, 0.5, workload=workload, rng=0)
        assert estimate.shape == x.shape
        assert np.all(np.isfinite(estimate))

    @pytest.mark.parametrize("name", NAMES_1D)
    def test_deterministic_given_seed(self, name, data_1d):
        x, workload = data_1d
        first = make_algorithm(name).run(x, 0.5, workload=workload, rng=42)
        second = make_algorithm(name).run(x, 0.5, workload=workload, rng=42)
        assert np.allclose(first, second)

    @pytest.mark.parametrize("name", NAMES_1D)
    def test_input_not_mutated(self, name, data_1d):
        x, workload = data_1d
        original = x.copy()
        make_algorithm(name).run(x, 0.5, workload=workload, rng=1)
        assert np.array_equal(x, original)

    @pytest.mark.parametrize("name", NAMES_1D)
    def test_rejects_non_positive_epsilon(self, name, data_1d):
        x, workload = data_1d
        with pytest.raises(ValueError):
            make_algorithm(name).run(x, 0.0, workload=workload, rng=0)

    @pytest.mark.parametrize("name", NAMES_1D)
    def test_workload_optional(self, name, data_1d):
        x, _ = data_1d
        estimate = make_algorithm(name).run(x, 0.5, rng=0)
        assert estimate.shape == x.shape


class TestAlgorithmContract2D:
    @pytest.mark.parametrize("name", NAMES_2D)
    def test_output_shape_and_finiteness(self, name, data_2d):
        x, workload = data_2d
        estimate = make_algorithm(name).run(x, 0.5, workload=workload, rng=0)
        assert estimate.shape == x.shape
        assert np.all(np.isfinite(estimate))

    @pytest.mark.parametrize("name", NAMES_2D)
    def test_deterministic_given_seed(self, name, data_2d):
        x, workload = data_2d
        first = make_algorithm(name).run(x, 0.5, workload=workload, rng=11)
        second = make_algorithm(name).run(x, 0.5, workload=workload, rng=11)
        assert np.allclose(first, second)

    @pytest.mark.parametrize("name", sorted(set(NAMES_2D) - set(NAMES_1D)))
    def test_2d_only_algorithms_reject_1d(self, name):
        with pytest.raises(ValueError):
            make_algorithm(name).run(np.ones(16), 0.5, rng=0)

    @pytest.mark.parametrize("name", sorted(set(NAMES_1D) - set(NAMES_2D)))
    def test_1d_only_algorithms_reject_2d(self, name):
        with pytest.raises(ValueError):
            make_algorithm(name).run(np.ones((4, 4)), 0.5, rng=0)
