"""Unit tests for the data subpackage: Dataset, sources, synthetic shapes, relational."""

import numpy as np
import pytest

from repro.data import (
    DATASET_SPECS,
    MAX_DOMAIN_1D,
    MAX_DOMAIN_2D,
    Attribute,
    Dataset,
    Relation,
    apply_sparsity,
    dataset_names,
    dataset_overview,
    gaussian_mixture_shape_2d,
    histogram,
    load_dataset,
    multimodal_shape,
    normal_shape,
    power_law_shape,
    sparse_cluster_shape_2d,
    spiky_shape,
    synthesize_relation,
    uniform_shape,
)


class TestDataset:
    def test_basic_properties(self):
        counts = np.array([1.0, 2.0, 3.0, 0.0])
        dataset = Dataset("toy", counts)
        assert dataset.scale == 6.0
        assert dataset.domain_size == 4
        assert dataset.ndim == 1
        assert dataset.zero_fraction == 0.25
        assert np.allclose(dataset.shape_distribution.sum(), 1.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Dataset("bad", np.array([1.0, -2.0]))

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            Dataset("bad", np.zeros((2, 2, 2)))

    def test_coarsen_preserves_total(self):
        rng = np.random.default_rng(0)
        dataset = Dataset("toy", rng.integers(0, 10, size=64).astype(float))
        coarse = dataset.coarsen((16,))
        assert coarse.domain_shape == (16,)
        assert coarse.scale == pytest.approx(dataset.scale)

    def test_coarsen_2d(self):
        rng = np.random.default_rng(1)
        dataset = Dataset("toy2", rng.integers(0, 10, size=(16, 16)).astype(float))
        coarse = dataset.coarsen((4, 8))
        assert coarse.domain_shape == (4, 8)
        assert coarse.scale == pytest.approx(dataset.scale)

    def test_coarsen_keeps_metadata(self):
        dataset = Dataset("toy", np.ones(8), description="d", metadata={"k": 1})
        coarse = dataset.coarsen((4,))
        assert coarse.description == "d"
        assert coarse.metadata == {"k": 1, "coarsened_from": (8,)}
        assert dataset.metadata == {"k": 1}
        assert coarse.scale == 8

    def test_coarsen_cannot_grow(self):
        dataset = Dataset("toy", np.ones(8))
        with pytest.raises(ValueError):
            dataset.coarsen((16,))

    def test_coarsen_cannot_change_dim(self):
        dataset = Dataset("toy", np.ones(8))
        with pytest.raises(ValueError):
            dataset.coarsen((2, 4))

    def test_shape_of_empty_dataset_is_uniform(self):
        dataset = Dataset("empty", np.zeros(10))
        assert np.allclose(dataset.shape_distribution, 0.1)


class TestSyntheticShapes:
    @pytest.mark.parametrize("factory,args", [
        (power_law_shape, (128,)),
        (normal_shape, (128,)),
        (uniform_shape, (128,)),
        (spiky_shape, (128,)),
        (multimodal_shape, (128,)),
    ])
    def test_1d_shapes_are_distributions(self, factory, args):
        shape = factory(*args, rng=0)
        assert shape.shape == (128,)
        assert np.all(shape >= 0)
        assert shape.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("factory", [gaussian_mixture_shape_2d, sparse_cluster_shape_2d])
    def test_2d_shapes_are_distributions(self, factory):
        shape = factory((16, 16), rng=0)
        assert shape.shape == (16, 16)
        assert np.all(shape >= 0)
        assert shape.sum() == pytest.approx(1.0)

    def test_apply_sparsity_hits_target(self):
        shape = uniform_shape(100)
        sparse = apply_sparsity(shape, 0.6, rng=0)
        assert np.mean(sparse == 0) == pytest.approx(0.6, abs=0.02)
        assert sparse.sum() == pytest.approx(1.0)

    def test_apply_sparsity_keeps_at_least_one_cell(self):
        sparse = apply_sparsity(uniform_shape(10), 1.0, rng=0)
        assert np.count_nonzero(sparse) >= 1

    def test_power_law_is_skewed(self):
        shape = power_law_shape(1000, alpha=1.5, rng=0)
        top_mass = np.sort(shape)[-10:].sum()
        assert top_mass > 0.3

    def test_reproducible_given_seed(self):
        assert np.allclose(power_law_shape(64, rng=5), power_law_shape(64, rng=5))


class TestSources:
    def test_27_datasets_registered(self):
        assert len(DATASET_SPECS) == 27
        assert len(dataset_names(1)) == 18
        assert len(dataset_names(2)) == 9

    def test_load_unknown_raises(self):
        with pytest.raises(KeyError):
            load_dataset("DOES-NOT-EXIST")

    @pytest.mark.parametrize("name", ["ADULT", "PATENT", "BIDS-ALL", "MD-SAL"])
    def test_1d_scale_matches_table2(self, name):
        dataset = load_dataset(name)
        assert dataset.domain_shape == MAX_DOMAIN_1D
        assert dataset.scale == pytest.approx(DATASET_SPECS[name].original_scale)

    @pytest.mark.parametrize("name", ["GOWALLA", "ADULT-2D", "STROKE"])
    def test_2d_scale_matches_table2(self, name):
        dataset = load_dataset(name)
        assert dataset.domain_shape == MAX_DOMAIN_2D
        assert dataset.scale == pytest.approx(DATASET_SPECS[name].original_scale)

    @pytest.mark.parametrize("name", ["ADULT", "TRACE", "ADULT-2D", "SF-CABS-E"])
    def test_sparsity_close_to_table2(self, name):
        dataset = load_dataset(name)
        assert dataset.zero_fraction == pytest.approx(
            DATASET_SPECS[name].zero_fraction, abs=0.08)

    def test_dense_datasets_are_dense(self):
        assert load_dataset("BIDS-ALL").zero_fraction < 0.05
        assert load_dataset("LC-DTIR-ALL").zero_fraction < 0.05

    def test_loading_is_cached_and_deterministic(self):
        assert load_dataset("ADULT") is load_dataset("ADULT")

    def test_overview_has_one_row_per_dataset(self):
        rows = dataset_overview()
        assert len(rows) == 27
        assert {row["dataset"] for row in rows} == set(DATASET_SPECS)


class TestRelational:
    def test_attribute_binning(self):
        attribute = Attribute("age", low=0, high=100, bins=10)
        indices = attribute.bin_index(np.array([0, 5, 99, 150, -3]))
        assert list(indices) == [0, 0, 9, 9, 0]

    def test_attribute_validation(self):
        with pytest.raises(ValueError):
            Attribute("bad", 0, 0, 10)
        with pytest.raises(ValueError):
            Attribute("bad", 0, 10, 0)

    def test_relation_length_consistency(self):
        with pytest.raises(ValueError):
            Relation({"a": np.zeros(3), "b": np.zeros(4)})

    def test_relation_column_access(self):
        relation = Relation({"a": np.arange(5)})
        assert len(relation) == 5
        with pytest.raises(KeyError):
            relation.column("missing")

    def test_histogram_1d(self):
        relation = Relation({"age": np.array([5, 15, 15, 95])})
        dataset = histogram(relation, [Attribute("age", 0, 100, 10)])
        assert dataset.counts[0] == 1
        assert dataset.counts[1] == 2
        assert dataset.counts[9] == 1
        assert dataset.scale == 4

    def test_histogram_2d(self):
        relation = Relation({
            "age": np.array([5, 15, 15]),
            "salary": np.array([10, 10, 90]),
        })
        dataset = histogram(relation, [
            Attribute("age", 0, 100, 4),
            Attribute("salary", 0, 100, 4),
        ])
        assert dataset.domain_shape == (4, 4)
        assert dataset.scale == 3

    def test_histogram_rejects_3_attributes(self):
        relation = Relation({"a": np.zeros(2), "b": np.zeros(2), "c": np.zeros(2)})
        attrs = [Attribute(n, 0, 1, 2) for n in "abc"]
        with pytest.raises(ValueError):
            histogram(relation, attrs)

    def test_filter_then_histogram(self):
        relation = Relation({
            "ip": np.array([1, 2, 3, 4]),
            "merchandise": np.array(["jewelry", "mobile", "jewelry", "books"]),
        })
        filtered = relation.filter(relation.column("merchandise") == "jewelry")
        dataset = histogram(filtered, [Attribute("ip", 0, 10, 5)])
        assert dataset.scale == 2

    def test_synthesize_relation_roundtrip(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 5, size=8).astype(float)
        dataset = Dataset("toy", counts)
        attribute = Attribute("v", 0, 8, 8)
        relation = synthesize_relation(dataset, [attribute], rng=rng)
        rebuilt = histogram(relation, [attribute])
        assert np.allclose(rebuilt.counts, counts)

    def test_synthesize_relation_shape_mismatch(self):
        dataset = Dataset("toy", np.ones(8))
        with pytest.raises(ValueError):
            synthesize_relation(dataset, [Attribute("v", 0, 1, 4)])
