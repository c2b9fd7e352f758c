"""Property-based (hypothesis) tests for the core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference.dawa_partition import l1_partition_reference
from repro import (
    Dataset,
    PrefixSum,
    QueryMatrix,
    RangeQuery,
    Workload,
    scaled_average_per_query_error,
)
from repro.algorithms.ahp import greedy_value_clustering
from repro.algorithms.dawa import l1_partition
from repro.algorithms.hilbert import hilbert_ordering_for
from repro.algorithms.inference import tree_least_squares
from repro.algorithms.tree import HierarchicalTree
from repro.algorithms.wavelet import haar_forward, haar_inverse
from repro.core.plan import MeasurementPlan, measure_plan, reconstruct
from repro.data.synthetic import apply_sparsity

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

counts_1d = hnp.arrays(dtype=np.float64, shape=st.integers(1, 60),
                       elements=st.floats(0, 1000, allow_nan=False))
positive_1d = hnp.arrays(dtype=np.float64, shape=st.integers(2, 64),
                         elements=st.floats(0, 100, allow_nan=False))


@SETTINGS
@given(x=counts_1d, data=st.data())
def test_prefix_sum_matches_numpy_slice(x, data):
    lo = data.draw(st.integers(0, x.size - 1))
    hi = data.draw(st.integers(lo, x.size - 1))
    assert np.isclose(PrefixSum(x).range_sum((lo,), (hi,)), x[lo:hi + 1].sum())


@SETTINGS
@given(x=hnp.arrays(dtype=np.float64, shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
                    elements=st.floats(0, 100, allow_nan=False)),
       data=st.data())
def test_prefix_sum_2d_matches_numpy_slice(x, data):
    r0 = data.draw(st.integers(0, x.shape[0] - 1))
    r1 = data.draw(st.integers(r0, x.shape[0] - 1))
    c0 = data.draw(st.integers(0, x.shape[1] - 1))
    c1 = data.draw(st.integers(c0, x.shape[1] - 1))
    assert np.isclose(PrefixSum(x).range_sum((r0, c0), (r1, c1)),
                      x[r0:r1 + 1, c0:c1 + 1].sum())


@SETTINGS
@given(x=positive_1d, seed=st.integers(0, 2 ** 16))
def test_workload_evaluation_matches_matrix_product(x, seed):
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(10):
        lo, hi = sorted(rng.integers(0, x.size, size=2).tolist())
        queries.append(RangeQuery((int(lo),), (int(hi),)))
    workload = Workload(queries, (x.size,))
    assert np.allclose(workload.evaluate(x), workload.to_matrix() @ x)


@SETTINGS
@given(x=hnp.arrays(dtype=np.float64, shape=st.integers(1, 200),
                    elements=st.floats(-1000, 1000, allow_nan=False)))
def test_haar_roundtrip_is_identity(x):
    assert np.allclose(haar_inverse(haar_forward(x), x.size), x, atol=1e-6)


@SETTINGS
@given(x=hnp.arrays(dtype=np.float64,
                    shape=st.sampled_from([(4, 4), (8, 8), (16, 16), (3, 7)]),
                    elements=st.floats(0, 100, allow_nan=False)))
def test_reconstruct_inverts_plan_ordering(x):
    """Exact single-cell measurements of the flattened vector come back
    through ``reconstruct`` as the 2-D array, bitwise."""
    n = x.size
    ordering = hilbert_ordering_for(x.shape)
    cells = np.arange(n, dtype=np.intp)[:, None]
    plan = MeasurementPlan(QueryMatrix(cells, cells, (n,)), np.zeros(n),
                           x.shape, ordering=ordering,
                           values=x.ravel()[ordering], variances=np.ones(n))
    estimate = reconstruct(plan, measure_plan(x, plan, None))
    assert estimate.shape == x.shape
    assert estimate.tobytes() == x.tobytes()


@SETTINGS
@given(x=hnp.arrays(dtype=np.float64, shape=st.integers(2, 64),
                    elements=st.floats(0, 50, allow_nan=False)),
       noise=st.floats(0.1, 10.0), seed=st.integers(0, 2 ** 16))
def test_tree_least_squares_always_consistent(x, noise, seed):
    tree = HierarchicalTree((x.size,), branching=2)
    rng = np.random.default_rng(seed)
    measurements = tree.node_totals(x) + rng.laplace(0, noise, size=tree.n_nodes)
    variances = np.full(tree.n_nodes, 2 * noise ** 2)
    consistent = tree_least_squares(tree, measurements, variances)
    offsets = tree.child_offsets()
    for i in range(tree.n_nodes):
        first, last = int(offsets[i]), int(offsets[i + 1])
        if first < last:
            child_sum = consistent[first + 1:last + 1].sum()
            assert np.isclose(consistent[i], child_sum, atol=1e-6)


@SETTINGS
@given(values=hnp.arrays(dtype=np.float64, shape=st.integers(1, 80),
                         elements=st.floats(0, 100, allow_nan=False)),
       tolerance=st.floats(0, 20))
def test_greedy_clustering_partitions_all_indices(values, tolerance):
    clusters = greedy_value_clustering(np.sort(values), tolerance)
    indices = np.concatenate(clusters) if clusters else np.array([])
    assert sorted(indices.tolist()) == list(range(values.size))
    # Within a cluster, the spread never exceeds the tolerance.
    sorted_values = np.sort(values)
    for cluster in clusters:
        spread = sorted_values[cluster].max() - sorted_values[cluster].min()
        assert spread <= tolerance + 1e-9


@SETTINGS
@given(x=hnp.arrays(dtype=np.float64, shape=st.integers(1, 128),
                    elements=st.floats(0, 100, allow_nan=False)),
       penalty=st.floats(0.01, 100))
def test_dawa_partition_is_a_partition(x, penalty):
    buckets = l1_partition(x, penalty)
    assert buckets[0][0] == 0
    assert buckets[-1][1] == x.size
    for (a, b), (c, d) in zip(buckets[:-1], buckets[1:]):
        assert b == c
        assert a < b <= c < d


@SETTINGS
@given(x=hnp.arrays(dtype=np.float64, shape=st.integers(1, 200),
                    elements=st.floats(0, 1000, allow_nan=False)),
       penalty=st.floats(0.01, 100),
       noise_scale=st.floats(0, 50))
@example(x=np.zeros(130), penalty=0.1, noise_scale=0.0)       # all exact ties
@example(x=np.full(97, 3.7), penalty=25.0, noise_scale=5.0)   # uniform + de-bias
@example(x=np.repeat([0.0, 500.0, 0.0], 43), penalty=1.0, noise_scale=30.0)
def test_dawa_partition_fast_path_matches_reference(x, penalty, noise_scale):
    """The vectorised candidate-pruning DP is bitwise-identical to the
    reference double loop — including tie-heavy inputs where the noise
    de-biasing clamps bucket SSEs to exactly zero."""
    assert l1_partition(x, penalty, noise_scale=noise_scale) == \
        l1_partition_reference(x, penalty, noise_scale=noise_scale)


@SETTINGS
@given(x=hnp.arrays(dtype=np.float64, shape=st.integers(1, 120),
                    elements=st.floats(0, 200, allow_nan=False)),
       penalty=st.floats(0.05, 20), seed=st.integers(0, 2 ** 16))
def test_dawa_partition_fast_path_matches_reference_noisy(x, penalty, seed):
    """Equivalence on DAWA's actual stage-one inputs: counts plus Laplace
    noise of the declared scale (noisy values go negative, de-biasing is
    active)."""
    rng = np.random.default_rng(seed)
    scale = penalty * 2.0
    noisy = x + rng.laplace(0, scale, x.size)
    assert l1_partition(noisy, penalty, noise_scale=scale) == \
        l1_partition_reference(noisy, penalty, noise_scale=scale)


@SETTINGS
@given(counts=hnp.arrays(dtype=np.float64, shape=st.integers(2, 64),
                         elements=st.floats(0, 1000, allow_nan=False)),
       factor=st.integers(1, 4))
def test_dataset_coarsening_preserves_total(counts, factor):
    dataset = Dataset("h", counts)
    new_size = max(1, counts.size // factor)
    coarse = dataset.coarsen((new_size,))
    assert np.isclose(coarse.scale, dataset.scale)
    assert coarse.domain_size == new_size


@SETTINGS
@given(n=st.integers(2, 200), zero_fraction=st.floats(0, 0.95), seed=st.integers(0, 100))
def test_apply_sparsity_invariants(n, zero_fraction, seed):
    shape = np.random.default_rng(seed).random(n)
    shape /= shape.sum()
    sparse = apply_sparsity(shape, zero_fraction, rng=seed)
    assert np.isclose(sparse.sum(), 1.0)
    assert np.all(sparse >= 0)
    assert np.count_nonzero(sparse) >= 1


@SETTINGS
@given(truth=hnp.arrays(dtype=np.float64, shape=st.integers(1, 50),
                        elements=st.floats(-1e5, 1e5, allow_nan=False)),
       scale=st.floats(1, 1e6))
def test_scaled_error_is_zero_iff_exact(truth, scale):
    assert scaled_average_per_query_error(truth, truth, scale) == 0.0
    perturbed = truth + 1.0
    assert scaled_average_per_query_error(truth, perturbed, scale) > 0.0
