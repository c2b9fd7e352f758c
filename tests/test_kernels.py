"""The numpy kernels of :mod:`repro.core.kernels`: lookup, stream identity,
reference parity, and memory bounds.

The streaming tree solver must keep its transients bounded by the block size
even at 2**20 leaves, and blocking must not move a single bit.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from reference.dawa_partition import l1_partition_reference
from repro.algorithms import dawa, inference
from repro.algorithms.dawa import l1_partition
from repro.algorithms.inference import _inference_plan, tree_least_squares
from repro.algorithms.tree import HierarchicalTree
from repro.core import kernels
from repro.core.kernels import (
    TREE_BLOCK,
    active_backend,
    batched_laplace,
    get_kernel,
)
from repro.workload.prefix_sum import PrefixSum


# -- lookup -----------------------------------------------------------------------------

def _record_lookups(monkeypatch, module):
    """Wrap ``module.get_kernel`` the way ``perfbench/tracing.py`` does and
    return the list of kernel names it was asked for."""
    seen = []

    def recording(name):
        seen.append(name)
        return get_kernel(name)

    monkeypatch.setattr(module, "get_kernel", recording)
    return seen


class TestRegistry:
    def test_expected_kernels_registered(self):
        for name in ("l1_partition_core", "tree_two_pass", "batched_laplace"):
            assert callable(get_kernel(name))

    def test_numpy_reference_always_available(self):
        assert active_backend() == "numpy"
        assert get_kernel("l1_partition_core") is kernels._l1_partition_core
        assert get_kernel("tree_two_pass") is kernels._tree_two_pass
        assert get_kernel("batched_laplace") is kernels._batched_laplace

    def test_unknown_kernel_raises_with_names(self):
        with pytest.raises(KeyError, match="l1_partition_core"):
            get_kernel("no_such_kernel")

    @pytest.mark.parametrize("value", ["numpy", "numba", "cuda"])
    def test_environment_selects_no_backend(self, monkeypatch, value):
        """``DPBENCH_KERNEL`` is retired: no value changes the kernel used."""
        monkeypatch.setenv("DPBENCH_KERNEL", value)
        assert active_backend() == "numpy"
        assert get_kernel("tree_two_pass") is kernels._tree_two_pass

    def test_backend_registry_is_gone(self):
        for name in ("BACKENDS", "register_kernel", "available_backends",
                     "kernel_names", "requested_backend", "use_backend",
                     "numba_available"):
            assert not hasattr(kernels, name), name


# -- batched_laplace stream identity ---------------------------------------------------

class TestBatchedLaplace:
    def test_grouped_scales_match_vector_draw(self):
        scales = np.repeat([0.5, 2.0, 0.25], [100, 50, 200])
        batched = batched_laplace(np.random.default_rng(7), scales)
        vector = np.random.default_rng(7).laplace(0.0, scales)
        assert batched.tobytes() == vector.tobytes()

    def test_grouped_scales_match_per_query_loop(self):
        scales = np.repeat([1.0, 3.0], [64, 64])
        batched = batched_laplace(np.random.default_rng(11), scales)
        rng = np.random.default_rng(11)
        loop = np.array([rng.laplace(0.0, s) for s in scales])
        assert batched.tobytes() == loop.tobytes()

    def test_ungrouped_scales_fall_back_bitwise(self):
        scales = np.linspace(0.1, 5.0, 64)  # all-distinct: no run structure
        batched = batched_laplace(np.random.default_rng(3), scales)
        vector = np.random.default_rng(3).laplace(0.0, scales)
        assert batched.tobytes() == vector.tobytes()

    def test_generator_state_advances_identically(self):
        scales = np.repeat([0.5, 2.0], [32, 32])
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        batched_laplace(rng_a, scales)
        rng_b.laplace(0.0, scales)
        assert rng_a.normal() == rng_b.normal()

    def test_empty(self):
        out = batched_laplace(np.random.default_rng(0), np.zeros(0))
        assert out.shape == (0,)


# -- l1_partition_core vs the reference DP ---------------------------------------------

def _l1_inputs(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "structured":
        x = np.repeat(rng.integers(0, 200, n // 16).astype(float), 16)
        return x + rng.laplace(0.0, 2.0, n)
    # Noise-dominated: tiny counts under large noise — pruning barely bites,
    # the survivor scan degenerates to its O(n log n) worst case.
    return rng.integers(0, 3, n).astype(float) + rng.laplace(0.0, 50.0, n)


class TestL1PartitionCore:
    @pytest.mark.parametrize("kind", ["structured", "noise"])
    def test_numpy_backend_matches_reference(self, kind):
        noisy = _l1_inputs(kind, 512, seed=1)
        assert l1_partition(noisy, 2.0) == l1_partition_reference(noisy, 2.0)

    @pytest.mark.parametrize("kind", ["structured", "noise"])
    def test_matches_reference_with_noise_scale(self, kind):
        noisy = _l1_inputs(kind, 512, seed=42)
        assert (l1_partition(noisy, 2.0, noise_scale=4.0)
                == l1_partition_reference(noisy, 2.0, noise_scale=4.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 100])
    def test_small_and_ragged_domains_match_reference(self, n):
        noisy = _l1_inputs("noise", n, seed=n)
        assert l1_partition(noisy, 2.0) == l1_partition_reference(noisy, 2.0)

    @pytest.mark.parametrize("shape", ["constant", "spike", "step"])
    def test_degenerate_histograms_match_reference(self, shape):
        x = np.full(256, 10.0)
        if shape == "spike":
            x[97] = 1e4
        elif shape == "step":
            x[128:] = 500.0
        assert l1_partition(x, 2.0) == l1_partition_reference(x, 2.0)

    def test_dispatch_used_by_l1_partition(self, monkeypatch):
        seen = _record_lookups(monkeypatch, dawa)
        l1_partition(_l1_inputs("structured", 64, seed=3), 2.0)
        assert seen == ["l1_partition_core"]


# -- tree_two_pass ---------------------------------------------------------------------

def _random_tree_case(seed: int, branching: int, n_leaves: int,
                      unmeasured_frac: float = 0.0):
    tree = HierarchicalTree((n_leaves,), branching=branching)
    rng = np.random.default_rng(seed)
    n_nodes = len(tree.nodes)
    measurements = rng.normal(100.0, 30.0, n_nodes)
    variances = rng.uniform(0.5, 8.0, n_nodes)
    if unmeasured_frac:
        drop = rng.random(n_nodes) < unmeasured_frac
        drop[0] = False  # keep the root measured
        measurements[drop] = np.nan
        variances[drop] = np.inf
    return tree, measurements, variances


_WIDE_AND_RAGGED = [
    (2, 64, 0.0),
    (2, 100, 0.3),   # ragged tree, unmeasured interior
    (4, 256, 0.0),
    (9, 243, 0.2),
    (16, 256, 0.0),
]


class TestTreeTwoPass:
    @pytest.mark.parametrize("branching,n_leaves,frac", _WIDE_AND_RAGGED)
    def test_wide_trees_block_invariant(self, branching, n_leaves, frac):
        """Blocks of one row and of seven rows give the unblocked result
        bitwise at every branching factor, ragged levels included."""
        tree, meas, var = _random_tree_case(17, branching, n_leaves, frac)
        plan = _inference_plan(tree)
        own_values = np.where(np.isfinite(meas), meas, 0.0)
        own_vars = np.where(np.isfinite(meas), var, np.inf)
        ref = kernels._tree_two_pass(plan, own_values, own_vars)
        for block in (1, 7):
            got = kernels._tree_two_pass(plan, own_values, own_vars,
                                         block=block)
            assert got.tobytes() == ref.tobytes()

    def test_blocking_is_bitwise_invariant(self):
        """Tiny blocks chunk every level many times; results must not move."""
        tree, meas, var = _random_tree_case(23, 2, 512, 0.25)
        plan = _inference_plan(tree)
        own_values = np.where(np.isfinite(meas), meas, 0.0)
        own_vars = np.where(np.isfinite(meas), var, np.inf)
        ref = kernels._tree_two_pass(plan, own_values, own_vars)
        tiny = kernels._tree_two_pass(plan, own_values, own_vars, block=7)
        assert tiny.tobytes() == ref.tobytes()

    def test_dispatch_used_by_tree_least_squares(self, monkeypatch):
        seen = _record_lookups(monkeypatch, inference)
        tree, meas, var = _random_tree_case(29, 2, 64)
        out = tree_least_squares(tree, meas, var)
        assert seen == ["tree_two_pass"]
        # Consistency: every parent equals the sum of its children.
        for node in tree.nodes:
            if node.children:
                assert out[node.index] == pytest.approx(
                    sum(out[c] for c in node.children), rel=1e-9)


# -- streaming memory bounds -----------------------------------------------------------

def _complete_binary_plan(depth: int):
    """Heap-ordered complete binary tree: level ``d`` parents are
    ``[2**d - 1, 2**(d+1) - 1)`` with children ``2p+1, 2p+2``."""
    groups = []
    for d in range(depth):
        parents = np.arange(2**d - 1, 2**(d + 1) - 1, dtype=np.intp)
        children = np.stack([2 * parents + 1, 2 * parents + 2], axis=1)
        groups.append((parents, children))
    return groups


class TestStreamingMemory:
    def test_million_leaf_solve_stays_within_block_bound(self):
        """A 2**20-leaf binary-tree GLS must allocate no per-level dense
        intermediate beyond the block: peak traced memory is the O(n) solver
        state plus a block-sized allowance.  (The plan is built heap-style
        here — building 2M python TreeNode objects is what this kernel
        design avoids having to do in the hot path.)"""
        depth = 20
        n_nodes = 2**(depth + 1) - 1
        groups = _complete_binary_plan(depth)
        rng = np.random.default_rng(41)
        own_values = rng.normal(0.0, 10.0, n_nodes)
        own_vars = np.full(n_nodes, 4.0)
        solve = kernels._tree_two_pass

        tracemalloc.start()
        out = solve(groups, own_values, own_vars)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        state_bytes = 3 * n_nodes * 8          # combined, combined_var, final
        block_allowance = 64 * TREE_BLOCK * 8  # ~16 MiB of block transients
        assert out.shape == (n_nodes,)
        assert peak <= state_bytes + block_allowance, (
            f"peak {peak / 1e6:.1f} MB exceeds state "
            f"{state_bytes / 1e6:.1f} MB + block allowance "
            f"{block_allowance / 1e6:.1f} MB — a per-level dense "
            f"intermediate leaked past the streaming block")
        # An unblocked widest level alone gathers ~40 MB of transients; the
        # bound above would catch that regression.

    def test_hilbert_order_memory_bound_at_1024(self):
        from repro.algorithms.hilbert import hilbert_order

        side = 1024
        tracemalloc.start()
        order = hilbert_order(side)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Output is side**2 * 8 bytes ~ 8.4 MB; chunked uint32 temporaries add
        # ~9 MB.  The historical whole-vector int64 builder peaked ~61 MB.
        assert peak <= 24 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"
        # Still a valid space-filling-curve permutation.
        assert order.shape == (side * side,)
        assert np.array_equal(np.sort(order), np.arange(side * side))


# -- PrefixSum precision at million-cell scale -----------------------------------------

class TestPrefixSumPrecision:
    def test_integer_counts_exact_at_2_20(self):
        rng = np.random.default_rng(13)
        x = rng.integers(0, 1000, 2**20)
        ps = PrefixSum(x.astype(np.float32))  # narrow input must be promoted
        assert ps._table.dtype == np.float64
        exact = int(x.sum())
        assert ps.range_sum((0,), (2**20 - 1,)) == float(exact)

    def test_fractional_error_within_documented_bound(self):
        n = 2**20
        x = np.full(n, 0.1)
        ps = PrefixSum(x)
        exact = n * 0.1
        bound = (n - 1) * 2.0**-53 * n * 0.1
        assert abs(ps.range_sum((0,), (n - 1,)) - exact) <= bound

    def test_2d_million_cell_corner_exact(self):
        x = np.ones((1024, 1024), dtype=np.int64)
        ps = PrefixSum(x)
        assert ps.range_sum((0, 0), (1023, 1023)) == float(2**20)
        assert ps.range_sum((512, 512), (1023, 1023)) == float(512 * 512)
