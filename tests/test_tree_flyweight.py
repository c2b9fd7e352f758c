"""The flyweight array-backed tree against its executable specification.

:class:`~repro.algorithms.tree.HierarchicalTree` stores the hierarchy as
structure-of-arrays (bounds, levels, parents, CSR child offsets) built by a
vectorised level-at-a-time pass.  The historical per-node breadth-first
builder is retained in ``tests/reference/tree_nodes.py``;
these tests pin the two node-for-node — bounds, levels, parent/child
topology, leaf order — across randomly drawn shapes, branching factors,
height caps and kd split schedules, and check the construction-cost
contracts the benchmark relies on (O(nodes) memory, vectorised speed,
int64 overflow guards at 16M+ cell domains).
"""

import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference.tree_nodes import build_reference_nodes
from repro.algorithms.tree import HierarchicalTree

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def assert_trees_identical(tree: HierarchicalTree, reference) -> None:
    assert tree.n_nodes == len(reference)
    levels = tree.node_levels()
    parents = tree.node_parents()
    offsets = tree.child_offsets()
    sizes = tree.node_sizes()
    lo, hi = tree.node_bounds()
    for i, ref in enumerate(reference):
        assert tuple(int(v) for v in lo[i]) == ref.lo
        assert tuple(int(v) for v in hi[i]) == ref.hi
        assert int(levels[i]) == ref.level
        assert int(parents[i]) == (ref.parent if ref.parent is not None else -1)
        a, b = int(offsets[i]), int(offsets[i + 1])
        assert list(range(a + 1, b + 1)) == ref.children
        assert int(sizes[i]) == ref.size
    ref_leaves = [i for i, n in enumerate(reference) if not n.children]
    assert tree.leaf_indices().tolist() == ref_leaves


@SETTINGS
@given(n=st.integers(1, 200), branching=st.integers(2, 6),
       max_height=st.one_of(st.none(), st.integers(0, 6)))
def test_flyweight_matches_reference_1d(n, branching, max_height):
    tree = HierarchicalTree((n,), branching=branching, max_height=max_height)
    reference = build_reference_nodes((n,), branching=branching,
                                      max_height=max_height)
    assert_trees_identical(tree, reference)


@SETTINGS
@given(rows=st.integers(1, 40), cols=st.integers(1, 40),
       branching=st.integers(2, 6),
       max_height=st.one_of(st.none(), st.integers(0, 5)))
def test_flyweight_matches_reference_2d(rows, cols, branching, max_height):
    tree = HierarchicalTree((rows, cols), branching=branching,
                            max_height=max_height)
    reference = build_reference_nodes((rows, cols), branching=branching,
                                      max_height=max_height)
    assert_trees_identical(tree, reference)


@SETTINGS
@given(rows=st.integers(1, 32), cols=st.integers(1, 32),
       branching=st.integers(2, 4),
       schedule=st.lists(st.integers(0, 1), min_size=1, max_size=4))
def test_flyweight_matches_reference_kd_schedule(rows, cols, branching,
                                                 schedule):
    split_axes = tuple(schedule)
    tree = HierarchicalTree((rows, cols), branching=branching,
                            split_axes=split_axes)
    reference = build_reference_nodes((rows, cols), branching=branching,
                                      split_axes=split_axes)
    assert_trees_identical(tree, reference)


def test_levels_are_contiguous_index_runs():
    tree = HierarchicalTree((2**10,))
    spans = tree.level_spans()
    levels = tree.node_levels()
    for lvl in range(tree.n_levels):
        s, e = int(spans[lvl]), int(spans[lvl + 1])
        assert (levels[s:e] == lvl).all()
    assert int(spans[-1]) == tree.n_nodes


def test_children_are_contiguous_runs_after_parent_offset():
    tree = HierarchicalTree((37, 21), branching=3)
    offsets = tree.child_offsets()
    parents = tree.node_parents()
    # BFS emission order: the child lists enumerate every non-root node in
    # index order, so child runs are offsets[i]+1 .. offsets[i+1].
    assert int(offsets[0]) == 0 and int(offsets[-1]) == tree.n_nodes - 1
    for i in range(tree.n_nodes):
        for c in range(int(offsets[i]) + 1, int(offsets[i + 1]) + 1):
            assert int(parents[c]) == i


# -- construction-cost contracts -------------------------------------------------

def test_construction_memory_is_linear_in_nodes():
    # The vectorised builder must not materialise per-node Python objects:
    # peak traced allocation stays within a small constant per node (the
    # SoA arrays are 24-40 bytes/node; level-local temporaries add a bounded
    # multiple) at both a 1-D and a 2-D six-figure-node domain.
    for shape in [(2**17,), (512, 512)]:
        tracemalloc.start()
        tree = HierarchicalTree(shape)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 300 * tree.n_nodes, (
            f"peak {peak} bytes for {tree.n_nodes} nodes at {shape}")


def test_construction_speedup_over_reference():
    # CI gate from the flyweight rewrite: vectorised construction must be at
    # least 5x faster than the retained per-node reference builder.  The
    # comparison uses a domain small enough for the reference to run in a
    # few seconds yet large enough (128k+ nodes) to be allocation-bound.
    n = 2**17
    t0 = time.perf_counter()
    HierarchicalTree((n,))
    flyweight = time.perf_counter() - t0
    t0 = time.perf_counter()
    build_reference_nodes((n,))
    reference = time.perf_counter() - t0
    assert reference >= 5.0 * flyweight, (
        f"flyweight {flyweight:.3f}s vs reference {reference:.3f}s "
        f"({reference / max(flyweight, 1e-9):.1f}x)")


def test_overflow_guard_rejects_huge_domains():
    with pytest.raises(ValueError, match="overflows"):
        HierarchicalTree((2**31, 2**31))
    with pytest.raises(ValueError, match="overflows"):
        HierarchicalTree((2**62,))


def test_node_sizes_exact_at_sixty_bit_scale():
    # Bounds and sizes stay exact int64 right up to the guard: a 2^60-cell
    # domain capped at height 1 must report exact powers of two.
    tree = HierarchicalTree((2**30, 2**30), max_height=1)
    sizes = tree.node_sizes()
    assert int(sizes[0]) == 2**60
    assert int(sizes[1:].sum()) == 2**60
    lo, hi = tree.node_bounds()
    assert int(hi[0, 0]) == 2**30 - 1


def test_sixteen_million_cell_tree_constructs():
    # The benchmark's 4096^2-scale contract in miniature: a millions-of-cells
    # domain builds through the vectorised path and exposes exact totals.
    tree = HierarchicalTree((2**20,))
    assert tree.n_nodes == 2**21 - 1
    assert int(tree.node_sizes()[0]) == 2**20
    assert tree.leaf_indices().size == 2**20
