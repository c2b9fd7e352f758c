"""The plan pipeline's whole-array structural stages against their
historical loops (``tests/reference/``).

* partition bucket totals and other segment sums: grouped row sums vs one
  slice sum per segment;
* Hilbert workload flattening: a bounds-array workload vs one
  ``RangeQuery`` per span;
* single-cell plans (Identity, AHP, PHP): answers gathered at the flat cell
  indices, exact for counts whose totals pass 2**53, and disjointness read
  off the distinct indices, choosing the solver the ``cell_counts`` rule
  chooses, with bitwise-equal output.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.plan as plan_module
from reference.bucket_sums import bucket_sums_reference
from reference.flatten_workload import flatten_workload_reference
from reference.plan_reconstruct import reconstruct_reference
from repro import ALGORITHM_REGISTRY, make_algorithm
from repro.algorithms.base import PlanAlgorithm
from repro.algorithms.hilbert import flatten_workload, hilbert_ordering_for
from repro.core.plan import MeasurementPlan, measure_plan, reconstruct
from repro.workload import QueryMatrix, prefix_workload, random_range_workload

PLAN_NAMES = sorted(name for name, cls in ALGORITHM_REGISTRY.items()
                    if issubclass(cls, PlanAlgorithm))


def _generator(seed: int) -> np.random.Generator:
    # Oracle comparisons replay one pinned seed through two paths.
    return np.random.default_rng(seed)  # privlint: disable=PL001


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


# -- partition bucket totals -------------------------------------------------------


def _random_edges(rng, n: int, n_buckets: int) -> np.ndarray:
    cuts = rng.choice(np.arange(1, n), size=min(n_buckets, n - 1) - 1,
                      replace=False)
    return np.concatenate([[0], np.sort(cuts), [n]]).astype(np.intp)


def _plan_sums(vector: np.ndarray, edges: np.ndarray,
               ordering: np.ndarray | None = None) -> np.ndarray:
    n_buckets = edges.size - 1
    buckets = np.arange(n_buckets, dtype=np.intp)[:, None]
    plan = MeasurementPlan(QueryMatrix(buckets, buckets, (n_buckets,)),
                           np.ones(n_buckets), (vector.size,),
                           ordering=ordering, partition=edges)
    return plan.measurement_vector(vector)


@pytest.mark.parametrize("seed", range(6))
def test_bucket_sums_match_per_bucket_loop(seed):
    rng = _generator(seed)
    n = int(rng.integers(2_000, 40_000))
    vector = (rng.random(n) - 0.5) * 10.0 ** rng.integers(-3, 7, n)
    edges = _random_edges(rng, n, int(rng.integers(2, 300)))
    assert _bits(_plan_sums(vector, edges)) \
        == _bits(bucket_sums_reference(vector, edges))


def test_bucket_sums_cover_widths_from_one_past_the_buffer_size():
    """Widths 1..8 (the sequential tail of pairwise summation), 9..128
    (one unrolled block), past 128 (recursive halving), past numpy's
    8192-element buffer and past the gather cap (summed in place), plus
    enough narrow buckets that one width is gathered in several chunks."""
    rng = _generator(11)
    cap = plan_module._GATHER_CELLS
    widths = np.concatenate([
        [1, 1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 1000,
         8191, 8192, 8193, 8200, 20_000, 3, 1, 8192, cap, cap + 1, 2 * cap],
        rng.integers(1, 4, 3 * cap)])
    rng.shuffle(widths)
    edges = np.concatenate([[0], np.cumsum(widths)]).astype(np.intp)
    n = int(edges[-1])
    vector = (rng.random(n) - 0.5) * 10.0 ** rng.integers(-3, 9, n)
    assert _bits(_plan_sums(vector, edges)) \
        == _bits(bucket_sums_reference(vector, edges))


def test_bucket_sums_of_an_ordering_permuted_vector():
    rng = _generator(12)
    n = 30_000
    x = (rng.random(n) - 0.5) * 10.0 ** rng.integers(-3, 7, n)
    ordering = rng.permutation(n).astype(np.intp)
    edges = _random_edges(rng, n, 400)
    assert _bits(_plan_sums(x, edges, ordering)) \
        == _bits(bucket_sums_reference(x[ordering], edges))


def test_segment_sums_of_gapped_segments():
    """SF and AGrid sum segments that skip rows between them (SF's bucket
    totals sit before each bucket's cells): every segment's slice sum,
    bitwise, whatever the gaps, plus no segments at all."""
    rng = _generator(13)
    widths = rng.integers(1, 40, 3_000)
    gaps = rng.integers(0, 3, widths.size)
    ends = np.cumsum(widths + gaps)
    starts = ends - widths
    values = (rng.random(int(ends[-1])) - 0.5) * 10.0 ** rng.integers(-3, 7, int(ends[-1]))
    expected = np.array([values[s:e].sum() for s, e in zip(starts, ends)])
    assert _bits(plan_module.segment_sums(values, starts, widths)) == _bits(expected)
    assert plan_module.segment_sums(values, starts[:0], widths[:0]).shape == (0,)


@pytest.mark.parametrize("n", [1, 7, 9000, 65_536, 70_000])
def test_one_bucket_spanning_the_whole_domain(n):
    x = _generator(n).random(n) * 1e3
    edges = np.array([0, n], dtype=np.intp)
    got = _plan_sums(x, edges)
    assert got.shape == (1,)
    assert _bits(got) == _bits(bucket_sums_reference(x, edges))
    assert got[0] == x.sum()


# -- Hilbert workload flattening ----------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 5), (13, 7),
                                   (8, 12), (16, 16), (64, 64), (128, 128)])
def test_flattened_workload_matches_range_query_oracle(shape):
    workload = random_range_workload(shape, 300, rng=_generator(5))
    got = flatten_workload(workload, shape)
    want = flatten_workload_reference(workload, hilbert_ordering_for(shape),
                                      shape)
    assert got.name == want.name == f"{workload.name}|flattened"
    assert got.domain_shape == want.domain_shape == (shape[0] * shape[1],)
    for attr in ("los", "his"):
        a, b = getattr(got.operator, attr), getattr(want.operator, attr)
        assert a.dtype == b.dtype and _bits(a) == _bits(b)
    # The lazily materialised query view equals the oracle's query objects.
    assert list(got) == list(want)


# -- single-cell plans: exact answers ----------------------------------------------


@pytest.fixture
def noiseless(monkeypatch):
    """The noise stage with zero noise: its values are its answers."""
    monkeypatch.setattr(plan_module, "batched_laplace",
                        lambda rng, scales: np.zeros(np.size(scales)))


def _huge_counts(shape) -> np.ndarray:
    # Integer counts up to 1e12: totals far beyond 2**53, so prefix-sum
    # differences lose the low bits.
    return _generator(1).integers(0, 10 ** 12, shape).astype(float)


@pytest.mark.parametrize("shape", [(1024, 1024), (1 << 20,)])
def test_identity_answers_are_exact_above_2_53(noiseless, shape):
    x = _huge_counts(shape)
    _, measured = make_algorithm("Identity").plan_and_measure(
        x, 1.0, rng=_generator(2))
    assert np.count_nonzero(measured.values != x.ravel()) == 0


@pytest.mark.parametrize("name, shape", [("AHP", (256, 256)),
                                         ("AHP", (1 << 16,)),
                                         ("PHP", (1 << 16,))])
def test_bucket_domain_answers_are_exact_above_2_53(noiseless, name, shape):
    x = _huge_counts(shape)
    plan, measured = make_algorithm(name).plan_and_measure(
        x, 1.0, rng=_generator(2))
    cells = x.ravel() if plan.ordering is None else x.ravel()[plan.ordering]
    want = bucket_sums_reference(cells, plan.partition)[plan.queries.los[:, 0]]
    assert np.count_nonzero(measured.values != want) == 0


# -- single-cell plans: derived disjointness ----------------------------------------


def _traced_reconstruct(monkeypatch, plan, measurements):
    """``reconstruct`` plus the solver it took: ``disjoint`` when it
    scattered, else ``tree`` or ``lsmr`` by ``solve_gls``'s own rule."""
    paths = []
    scatter, solve = plan_module._disjoint_estimate, plan_module.solve_gls

    def traced_scatter(*args, **kwargs):
        paths.append("disjoint")
        return scatter(*args, **kwargs)

    def traced_solve(measured, *args, **kwargs):
        paths.append("tree" if measured.tree is not None else "lsmr")
        return solve(measured, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(plan_module, "_disjoint_estimate", traced_scatter)
        patch.setattr(plan_module, "solve_gls", traced_solve)
        estimate = reconstruct(plan, measurements)
    assert len(paths) == 1
    return estimate, paths[0]


def _study_inputs(shape):
    rng = _generator(int(np.prod(shape)))
    size = int(np.prod(shape))
    x = rng.multinomial(40 * size, rng.dirichlet(np.ones(size))) \
        .astype(float).reshape(shape)
    if len(shape) == 1:
        return x, prefix_workload(shape[0])
    return x, random_range_workload(shape, 40, rng=rng)


SHAPES = {"1d": (64,), "2d": (8, 8), "1xN": (1, 16)}
CASES = [(name, label) for name in PLAN_NAMES for label, shape in SHAPES.items()
         if len(shape) in ALGORITHM_REGISTRY[name].properties.supported_dims]


def _reconstruct_both_ways(monkeypatch, name, shape):
    x, workload = _study_inputs(shape)
    plan, measurements = make_algorithm(name).plan_and_measure(
        x, 0.5, rng=_generator(9), workload=workload)
    got, path = _traced_reconstruct(monkeypatch, plan, measurements)
    want, want_path = reconstruct_reference(plan, measurements)
    assert path == want_path
    assert got.shape == want.shape and _bits(got) == _bits(want)
    return path


@pytest.mark.parametrize("name, label", CASES)
def test_reconstruct_takes_the_cell_counts_solver(monkeypatch, name, label):
    _reconstruct_both_ways(monkeypatch, name, SHAPES[label])


@pytest.mark.parametrize("name, label, path", [
    ("Identity", "2d", "disjoint"),    # single cells
    ("PHP", "1d", "disjoint"),         # single cells over buckets
    ("UGrid", "2d", "disjoint"),       # rectangles: the cell-count rule
    ("H", "1d", "tree"),
    ("MWEM", "1d", "lsmr"),
])
def test_parity_sweep_covers_every_solver(monkeypatch, name, label, path):
    assert _reconstruct_both_ways(monkeypatch, name, SHAPES[label]) == path


def test_single_cell_sets_scatter_only_when_distinct(monkeypatch):
    """A repeated cell keeps the single-cell set off the scatter, like a
    cell count of 2 does; 2-D single cells scatter by flat index."""
    shape = (3, 4)
    cells = np.array([(r, c) for r in range(3) for c in range(4)])
    for rows, want_path in ((cells, "disjoint"),
                            (cells[::2], "disjoint"),
                            (np.vstack([cells, cells[:1]]), "lsmr")):
        queries = QueryMatrix(rows, rows, shape)
        plan = MeasurementPlan(queries, np.full(len(rows), 2.0), shape)
        measurements = measure_plan(np.arange(12.0).reshape(shape), plan,
                                    _generator(4))
        got, path = _traced_reconstruct(monkeypatch, plan, measurements)
        want, ref_path = reconstruct_reference(plan, measurements)
        assert path == ref_path == want_path
        assert _bits(got) == _bits(want)
