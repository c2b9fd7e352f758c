"""Micro-benchmark: dense vs sparse measurement/inference paths, plus the
workload-aware selection quality gate.

Two hot paths were rebased onto the sparse :class:`repro.QueryMatrix`
operator in the measurement/inference refactor:

* **MWEM's round loop** — the textbook implementation materialises the dense
  query matrix (answers via ``W @ x`` per round) and a dense per-query mask
  for every multiplicative-weights update; the sparse loop updates answers
  incrementally from range overlaps and touches only the chosen range.
  The pre-refactor middle ground (prefix-sum evaluation per round, dense
  masks) is also reported for context.
* **GLS inference** — consistency post-processing solved densely with
  ``np.linalg.lstsq`` versus the exact two-pass tree path and the matrix-free
  LSMR solver.
* **DAWA's L1 partition** — the stage-one dynamic program as a plain double
  loop (the cross-validated reference) versus the vectorised
  candidate-pruning path, on the input DAWA actually feeds it: noisy counts
  with a known Laplace scale.
* **the Hilbert curve builder** — the historical pure-Python ``_d2xy`` loop
  (O(n) interpreter iterations, a million at 1024 x 1024) versus the
  vectorised bit-twiddling, pinned bitwise-identical.
* **SF's boundary search** — the per-round rebuild of every segment's
  candidate gains (O(k^2) interpreter iterations for k buckets) versus
  incremental gains refilled only where the chosen cut lands.
* **AGrid's noise** — one scalar Laplace draw per coarse block and fine
  cell versus one draw-ahead buffer and one batched replay.

The historical loops of the last two live in ``tests/reference/``.  Every
reference path is pinned bitwise-identical to the fast one.

The selection-quality benches exercise the plan pipeline's seam: GreedyW's
greedy workload-aware measurement selection must beat Identity (and GreedyH)
on a skewed point-heavy 1-D workload at fixed epsilon, and its *native* 2-D
selection must beat both the Hilbert-span variant it replaces and GreedyH on
the paper's 64 x 64 random-range benchmark workload.

Run with ``python -m pytest benchmarks/bench_inference_speed.py -q``.
``DPBENCH_SMOKE=1`` shrinks round counts and the dense-solve domain so the
bench finishes in seconds on CI; the MWEM, DAWA and SF domains stay at 4096
(and AGrid's at 64 x 64) because their speedups over the baselines are
acceptance criteria.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _shared import format_table, report, run_once
from repro import MWEM, prefix_workload
from repro.algorithms.hier import measure_tree
from repro.algorithms.mechanisms import exponential_mechanism, laplace_noise
from repro.algorithms.mwem import _query_mask, multiplicative_weights_update
from repro.algorithms.tree import HierarchicalTree
from repro.core.gls import solve_gls

SMOKE = os.environ.get("DPBENCH_SMOKE", "0") not in ("", "0")

MWEM_DOMAIN = 4096
MWEM_ROUNDS = 10 if SMOKE else 50
GLS_DENSE_DOMAIN = 512 if SMOKE else 1024
GLS_SPARSE_DOMAIN = 4096
DAWA_DOMAIN = 4096


def _mwem_data(n: int):
    rng = np.random.default_rng(20160626)
    x = rng.multinomial(100_000, rng.dirichlet(np.ones(n))).astype(float)
    workload = prefix_workload(n)
    workload.operator.to_sparse()          # warm the cached operator
    return x, workload


def _dense_matrix_mwem(x, epsilon, workload, rng, rounds, scale):
    """The textbook dense path: answers via the materialised query matrix."""
    matrix = workload.to_matrix()
    estimate = np.full(x.shape, scale / x.size)
    average = np.zeros(x.shape)
    true_answers = matrix @ x.ravel()
    eps_round = epsilon / rounds
    for _ in range(rounds):
        approx = matrix @ estimate.ravel()
        errors = np.abs(true_answers - approx)
        chosen = exponential_mechanism(errors, eps_round / 2.0, sensitivity=1.0, rng=rng)
        measured = true_answers[chosen] + float(laplace_noise(2.0 / eps_round, (), rng))
        mask = _query_mask(workload[chosen], x.shape)
        estimate = multiplicative_weights_update(estimate, mask, measured, scale)
        average += estimate
    return average / rounds


def _prefix_mask_mwem(x, epsilon, workload, rng, rounds, scale):
    """The pre-refactor path: prefix-sum evaluation, dense update masks."""
    estimate = np.full(x.shape, scale / x.size)
    average = np.zeros(x.shape)
    true_answers = workload.evaluate(x)
    eps_round = epsilon / rounds
    for _ in range(rounds):
        approx = workload.evaluate(estimate)
        errors = np.abs(true_answers - approx)
        chosen = exponential_mechanism(errors, eps_round / 2.0, sensitivity=1.0, rng=rng)
        measured = true_answers[chosen] + float(laplace_noise(2.0 / eps_round, (), rng))
        mask = _query_mask(workload[chosen], x.shape)
        estimate = multiplicative_weights_update(estimate, mask, measured, scale)
        average += estimate
    return average / rounds


def _time(fn, repeats: int = 3) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_mwem_sparse_vs_dense(benchmark):
    def study():
        x, workload = _mwem_data(MWEM_DOMAIN)
        scale = float(x.sum())
        epsilon = 1.0
        MWEM(rounds=2).run(x, epsilon, workload=workload, rng=0)   # warm-up

        t_dense, y_dense = _time(lambda: _dense_matrix_mwem(
            x, epsilon, workload, np.random.default_rng(7), MWEM_ROUNDS, scale), repeats=1)
        t_prefix, y_prefix = _time(lambda: _prefix_mask_mwem(
            x, epsilon, workload, np.random.default_rng(7), MWEM_ROUNDS, scale))
        t_sparse, y_sparse = _time(lambda: MWEM(rounds=MWEM_ROUNDS).run(
            x, epsilon, workload=workload, rng=np.random.default_rng(7)))

        assert np.allclose(y_sparse, y_dense, rtol=1e-8, atol=1e-8)
        assert np.allclose(y_sparse, y_prefix, rtol=1e-8, atol=1e-8)
        rows = [
            {"path": "dense matrix (W @ x per round)", "seconds": t_dense,
             "speedup": 1.0},
            {"path": "prefix eval + dense mask (pre-refactor)", "seconds": t_prefix,
             "speedup": t_dense / t_prefix},
            {"path": "sparse operator (incremental answers)", "seconds": t_sparse,
             "speedup": t_dense / t_sparse},
        ]
        return rows, t_dense / t_sparse

    rows, speedup = run_once(benchmark, study)
    report("bench_mwem_speed",
           f"MWEM round-loop paths (domain {MWEM_DOMAIN}, {MWEM_ROUNDS} rounds)",
           format_table(rows, floatfmt="{:.4f}"))
    assert speedup >= 5.0, f"sparse MWEM only {speedup:.1f}x over the dense baseline"


def test_gls_sparse_vs_dense(benchmark):
    def study():
        rows = []
        rng = np.random.default_rng(0)

        # Dense-feasible domain: all three solvers against np.linalg.lstsq.
        n = GLS_DENSE_DOMAIN
        tree = HierarchicalTree((n,), branching=2)
        x = rng.multinomial(50_000, rng.dirichlet(np.ones(n))).astype(float)
        mset = measure_tree(x, tree, np.full(tree.n_levels, 0.1), rng)

        measured = mset.measured()
        scales = 1.0 / np.sqrt(measured.variances)
        design = measured.queries.to_dense() * scales[:, None]
        target = measured.values * scales
        t_dense, y_dense = _time(
            lambda: np.linalg.lstsq(design, target, rcond=None)[0], repeats=1)
        t_tree, y_tree = _time(lambda: solve_gls(mset, method="tree"))
        t_lsmr, y_lsmr = _time(lambda: solve_gls(mset, method="lsmr"))
        t_normal, y_normal = _time(lambda: solve_gls(mset, method="normal"))
        for y in (y_tree, y_lsmr, y_normal):
            assert np.abs(y - y_dense).max() / max(1.0, np.abs(y_dense).max()) < 1e-8
        rows += [
            {"solver": f"dense lstsq (n={n})", "seconds": t_dense, "speedup": 1.0},
            {"solver": f"tree two-pass (n={n})", "seconds": t_tree,
             "speedup": t_dense / t_tree},
            {"solver": f"sparse LSMR (n={n})", "seconds": t_lsmr,
             "speedup": t_dense / t_lsmr},
            {"solver": f"sparse normal eqs (n={n})", "seconds": t_normal,
             "speedup": t_dense / t_normal},
        ]

        # Large domain: the sparse paths keep working where dense cannot.
        n = GLS_SPARSE_DOMAIN
        tree = HierarchicalTree((n,), branching=2)
        x = rng.multinomial(500_000, rng.dirichlet(np.ones(n))).astype(float)
        mset = measure_tree(x, tree, np.full(tree.n_levels, 0.1), rng)
        t_tree, y_tree = _time(lambda: solve_gls(mset, method="tree"))
        t_lsmr, y_lsmr = _time(lambda: solve_gls(mset, method="lsmr"))
        assert np.abs(y_tree - y_lsmr).max() / max(1.0, np.abs(y_tree).max()) < 1e-8
        rows += [
            {"solver": f"tree two-pass (n={n})", "seconds": t_tree, "speedup": float("nan")},
            {"solver": f"sparse LSMR (n={n})", "seconds": t_lsmr, "speedup": float("nan")},
        ]
        return rows, rows[1]["speedup"]

    rows, tree_speedup = run_once(benchmark, study)
    report("bench_gls_speed", "GLS inference paths (dense vs sparse)",
           format_table(rows, floatfmt="{:.4f}"))
    assert tree_speedup >= 5.0, \
        f"tree fast path only {tree_speedup:.1f}x over dense lstsq"


def test_dawa_partition_speed(benchmark):
    """DAWA stage-one L1 partition: vectorised pruning path vs reference loop.

    The input is what DAWA always feeds the partition search — counts
    perturbed with Laplace noise of a known scale — for a scale-100k 1-D run.
    The dominance pruning bites when the noisy data retains structure, so the
    gate is enforced at epsilon 1.0 (the top of the paper's range); the
    noise-dominated low-epsilon regime (0.05), where almost every candidate
    survives pruning and the win reduces to the cheaper exact inner loop, is
    reported alongside without a gate.
    """
    from reference.dawa_partition import l1_partition_reference
    from repro.algorithms.dawa import l1_partition

    def study():
        rng = np.random.default_rng(20160626)
        n = DAWA_DOMAIN
        x = rng.multinomial(100_000, rng.dirichlet(np.ones(n))).astype(float)
        rows, gated_speedup = [], None
        for epsilon, gated in ((1.0, True), (0.05, False)):
            eps_partition = epsilon * 0.25
            noisy = x + rng.laplace(0, 1.0 / eps_partition, n)
            penalty = 1.0 / (epsilon * 0.75)
            kwargs = {"noise_scale": 1.0 / eps_partition}
            t_loop, b_loop = _time(lambda: l1_partition_reference(noisy, penalty, **kwargs))
            t_fast, b_fast = _time(lambda: l1_partition(noisy, penalty, **kwargs),
                                   repeats=7)
            assert b_fast == b_loop, "vectorised partition diverged from the reference"
            rows += [
                {"path": f"reference double loop (eps={epsilon})", "seconds": t_loop,
                 "speedup": 1.0, "buckets": len(b_loop)},
                {"path": f"vectorised pruning DP (eps={epsilon})", "seconds": t_fast,
                 "speedup": t_loop / t_fast, "buckets": len(b_fast)},
            ]
            if gated:
                gated_speedup = t_loop / t_fast
        return rows, gated_speedup

    rows, speedup = run_once(benchmark, study)
    report("bench_dawa_speed",
           f"DAWA L1 partition paths (domain {DAWA_DOMAIN})",
           format_table(rows, floatfmt="{:.4f}"))
    assert speedup >= 5.0, \
        f"vectorised L1 partition only {speedup:.1f}x over the reference loop"


SF_DOMAIN = 4096
SF_TARGET_S = 0.1        # target for one whole SF release at n=4096


def _generator(seed: int) -> np.random.Generator:
    # The SF and AGrid gates race two paths from one pinned seed and compare
    # the generator states they leave behind.
    return np.random.default_rng(seed)  # privlint: disable=PL001


def test_sf_boundary_speed(benchmark):
    """StructureFirst's boundary search: incremental gains vs the per-round
    rebuild of every segment's gains (``tests/reference/``).

    Run at the paper's 1-D domain with SF's default ``n / 10`` buckets and
    budget split.  The boundaries and the final generator state must be
    bitwise-equal, and the incremental search must hold a >= 10x margin.
    A whole ``SF.run`` is reported against the 0.1 s target without a gate.
    """
    from reference.sf_boundaries import select_boundaries_reference
    from repro import StructureFirst

    def study():
        rng = _generator(20160626)
        n = SF_DOMAIN
        x = rng.multinomial(100_000, rng.dirichlet(np.ones(n))).astype(float)
        epsilon = 0.1
        args = (x, int(np.ceil(n / 10)), epsilon * 0.5, float(x.sum()))
        sf = StructureFirst()

        def draw(search):
            rng = _generator(7)
            return search(*args, rng), rng.bit_generator.state

        t_loop, (b_loop, s_loop) = _time(lambda: draw(select_boundaries_reference),
                                         repeats=1)
        t_fast, (b_fast, s_fast) = _time(lambda: draw(sf._select_boundaries), repeats=5)
        assert b_fast == b_loop, "incremental boundary search diverged from the reference"
        assert s_fast == s_loop, "incremental boundary search consumed a different stream"
        t_run, _ = _time(lambda: sf.run(x, epsilon, rng=7), repeats=5)
        rows = [
            {"path": "reference per-round rebuild", "seconds": t_loop, "speedup": 1.0},
            {"path": "incremental gains", "seconds": t_fast, "speedup": t_loop / t_fast},
            {"path": f"whole SF.run (target {SF_TARGET_S} s)", "seconds": t_run,
             "speedup": t_loop / t_run},
        ]
        return rows, t_loop / t_fast

    rows, speedup = run_once(benchmark, study)
    report("bench_sf_speed",
           f"SF boundary search paths (domain {SF_DOMAIN}, {int(np.ceil(SF_DOMAIN / 10))} buckets)",
           format_table(rows, floatfmt="{:.4f}"))
    assert speedup >= 10.0, \
        f"incremental SF boundary search only {speedup:.1f}x over the reference loop"


def test_agrid_speed(benchmark):
    """AGrid: draw-ahead-and-replay batched noise vs the per-cell scalar
    draws of the historical loop (``tests/reference/``).

    At 64 x 64 and scale 1e8 the coarse grid reaches one block per cell, the
    loop's worst case.  The releases and the final generator state must be
    bitwise-equal, and the batched path must hold a >= 3x margin.
    """
    from reference.agrid import AGridReference
    from repro import AGrid

    def study():
        rng = _generator(20160626)
        x = rng.multinomial(10 ** 8, rng.dirichlet(np.ones(64 * 64))).astype(float)
        x = x.reshape(64, 64)

        def release(algorithm):
            rng = _generator(7)
            return algorithm.run(x, 0.1, rng=rng).tobytes(), rng.bit_generator.state

        t_loop, out_loop = _time(lambda: release(AGridReference()))
        t_fast, out_fast = _time(lambda: release(AGrid()), repeats=5)
        assert out_fast == out_loop, "batched AGrid diverged from the reference loop"
        rows = [
            {"path": "reference per-cell scalar draws", "seconds": t_loop, "speedup": 1.0},
            {"path": "draw ahead, replay in one batch", "seconds": t_fast,
             "speedup": t_loop / t_fast},
        ]
        return rows, t_loop / t_fast

    rows, speedup = run_once(benchmark, study)
    report("bench_agrid_speed", "AGrid noise paths (64x64, scale 1e8, eps 0.1)",
           format_table(rows, floatfmt="{:.4f}"))
    assert speedup >= 3.0, f"batched AGrid only {speedup:.1f}x over the reference loop"


HILBERT_SIDE = 512 if SMOKE else 1024


def test_hilbert_order_speed(benchmark):
    """The vectorised Hilbert curve builder vs the pure-Python loop.

    The orderings must be bitwise-identical (the vectorised path performs the
    same integer arithmetic on the whole position vector at once), and the
    vectorised path must hold a >= 5x margin — in practice it is one to two
    orders of magnitude faster, and the margin grows with the grid side.
    """
    from reference.hilbert_curve import hilbert_order_reference
    from repro.algorithms.hilbert import hilbert_order

    def study():
        side = HILBERT_SIDE
        t_ref, order_ref = _time(lambda: hilbert_order_reference(side), repeats=1)
        t_fast, order_fast = _time(lambda: hilbert_order(side), repeats=3)
        assert order_fast.tobytes() == order_ref.tobytes(), \
            "vectorised Hilbert ordering diverged from the reference"
        rows = [
            {"path": f"pure-Python _d2xy loop (side={side})", "seconds": t_ref,
             "speedup": 1.0},
            {"path": f"vectorised bit-twiddling (side={side})", "seconds": t_fast,
             "speedup": t_ref / t_fast},
        ]
        return rows, t_ref / t_fast

    rows, speedup = run_once(benchmark, study)
    report("bench_hilbert_speed",
           f"Hilbert curve construction (side {HILBERT_SIDE})",
           format_table(rows, floatfmt="{:.4f}"))
    assert speedup >= 5.0, \
        f"vectorised hilbert_order only {speedup:.1f}x over the Python loop"


SELECTION_DOMAIN = 1024
SELECTION_TRIALS = 4 if SMOKE else 10


def test_greedyw_selection_quality(benchmark):
    """GreedyW's workload-aware selection on a skewed workload.

    The workload is point-query heavy (2000 point queries) with a tail of
    300 medium random ranges — the regime where GreedyH's always-measure-
    every-level hierarchy misallocates budget.  GreedyW must achieve lower
    scaled workload error than both Identity and GreedyH at fixed epsilon;
    the margins are averaged over fixed-seed trials, so the gate is
    deterministic.
    """
    from repro import make_algorithm, scaled_average_per_query_error
    from repro.workload.rangequery import RangeQuery, Workload

    def study():
        n = SELECTION_DOMAIN
        wrng = np.random.default_rng(20160626)
        queries = [RangeQuery((int(i),), (int(i),))
                   for i in wrng.integers(0, n, 2000)]
        for _ in range(300):
            length = int(wrng.integers(100, 400))
            lo = int(wrng.integers(0, n - length))
            queries.append(RangeQuery((lo,), (lo + length - 1,)))
        workload = Workload(queries, (n,), name="skewed-points+ranges")

        drng = np.random.default_rng(7)
        scale = 100_000
        x = drng.multinomial(scale, drng.dirichlet(np.ones(n))).astype(float)
        truth = workload.evaluate(x)

        epsilon = 0.1
        rows = []
        errors = {}
        for name in ("Identity", "GreedyH", "GreedyW"):
            algorithm = make_algorithm(name)
            trial_errors = [
                scaled_average_per_query_error(
                    truth,
                    workload.evaluate(algorithm.run(
                        x, epsilon, workload=workload, rng=5000 + t)),
                    scale)
                for t in range(SELECTION_TRIALS)
            ]
            errors[name] = float(np.mean(trial_errors))
            rows.append({"algorithm": name, "scaled_error": errors[name]})
        for row in rows:
            row["vs_greedyw"] = row["scaled_error"] / errors["GreedyW"]
        return rows, (errors["Identity"] / errors["GreedyW"],
                      errors["GreedyH"] / errors["GreedyW"])

    rows, (vs_identity, vs_greedyh) = run_once(benchmark, study)
    report("bench_selection_quality",
           f"Workload-aware selection quality (domain {SELECTION_DOMAIN}, "
           f"skewed workload, eps=0.1, {SELECTION_TRIALS} trials)",
           format_table(rows, floatfmt="{:.4e}"))
    assert vs_identity > 1.05, \
        f"GreedyW only {vs_identity:.2f}x better than Identity on the skewed workload"
    assert vs_greedyh > 1.2, \
        f"GreedyW only {vs_greedyh:.2f}x better than GreedyH on the skewed workload"


SELECTION_2D_SIDE = 64
SELECTION_2D_TRIALS = 4 if SMOKE else 8


def test_greedyw_2d_selection_quality(benchmark):
    """Native 2-D workload-aware selection on the paper's 2-D benchmark
    workload: 2000 uniformly random range queries over a 64 x 64 grid.

    GreedyW's native path scores 2-D candidate hierarchies (pruned quadtrees
    and kd-style marginal grids) against the true rectangle workload; it must
    achieve lower scaled workload error than both the Hilbert-span variant it
    replaces (``native_2d=False`` — each rectangle blurred to the span of its
    curve positions) and GreedyH (Hilbert-flattened binary hierarchy, as the
    paper prescribes) at fixed epsilon.  Fixed-seed trials keep the gate
    deterministic.
    """
    from repro import make_algorithm, scaled_average_per_query_error
    from repro.workload.builders import random_range_workload

    def study():
        n = SELECTION_2D_SIDE
        workload = random_range_workload((n, n), 2000, rng=20160626)
        drng = np.random.default_rng(7)
        scale = 1_000_000
        x = drng.multinomial(scale, drng.dirichlet(np.ones(n * n))) \
            .astype(float).reshape(n, n)
        truth = workload.evaluate(x)

        epsilon = 0.1
        variants = {
            "GreedyW (native 2-D)": make_algorithm("GreedyW"),
            "GreedyW (Hilbert spans)": make_algorithm("GreedyW",
                                                      native_2d=False),
            "GreedyH (Hilbert)": make_algorithm("GreedyH"),
            "Identity": make_algorithm("Identity"),
        }
        rows, errors = [], {}
        for label, algorithm in variants.items():
            trial_errors = [
                scaled_average_per_query_error(
                    truth,
                    workload.evaluate(algorithm.run(
                        x, epsilon, workload=workload, rng=5000 + t)),
                    scale)
                for t in range(SELECTION_2D_TRIALS)
            ]
            errors[label] = float(np.mean(trial_errors))
            rows.append({"algorithm": label, "scaled_error": errors[label]})
        native = errors["GreedyW (native 2-D)"]
        for row in rows:
            row["vs_native"] = row["scaled_error"] / native
        return rows, (errors["GreedyW (Hilbert spans)"] / native,
                      errors["GreedyH (Hilbert)"] / native)

    rows, (vs_spans, vs_greedyh) = run_once(benchmark, study)
    report("bench_selection_quality_2d",
           f"Native 2-D selection quality ({SELECTION_2D_SIDE}x"
           f"{SELECTION_2D_SIDE}, 2000 random ranges, eps=0.1, "
           f"{SELECTION_2D_TRIALS} trials)",
           format_table(rows, floatfmt="{:.4e}"))
    assert vs_spans > 1.2, \
        f"native 2-D GreedyW only {vs_spans:.2f}x better than the Hilbert-span variant"
    assert vs_greedyh > 1.5, \
        f"native 2-D GreedyW only {vs_greedyh:.2f}x better than GreedyH"
