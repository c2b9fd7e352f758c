"""Quickstart: release a private 1-D histogram and answer range queries.

Loads a benchmark dataset, runs a few differentially private algorithms on it
at epsilon = 0.1 and compares their scaled per-query error on the Prefix
workload — the core loop of the DPBench methodology — then runs a small
benchmark grid in parallel with checkpoint/resume, the way the full 22
CPU-day sweep is meant to be executed.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from pathlib import Path

import numpy as np

import repro


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. A dataset: the ADULT capital-gain histogram (synthetic stand-in),
    #    coarsened to a 1024-cell domain.
    dataset = repro.load_dataset("ADULT").coarsen((1024,))
    print(f"dataset={dataset.name}  scale={dataset.scale:.0f}  "
          f"domain={dataset.domain_shape}  zeros={dataset.zero_fraction:.1%}")

    # 2. A workload: all prefix range queries (any 1-D range query is the
    #    difference of two prefix queries).
    workload = repro.prefix_workload(1024)
    true_answers = workload.evaluate(dataset.counts)

    # 3. Private release with a few algorithms at epsilon = 0.1.
    epsilon = 0.1
    print(f"\nscaled per-query L2 error at epsilon={epsilon}:")
    for name in ["Identity", "Uniform", "Hb", "DAWA", "AHP*", "MWEM*"]:
        algorithm = repro.make_algorithm(name)
        estimate = algorithm.run(dataset.counts, epsilon, workload=workload, rng=rng)
        error = repro.scaled_average_per_query_error(
            true_answers, workload.evaluate(estimate), dataset.scale)
        flag = " (data-dependent)" if algorithm.is_data_dependent else ""
        print(f"  {name:10s} {error:.3e}{flag}")

    # 4. The same release is just as easy for a 2-D spatial dataset.
    spatial = repro.load_dataset("GOWALLA").coarsen((64, 64))
    workload_2d = repro.random_range_workload((64, 64), n_queries=500, rng=rng)
    truth_2d = workload_2d.evaluate(spatial.counts)
    print(f"\n2-D dataset={spatial.name}  domain={spatial.domain_shape}")
    for name in ["Identity", "AGrid", "DAWA"]:
        estimate = repro.make_algorithm(name).run(spatial.counts, epsilon,
                                                  workload=workload_2d, rng=rng)
        error = repro.scaled_average_per_query_error(
            truth_2d, workload_2d.evaluate(estimate), spatial.scale)
        print(f"  {name:10s} {error:.3e}")

    # 5. Scaling up: a benchmark grid runs through a pluggable executor.
    #    Each (dataset, domain, scale, epsilon, algorithm) cell is an
    #    independent job with its own SeedSequence-derived RNG, so a parallel
    #    run is bitwise-identical to a serial one; a JSONL checkpoint makes
    #    the sweep resumable after an interruption.
    bench = repro.benchmark_1d(
        datasets=["ADULT", "SEARCH"],
        algorithms=["Identity", "Uniform", "Hb"],
        scales=[1_000, 100_000],
        domain_shapes=[(256,)],
        n_data_samples=1,
        n_trials=2,
    )
    checkpoint = Path(tempfile.mkdtemp()) / "quickstart_run.jsonl"
    serial = bench.run(rng=0)
    parallel = bench.run(rng=0, executor=repro.ParallelExecutor(workers=2),
                         checkpoint=checkpoint)
    identical = all(np.array_equal(a.errors, b.errors)
                    for a, b in zip(serial, parallel))
    print(f"\nparallel grid: {len(parallel)} records "
          f"(bitwise-identical to serial: {identical})")

    #    Re-running with resume=True skips everything already in the run-log
    #    (here: all of it) and merges checkpointed records back in.
    resumed = bench.run(rng=0, checkpoint=checkpoint, resume=True)
    print(f"resumed from {checkpoint.name}: {len(resumed)} records, "
          "0 jobs re-executed")
    print("\nbest mean error per algorithm:")
    for algorithm in parallel.algorithms():
        print(f"  {algorithm:10s} {parallel.mean_error(algorithm):.3e}")

    # 6. Under the hood: every mechanism is "select, measure, infer".  A
    #    mechanism's measurements — noisy linear queries with per-query
    #    variances and the budget spent — are packaged as a MeasurementSet
    #    over a sparse query operator, and consistency post-processing is a
    #    generic weighted least-squares solve on that set.  The set's tree
    #    tag picks the solver: tree-tagged sets get the exact O(nodes)
    #    two-pass solve, anything else is solved matrix-free (LSMR over
    #    prefix-sum matvecs).
    from repro.algorithms.hier import tree_plan
    from repro.algorithms.tree import HierarchicalTree
    from repro.core.plan import measure_plan

    x = dataset.counts
    tree = HierarchicalTree(x.shape, branching=2)
    measurements = repro.MeasurementSet(
        tree.as_query_matrix(), *_noisy_tree_measurements(x, tree, epsilon),
        tree=tree)
    del measurements  # constructed by hand above just to show the shape...

    #    ...but mechanisms build it for you: tree_plan selects every node
    #    with its level's budget share, and the shared noise stage
    #    measure_plan draws one Laplace noise per node and returns the
    #    tree-tagged MeasurementSet directly.
    rng6 = np.random.default_rng(1)
    level_budgets = np.full(tree.n_levels, epsilon / tree.n_levels)
    measurements = measure_plan(x, tree_plan(tree, level_budgets), rng6)
    estimate = repro.solve_gls(measurements)              # two-pass tree solve
    generic = repro.solve_gls(dataclasses.replace(measurements, tree=None))  # LSMR
    print(f"\nMeasurementSet -> GLS: {measurements!r}")
    print(f"tree solve vs generic LSMR max diff: "
          f"{np.abs(estimate - generic).max():.2e}")

    #    A new algorithm plugs in by emitting a MeasurementSet for whatever
    #    regions it measures (cells, partitions, tree nodes, workload
    #    queries) and calling solve_gls — no bespoke inference code needed:
    #
    #        queries = repro.QueryMatrix(los, his, domain_shape)
    #        mset = repro.MeasurementSet(queries, noisy_answers, variances,
    #                                    epsilon_spent=epsilon)
    #        estimate = repro.solve_gls(mset)

    # 7. Data-dependent mechanisms speak the same currency.  DAWA privately
    #    partitions the domain (a vectorised O(n log n) search) and measures
    #    the bucket hierarchy GreedyH-style.  plan_and_measure runs just the
    #    private stages; read over the cells through the plan's partition,
    #    the whole stage two is one MeasurementSet (its epsilon_spent covers
    #    both stages) — so it fuses with any other mechanism's measurements
    #    of the same data: combine and solve once.
    from repro.algorithms.dawa import DAWA

    plan, bucket_mset = DAWA().plan_and_measure(
        x, epsilon, np.random.default_rng(2), workload=workload)
    dawa_mset = bucket_mset.through_partition(plan.partition)
    fused = dawa_mset.combined_with(measurements)    # + the Hb-style tree view
    fused_estimate = repro.solve_gls(fused)
    print(f"\nDAWA measurements: {dawa_mset!r} over {plan.partition.size - 1} buckets")
    print(f"fused DAWA+tree release (eps={fused.epsilon_spent:.2f}) error: "
          f"{repro.scaled_average_per_query_error(true_answers, workload.evaluate(fused_estimate), dataset.scale):.3e}")

    # 8. Writing your own algorithm is now a ~30-line selection strategy.
    #    Every algorithm is the same three-stage plan pipeline — select the
    #    queries, measure them with the shared noise stage, reconstruct by
    #    GLS — so a new idea only has to say *what to measure*.  Subclass
    #    PlanAlgorithm and implement select(); run() is inherited:
    #
    #      select  -> a MeasurementPlan: which queries, which budget shares
    #      measure -> repro.core.plan.measure_plan adds calibrated Laplace
    #                 noise, metered through a PrivacyBudget (overdraw raises)
    #      infer   -> repro.core.plan.reconstruct solves the sparse GLS and
    #                 undoes the plan's structure (partitions, orderings)
    #
    #    Here is a complete strategy: measure the root total plus every cell,
    #    splitting the budget 10/90 (a two-level hierarchy):
    from repro.core.plan import MeasurementPlan

    class RootAndCells(repro.PlanAlgorithm):
        properties = repro.AlgorithmProperties(
            name="RootAndCells", supported_dims=(1,), data_dependent=False,
            hierarchical=True, reference="quickstart section 8")

        def select(self, data, target_workload, budget, rng):
            n = data.size
            los = np.concatenate([[0], np.arange(n)])[:, None]
            his = np.concatenate([[n - 1], np.arange(n)])[:, None]
            # cells are disjoint (parallel composition), the root rides on
            # top: 0.1 eps for the root + 0.9 eps at every cell.
            shares = np.concatenate([[0.1 * budget.total],
                                     np.full(n, 0.9 * budget.total)])
            return MeasurementPlan(
                queries=repro.QueryMatrix(los, his, data.shape),
                epsilons=shares, domain_shape=data.shape,
                epsilon_measure=budget.total)

    custom = RootAndCells().run(dataset.counts, epsilon, rng=3)
    error = repro.scaled_average_per_query_error(
        true_answers, workload.evaluate(custom), dataset.scale)
    print(f"\ncustom RootAndCells strategy error: {error:.3e}")

    #    Workload-aware selection is the same seam: GreedyW scores candidate
    #    hierarchies against the target workload (matrix-mechanism style,
    #    all sparse) and measures only the levels that earn their budget.
    greedy_w = repro.make_algorithm("GreedyW").run(
        dataset.counts, epsilon, workload=workload, rng=4)
    error_w = repro.scaled_average_per_query_error(
        true_answers, workload.evaluate(greedy_w), dataset.scale)
    print(f"GreedyW (workload-aware selection) error: {error_w:.3e}")

    # 9. Selection is native in 2-D too.  A 2-D strategy tags its plan with a
    #    2-D tree (quadtree- or kd-style) and the exact two-pass GLS applies
    #    unchanged — no Hilbert flattening, no lossy query spans.  The same
    #    ~30 lines buy a custom 2-D strategy; here, a kd-style marginal-grid
    #    hierarchy with the classic cube-root budget allocation, via the
    #    shared selection helpers:
    from repro.algorithms.greedy_h import greedy_budget_allocation
    from repro.algorithms.hier import tree_plan
    from repro.algorithms.tree import HierarchicalTree

    class KdMarginals(repro.PlanAlgorithm):
        properties = repro.AlgorithmProperties(
            name="KdMarginals", supported_dims=(2,), data_dependent=False,
            hierarchical=True, workload_aware=True,
            reference="quickstart section 9")

        def select(self, data, target_workload, budget, rng):
            # one axis split per level (a kd tree whose levels are marginal
            # grids), budgeted by the workload's per-level usage counts
            tree = HierarchicalTree(data.shape, branching=2,
                                    split_axes=(0, 1))
            if target_workload is not None \
                    and target_workload.domain_shape == data.shape:
                usage = tree.level_usage(target_workload)
            else:
                usage = np.ones(tree.n_levels)
            return tree_plan(tree, greedy_budget_allocation(usage,
                                                            budget.total))

    custom_2d = KdMarginals().run(spatial.counts, epsilon,
                                  workload=workload_2d, rng=6)
    error_kd = repro.scaled_average_per_query_error(
        truth_2d, workload_2d.evaluate(custom_2d), spatial.scale)
    print(f"\ncustom 2-D KdMarginals strategy error: {error_kd:.3e}")

    #    GreedyW does exactly this search automatically: it scores pruned
    #    quadtrees and kd marginal grids against the true rectangle workload
    #    (vectorised rank queries on per-level grid tables) and measures the
    #    winner natively.
    greedy_w_2d = repro.make_algorithm("GreedyW").run(
        spatial.counts, epsilon, workload=workload_2d, rng=7)
    error_w2d = repro.scaled_average_per_query_error(
        truth_2d, workload_2d.evaluate(greedy_w_2d), spatial.scale)
    print(f"GreedyW (native 2-D selection) error: {error_w2d:.3e}")

    # 10. Serve the release online.  A DP release is post-processing-free:
    #     once the algorithm has spent its epsilon, any number of range
    #     queries can be answered from the reconstruction forever at zero
    #     additional privacy cost.  repro.serve packages that as a long-lived
    #     service: run the algorithm once, precompute the prefix-sum cube
    #     (every query is O(2^d) table lookups), answer bulk clients through
    #     the QueryMatrix.matvec batch path, and front both with a keyed
    #     LRU result cache that is invalidated on re-release.
    from repro.serve import ReleaseService

    service = ReleaseService("DAWA", epsilon=epsilon, workload=workload,
                             cache_size=4096)
    release = service.release(dataset.counts, rng=8)   # the only eps-spending call
    meta = release.metadata
    print(f"\nserving release v{release.version}: {meta.algorithm} at "
          f"eps={meta.epsilon} (spent {meta.epsilon_spent:.3f}, "
          f"{meta.n_measurements} noisy measurements)")
    print(f"single range [100, 200]:  {service.query(100, 200):.1f}")
    print(f"same query (cache hit):   {service.query(100, 200):.1f}")
    los = np.array([0, 256, 512, 768])
    his = np.array([255, 511, 767, 1023])
    print(f"batched quartile totals:  {np.round(service.query_batch(los, his), 1)}")
    stats = service.stats()
    print(f"stats: {stats['queries']} queries at {stats['qps']:.0f} qps, "
          f"cache hit rate {stats['cache']['hit_rate']:.0%}")
    #     Re-releasing (new data or fresh noise) bumps the version and
    #     invalidates every cached answer — queries transparently switch to
    #     the new histogram.
    service.release(dataset.counts, rng=9)
    print(f"after re-release (v{service.version}), same range: "
          f"{service.query(100, 200):.1f}")

    # 11. Million-cell domains.  The hot inner loops — DAWA's partition
    #     scan, the two-pass tree GLS, the plan noise draws — are plain numpy
    #     kernels (repro.core.kernels).  The tree solver streams its levels
    #     in fixed 32k-row blocks, so even a 2**20-leaf solve allocates only
    #     O(nodes) state — benchmarks/bench_large_domain.py records the
    #     wall-clock scaling at n = 2**14, 2**17, 2**20 and 1024x1024.
    big_n = 2**17                       # keep the demo snappy; the bench goes to 2**20
    big = np.zeros(big_n)
    big[rng.integers(0, big_n, 500)] = rng.integers(1, 50, 500)
    t0 = time.perf_counter()
    big_release = repro.make_algorithm("H").run(big, epsilon, rng=10)
    print(f"\nH on a {big_n:,}-cell domain: {time.perf_counter() - t0:.1f}s, "
          f"total {big_release.sum():,.0f} (true {big.sum():,.0f})")

    # 12. Catching a privacy leak — twice.  DPBench's numbers are only
    #     meaningful if the implementations are actually private, so the
    #     repo gates its own invariants with repro.privlint: one rule per
    #     invariant, each checked per function (PL001-PL005) and across
    #     calls (PL007-PL010), runs in CI (`python -m repro.privlint src`),
    #     and a runtime taint sanitizer re-checks every registered algorithm
    #     dynamically.  Here is a deliberately leaky selection strategy —
    #     it stashes the true histogram during selection and blends it back
    #     into the release after the noise stage (the classic
    #     "post-processing reads the data" bug):
    leaky_source = '''
class LeakyUniform(PlanAlgorithm):
    def select(self, x, workload, budget, rng):
        self._x = x                               # stash the true data
        return uniform_plan(x.shape, budget)

    def infer(self, measurements, plan):
        estimate = reconstruct(plan, measurements)
        return 0.5 * estimate + 0.5 * self._x     # unnoised true mass!
'''
    #     Statically, PL002 (the per-function base case of post-processing
    #     purity) flags the self._x read inside infer() from the source text
    #     alone:
    from repro.privlint import RULES_BY_ID, is_tainted, lint_source, taint
    from repro.privlint.taint import sanitized_noise_stage

    lint = lint_source(leaky_source, "examples/leaky.py",
                       [RULES_BY_ID["PL002"]])
    for finding in lint.findings:
        print(f"privlint: {finding.location()}: {finding.rule} "
              f"{finding.message}")
    #     Dynamically, the taint sanitizer catches the same leak as a flow:
    #     run on a tainted histogram, a release is clean only if every
    #     data-derived value passed through the metered noise stage.  The
    #     honest Uniform comes out clean; a leaky blend stays tainted.
    tainted_counts = taint(dataset.counts.copy())
    with sanitized_noise_stage():
        honest = repro.make_algorithm("Uniform").run(
            tainted_counts, epsilon, rng=12)
        leaky = 0.5 * honest + 0.5 * tainted_counts   # the same bug, inline
    print(f"honest release tainted: {is_tainted(honest)}; "
          f"leaky release tainted: {is_tainted(leaky)}")

    # 13. A 4096 x 4096 release end-to-end on the flyweight tree.  The
    #     hierarchy behind the tree algorithms is stored as structure-of-
    #     arrays (bounds, levels, parents, CSR child offsets) and built by a
    #     vectorised level-at-a-time pass — no per-node Python objects — so
    #     the ~22.4M-node tree over a 16.8M-cell grid costs ~48 bytes/node
    #     and builds in seconds-not-minutes.  The full-size
    #     Identity/GreedyH/DAWA numbers live in benchmarks/results/
    #     bench_large_domain_4096.json (regenerate with DPBENCH_LARGE=1).
    from repro.algorithms.tree import HierarchicalTree

    side = 4096
    t0 = time.perf_counter()
    tree = HierarchicalTree((side, side))
    build_s = time.perf_counter() - t0
    array_bytes = (tree.node_bounds()[0].nbytes + tree.node_bounds()[1].nbytes
                   + tree.node_parents().nbytes + tree.child_offsets().nbytes)
    print(f"\nflyweight tree over {side}x{side}: {tree.n_nodes:,} nodes in "
          f"{build_s:.1f}s, {array_bytes / tree.n_nodes:.0f} bytes/node")
    grid = np.zeros((side, side))
    cells = rng.integers(0, side, size=(2000, 2))
    grid[cells[:, 0], cells[:, 1]] = rng.integers(1, 40, 2000)
    t0 = time.perf_counter()
    grid_release = repro.make_algorithm("Identity").run(grid, epsilon, rng=13)
    print(f"Identity release over {side}x{side} "
          f"({side * side:,} cells): {time.perf_counter() - t0:.1f}s, "
          f"total {grid_release.sum():,.0f} (true {grid.sum():,.0f})")

    # 14. Interprocedural leak hunting.  Section 12's PL002 reads one
    #     function at a time, so routing the stash through a helper blinds
    #     it — infer() below never mentions the data.  The same rule's
    #     closure, PL007, reads the same engine's call graph and data-taint
    #     fixpoint (repro.privlint.dataflow) and reports the leak with the
    #     full call path.  CI runs every rule over src/, benchmarks/ and
    #     tests/ (`python -m repro.privlint src`).
    hidden_leak = '''
class StealthyUniform(PlanAlgorithm):
    def select(self, x, workload, budget, rng):
        self._stash = x.copy()                    # non-data-named stash
        return uniform_plan(x.shape, budget)

    def _blend(self, estimate):
        return 0.5 * estimate + 0.5 * self._stash

    def infer(self, measurements, plan):
        estimate = reconstruct(plan, measurements)
        return self._blend(estimate)              # PL002 sees nothing here
'''
    silent = lint_source(hidden_leak, "examples/stealthy.py",
                         [RULES_BY_ID["PL002"]])
    print(f"\nPL002 findings on the helper-routed leak: "
          f"{len(silent.findings)} (blind past the call)")
    leak = lint_source(hidden_leak, "examples/stealthy.py",
                       [RULES_BY_ID["PL007"]])
    for finding in leak.findings:
        print(f"privlint v2: {finding.location()}: {finding.rule} "
              f"{finding.message}")


def _noisy_tree_measurements(x, tree, epsilon):
    """Hand-rolled node measurements for the quickstart's section 6."""
    rng = np.random.default_rng(0)
    totals = tree.node_totals(x)
    scale = tree.n_levels / epsilon
    values = totals + rng.laplace(0.0, scale, size=totals.shape)
    variances = np.full(totals.shape, 2.0 * scale ** 2)
    return values, variances


if __name__ == "__main__":
    main()
