"""The numpy kernels behind the hot inner loops of million-cell runs.

Three inner loops dominate once domains reach n = 2**20, 1024**2 and up:

* **DAWA's L1-partition candidate scan** — the dominance-pruned DP's exact
  sequential core: one interpreter iteration per cell plus one per pruning
  survivor (one to three per cell at 2**18, from structured to
  noise-dominated input).  It runs once per block of bucket ends and
  carries the DP state across blocks, so nothing ``O(n log n)`` is ever
  held at once.
* **The tree two-pass GLS** — per level it gathers ``(rows, k)`` dense
  intermediates; at 2**20 leaves a single level holds half a million rows,
  so the solver streams each level in fixed-size row blocks.
* **Laplace noise draws** — a plan's scales are constant within each tree
  level / bucket group, so the noise is drawn in one generator call per
  constant-scale run.

Each is a plain numpy/python function, bitwise-identical to the historical
implementation it replaced (the stream-identity and golden tests pin this).

The ``get_kernel`` seam
-----------------------
Callers look kernels up by name with :func:`get_kernel` instead of importing
them.  The lookup is a plain dict; it stays because it is the single point
where a tracer can wrap every kernel call: ``perfbench/tracing.py`` replaces
``get_kernel`` to time the ``kernel.<name>`` layers without touching the
algorithm modules.

Kernels
-------
``l1_partition_core``
    The candidate scan of DAWA's partition DP over one block of ends:
    ``(s_row, s_cost, lengths, dp, choice) -> None``, appending the block's
    entries to the carried ``dp``/``choice`` lists; see
    :func:`~repro.algorithms.dawa.l1_partition`.
``tree_two_pass``
    The two-pass tree GLS over a flattened level plan, streamed in
    fixed-size row blocks (:data:`TREE_BLOCK`) so no per-level dense
    intermediate outgrows the block; see
    :func:`~repro.core.gls.tree_least_squares`.
``batched_laplace``
    Noise for a whole plan in one generator call per constant-scale run,
    stream-identical to the historical per-query draws; see
    :func:`~repro.core.plan.measure_plan`.

NOTE: like :mod:`repro.core.measurement`, this module is imported by the
algorithm modules while the package graph is still loading; it must stay a
leaf (numpy + stdlib only).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["TREE_BLOCK", "active_backend", "batched_laplace", "get_kernel"]

#: Row-block size of the streaming tree solver: per-level dense intermediates
#: are capped at O(TREE_BLOCK * branching) elements regardless of the domain
#: size (a 2**20-leaf binary tree's widest level holds 2**19 parent rows; the
#: block keeps the transient gathers ~16x smaller than that).
TREE_BLOCK = 32768


# -- l1_partition_core ----------------------------------------------------------------
#
# The exact sequential recurrence of DAWA's dominance-pruned partition DP,
# advanced over one block of bucket ends.  The block arrives as one stream
# of candidates in (end, ascending length) order: for every end, its
# length-1 candidate (always present, always first) and then the pruning
# survivors ending there.  A candidate is a length index ``j`` into
# ``lengths`` and a cost; the bucket it prices ends at the current end, so a
# ``j == 0`` candidate opens a new end.  The caller owns ``dp`` (best costs,
# ``dp[0] == 0.0``) and ``choice`` (best lengths; ``choice[0]`` is a
# placeholder), carried across blocks: each call appends one entry per end
# of its block, and the caller backtracks the bucket boundaries from
# ``choice`` after the last block.

def _l1_partition_core(s_row: np.ndarray, s_cost: np.ndarray,
                       lengths: list[int], dp: list, choice: list) -> None:
    """Candidate scan over plain python lists (the fastest interpreter
    form of this sequential recurrence)."""
    # While end e is scanned, dp holds entries 0 .. e - 1, so the best cost
    # before the length-l bucket ending at e is dp[-l].
    back = [-length for length in lengths]
    # The last entry is the previous end's result; each length-1 candidate
    # commits the end before it, and the loop's tail commits the last one.
    best = dp.pop()
    best_length = choice.pop()
    for j, cost in zip(s_row.tolist(), s_cost.tolist()):
        if j == 0:
            dp.append(best)
            choice.append(best_length)
            best = best + cost
            best_length = 1
        else:
            candidate = dp[back[j]] + cost
            if candidate < best:
                best, best_length = candidate, lengths[j]
    dp.append(best)
    choice.append(best_length)


# -- tree_two_pass --------------------------------------------------------------------
#
# The two passes of the exact tree GLS over a *flattened level plan*: a list
# of ``(parents, children)`` index-array groups in top-down level order, each
# group holding the internal nodes of one level with a common child count k
# (``parents`` shape ``(rows,)``, ``children`` shape ``(rows, k)``).  Rows
# within a level are independent, so both passes stream the groups in
# fixed-size row blocks: every dense intermediate is at most
# ``(block, k)`` — at 2**20 leaves the widest binary level holds 2**19 rows,
# and blocking keeps the transient gathers bounded by the block instead.
# Chunking rows changes no per-row float operation, so the result is
# bitwise-identical to the historical whole-level implementation.

def _pass1_group(combined, combined_var, own_values, own_vars,
                 parents, children, block):
    for lo in range(0, parents.shape[0], block):
        p = parents[lo:lo + block]
        ch = children[lo:lo + block]
        # Sequential left-to-right accumulation (exactly Python's sum()).
        child_sum = combined[ch[:, 0]].copy()
        child_var = combined_var[ch[:, 0]].copy()
        for j in range(1, ch.shape[1]):
            child_sum += combined[ch[:, j]]
            child_var += combined_var[ch[:, j]]
        v_own, s_own = own_values[p], own_vars[p]
        with np.errstate(divide="ignore"):
            w_own = np.where(np.isfinite(s_own) & (s_own > 0), 1.0 / s_own, 0.0)
            w_child = np.where(np.isfinite(child_var) & (child_var > 0),
                               1.0 / child_var, 0.0)
        total_weight = w_own + w_child
        with np.errstate(invalid="ignore", divide="ignore"):
            estimate = np.where(
                total_weight > 0,
                (w_own * v_own + w_child * child_sum) / total_weight,
                (v_own + child_sum) / 2.0,
            )
            variance = np.where(total_weight > 0, 1.0 / total_weight, np.inf)
        combined[p] = estimate
        combined_var[p] = variance


def _pass2_group(final, combined, combined_var, parents, children, block):
    k = children.shape[1]
    for lo in range(0, parents.shape[0], block):
        p = parents[lo:lo + block]
        ch = children[lo:lo + block]
        child_estimates = combined[ch]
        child_variances = combined_var[ch]
        # numpy pairwise sum over length-k rows, as the original did.
        residual = final[p] - child_estimates.sum(axis=1)
        finite = np.isfinite(child_variances)
        capped = np.where(finite, child_variances, 0.0)
        total = capped.sum(axis=1)
        uniform = (~finite.any(axis=1)) | (total <= 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            shares = np.where(uniform[:, None],
                              np.full((1, k), 1.0 / k),
                              capped / total[:, None])
        final[ch.ravel()] = (
            child_estimates + residual[:, None] * shares).ravel()


def _tree_two_pass(groups, own_values, own_vars, block: int = TREE_BLOCK):
    """Both passes, streamed in row blocks of at most ``block``."""
    combined = own_values.copy()
    combined_var = own_vars.copy()
    for parents, children in reversed(groups):
        _pass1_group(combined, combined_var, own_values, own_vars,
                     parents, children, block)
    final = combined.copy()
    for parents, children in groups:
        _pass2_group(final, combined, combined_var, parents, children, block)
    return final


# -- batched_laplace ------------------------------------------------------------------

def _batched_laplace(rng: np.random.Generator, scales: np.ndarray) -> np.ndarray:
    """Laplace noise at per-query ``scales`` in one generator call per
    constant-scale run.

    A plan's scales are constant within each tree level / bucket group, so a
    whole epsilon grid of queries usually collapses to a handful of runs;
    each run is drawn with a *scalar* scale (no per-element broadcast).  The
    generator consumes exactly one double per variate in either form, so the
    output is bitwise-identical to the single heterogeneous-scale vector
    draw — and to the historical per-query scalar draws (the stream-identity
    tests pin both).  Scale vectors that do not group (more runs than
    ``len / 4``) fall back to the one vector call.
    """
    scales = np.ascontiguousarray(scales, dtype=float)
    n = scales.shape[0]
    if n == 0:
        return np.zeros(0)
    starts = np.flatnonzero(np.diff(scales)) + 1
    if starts.size + 1 > max(1, n // 4):
        return rng.laplace(0.0, scales)
    bounds = np.concatenate(([0], starts, [n]))
    out = np.empty(n)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        out[lo:hi] = rng.laplace(0.0, scales[lo], hi - lo)
    return out


# -- lookup ---------------------------------------------------------------------------

_KERNELS: dict[str, Callable] = {
    "l1_partition_core": _l1_partition_core,
    "tree_two_pass": _tree_two_pass,
    "batched_laplace": _batched_laplace,
}


def get_kernel(name: str) -> Callable:
    """The implementation of kernel ``name``."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; "
                       f"known: {tuple(sorted(_KERNELS))}") from None


def active_backend() -> str:
    """The kernel implementation in use: always ``"numpy"``.

    Kept for ``perfbench/host.py``, which stamps it on every benchmark run.
    """
    return "numpy"


def batched_laplace(rng: np.random.Generator, scales: np.ndarray) -> np.ndarray:
    """Entry point of the shared noise stage (looked up through
    :func:`get_kernel`, so a traced run times it as a kernel)."""
    return get_kernel("batched_laplace")(rng, scales)
