"""The per-instance selection memo (``PlanAlgorithm._memo``) across the registry.

Data-independent selection structure (H/Hb/QuadTree trees, GreedyH's and
GreedyW's selections, DAWA's Hilbert flattening) is kept on the algorithm
instance in one ``(key, value)`` slot per call site.  A reused instance must
release exactly what a fresh one releases, whatever sequence of shapes,
workloads and epsilons it has met, must keep one entry per site, and must
survive the pickle round trip the parallel executor puts it through.
"""

import pickle

import numpy as np
import pytest

from repro import algorithm_names, make_algorithm
from repro.algorithms.base import PlanAlgorithm
from repro.workload import prefix_workload, random_range_workload

NAMES_1D = algorithm_names(1, include_extras=True)
NAMES_2D = algorithm_names(2, include_extras=True)

#: Algorithms whose selection goes through the memo, per dimensionality.
MEMOISED_1D = {"H", "Hb", "GreedyH", "GreedyW"}
MEMOISED_2D = {"Hb", "GreedyH", "GreedyW", "DAWA", "QuadTree"}


def _counts(shape, seed):
    rng = np.random.default_rng(seed)  # privlint: disable=PL001
    size = int(np.prod(shape))
    return rng.multinomial(40 * size, rng.dirichlet(np.ones(size))).astype(float).reshape(shape)


def _cases_1d():
    wide, narrow = prefix_workload(64), random_range_workload((64,), 30, rng=3)
    return [((64,), wide, 1.0), ((37,), prefix_workload(37), 1.0),
            ((64,), wide, 1.0), ((64,), narrow, 1.0), ((64,), wide, 0.1),
            ((64,), None, 1.0), ((64,), narrow, 0.1)]


def _cases_2d():
    first = random_range_workload((8, 8), 25, rng=4)
    second = random_range_workload((8, 8), 25, rng=5)
    return [((8, 8), first, 1.0), ((3, 5), random_range_workload((3, 5), 10, rng=6), 1.0),
            ((8, 8), first, 1.0), ((8, 8), second, 1.0), ((8, 8), first, 0.1),
            ((8, 8), None, 1.0)]


def _release(algorithm, shape, workload, epsilon, seed):
    x = _counts(shape, seed)
    return algorithm.run(x, epsilon, workload=workload, rng=seed + 100).tobytes()


def _assert_one_entry_per_site(algorithm, shape):
    for site, slot in getattr(algorithm, "_memo_slots", {}).items():
        key, _ = slot
        assert key[0] == shape, f"{site} still keyed on {key[0]} after {shape}"


def _check_reuse(name, cases, memoised):
    used = make_algorithm(name)
    for seed, (shape, workload, epsilon) in enumerate(cases):
        got = _release(used, shape, workload, epsilon, seed)
        want = _release(make_algorithm(name), shape, workload, epsilon, seed)
        assert got == want, f"{name} reused differs at case {seed}: {shape}, eps {epsilon}"
        _assert_one_entry_per_site(used, shape)
    if name in memoised:
        assert isinstance(used, PlanAlgorithm) and used._memo_slots
    else:
        assert not getattr(used, "_memo_slots", None)
    return used


@pytest.mark.parametrize("name", NAMES_1D)
def test_reused_instance_releases_like_fresh_1d(name):
    _check_reuse(name, _cases_1d(), MEMOISED_1D)


@pytest.mark.parametrize("name", NAMES_2D)
def test_reused_instance_releases_like_fresh_2d(name):
    _check_reuse(name, _cases_2d(), MEMOISED_2D)


@pytest.mark.parametrize("name", sorted(MEMOISED_1D | MEMOISED_2D))
def test_used_instance_survives_pickle(name):
    ndim = 1 if name in MEMOISED_1D else 2
    cases = _cases_1d() if ndim == 1 else _cases_2d()
    used = _check_reuse(name, cases[:2], MEMOISED_1D if ndim == 1 else MEMOISED_2D)
    blob = pickle.dumps(used)
    clone = pickle.loads(blob)
    assert "_memo_slots" not in vars(clone), "the memo must not ride the pickle"
    assert len(blob) < 4096
    for seed, (shape, workload, epsilon) in enumerate(cases, start=50):
        want = _release(make_algorithm(name), shape, workload, epsilon, seed)
        assert _release(clone, shape, workload, epsilon, seed) == want
        assert _release(used, shape, workload, epsilon, seed) == want


def test_parameter_change_rebuilds_the_tree():
    used = make_algorithm("H")
    x = _counts((64,), 0)
    used.run(x, 1.0, rng=1)
    used.params["branching"] = 4
    got = used.run(x, 1.0, rng=2)
    want = make_algorithm("H", branching=4).run(x, 1.0, rng=2)
    assert got.tobytes() == want.tobytes()


def test_memo_keys_hold_no_cell_values():
    """Two inputs of one shape (one all zero) share every memoised value:
    the keys, and so the kept structure, see the shape and workload only."""
    workload = random_range_workload((8, 8), 25, rng=4)
    for name in sorted(MEMOISED_2D):
        algorithm = make_algorithm(name)
        algorithm.run(_counts((8, 8), 0), 1.0, workload=workload, rng=0)
        kept = {site: slot[1] for site, slot in algorithm._memo_slots.items()}
        algorithm.run(np.zeros((8, 8)), 1.0, workload=workload, rng=0)
        for site, value in kept.items():
            assert algorithm._memo_slots[site][1] is value, (name, site)
