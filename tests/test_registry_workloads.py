"""Registry-wide workload-handling properties and golden output pins.

Two suite-level contracts:

* **stale workloads are never silently optimised against** — every algorithm
  that supports 2-D data, handed a workload whose ``domain_shape`` does not
  match the data (a coarser 2-D grid, or a 1-D workload), must either raise a
  clean ``ValueError`` or produce *exactly* the release it produces with no
  workload at all (the documented fallback), never a release that consulted
  the mismatched query set;
* **golden pins** — every registered algorithm's output at a fixed
  (data, workload, epsilon, seed) setting is pinned bitwise against
  ``tests/golden/registry_outputs.npz``.  The capture
  (``tests/golden/capture_registry_outputs.py``) was taken before the native
  2-D selection PR and re-taken after with exactly one expected change:
  ``GreedyW_2d`` (its 2-D selection is now native instead of
  Hilbert-flattened — by design).  UGrid/AGrid were exempted up front for the
  grid-edges fix, but at this setting the old and new ``_grid_edges`` agree,
  so their outputs are bitwise-unchanged too (the fix itself is pinned in
  ``test_spatial_2d.py``).  The non-integer-count settings (``*_real``
  keys) were added later, captured before the closed-form solves moved
  into :mod:`repro.core.gls`.
"""

from pathlib import Path

import numpy as np
import pytest

import repro
from repro import ALGORITHM_REGISTRY
from repro.workload.builders import prefix_workload, random_range_workload

GOLDEN = Path(__file__).parent / "golden" / "registry_outputs.npz"

NAMES_2D = sorted(name for name, cls in ALGORITHM_REGISTRY.items()
                  if 2 in cls.properties.supported_dims)


@pytest.fixture(scope="module")
def data_2d():
    rng = np.random.default_rng(0)
    return rng.multinomial(10_000, rng.dirichlet(np.ones(256))) \
        .astype(float).reshape(16, 16)


class TestStaleWorkloadHandling:
    """Satellite: mismatched workloads fall back or raise — never a silent
    optimisation against the wrong query set."""

    @pytest.mark.parametrize("name", NAMES_2D)
    @pytest.mark.parametrize("mismatch", [
        pytest.param(lambda: random_range_workload((8, 8), 30, rng=1),
                     id="coarser-2d-grid"),
        pytest.param(lambda: random_range_workload((16, 8), 30, rng=1),
                     id="wrong-aspect-2d"),
        pytest.param(lambda: prefix_workload(64), id="1d-workload"),
    ])
    def test_mismatched_workload_falls_back_or_raises(self, name, mismatch,
                                                      data_2d):
        try:
            fallback = repro.make_algorithm(name).run(
                data_2d, 0.5, workload=None, rng=3)
            stale = repro.make_algorithm(name).run(
                data_2d, 0.5, workload=mismatch(), rng=3)
        except ValueError:
            return                              # a clean rejection is fine
        assert stale.shape == data_2d.shape
        assert np.isfinite(stale).all()
        assert np.array_equal(stale, fallback), \
            f"{name} consulted a workload whose domain does not match the data"

    @pytest.mark.parametrize("name", NAMES_2D)
    def test_matching_workload_is_not_ignored_by_workload_aware(self, name,
                                                                data_2d):
        """The complement: a *matching* workload must actually change the
        release of the workload-aware algorithms (otherwise the fallback test
        above would pass vacuously)."""
        if not ALGORITHM_REGISTRY[name].properties.workload_aware:
            pytest.skip("not workload-aware")
        workload = random_range_workload((16, 16), 60, rng=2)
        with_w = repro.make_algorithm(name).run(data_2d, 0.5,
                                                workload=workload, rng=3)
        without = repro.make_algorithm(name).run(data_2d, 0.5,
                                                 workload=None, rng=3)
        assert not np.array_equal(with_w, without)


class TestRegistryGoldenPins:
    """Satellite: bitwise pins of every registered algorithm's output."""

    @pytest.fixture(scope="class")
    def golden(self):
        return np.load(GOLDEN)

    @pytest.fixture(scope="class")
    def settings(self):
        import sys
        sys.path.insert(0, str(GOLDEN.parent))
        try:
            import capture_registry_outputs as capture
        finally:
            sys.path.pop(0)
        return capture

    @pytest.mark.parametrize("name", sorted(
        n for n, c in ALGORITHM_REGISTRY.items()
        if 1 in c.properties.supported_dims))
    def test_1d_bitwise(self, golden, settings, name):
        x, workload = settings.settings_1d()
        estimate = repro.make_algorithm(name).run(
            x, settings.EPS_1D, workload=workload, rng=settings.SEED_1D)
        assert estimate.tobytes() == golden[f"{name}_1d"].tobytes()

    @pytest.mark.parametrize("name", NAMES_2D)
    def test_2d_bitwise(self, golden, settings, name):
        x, workload = settings.settings_2d()
        estimate = repro.make_algorithm(name).run(
            x, settings.EPS_2D, workload=workload, rng=settings.SEED_2D)
        assert estimate.tobytes() == golden[f"{name}_2d"].tobytes()

    @pytest.mark.parametrize("suffix", ["1d_real", "2d_real"])
    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_non_integer_counts_bitwise(self, golden, settings, name, suffix):
        """Non-integer counts: unlike integer ones, their sums depend on the
        summation order, so these pins also catch a reordered reduction."""
        ndim = settings.SETTINGS[suffix][0]
        if ndim not in ALGORITHM_REGISTRY[name].properties.supported_dims:
            assert f"{name}_{suffix}" not in golden.files
            return
        pinned = golden[f"{name}_{suffix}"]
        assert np.isfinite(pinned).all()
        assert settings.release(name, suffix).tobytes() == pinned.tobytes()
