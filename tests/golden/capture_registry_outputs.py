"""Capture the registry-wide golden outputs pinned by
``tests/test_registry_workloads.py::TestRegistryGoldenPins``.

Two fixed (data, workload, epsilon, seed) settings per dimensionality, every
registered algorithm that supports it: multinomial integer counts, and
non-integer (gamma-distributed) counts.  Integer counts below 2**53 sum
exactly in any order, so only the second setting sees a change in the
order of a floating-point summation.  Re-run this script ONLY when a PR
deliberately changes an algorithm's output (and say so in the pin test's
docstring); the whole point of the file is that everything else stays
bitwise-identical across refactors.

    PYTHONPATH=src python tests/golden/capture_registry_outputs.py
"""

from pathlib import Path

import numpy as np

import repro
from repro import ALGORITHM_REGISTRY

OUT = Path(__file__).parent / "registry_outputs.npz"

SEED_1D, SEED_2D = 1042, 1043
EPS_1D, EPS_2D = 0.1, 0.5


def _generator(seed: int) -> np.random.Generator:
    """The fixed-seed generator behind one golden setting's data."""
    return np.random.default_rng(seed)


def settings_1d():
    rng = _generator(2016)
    x = rng.multinomial(20_000, rng.dirichlet(np.ones(256))).astype(float)
    return x, repro.prefix_workload(256)


def settings_2d():
    rng = _generator(2017)
    x = rng.multinomial(50_000, rng.dirichlet(np.ones(256))).astype(float)
    return x.reshape(16, 16), repro.random_range_workload((16, 16), 200, rng=5)


def settings_1d_real():
    rng = _generator(2018)
    return rng.gamma(0.5, 160.0, size=256), repro.prefix_workload(256)


def settings_2d_real():
    rng = _generator(2019)
    x = rng.gamma(0.5, 400.0, size=256).reshape(16, 16)
    return x, repro.random_range_workload((16, 16), 200, rng=6)


#: Golden key suffix -> (dimensionality, settings, epsilon, seed).
SETTINGS = {
    "1d": (1, settings_1d, EPS_1D, SEED_1D),
    "2d": (2, settings_2d, EPS_2D, SEED_2D),
    "1d_real": (1, settings_1d_real, EPS_1D, SEED_1D),
    "2d_real": (2, settings_2d_real, EPS_2D, SEED_2D),
}


def release(name: str, suffix: str) -> np.ndarray:
    """``name``'s release at the setting of golden key suffix ``suffix``."""
    _, settings, epsilon, seed = SETTINGS[suffix]
    x, workload = settings()
    return repro.make_algorithm(name).run(x, epsilon, workload=workload, rng=seed)


def main() -> None:
    arrays = {}
    arrays["x1"], arrays["x2"] = settings_1d()[0], settings_2d()[0]
    for name, cls in sorted(ALGORITHM_REGISTRY.items()):
        for suffix, (ndim, *_) in SETTINGS.items():
            if ndim in cls.properties.supported_dims:
                arrays[f"{name}_{suffix}"] = release(name, suffix)
    np.savez_compressed(OUT, **arrays)
    print(f"wrote {OUT} ({len(arrays)} arrays)")


if __name__ == "__main__":
    main()
