"""Pytest configuration for the benchmark suite.

Ensures the benchmarks directory (for ``_shared``) and the tests directory
(for the ``reference`` implementations) are importable regardless of how
pytest was invoked.
"""

import sys
from pathlib import Path

BENCH_DIR = str(Path(__file__).resolve().parent)
# tests/ holds the test-only reference implementations (``reference``)
# that the speed benches race against.
TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
for path in (TESTS_DIR, BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "large_domain: 16M-cell end-to-end legs (run with DPBENCH_LARGE=1)")
