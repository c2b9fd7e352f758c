"""Tests for the privlint static analyzer: rules, suppressions, baseline, CLI.

Each rule gets at least one true-positive fixture (the bug class it polices)
and one true-negative fixture (the sanctioned spelling of the same pattern),
exercised through :func:`repro.privlint.lint_source` so the fixtures stay
in-memory.  The CLI tests drive :func:`repro.privlint.cli.main` directly with
temp files and assert the documented exit codes.
"""

from __future__ import annotations

import io
import json
import textwrap

import pytest

from repro.privlint import (
    DEFAULT_RULES,
    RULES_BY_ID,
    Finding,
    apply_baseline,
    lint_source,
    load_baseline,
    write_baseline,
)
from repro.privlint.cli import main as privlint_main


def run_rule(rule_id: str, source: str, path: str = "src/repro/algorithms/demo.py"):
    """Lint ``source`` with a single rule; return the (unsuppressed) findings."""
    result = lint_source(textwrap.dedent(source), path, [RULES_BY_ID[rule_id]])
    assert not result.errors
    return result.findings


def run_all(source: str, path: str = "src/repro/algorithms/demo.py"):
    return lint_source(textwrap.dedent(source), path, DEFAULT_RULES)


# -- PL001: fresh/global RNG ---------------------------------------------------------


class TestFreshRng:
    def test_default_rng_flagged(self):
        findings = run_rule("PL001", """
            import numpy as np

            def select(x):
                rng = np.random.default_rng()
                return rng.integers(0, 10)
        """)
        assert [f.rule for f in findings] == ["PL001"]
        assert "default_rng" in findings[0].message
        assert findings[0].line == 5

    def test_legacy_global_draw_flagged(self):
        findings = run_rule("PL001", """
            import numpy as np

            def select(x):
                return x + np.random.laplace(0.0, 1.0, x.size)
        """)
        assert [f.rule for f in findings] == ["PL001"]

    def test_from_import_spelling_flagged(self):
        findings = run_rule("PL001", """
            from numpy.random import default_rng

            def select(x):
                return default_rng(0).permutation(x)
        """)
        assert [f.rule for f in findings] == ["PL001"]

    def test_passed_generator_clean(self):
        assert run_rule("PL001", """
            import numpy as np

            def select(x, rng):
                return x + rng.integers(0, 10)
        """) == []

    def test_executor_entry_point_exempt(self):
        assert run_rule("PL001", """
            import numpy as np

            def derive(seed):
                return np.random.default_rng(seed)
        """, path="src/repro/core/executor.py") == []

    def test_as_rng_coercion_exempt(self):
        assert run_rule("PL001", """
            import numpy as np

            def as_rng(rng):
                if rng is None:
                    return np.random.default_rng()
                return rng
        """) == []


# -- PL002: post-processing purity ---------------------------------------------------


class TestPostProcessingPurity:
    def test_data_parameter_flagged(self):
        findings = run_rule("PL002", """
            class Algo:
                def infer(self, measurements, plan, x):
                    return x
        """)
        assert [f.rule for f in findings] == ["PL002"]
        assert "parameter 'x'" in findings[0].message

    def test_stashed_self_attribute_flagged(self):
        findings = run_rule("PL002", """
            class Algo:
                def infer(self, measurements, plan):
                    return 0.5 * self._x + 0.5 * plan.values
        """)
        assert [f.rule for f in findings] == ["PL002"]
        assert "self._x" in findings[0].message

    def test_enclosing_scope_read_flagged(self):
        findings = run_rule("PL002", """
            data = load()

            def reconstruct(plan, measurements):
                return measurements.values + data
        """)
        assert [f.rule for f in findings] == ["PL002"]

    def test_clean_infer_passes(self):
        assert run_rule("PL002", """
            class Algo:
                def infer(self, measurements, plan):
                    return reconstruct(plan, measurements)
        """) == []

    def test_locally_bound_name_not_flagged(self):
        # `x` assigned inside the stage is that stage's own variable, not
        # the true data reaching in from outside.
        assert run_rule("PL002", """
            class Algo:
                def infer(self, measurements, plan):
                    x = measurements.values
                    return x * 2.0
        """) == []

    def test_other_methods_untouched(self):
        assert run_rule("PL002", """
            class Algo:
                def select(self, x, workload, budget, rng):
                    return x.sum()
        """) == []


# -- PL003: unmetered noise ----------------------------------------------------------


class TestUnmeteredNoise:
    def test_unmetered_helper_draw_flagged(self):
        findings = run_rule("PL003", """
            def smooth(x, rng):
                return x + laplace_noise(1.0, x.size, rng)
        """)
        assert [f.rule for f in findings] == ["PL003"]

    def test_generator_method_draw_flagged(self):
        findings = run_rule("PL003", """
            def smooth(x, rng):
                return x + rng.laplace(0.0, 1.0, x.size)
        """)
        assert [f.rule for f in findings] == ["PL003"]

    def test_budget_taking_function_is_metered(self):
        assert run_rule("PL003", """
            def select(x, workload, budget, rng):
                eps = budget.spend_fraction(0.5, "split")
                return x + laplace_noise(1.0 / eps, x.size, rng)
        """) == []

    def test_mechanisms_module_sanctioned(self):
        assert run_rule("PL003", """
            def laplace_noise(scale, size, rng):
                return rng.laplace(0.0, scale, size)
        """, path="src/repro/algorithms/mechanisms.py") == []

    def test_measure_plan_module_sanctioned(self):
        assert run_rule("PL003", """
            def measure_plan(x, plan, rng, budget):
                return batched_laplace(rng, plan.scales)
        """, path="src/repro/core/plan.py") == []


# -- PL004: raw epsilon arithmetic ---------------------------------------------------


class TestRawEpsilonArithmetic:
    def test_raw_split_flagged(self):
        findings = run_rule("PL004", """
            def _run(self, x, epsilon, workload, rng):
                eps_half = epsilon / 2.0
                return eps_half
        """)
        assert [f.rule for f in findings] == ["PL004"]
        assert "'epsilon'" in findings[0].message

    def test_split_inside_spend_call_allowed(self):
        assert run_rule("PL004", """
            def _run(self, x, epsilon, workload, rng):
                budget = PrivacyBudget(epsilon)
                eps_half = budget.spend(epsilon * 0.5, "first-half")
                return eps_half
        """) == []

    def test_comparison_is_validation_not_splitting(self):
        assert run_rule("PL004", """
            def _run(self, x, epsilon, workload, rng):
                if epsilon / 2.0 < 1e-12:
                    raise ValueError("epsilon too small")
        """) == []

    def test_budget_helper_function_allowed(self):
        assert run_rule("PL004", """
            def geometric_budget_shares(epsilon, levels):
                return [epsilon / 2.0 ** k for k in range(levels)]
        """) == []

    def test_out_of_scope_module_ignored(self):
        # Analysis/tuning code uses epsilon as a plot coordinate.
        assert run_rule("PL004", """
            def error_curve(epsilon):
                return 1.0 / epsilon ** 2
        """, path="src/repro/analysis/curves.py") == []

    def test_derived_eps_names_not_flagged(self):
        assert run_rule("PL004", """
            def _run(self, x, epsilon, workload, rng):
                eps_noise = budget.spend_all("noise")
                scale = 2.0 / eps_noise
                return scale
        """) == []


# -- PL005: unlocked lazy cache ------------------------------------------------------


class TestUnlockedLazyCache:
    THREAD_SHARED_LEAKY = """
        import threading

        class Shared:
            \"\"\"Thread-shared operator cache.\"\"\"

            def __init__(self):
                self._lock = threading.Lock()
                self._cache = None

            @property
            def cache(self):
                if self._cache is None:
                    self._cache = build()
                return self._cache
    """

    def test_unlocked_publication_flagged(self):
        findings = run_rule("PL005", self.THREAD_SHARED_LEAKY)
        assert [f.rule for f in findings] == ["PL005"]
        assert "self._cache" in findings[0].message

    def test_locked_publication_clean(self):
        assert run_rule("PL005", """
            import threading

            class Shared:
                \"\"\"Thread-shared operator cache.\"\"\"

                def __init__(self):
                    self._lock = threading.Lock()
                    self._cache = None

                @property
                def cache(self):
                    cache = self._cache
                    if cache is None:
                        with self._lock:
                            if self._cache is None:
                                self._cache = build()
                            cache = self._cache
                    return cache
        """) == []

    def test_non_shared_class_ignored(self):
        assert run_rule("PL005", """
            class Local:
                def __init__(self):
                    self._cache = None

                @property
                def cache(self):
                    if self._cache is None:
                        self._cache = build()
                    return self._cache
        """) == []

    def test_init_exempt(self):
        # __init__ runs before the instance is shared; publishing there is fine.
        assert run_rule("PL005", """
            import threading

            class Shared:
                \"\"\"Thread-shared.\"\"\"

                def __init__(self, eager):
                    self._lock = threading.Lock()
                    self._cache = build() if eager is None else eager
        """) == []


# -- suppressions --------------------------------------------------------------------


class TestSuppressions:
    LEAKY = """
        def smooth(x, rng):
            return x + laplace_noise(1.0, x.size, rng)  # privlint: disable=PL003
    """

    def test_matching_rule_suppressed(self):
        result = run_all(self.LEAKY)
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["PL003"]

    def test_non_matching_rule_still_fires(self):
        result = run_all("""
            def smooth(x, rng):
                return x + laplace_noise(1.0, x.size, rng)  # privlint: disable=PL001
        """)
        assert [f.rule for f in result.findings] == ["PL003"]

    def test_disable_all(self):
        result = run_all("""
            def smooth(x, rng):
                return x + laplace_noise(1.0, x.size, rng)  # privlint: disable=all
        """)
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_comma_list(self):
        result = run_all("""
            def _run(self, x, epsilon, workload, rng):
                return x + laplace_noise(2.0 / epsilon, x.size, rng)  # privlint: disable=PL003,PL004
        """)
        assert result.findings == []
        assert sorted(f.rule for f in result.suppressed) == ["PL003", "PL004"]

    def test_suppression_is_line_scoped(self):
        result = run_all("""
            def smooth(x, rng):
                a = x + laplace_noise(1.0, x.size, rng)  # privlint: disable=PL003
                b = x + laplace_noise(1.0, x.size, rng)
                return a + b
        """)
        assert [f.rule for f in result.findings] == ["PL003"]
        assert [f.rule for f in result.suppressed] == ["PL003"]


# -- engine odds and ends ------------------------------------------------------------


class TestEngine:
    def test_syntax_error_reported_not_swallowed(self):
        result = lint_source("def broken(:\n", "src/repro/bad.py", DEFAULT_RULES)
        assert result.findings == []
        assert result.errors and "syntax error" in result.errors[0]
        assert result.exit_code == 2

    def test_findings_sorted_by_location(self):
        result = run_all("""
            import numpy as np

            def late(x):
                return np.random.default_rng()

            def early(x, rng):
                return x + rng.laplace(0.0, 1.0)
        """)
        lines = [f.line for f in result.findings]
        assert lines == sorted(lines)

    def test_every_default_rule_has_id_and_description(self):
        seen = set()
        for rule in DEFAULT_RULES:
            assert rule.id.startswith("PL") and len(rule.id) == 5
            assert rule.id not in seen
            seen.add(rule.id)
            assert rule.description
            assert rule.severity in ("error", "warning")

    def test_default_rules_are_pl001_to_pl005(self):
        expected = ["PL001", "PL002", "PL003", "PL004", "PL005"]
        assert [rule.id for rule in DEFAULT_RULES] == expected
        assert sorted(RULES_BY_ID) == expected


# -- baseline ------------------------------------------------------------------------


class TestBaseline:
    def _findings(self):
        return [
            Finding(path="src/a.py", line=3, rule="PL003", severity="error",
                    message="noise draw"),
            Finding(path="src/a.py", line=9, rule="PL003", severity="error",
                    message="noise draw"),
            Finding(path="src/b.py", line=1, rule="PL001", severity="error",
                    message="fresh rng"),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, self._findings())
        baseline = load_baseline(path)
        assert baseline[("PL003", "src/a.py", "noise draw")] == 2
        assert baseline[("PL001", "src/b.py", "fresh rng")] == 1

    def test_apply_splits_new_and_grandfathered(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, self._findings()[:1])   # only one PL003 known
        new, grandfathered, stale = apply_baseline(
            self._findings(), load_baseline(path))
        assert len(grandfathered) == 1
        assert sorted(f.rule for f in new) == ["PL001", "PL003"]
        assert not stale

    def test_line_numbers_not_part_of_identity(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, self._findings())
        moved = [Finding(path=f.path, line=f.line + 40, rule=f.rule,
                         severity=f.severity, message=f.message)
                 for f in self._findings()]
        new, grandfathered, stale = apply_baseline(moved, load_baseline(path))
        assert new == [] and len(grandfathered) == 3 and not stale

    def test_stale_entries_surface(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, self._findings())
        new, grandfathered, stale = apply_baseline([], load_baseline(path))
        assert new == [] and grandfathered == []
        assert sum(stale.values()) == 3

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)


# -- CLI -----------------------------------------------------------------------------


LEAKY_MODULE = textwrap.dedent("""
    def smooth(x, rng):
        return x + laplace_noise(1.0, x.size, rng)
""")

CLEAN_MODULE = textwrap.dedent("""
    def select(x, workload, budget, rng):
        eps = budget.spend_all("all")
        return x + laplace_noise(1.0 / eps, x.size, rng)
""")


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "clean.py").write_text(CLEAN_MODULE)
        out = io.StringIO()
        assert privlint_main([str(tmp_path)], out=out) == 0
        assert "0 findings" in out.getvalue()

    def test_finding_exits_one_and_prints_location(self, tmp_path):
        target = tmp_path / "leaky.py"
        target.write_text(LEAKY_MODULE)
        out = io.StringIO()
        assert privlint_main([str(tmp_path)], out=out) == 1
        text = out.getvalue()
        assert "PL003" in text and "leaky.py:3" in text

    def test_missing_path_exits_two(self, tmp_path):
        assert privlint_main([str(tmp_path / "nope")], out=io.StringIO()) == 2

    def test_syntax_error_exits_two(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        assert privlint_main([str(tmp_path)], out=io.StringIO()) == 2

    def test_baseline_gates_only_new_findings(self, tmp_path):
        (tmp_path / "leaky.py").write_text(LEAKY_MODULE)
        baseline = tmp_path / "baseline.json"
        assert privlint_main(
            [str(tmp_path), "--write-baseline", str(baseline)],
            out=io.StringIO()) == 0
        # Same tree against its own baseline: clean.
        assert privlint_main(
            [str(tmp_path), "--baseline", str(baseline)],
            out=io.StringIO()) == 0
        # A new finding in another file still fails.
        (tmp_path / "fresh.py").write_text(LEAKY_MODULE)
        assert privlint_main(
            [str(tmp_path), "--baseline", str(baseline)],
            out=io.StringIO()) == 1

    def test_unreadable_baseline_exits_two(self, tmp_path):
        (tmp_path / "clean.py").write_text(CLEAN_MODULE)
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        assert privlint_main(
            [str(tmp_path), "--baseline", str(bad)], out=io.StringIO()) == 2

    def test_json_output_schema(self, tmp_path):
        (tmp_path / "leaky.py").write_text(LEAKY_MODULE)
        out = io.StringIO()
        assert privlint_main([str(tmp_path), "--format=json"], out=out) == 1
        document = json.loads(out.getvalue())
        assert set(document) == {"version", "findings", "baselined",
                                 "suppressed", "stale_baseline", "counts"}
        assert document["version"] == 1
        (finding,) = document["findings"]
        assert set(finding) == {"rule", "severity", "path", "line", "col",
                                "end_lineno", "message"}
        assert finding["rule"] == "PL003"
        assert finding["col"] >= 1
        assert document["counts"]["findings"] == 1

    def test_rule_selection(self, tmp_path):
        (tmp_path / "leaky.py").write_text(LEAKY_MODULE)
        # Only PL001 requested: the PL003 finding is not reported.
        assert privlint_main(
            [str(tmp_path), "--rules", "PL001"], out=io.StringIO()) == 0

    def test_unknown_rule_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            privlint_main([str(tmp_path), "--rules", "PL999"],
                          out=io.StringIO())
        assert excinfo.value.code == 2

    def test_retired_pl006_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            privlint_main([str(tmp_path), "--rules", "PL006"],
                          out=io.StringIO())
        assert excinfo.value.code == 2

    def test_stale_baseline_exits_two(self, tmp_path):
        """A baseline entry whose finding was fixed must fail the run."""
        leaky = tmp_path / "leaky.py"
        leaky.write_text(LEAKY_MODULE)
        baseline = tmp_path / "baseline.json"
        assert privlint_main(
            [str(tmp_path), "--write-baseline", str(baseline)],
            out=io.StringIO()) == 0
        leaky.write_text(CLEAN_MODULE)  # the finding is gone, the entry stays
        out = io.StringIO()
        assert privlint_main(
            [str(tmp_path), "--baseline", str(baseline)], out=out) == 2
        assert "stale baseline" in out.getvalue()

    def test_sarif_output_structure(self, tmp_path):
        (tmp_path / "leaky.py").write_text(LEAKY_MODULE)
        out = io.StringIO()
        assert privlint_main([str(tmp_path), "--format=sarif"], out=out) == 1
        document = json.loads(out.getvalue())
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "PL003" in rule_ids
        result = next(r for r in run["results"] if r["ruleId"] == "PL003")
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("leaky.py")
        assert location["region"]["startLine"] == 3

    def test_unused_suppression_reported_by_default(self, tmp_path):
        (tmp_path / "clean.py").write_text(
            CLEAN_MODULE.replace(
                "return x + laplace_noise(1.0 / eps, x.size, rng)",
                "return x + laplace_noise(1.0 / eps, x.size, rng)"
                "  # privlint: disable=PL003"))
        out = io.StringIO()
        assert privlint_main([str(tmp_path)], out=out) == 1
        assert "PL100" in out.getvalue()
        assert privlint_main(
            [str(tmp_path), "--no-unused-disable"], out=io.StringIO()) == 0

    def test_summary_cache_round_trip(self, tmp_path):
        (tmp_path / "clean.py").write_text(CLEAN_MODULE)
        cache = tmp_path / "facts-cache.json"
        assert privlint_main(
            [str(tmp_path), "--summary-cache", str(cache)],
            out=io.StringIO()) == 0
        stored = json.loads(cache.read_text())
        assert stored["entries"]  # per-file facts landed on disk
        assert privlint_main(
            [str(tmp_path), "--summary-cache", str(cache)],
            out=io.StringIO()) == 0


# -- the repository gates itself -----------------------------------------------------


class TestSelfCheck:
    def test_src_is_clean_against_committed_baseline(self):
        """The acceptance gate: `python -m repro.privlint src` exits 0."""
        assert privlint_main(
            ["src", "--baseline", "privlint-baseline.json"],
            out=io.StringIO()) == 0

    def test_committed_baseline_is_empty(self):
        baseline = load_baseline("privlint-baseline.json")
        assert sum(baseline.values()) == 0

    def test_dataflow_over_src_meets_time_budget(self, tmp_path):
        """Interprocedural analysis of the whole tree: <10s cold, <2s warm."""
        import time

        from repro.privlint.dataflow import FactsCache, analyze_paths

        cache = tmp_path / "facts-cache.json"
        start = time.perf_counter()
        analyze_paths(["src"], cache_path=cache)
        cold = time.perf_counter() - start
        assert cold < 10.0, f"cold dataflow run took {cold:.2f}s"

        start = time.perf_counter()
        analyze_paths(["src"], cache_path=cache)
        warm = time.perf_counter() - start
        assert warm < 2.0, f"warm dataflow run took {warm:.2f}s"
        # The warm run really did come from the cache, not a silent re-parse.
        store = FactsCache(cache)
        probe = "src/repro/privlint/__init__.py"
        from pathlib import Path
        assert store.get(probe, Path(probe).read_text(encoding="utf-8")) \
            is not None
