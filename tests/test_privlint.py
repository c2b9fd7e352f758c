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
    RULES,
    Finding,
    apply_baseline,
    lint_paths,
    lint_source,
    load_baseline,
    write_baseline,
)
from repro.privlint.cli import main as privlint_main

#: The per-function base cases, PL001-PL005: what this file's fixtures
#: exercise (their closures are tested in test_privlint_dataflow.py).
DEFAULT_RULES = tuple(kind for rule in RULES for kind in rule.base)
RULES_BY_ID = {kind.id: kind for kind in DEFAULT_RULES}


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

    def test_module_level_class_body_and_default_arg_flagged(self):
        findings = run_rule("PL001", """
            import numpy as np

            SHARED = np.random.default_rng()

            class Algo:
                rng = np.random.RandomState(0)

                def select(self, x, rng=np.random.default_rng()):
                    return x
        """)
        assert [(f.rule, f.line) for f in findings] == [
            ("PL001", 4), ("PL001", 7), ("PL001", 9)]

    def test_function_local_import_resolved(self):
        findings = run_rule("PL001", """
            def select(x):
                import numpy as np
                return np.random.permutation(x)
        """)
        assert [f.rule for f in findings] == ["PL001"]

    def test_generator_and_bit_generator_constructors_flagged(self):
        findings = run_rule("PL001", """
            import numpy as np

            def select(x):
                return np.random.Generator(np.random.PCG64(3)).permutation(x)
        """)
        assert sorted(f.message.split(";")[0] for f in findings) == [
            "fresh/global RNG via np.random.Generator",
            "fresh/global RNG via np.random.PCG64"]

    def test_seed_sequence_alone_is_not_a_generator(self):
        assert run_rule("PL001", """
            import numpy as np

            def select(x):
                return np.random.SeedSequence(3).spawn(2)
        """) == []

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

    def test_class_nested_in_a_function_checked(self):
        findings = run_rule("PL002", """
            def make_algorithm():
                class Algo:
                    def infer(self, measurements, plan):
                        return self._x

                return Algo
        """)
        assert [(f.rule, f.line) for f in findings] == [("PL002", 5)]

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

    def test_budget_is_judged_per_enclosing_def(self):
        # A nested def inherits its parent's budget; a sibling function's
        # nested def does not.
        findings = run_rule("PL003", """
            def select(x, workload, budget, rng):
                def draw(scale):
                    return rng.laplace(0.0, scale, x.size)
                return draw(1.0 / budget.spend_all("all"))

            def smooth(x, rng):
                def draw(scale):
                    return rng.laplace(0.0, scale, x.size)
                return draw(1.0)
        """)
        assert [(f.rule, f.line) for f in findings] == [("PL003", 9)]

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
        # The draw still fires, and the PL001 comment that silenced nothing
        # is reported as unused.
        assert [f.rule for f in result.findings] == ["PL003", "PL100"]
        assert "(PL001)" in result.findings[1].message

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

    def test_disable_inside_a_string_does_not_suppress(self):
        """Only comment tokens suppress: a string holding ``disable=all`` on
        the line of a real draw leaves the draw flagged."""
        result = lint_source(textwrap.dedent("""
            def smooth(x, rng):
                return x + laplace_noise(1.0, x.size, rng, "# privlint: disable=all")
        """), "src/repro/algorithms/demo.py", DEFAULT_RULES)
        assert [f.rule for f in result.findings] == ["PL003"]
        assert result.suppressed == []

    def test_disable_inside_a_string_is_not_an_unused_suppression(self):
        result = lint_source(
            'NOTE = "append  # privlint: disable=PL003  to silence a draw"\n',
            "src/repro/algorithms/demo.py", DEFAULT_RULES)
        assert result.findings == []

    def test_justification_after_the_ids(self):
        source = textwrap.dedent(self.LEAKY).replace(
            "disable=PL003", "disable=PL003 seeded test draw")
        result = lint_source(source, "src/repro/algorithms/demo.py",
                             DEFAULT_RULES)
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["PL003"]

    def test_unknown_id_reported_as_unused(self):
        source = textwrap.dedent(self.LEAKY).replace(
            "disable=PL003", "disable=PL03")
        result = lint_source(source, "src/repro/algorithms/demo.py",
                             DEFAULT_RULES)
        assert [f.rule for f in result.findings] == ["PL003", "PL100"]
        assert "(PL03)" in result.findings[1].message


# -- engine odds and ends ------------------------------------------------------------


class TestEngine:
    def test_syntax_error_reported_not_swallowed(self):
        result = lint_source("def broken(:\n", "src/repro/bad.py", DEFAULT_RULES)
        assert result.findings == []
        assert len(result.errors) == 1 and "syntax error" in result.errors[0]

    def test_rule_selection(self):
        # Only the rules passed to the engine report: PL003's draw is silent
        # under PL001 alone.
        path = "src/repro/algorithms/demo.py"
        assert lint_source(LEAKY_MODULE, path,
                           [RULES_BY_ID["PL001"]]).findings == []
        assert [f.rule for f in lint_source(
            LEAKY_MODULE, path, [RULES_BY_ID["PL003"]]).findings] == ["PL003"]

    def test_suppression_of_an_unselected_rule_is_not_unused(self):
        # A disable comment for a rule that did not run cannot be judged, so
        # it is neither credited nor reported as PL100.
        source = LEAKY_MODULE.replace(
            "rng)\n", "rng)  # privlint: disable=PL003\n")
        path = "src/repro/algorithms/demo.py"
        result = lint_source(source, path, [RULES_BY_ID["PL001"]])
        assert result.findings == [] and result.suppressed == []
        result = lint_source(source, path,
                             [RULES_BY_ID["PL001"], RULES_BY_ID["PL003"]])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["PL003"]

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

    def test_text_summary_counts_baselined_and_suppressed(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "leaky.py").write_text(LEAKY_MODULE)
        baseline = tmp_path / "baseline.json"
        assert privlint_main(
            [str(tree), "--write-baseline", str(baseline)],
            out=io.StringIO()) == 0
        (tree / "quiet.py").write_text(LEAKY_MODULE.replace(
            "rng)\n", "rng)  # privlint: disable=PL003\n"))
        out = io.StringIO()
        assert privlint_main([str(tree), "--baseline", str(baseline)],
                             out=out) == 0
        assert out.getvalue() == "0 findings, 1 baselined, 1 suppressed inline\n"
        out = io.StringIO()
        assert privlint_main([str(tree)], out=out) == 1
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(
            f"{(tree / 'leaky.py').as_posix()}:3: PL003 [error] noise draw")
        assert lines[1] == "1 finding, 1 suppressed inline"

    @pytest.mark.parametrize("switch", ["--format=json", "--rules=PL001",
                                        "--no-unused-disable"])
    def test_retired_switches_are_usage_errors(self, tmp_path, switch):
        """The report is text and every rule runs, PL100 included."""
        with pytest.raises(SystemExit) as excinfo:
            privlint_main([str(tmp_path), switch], out=io.StringIO())
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

    def test_unused_suppression_reported_by_default(self, tmp_path):
        (tmp_path / "clean.py").write_text(
            CLEAN_MODULE.replace(
                "return x + laplace_noise(1.0 / eps, x.size, rng)",
                "return x + laplace_noise(1.0 / eps, x.size, rng)"
                "  # privlint: disable=PL003"))
        out = io.StringIO()
        assert privlint_main([str(tmp_path)], out=out) == 1
        assert "PL100" in out.getvalue()


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

    def test_src_suppresses_only_the_epsilon_as_signal_heuristics(self):
        """Every draw in src/ sits in a def that takes the budget; the only
        inline suppressions left are the two places epsilon is a signal
        strength, not a split: AGrid's grid size and MWEM's round count."""
        sites = []
        for finding in lint_paths(["src"]).suppressed:
            with open(finding.path, encoding="utf-8") as source:
                line = source.read().splitlines()[finding.line - 1]
            sites.append((finding.path, finding.rule,
                          "coarse_size =" in line or "default_mwem_rounds(" in line))
        assert sorted(sites) == [
            ("src/repro/algorithms/grids.py", "PL004", True),
            ("src/repro/algorithms/mwem.py", "PL004", True),
        ]

    def test_dataflow_over_src_meets_time_budget(self):
        """A full run of every rule over src/ costs < 7.5x parsing and
        compiling the same files in the same process.

        The yardstick slows down with the host, so a busy machine does not
        fail the gate; on an idle 2-core host the ratio is about 4.4, the
        same headroom the former 2 s budget had over a ~1.15 s run."""
        import ast
        import time

        from repro.privlint.engine import iter_python_files

        sources = {path.as_posix(): path.read_text(encoding="utf-8")
                   for path in iter_python_files(["src"])}

        def compile_all():
            for path, source in sources.items():
                compile(ast.parse(source, path), path, "exec")

        def timed(run):
            start = time.perf_counter()
            run()
            return time.perf_counter() - start

        # Interleaved, best of each: a stall hits one sample, not the ratio.
        yardstick = [timed(compile_all)]
        lint = []
        for _ in range(2):
            lint.append(timed(lambda: lint_paths(["src"])))
            yardstick.append(timed(compile_all))
        ratio = min(lint) / min(yardstick)
        assert ratio < 7.5, (
            f"full privlint run over src/ took {min(lint):.2f}s, "
            f"{ratio:.1f}x parsing and compiling it ({min(yardstick):.2f}s)")
