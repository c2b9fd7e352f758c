"""Tests for privlint v2: the interprocedural dataflow analysis (PL007–PL010).

Three layers are exercised:

* the call graph and summary fixpoints directly (``analyze_sources`` over
  small in-memory projects),
* the project rules, true-positive and true-negative fixtures each —
  including the committed ``tests/fixtures/privlint/leaky_helper.py`` file
  that PL002 provably misses and PL007 catches with a call-path trace,
* the static/runtime agreement contract: every registered algorithm that the
  static PL007 analysis calls clean must also release an untainted estimate
  under the runtime taint sanitizer.
"""

from __future__ import annotations

import importlib
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import ALGORITHM_REGISTRY
from repro.privlint import RULES, RULES_BY_ID, lint_paths, lint_source
from repro.privlint.dataflow import analyze_sources
from repro.privlint.dataflow.engine import PRIMITIVES
from repro.privlint.taint import is_tainted, sanitized_noise_stage, taint
from repro.workload.builders import prefix_workload, random_range_workload

FIXTURE = Path("tests/fixtures/privlint/leaky_helper.py")


def analyze(sources: dict[str, str]):
    return analyze_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()})


def project_findings(rule_id: str, sources: dict[str, str]):
    ((path, source),) = sources.items()
    return lint_source(textwrap.dedent(source), path,
                       [RULES_BY_ID[rule_id]]).findings


#: The interprocedural closures, PL007-PL010: one per invariant.
DATAFLOW_RULES = tuple(rule.closure for rule in RULES)


# -- the committed fixture: the acceptance-criterion pair ----------------------------


class TestCommittedFixture:
    def test_pl002_misses_the_helper_leak(self):
        """The per-module rule is provably blind to this fixture."""
        result = lint_source(FIXTURE.read_text(encoding="utf-8"),
                             FIXTURE.as_posix(), [RULES_BY_ID["PL002"]])
        assert not result.errors
        assert result.findings == []

    def test_pl007_catches_it_with_a_call_path_trace(self):
        source = FIXTURE.read_text(encoding="utf-8")
        findings = project_findings("PL007", {FIXTURE.as_posix(): source})
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "PL007"
        # The finding fires at infer's call into the helper...
        assert finding.line == source[:source.index("self._rescale(")].count(
            "\n") + 1
        # ...and the message walks the whole chain to the stash site.
        assert "infer" in finding.message
        assert "_rescale" in finding.message
        assert "→" in finding.message
        assert "select" in finding.message


# -- call graph ----------------------------------------------------------------------


class TestCallGraph:
    def test_virtual_dispatch_reaches_overrides(self):
        analysis = analyze({"pkg/mod.py": """
            class Base:
                def run(self, v):
                    return self._run(v)

                def _run(self, v):
                    raise NotImplementedError

            class Child(Base):
                def _run(self, v):
                    return v + 1
        """})
        project = analysis.project
        run = project.functions[("pkg/mod.py", "Base.run")]
        (call,) = [c for c in run.calls if c.callee.endswith("_run")]
        targets = project.resolve_call(("pkg/mod.py", "Base.run"), call)
        assert ("pkg/mod.py", "Base._run") in targets.functions
        assert ("pkg/mod.py", "Child._run") in targets.functions

    def test_registry_dispatch_propagates_taint(self):
        """``REGISTRY[name]()`` types the receiver as every registered class."""
        analysis = analyze({"pkg/mod.py": """
            class Alg:
                def run(self, v):
                    return v * 2

            REGISTRY = {"alg": Alg}

            def main(data):
                instance = REGISTRY["alg"]()
                return instance.run(data)
        """})
        tainted = analysis.entry_param_taint.get(("pkg/mod.py", "Alg.run"),
                                                 set())
        assert "v" in tainted

    def test_cross_module_import_resolution(self):
        analysis = analyze({
            "pkg/helpers.py": """
                def passthrough(v):
                    return v
            """,
            "pkg/entry.py": """
                from pkg.helpers import passthrough

                def main(data):
                    return passthrough(data)
            """,
        })
        tainted = analysis.entry_param_taint.get(
            ("pkg/helpers.py", "passthrough"), set())
        assert "v" in tainted
        assert analysis.entry_return_taint.get(
            ("pkg/helpers.py", "passthrough")) is True


# -- summaries -----------------------------------------------------------------------


class TestSummaries:
    def test_declassifier_returns_are_clean(self):
        analysis = analyze({"pkg/mod.py": """
            def smooth(x, rng):
                return laplace_noise(1.0, x.size, rng)
        """})
        assert not analysis.entry_return_taint.get(("pkg/mod.py", "smooth"))

    def test_taint_survives_arithmetic_and_locals(self):
        analysis = analyze({"pkg/mod.py": """
            def shape_stats(x):
                total = x.sum()
                return total / x.size

            def main(data):
                return shape_stats(data)
        """})
        assert analysis.entry_return_taint.get(
            ("pkg/mod.py", "shape_stats")) is True

    def test_structural_attrs_carry_no_taint(self):
        """``x.shape`` and friends are metadata, mirroring TaintedArray."""
        analysis = analyze({"pkg/mod.py": """
            def describe(x):
                return x.shape

            def main(data):
                return describe(data)
        """})
        assert not analysis.entry_return_taint.get(("pkg/mod.py", "describe"))


# -- PL008: budget flow --------------------------------------------------------------


BUDGET_FLOW_TP = {"src/repro/algorithms/demo.py": """
    def add_noise(scale, n, rng):
        return rng.laplace(0.0, scale, n)

    def select(x, workload, budget, rng, epsilon=1.0):
        return x + add_noise(1.0 / epsilon, x.size, rng)
"""}


class TestBudgetFlow:
    def test_raw_epsilon_through_helper_fires(self):
        findings = project_findings("PL008", BUDGET_FLOW_TP)
        assert [f.rule for f in findings] == ["PL008"]
        assert "add_noise" in findings[0].message
        assert "PrivacyBudget" in findings[0].message

    def test_budget_charge_is_clean(self):
        findings = project_findings("PL008", {
            "src/repro/algorithms/demo.py": """
                def add_noise(scale, n, rng):
                    return rng.laplace(0.0, scale, n)

                def select(x, workload, budget, rng):
                    eps = budget.spend_all("all")
                    return x + add_noise(1.0 / eps, x.size, rng)
            """})
        assert findings == []

    def test_out_of_scope_paths_are_ignored(self):
        sources = {"src/repro/serve/demo.py": BUDGET_FLOW_TP[
            "src/repro/algorithms/demo.py"]}
        assert project_findings("PL008", sources) == []


# -- PL009: RNG provenance -----------------------------------------------------------


class TestRngProvenance:
    def test_fresh_generator_through_helper_fires(self):
        findings = project_findings("PL009", {
            "src/repro/algorithms/demo.py": """
                import numpy as np

                def draw(scale, n, rng):
                    return rng.laplace(0.0, scale, n)

                def select(x, workload, budget, rng):
                    fresh = np.random.default_rng(0)
                    return x + draw(1.0, x.size, fresh)
            """})
        assert [f.rule for f in findings] == ["PL009"]
        assert "draw" in findings[0].message

    def test_threaded_generator_is_clean(self):
        findings = project_findings("PL009", {
            "src/repro/algorithms/demo.py": """
                def draw(scale, n, rng):
                    return rng.laplace(0.0, scale, n)

                def select(x, workload, budget, rng):
                    return x + draw(1.0, x.size, rng)
            """})
        assert findings == []

    def test_executor_modules_may_construct_generators(self):
        findings = project_findings("PL009", {
            "src/repro/core/executor.py": """
                import numpy as np

                def draw(scale, n, rng):
                    return rng.laplace(0.0, scale, n)

                def spawn_and_run(x):
                    return draw(1.0, x.size, np.random.default_rng(0))
            """})
        assert findings == []


# -- the primitive table -------------------------------------------------------------


#: One helper per noise primitive, each drawing through a call the project
#: cannot resolve (no import), as in a run that lints tests without src/.
UNRESOLVED_DRAWS = {
    "batched_laplace": "batched_laplace(rng, scale)",
    "laplace_noise": "laplace_noise(scale, x.shape, rng)",
}


class TestPrimitiveTable:
    @pytest.mark.parametrize("rule_id", ["PL008", "PL009"])
    @pytest.mark.parametrize("name", sorted(UNRESOLVED_DRAWS))
    def test_unresolved_primitive_binds_scale_and_generator(self, name,
                                                            rule_id):
        """The table's positions, not a guess, pick the scale and generator
        arguments of an unresolved primitive call."""
        findings = project_findings(rule_id, {
            "src/repro/algorithms/demo.py": f"""
                import numpy as np

                def helper(x, scale, rng):
                    return x + {UNRESOLVED_DRAWS[name]}

                def select(x, workload, budget, rng, epsilon=1.0):
                    return helper(x, 1.0 / epsilon, np.random.default_rng(0))
            """})
        assert [f.rule for f in findings] == [rule_id]
        assert f"{name}()" in findings[0].message

    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_rows_match_the_primitives_signatures(self, name):
        row = PRIMITIVES[name]
        function = getattr(importlib.import_module(row.module), name)
        params = list(inspect.signature(function).parameters)
        assert params[row.scale_at] == row.scale
        assert params[row.rng_at] == row.rng

    def test_sanitizer_patches_exactly_the_noise_rows(self):
        from repro.algorithms import mechanisms
        from repro.core import kernels

        modules = {row.module: importlib.import_module(row.module)
                   for row in PRIMITIVES.values()}
        assert set(modules.values()) == {mechanisms, kernels}
        with sanitized_noise_stage():
            patched = {name for name, row in PRIMITIVES.items()
                       if hasattr(getattr(modules[row.module], name),
                                  "__privlint_wrapped__")}
        assert patched == {name for name, row in PRIMITIVES.items()
                           if row.noise}
        assert patched == {"laplace_noise", "batched_laplace"}


# -- PL010: cross-method lock discipline ---------------------------------------------


class TestLockDiscipline:
    def test_unlocked_read_of_locked_attr_fires(self):
        findings = project_findings("PL010", {"src/repro/serve/demo.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def peek(self):
                    return self._count
        """})
        assert [f.rule for f in findings] == ["PL010"]
        assert "peek" in findings[0].message
        assert "bump" in findings[0].message

    def test_locked_read_is_clean(self):
        findings = project_findings("PL010", {"src/repro/serve/demo.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def peek(self):
                    with self._lock:
                        return self._count
        """})
        assert findings == []

    @pytest.mark.parametrize("mutation", [
        "self._history.append(item)",
        "self._history.extend([item])",
        "del self._history[item]",
    ])
    def test_in_place_mutation_under_the_lock_is_locked_state(self, mutation):
        """The ReleaseStore.history shape: published by mutation, read bare."""
        findings = project_findings("PL010", {"src/repro/serve/demo.py": f"""
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._history = []

                def publish(self, item):
                    with self._lock:
                        {mutation}

                @property
                def history(self):
                    return list(self._history)
        """})
        assert [f.rule for f in findings] == ["PL010"]
        assert "history" in findings[0].message
        assert "publish" in findings[0].message

    def test_in_place_mutation_outside_the_lock_is_not_locked_state(self):
        findings = project_findings("PL010", {"src/repro/serve/demo.py": """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._history = []

                def publish(self, item):
                    self._history.append(item)

                def history(self):
                    return list(self._history)
        """})
        assert findings == []


# -- suppression-as-declassification -------------------------------------------------


class TestSuppressionPropagation:
    def test_suppressing_the_deep_site_silences_the_chain(self):
        """One justified suppression at the leak site declassifies upward."""
        source = FIXTURE.read_text(encoding="utf-8").replace(
            "return values * (self._stash.sum() / max(values.sum(), 1.0))",
            "return values * (self._stash.sum() / max(values.sum(), 1.0))"
            "  # privlint: disable=PL007")
        # The comment stopped the chain's fixpoint, so PL100 counts it as
        # used: no PL007 and no "unused suppression" either.
        assert project_findings("PL007", {FIXTURE.as_posix(): source}) == []

    def test_suppression_on_a_clean_line_is_unused(self):
        """A ``disable=PL007`` on a call that reads nothing tainted stops
        nothing."""
        source = FIXTURE.read_text(encoding="utf-8")
        clean = "return x + laplace_noise(1.0 / eps, x.size, rng)"
        assert clean in source
        source = source.replace(clean, clean + "  # privlint: disable=PL007")
        findings = project_findings("PL007", {FIXTURE.as_posix(): source})
        unused = [f for f in findings if f.rule == "PL100"]
        assert [f.line for f in unused] == [source[:source.index(
            "# privlint: disable=PL007")].count("\n") + 1]
        assert "(PL007)" in unused[0].message
        assert len(findings) == 2            # the chain's PL007 still fires

    def test_suppressing_a_deep_generator_sink_is_used(self):
        """PL009's parameter-sink fixpoint: the suppressed draw keeps the
        helper's ``rng`` from becoming a sink, so the fresh generator its
        caller passes is not reported and the comment is not unused."""
        findings = project_findings("PL009", {
            "src/repro/algorithms/demo.py": """
                import numpy as np

                def draw(scale, n, rng):
                    return rng.laplace(0.0, scale, n)  # privlint: disable=PL009

                def select(x, workload, budget, rng):
                    fresh = np.random.default_rng(0)
                    return x + draw(1.0, x.size, fresh)
            """})
        assert findings == []


# -- PL007: interprocedural leak ----------------------------------------------------


class TestInterproceduralLeak:
    def test_direct_stash_read_in_the_first_class_family(self):
        """The first class family linked gets component id 0, which must
        not read as "no family" when infer reads a tainted attribute."""
        findings = project_findings("PL007", {"pkg/mod.py": """
            class Stasher:
                def select(self, x, workload, budget, rng):
                    self._stash = x

                def infer(self, measurements, plan):
                    return measurements + self._stash
        """})
        assert [(f.rule, f.line) for f in findings] == [("PL007", 7)]
        assert "self._stash" in findings[0].message


# -- fixpoints run to convergence ---------------------------------------------------


class TestConvergence:
    def test_pl007_follows_a_60_helper_chain(self):
        """``infer`` reaches the stash through 60 one-line helpers defined
        caller-first, so each fixpoint pass moves the taint one hop: a pass
        cap below the chain length would silently miss the leak."""
        lines = ["class Deep:",
                 "    def select(self, x, workload, budget, rng):",
                 "        self._stash = x",
                 "",
                 "    def infer(self, measurements, plan):",
                 "        return self._h0(measurements)"]
        for i in range(60):
            body = f"self._h{i + 1}(v)" if i < 59 else "v + self._stash"
            lines += ["", f"    def _h{i}(self, v):", f"        return {body}"]
        findings = project_findings("PL007", {"pkg/deep.py": "\n".join(lines)})
        assert [(f.rule, f.line) for f in findings] == [("PL007", 6)]
        assert "pkg.deep.Deep.infer → pkg.deep.Deep._h0" in findings[0].message


# -- static/runtime agreement (the cross-check contract) -----------------------------


def _runtime_cases():
    rng = np.random.default_rng(20160626)
    x1 = rng.multinomial(600, np.ones(64) / 64).astype(float)
    x2 = rng.multinomial(600, np.ones(64) / 64).reshape(8, 8).astype(float)
    return {
        1: (x1, prefix_workload(64)),
        2: (x2, random_range_workload((8, 8), 40,
                                      rng=np.random.default_rng(3))),
    }


RUNTIME_CASES = _runtime_cases()


@pytest.fixture(scope="module")
def pl007_flagged_paths():
    """Module paths under src/ where the static PL007 analysis fires."""
    result = lint_paths(["src"], [RULES_BY_ID["PL007"]])
    return {finding.path for finding in result.findings}


class TestStaticRuntimeAgreement:
    """Static-clean must imply runtime-untainted, for every registered
    algorithm: the static PL007 verdict and the runtime taint sanitizer are
    two views of the same invariant and may never disagree in the dangerous
    direction (static says clean, runtime observes a leak)."""

    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_static_clean_implies_runtime_untainted(
            self, name, pl007_flagged_paths):
        cls = ALGORITHM_REGISTRY[name]
        module_file = Path(inspect.getfile(cls)).as_posix()
        if any(module_file.endswith(p) for p in pl007_flagged_paths):
            pytest.skip(f"{name} is statically flagged; "
                        f"no runtime claim to check")
        ndim = min(cls.properties.supported_dims)
        x, workload = RUNTIME_CASES[ndim]
        algorithm = cls()
        with sanitized_noise_stage():
            release = algorithm.run(taint(x.copy()), 1.0, workload=workload,
                                    rng=np.random.default_rng(11))
        assert not is_tainted(release), (
            f"{name}: static PL007 analysis calls the release path clean, "
            f"but the runtime sanitizer observed a tainted release — the "
            f"static model is missing a flow")

    def test_dataflow_rules_registered(self):
        assert {rule.id for rule in DATAFLOW_RULES} == \
            {"PL007", "PL008", "PL009", "PL010"}
