"""The four privacy invariants, one rule each.

Every rule reads the per-module facts of :mod:`.dataflow.facts` for its
per-function *base case* and the interprocedural summaries of
:mod:`.dataflow.engine` for its *closure* (the same invariant carried across
calls).  Each rule owns the finding kinds it reports, and every kind keeps
the id that motivated it:

* **RNG provenance** — the determinism contract behind bitwise-identical
  parallel runs (PR 1): all randomness flows through a passed-in
  ``np.random.Generator`` derived from the executor's ``SeedSequence`` tree.
  PL001: a fresh or global RNG anywhere; PL009: a fresh generator flowing
  into a mechanism through any call chain.
* **Post-processing purity** — the PR 3 DAWA leak class: once the noise stage
  has run, ``infer``/``reconstruct`` operate on the plan and the noisy
  measurements *alone*.  PL002: a data-named parameter, ``self`` attribute
  or free variable read in the stage itself; PL007: true data reaching the
  stage through any transitive callee.
* **Metered noise and budget flow** — Laplace/geometric draws belong to the
  shared, :class:`~repro.algorithms.mechanisms.PrivacyBudget`-metered noise
  stage, and every split of epsilon is charged.  PL003: a draw where no
  enclosing ``def`` takes the budget; PL004: raw ``epsilon`` arithmetic
  outside accounting; PL008: a raw epsilon bound into a noise scale through
  function indirection.
* **Lock discipline** — the PR 6 ``QueryMatrix`` race.  PL005: a lazy cache
  in a thread-shared class published outside the lock; PL010: a read of
  lock-published state (assigned, subscript-stored or mutated in place under
  the lock) from a method that never takes the lock.

Messages never embed line numbers: a baseline entry's identity is
``(rule, path, message)``, so unrelated edits do not churn the baseline.
"""

from __future__ import annotations

from typing import Callable, ClassVar, Iterator

from .dataflow.callgraph import FuncKey
from .dataflow.engine import (
    FRESH_GENERATORS,
    GENERATOR_DRAWS,
    PRIMITIVES,
    RNG_ADAPTER,
    ProjectAnalysis,
    SinkTable,
    fresh_rng_token,
    raw_epsilon_token,
)
from .dataflow.facts import DATA_NAMES, CallFacts, FunctionFacts
from .findings import Finding, FindingKind

__all__ = ["RULES", "RULES_BY_ID", "LockDisciplineRule", "MeteredNoiseRule",
           "PostProcessingPurityRule", "RngProvenanceRule"]


def _finding(kind: FindingKind, path: str, line: int,
             message: str) -> Finding:
    """A finding of ``kind`` at ``line``."""
    return Finding(path=path, line=line, rule=kind.id,
                   severity=kind.severity, message=message)


def _sink_bindings(analysis: ProjectAnalysis, sinks: SinkTable,
                   fkey: FuncKey, call: CallFacts,
                   offends: Callable[[ProjectAnalysis, FuncKey, str], bool],
                   ) -> Iterator[str]:
    """The trace of every callee sink ``call`` binds an offending value into
    (the first such parameter per callee)."""
    project = analysis.project
    follow = lambda k: next(iter(sinks.get(k, {}).values()), None)  # noqa: E731
    bindings = project.bindings(fkey, call)
    for callee in sorted(bindings):
        for param, tokens in bindings[callee].items():
            witness = sinks.get(callee, {}).get(param)
            if witness is None \
                    or not any(offends(analysis, fkey, t) for t in tokens):
                continue
            chain = analysis.trace(witness, follow)
            trace = f"{project.qualified(callee)}({param}=…)"
            yield trace + (f" → {chain}" if chain else "")
            break


class _Rule:
    """One invariant: its per-function base case kinds and its closure kind."""

    base: ClassVar[tuple[FindingKind, ...]]
    closure: ClassVar[FindingKind]

    @property
    def kinds(self) -> tuple[FindingKind, ...]:
        return (*self.base, self.closure)

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        """Every finding of every kind this rule owns."""
        raise NotImplementedError


# --------------------------------------------------------------------------------------
# RNG provenance: PL001 (base) + PL009 (closure)
# --------------------------------------------------------------------------------------

class RngProvenanceRule(_Rule):
    base = (FindingKind(
        "PL001", "fresh-rng",
        "Randomness must come from a passed-in np.random.Generator; "
        "constructing or seeding one outside the executor entry "
        "points breaks the bitwise serial == parallel contract."),)
    closure = FindingKind(
        "PL009", "rng-provenance",
        "Every generator that reaches a mechanism must be threaded "
        "down from the executor's SeedSequence spawn; a freshly "
        "constructed generator flowing into a draw through any "
        "call chain silently breaks the bitwise "
        "serial == parallel contract (PL001, interprocedural).")

    #: numpy.random attributes whose *call* constructs or seeds a generator,
    #: or draws from the legacy global stream.
    _FORBIDDEN: ClassVar[set[str]] = FRESH_GENERATORS | {
        "seed",
        # legacy module-level draws (the implicit global stream)
        "random", "rand", "randn", "randint", "choice", "shuffle",
        "permutation", "laplace", "normal", "uniform", "exponential",
        "geometric", "multinomial", "dirichlet",
    }
    #: modules that own the seeding currency: the executor derives per-job
    #: SeedSequences, the benchmark turns them into the per-job Generators.
    _ENTRY_POINTS = ("core/executor.py", "core/benchmark.py")

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        project = analysis.project
        (fresh,) = self.base
        for path, mod in project.modules.items():
            if path.endswith(self._ENTRY_POINTS):
                continue
            for site in mod.call_sites:
                if site.callee is None or RNG_ADAPTER in site.scopes:
                    continue
                module, _, attr = project.resolve_external_dotted(
                    mod, site.callee).rpartition(".")
                if module == "numpy.random" and attr in self._FORBIDDEN:
                    yield _finding(
                        fresh, path, site.line,
                        f"fresh/global RNG via np.random.{attr}; accept a "
                        f"seeded np.random.Generator argument instead "
                        f"(determinism contract)")
            for qualname, fn in mod.functions.items():
                if fn.name == RNG_ADAPTER:
                    continue
                fkey = (path, qualname)
                for call in fn.calls:
                    for trace in _sink_bindings(
                            analysis, analysis.rng_sink_params, fkey, call,
                            fresh_rng_token):
                        yield _finding(
                            self.closure, path, call.line,
                            f"freshly constructed generator flows into a "
                            f"mechanism: {project.qualified(fkey)} → {trace}; "
                            f"thread the executor-spawned generator through "
                            f"instead")


# --------------------------------------------------------------------------------------
# Post-processing purity: PL002 (base) + PL007 (closure)
# --------------------------------------------------------------------------------------

class PostProcessingPurityRule(_Rule):
    base = (FindingKind(
        "PL002", "post-processing-purity",
        "infer/reconstruct bodies operate on the plan and the noisy "
        "measurements alone; any reference to the true "
        "histogram/dataset is a PR-3-class privacy leak."),)
    closure = FindingKind(
        "PL007", "interprocedural-leak",
        "infer/reconstruct and everything they call operate on "
        "sanitized measurements only; a helper that reads stashed "
        "true data (or a tainted module global) is the PR-3 leak "
        "class routed around PL002's per-function check.")

    #: Function names that begin the post-processing stage.
    _STAGE_NAMES = ("infer", "reconstruct")

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for fkey, fn in analysis.project.functions.items():
            if fn.name in self._STAGE_NAMES:
                yield from self._base(fkey[0], fn)
                yield from self._closure(analysis, fkey, fn)

    def _base(self, path: str, fn: FunctionFacts) -> Iterator[Finding]:
        (kind,) = self.base
        stage = f"post-processing stage {fn.name}()"
        for name in fn.params + tuple(p for p in (fn.vararg, fn.kwarg) if p):
            if name in DATA_NAMES:
                yield _finding(
                    kind, path, fn.line,
                    f"{stage} takes the true data as parameter {name!r}; it "
                    f"must consume only the plan and the noisy measurements")
        for name, line, _col in fn.data_reads:
            yield _finding(
                kind, path, line,
                f"{stage} reads {name!r} from an enclosing scope — the true "
                f"data must not reach it (PR-3 leak class)")
        for attr, line, _locked in fn.attr_loads:
            if attr.lstrip("_") in DATA_NAMES:
                yield _finding(
                    kind, path, line,
                    f"{stage} reads self.{attr} — stashing the true data on "
                    f"the algorithm and reading it after the noise stage is "
                    f"a PR-3-class leak")

    def _closure(self, analysis: ProjectAnalysis, fkey: FuncKey,
                 fn: FunctionFacts) -> Iterator[Finding]:
        project = analysis.project
        root = project.qualified(fkey)
        # (a) the root itself reads a tainted attribute (data-named stashes
        # are the base case's)
        tainted = analysis.attr_taint.get(project.component(fkey), {})
        for attr, line, _locked in fn.attr_loads:
            origin = tainted.get(attr)
            if origin is None or attr.lstrip("_") in DATA_NAMES:
                continue
            yield _finding(
                self.closure, fkey[0], line,
                f"{root} reads self.{attr}, which carries the true data "
                f"(stored by {project.qualified(origin)}); the "
                f"post-processing stage must consume only the plan and "
                f"the sanitized measurements")
        # (b) a transitive callee touches taint even with clean arguments
        follow = analysis.touches_taint_clean.get
        for call in fn.calls:
            for callee in sorted(project.resolve_call(fkey, call).functions):
                witness = analysis.touches_taint_clean.get(callee)
                if witness is None:
                    continue
                chain = analysis.trace(witness, follow)
                chain_text = f"{root} → {project.qualified(callee)}"
                if chain and not chain.startswith(project.qualified(callee)):
                    chain_text += f" → {chain}"
                yield _finding(
                    self.closure, fkey[0], call.line,
                    f"true data reaches the post-processing stage via "
                    f"{chain_text}")
                break  # one finding per call site is enough


# --------------------------------------------------------------------------------------
# Metered noise and budget flow: PL003 + PL004 (base) + PL008 (closure)
# --------------------------------------------------------------------------------------

class MeteredNoiseRule(_Rule):
    base = (
        FindingKind(
            "PL003", "unmetered-noise",
            "Noise draws (rng.laplace, rng.geometric, the noise "
            "primitives, ...) belong to mechanisms.py, measure_plan or "
            "the noise kernel; elsewhere they must sit inside a function that "
            "takes the shared PrivacyBudget (a metered selection "
            "stage)."),
        FindingKind(
            "PL004", "raw-epsilon-arithmetic",
            "Multiplying/dividing the raw epsilon is budget splitting; "
            "it belongs in PrivacyBudget charges or budget-share "
            "helpers so the accountant sees every split."),
    )
    closure = FindingKind(
        "PL008", "budget-flow",
        "A noise-scale expression must be derivable from a "
        "PrivacyBudget charge (budget.spend and friends) along "
        "every call path; binding a raw epsilon into a parameter "
        "that reaches a draw through function indirection skips "
        "the accountant.")

    #: where drawing noise is the module's job
    _SANCTIONED = ("algorithms/mechanisms.py", "core/plan.py",
                   "core/kernels.py")
    _NOISE_FUNCTIONS: ClassVar[set[str]] = {
        name for name, row in PRIMITIVES.items() if row.noise}
    #: the release path the budget kinds police; analysis/tuning modules use
    #: epsilon as a signal-strength coordinate, not as a budget.
    _SCOPE = ("core/plan.py", "core/repair.py", "workload/selection.py")

    def _in_scope(self, path: str) -> bool:
        return not path.endswith("algorithms/mechanisms.py") and (
            path.endswith(self._SCOPE) or "/algorithms/" in path)

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        project = analysis.project
        unmetered, raw_split = self.base
        for path, mod in project.modules.items():
            if not path.endswith(self._SANCTIONED):
                for site in mod.call_sites:
                    if site.metered:
                        continue
                    if site.method is None \
                            and site.callee in self._NOISE_FUNCTIONS:
                        drawn = f"{site.callee}()"
                    elif site.method in GENERATOR_DRAWS:
                        drawn = f".{site.method}()"
                    else:
                        continue
                    yield _finding(
                        unmetered, path, site.line,
                        f"noise draw {drawn} outside the metered noise "
                        f"stage; route it through measure_plan, or charge a "
                        f"PrivacyBudget in the enclosing function")
            if not self._in_scope(path):
                continue
            for line, op in mod.epsilon_ops:
                yield _finding(
                    raw_split, path, line,
                    f"raw arithmetic on 'epsilon' ({op}) outside budget "
                    f"accounting; charge it through PrivacyBudget.spend/"
                    f"spend_fraction or a budget-share helper")
            for qualname, fn in mod.functions.items():
                fkey = (path, qualname)
                for call in fn.calls:
                    for trace in _sink_bindings(
                            analysis, analysis.scale_params, fkey, call,
                            raw_epsilon_token):
                        yield _finding(
                            self.closure, path, call.line,
                            f"raw epsilon flows unmetered into a noise "
                            f"scale: {project.qualified(fkey)} binds it "
                            f"into {trace}; route the split through a "
                            f"PrivacyBudget charge")


# --------------------------------------------------------------------------------------
# Lock discipline: PL005 (base) + PL010 (closure)
# --------------------------------------------------------------------------------------

class LockDisciplineRule(_Rule):
    base = (FindingKind(
        "PL005", "unlocked-lazy-cache",
        "In a class documented as thread-shared (docstring mentions "
        "threads, or the class owns a lock), a lazily built cache "
        "must be assigned inside `with self._lock:` — plain "
        "publication races concurrent readers (the PR 6 "
        "QueryMatrix bug)."),)
    closure = FindingKind(
        "PL010", "cross-method-lock-discipline",
        "An attribute published under `with self._lock:` in one "
        "method (assigned, subscript-stored, or mutated in place by "
        "a call such as `.append`) is part of the class's locked "
        "state; reading it "
        "from a method that never acquires the lock races the "
        "writer (PL005, generalised across methods).")

    #: methods that run before or after the instance is shared, or only
    #: render it
    _EXEMPT_METHODS: ClassVar[set[str]] = {
        "__init__", "__new__", "__getstate__", "__setstate__",
        "__init_subclass__", "__del__", "__repr__", "__reduce__"}

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        project = analysis.project
        (lazy,) = self.base
        for path, mod in project.modules.items():
            for cls in mod.classes.values():
                methods = [fn for fn in mod.functions.values()
                           if fn.class_name == cls.name]
                attrs = [entry[0] for fn in methods
                         for entry in (*fn.attr_loads, *fn.attr_stores)]
                if not (cls.thread_doc
                        or any("lock" in attr.lower() for attr in attrs)):
                    continue
                for fn in methods:
                    if fn.name in self._EXEMPT_METHODS or not fn.lazy_guard:
                        continue
                    for attr, _tokens, line, locked in fn.attr_stores:
                        if locked or not attr.startswith("_") \
                                or "lock" in attr.lower():
                            continue
                        yield _finding(
                            lazy, path, line,
                            f"{cls.name}.{fn.name} publishes lazy cache "
                            f"self.{attr} without holding the lock; build "
                            f"under `with self._lock:` and publish by one "
                            f"assignment")
        yield from self._closure(analysis)

    def _closure(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        project = analysis.project
        # locked attrs per class family, with the writing method
        locked: dict[int, dict[str, FuncKey]] = {}
        for fkey, fn in project.functions.items():
            component = project.component(fkey)
            if component is None:
                continue
            writes = [*((attr, lk) for attr, _tokens, _line, lk in fn.attr_stores),
                      *((attr, lk) for attr, _line, lk in fn.attr_mutations)]
            for attr, under_lock in writes:
                if under_lock:
                    locked.setdefault(component, {}).setdefault(attr, fkey)
        for fkey, fn in project.functions.items():
            component = project.component(fkey)
            if component is None or fn.acquires_lock \
                    or fn.name in self._EXEMPT_METHODS:
                continue
            family_locked = locked.get(component, {})
            reported: set[str] = set()
            for attr, line, _under in fn.attr_loads:
                writer = family_locked.get(attr)
                if writer is None or writer == fkey or attr in reported:
                    continue
                reported.add(attr)
                yield _finding(
                    self.closure, fkey[0], line,
                    f"{project.qualified(fkey)} reads self.{attr} without "
                    f"the lock, but {project.qualified(writer)} publishes it "
                    f"under `with self._lock:`; take the lock (or a local "
                    f"snapshot) before reading")


RULES = (
    RngProvenanceRule(),
    PostProcessingPurityRule(),
    MeteredNoiseRule(),
    LockDisciplineRule(),
)

#: Every finding kind a rule reports, by id.
RULES_BY_ID = {kind.id: kind for kind in sorted(
    (kind for rule in RULES for kind in rule.kinds), key=lambda k: k.id)}
