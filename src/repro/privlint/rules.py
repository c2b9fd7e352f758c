"""The privacy-invariant rules, grounded in this repository's real bug classes.

Every rule id carries the history that motivated it:

* **PL001** — the determinism contract behind bitwise-identical parallel runs
  (PR 1): all randomness must flow through a passed-in ``np.random.Generator``
  derived from the executor's ``SeedSequence`` tree.  A fresh or global RNG
  anywhere in algorithm/selection code silently breaks serial == parallel.
* **PL002** — post-processing purity (the PR 3 DAWA leak class): once the
  noise stage has run, nothing downstream may look at the true data.  The
  ``infer``/``reconstruct`` stages operate on the plan and the noisy
  measurements *alone*.
* **PL003** — noise metering: Laplace/geometric draws belong to the shared,
  :class:`~repro.algorithms.mechanisms.PrivacyBudget`-metered noise stage
  (``measure_plan``), the mechanism primitives, or the noise kernel.
  A draw anywhere else is unaccounted epsilon unless its enclosing function
  visibly participates in budget accounting.
* **PL004** — budget arithmetic: multiplying/dividing the raw ``epsilon``
  outside ``PrivacyBudget``/budget-share helpers is how stage splits drift
  away from what is actually charged.
* **PL005** — the PR 6 ``QueryMatrix`` bug class: a lazily built cache
  published by plain attribute assignment in a class documented as
  thread-shared is a data race; build once under the lock, then publish.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from .engine import ModuleContext
from .findings import Finding

__all__ = ["DEFAULT_RULES", "RULES_BY_ID",
           "FreshRngRule", "PostProcessingPurityRule", "UnmeteredNoiseRule",
           "RawEpsilonArithmeticRule", "UnlockedLazyCacheRule"]


# --------------------------------------------------------------------------------------
# PL001 — no fresh/global RNG in algorithm or selection code
# --------------------------------------------------------------------------------------

class FreshRngRule:
    id = "PL001"
    name = "fresh-rng"
    description = ("Randomness must come from a passed-in np.random.Generator; "
                   "constructing or seeding one outside the executor entry "
                   "points breaks the bitwise serial == parallel contract.")
    severity = "error"

    #: numpy.random attributes whose *call* constructs or seeds a generator,
    #: or draws from the legacy global stream.
    _FORBIDDEN: ClassVar[set[str]] = {
        "default_rng", "RandomState", "seed",
        # legacy module-level draws (the implicit global RandomState)
        "random", "rand", "randn", "randint", "choice", "shuffle",
        "permutation", "laplace", "normal", "uniform", "exponential",
        "geometric", "multinomial", "dirichlet",
    }
    #: modules that own the seeding currency: the executor derives per-job
    #: SeedSequences, the benchmark turns them into the per-job Generators.
    _ENTRY_POINTS = ("core/executor.py", "core/benchmark.py")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.path_is(*self._ENTRY_POINTS):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            matched = module.is_numpy_random_call(node, self._FORBIDDEN)
            if matched is None:
                continue
            functions = module.enclosing_functions(node)
            # as_rng is the sanctioned coercion point (seed -> Generator).
            if any(f.name == "as_rng" for f in functions):
                continue
            yield module.finding(
                self, node,
                f"fresh/global RNG via np.random.{matched}; accept a seeded "
                f"np.random.Generator argument instead (determinism contract)")


# --------------------------------------------------------------------------------------
# PL002 — post-processing purity: infer/reconstruct never see the true data
# --------------------------------------------------------------------------------------

class PostProcessingPurityRule:
    id = "PL002"
    name = "post-processing-purity"
    description = ("infer/reconstruct bodies operate on the plan and the noisy "
                   "measurements alone; any reference to the true "
                   "histogram/dataset is a PR-3-class privacy leak.")
    severity = "error"

    _STAGE_NAMES: ClassVar[set[str]] = {"infer", "reconstruct"}
    #: conventional names of the true data in this codebase
    _DATA_NAMES: ClassVar[set[str]] = {"x", "data", "counts", "histogram", "true_x", "true_data",
                   "raw_data", "dataset"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in self._STAGE_NAMES:
                continue
            yield from self._check_stage(module, node)

    def _check_stage(self, module: ModuleContext,
                     func: ast.FunctionDef) -> Iterator[Finding]:
        args = func.args
        params = [a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs)]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        for name in params:
            if name in self._DATA_NAMES:
                yield module.finding(
                    self, func,
                    f"post-processing stage {func.name}() takes the true data "
                    f"as parameter {name!r}; it must consume only the plan "
                    f"and the noisy measurements")
        bound = set(params) | self._locally_bound(func)
        for inner in ast.walk(func):
            if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load) \
                    and inner.id in self._DATA_NAMES and inner.id not in bound:
                yield module.finding(
                    self, inner,
                    f"post-processing stage {func.name}() reads {inner.id!r} "
                    f"from an enclosing scope — the true data must not reach "
                    f"it (PR-3 leak class)")
            elif isinstance(inner, ast.Attribute) \
                    and isinstance(inner.ctx, ast.Load) \
                    and isinstance(inner.value, ast.Name) \
                    and inner.value.id == "self" \
                    and inner.attr.lstrip("_") in self._DATA_NAMES:
                yield module.finding(
                    self, inner,
                    f"post-processing stage {func.name}() reads "
                    f"self.{inner.attr} — stashing the true data on the "
                    f"algorithm and reading it after the noise stage is a "
                    f"PR-3-class leak")

    @staticmethod
    def _locally_bound(func: ast.FunctionDef) -> set[str]:
        bound: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not func:
                bound.add(node.name)
        return bound


# --------------------------------------------------------------------------------------
# PL003 — noise draws only in the metered noise stage / mechanisms / kernels
# --------------------------------------------------------------------------------------

class UnmeteredNoiseRule:
    id = "PL003"
    name = "unmetered-noise"
    description = ("Noise draws (rng.laplace, laplace_noise, rng.geometric, "
                   "...) belong to mechanisms.py, measure_plan or the noise "
                   "kernel; elsewhere they must sit inside a function that "
                   "takes the shared PrivacyBudget (a metered selection "
                   "stage).")
    severity = "error"

    _SANCTIONED = ("algorithms/mechanisms.py", "core/plan.py",
                   "core/kernels.py")
    _NOISE_FUNCTIONS: ClassVar[set[str]] = {"laplace_noise", "batched_laplace",
                        "laplace_mechanism", "geometric_mechanism"}
    _GENERATOR_DRAWS: ClassVar[set[str]] = {"laplace", "geometric", "normal", "exponential",
                        "gumbel"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.path_is(*self._SANCTIONED):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            drawn = self._noise_target(node)
            if drawn is None:
                continue
            functions = module.enclosing_functions(node)
            if any(self._is_metered(f) for f in functions):
                continue
            yield module.finding(
                self, node,
                f"noise draw {drawn} outside the metered noise stage; route "
                f"it through measure_plan, or charge a PrivacyBudget in the "
                f"enclosing function")

    def _noise_target(self, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id in self._NOISE_FUNCTIONS:
            return f"{func.id}()"
        if isinstance(func, ast.Attribute) and func.attr in self._GENERATOR_DRAWS:
            return f".{func.attr}()"
        return None

    @staticmethod
    def _is_metered(func: ast.FunctionDef) -> bool:
        args = func.args
        names = [a.arg for a in (args.posonlyargs + args.args
                                 + args.kwonlyargs)]
        return "budget" in names


# --------------------------------------------------------------------------------------
# PL004 — raw epsilon arithmetic only inside budget accounting
# --------------------------------------------------------------------------------------

class RawEpsilonArithmeticRule:
    id = "PL004"
    name = "raw-epsilon-arithmetic"
    description = ("Multiplying/dividing the raw epsilon is budget splitting; "
                   "it belongs in PrivacyBudget charges or budget-share "
                   "helpers so the accountant sees every split.")
    severity = "error"

    #: exactly the raw total; derived ``eps_*`` names are PrivacyBudget.spend
    #: results (already metered) and bare ``eps`` is machine epsilon here.
    _EPSILON_NAMES: ClassVar[set[str]] = {"epsilon"}
    #: the release path this rule polices; analysis/tuning modules use epsilon
    #: as a signal-strength coordinate, not as a budget.
    _SCOPE = ("core/plan.py", "core/repair.py", "workload/selection.py")
    _ALLOWED_FUNCTION_TOKENS = ("budget", "allocation", "share", "epsilons",
                                "split")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        in_scope = module.path_is(*self._SCOPE) \
            or "/algorithms/" in module.path
        if not in_scope or module.path_is("algorithms/mechanisms.py"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.BinOp) \
                    or not isinstance(node.op, (ast.Mult, ast.Div)):
                continue
            operand = self._epsilon_operand(node)
            if operand is None:
                continue
            if self._is_accounted(module, node):
                continue
            op = "*" if isinstance(node.op, ast.Mult) else "/"
            yield module.finding(
                self, node,
                f"raw arithmetic on {operand!r} ({op}) outside budget "
                f"accounting; charge it through PrivacyBudget.spend/"
                f"spend_fraction or a budget-share helper")

    def _epsilon_operand(self, node: ast.BinOp) -> str | None:
        for side in (node.left, node.right):
            if isinstance(side, ast.Name) and side.id in self._EPSILON_NAMES:
                return side.id
        return None

    def _is_accounted(self, module: ModuleContext, node: ast.BinOp) -> bool:
        for ancestor in module.ancestors(node):
            # an argument of budget.spend(...)/spend_fraction(...) is charged
            # on the spot — the accountant sees exactly this expression
            if isinstance(ancestor, ast.Call) \
                    and isinstance(ancestor.func, ast.Attribute) \
                    and ancestor.func.attr.startswith("spend"):
                return True
            # comparisons against epsilon bounds are validation, not splitting
            if isinstance(ancestor, ast.Compare):
                return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(token in ancestor.name.lower()
                            for token in self._ALLOWED_FUNCTION_TOKENS):
                return True
        return False


# --------------------------------------------------------------------------------------
# PL005 — lazy caches in thread-shared classes publish under a lock
# --------------------------------------------------------------------------------------

class UnlockedLazyCacheRule:
    id = "PL005"
    name = "unlocked-lazy-cache"
    description = ("In a class documented as thread-shared (docstring mentions "
                   "threads, or the class owns a lock), a lazily built cache "
                   "must be assigned inside `with self._lock:` — plain "
                   "publication races concurrent readers (the PR 6 "
                   "QueryMatrix bug).")
    severity = "error"

    _EXEMPT_METHODS: ClassVar[set[str]] = {"__init__", "__new__", "__getstate__", "__setstate__",
                       "__init_subclass__"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and self._is_thread_shared(node):
                yield from self._check_class(module, node)

    def _is_thread_shared(self, cls: ast.ClassDef) -> bool:
        doc = ast.get_docstring(cls) or ""
        if "thread" in doc.lower():
            return True
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and "lock" in node.attr.lower() \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                return True
        return False

    def _check_class(self, module: ModuleContext,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in self._EXEMPT_METHODS:
                continue
            if not self._has_lazy_guard(item):
                continue
            for store in self._self_attribute_stores(item):
                attr = store.attr
                if not attr.startswith("_") or "lock" in attr.lower():
                    continue
                if self._under_lock(module, store):
                    continue
                yield module.finding(
                    self, store,
                    f"{cls.name}.{item.name} publishes lazy cache "
                    f"self.{attr} without holding the lock; build under "
                    f"`with self._lock:` and publish by one assignment")

    @staticmethod
    def _has_lazy_guard(func: ast.FunctionDef) -> bool:
        """The method contains an ``... is None`` test — the lazy-init shape."""
        for node in ast.walk(func):
            if isinstance(node, ast.Compare) \
                    and any(isinstance(op, (ast.Is, ast.IsNot))
                            for op in node.ops) \
                    and any(isinstance(c, ast.Constant) and c.value is None
                            for c in [node.left, *node.comparators]):
                return True
        return False

    @staticmethod
    def _self_attribute_stores(func: ast.FunctionDef) -> Iterator[ast.Attribute]:
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                yield node

    @staticmethod
    def _under_lock(module: ModuleContext, node: ast.AST) -> bool:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    name = module.dotted_name(item.context_expr) or ""
                    if "lock" in name.lower():
                        return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        return False


DEFAULT_RULES = (
    FreshRngRule(),
    PostProcessingPurityRule(),
    UnmeteredNoiseRule(),
    RawEpsilonArithmeticRule(),
    UnlockedLazyCacheRule(),
)

RULES_BY_ID = {rule.id: rule for rule in DEFAULT_RULES}
