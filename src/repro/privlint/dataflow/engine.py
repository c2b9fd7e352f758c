"""The worklist dataflow engine: interprocedural summaries over the call graph.

Four summaries are computed over the linked
:class:`~repro.privlint.dataflow.callgraph.Project`, each by iterating a
monotone transfer function to convergence (:func:`converge`):

* **entry taint** — true-data reachability.  Parameters with the data names
  are concrete sources at graph *entry points* (functions nobody in
  the analysed set calls); taint then flows through call bindings, into
  ``self.attr`` stores (heap taint is class-family-scoped), and out through
  returns.  The metered noise stage declassifies: calls into
  ``measure_plan`` / the mechanism primitives return clean, exactly
  mirroring the runtime sanitizer's seam.
* **clean-context taint** — the PL007 query.  Each function is summarised
  with *clean parameters* ("would this function touch true data even when
  its caller hands it only sanitized values?"); that is true only for reads
  of tainted heap attributes and module-level data globals, and propagates
  up through callees.  ``infer``/``reconstruct`` roots firing on this
  summary is the static mirror of the runtime taint test.

  Both taint summaries read values through one token evaluator
  (:func:`_token_reader`) and differ only in what a parameter, attribute,
  global or callee return is worth.
* **parameter sinks** — which parameters reach a sink, propagated up caller
  chains from two axiom tables: the noise-scale positions (the
  ``scale``/``epsilon`` params of the mechanism primitives and the scale
  operand of generator draws; PL008 fires where a *raw* epsilon binds into
  one) and the generator positions (the ``rng`` of the primitives, the
  receiver of a ``.laplace()``-style draw; PL009 fires where a *fresh*
  generator binds into one outside the executor entry points).

Inline suppressions act as *declassification points* for their rule: a
suppressed call site neither fires nor propagates its property upward, so
one justified suppression at the deepest site keeps the whole caller chain
quiet.  A suppression that stopped something is recorded in
``ProjectAnalysis.declassified``, and the engine's PL100 counts it as used.

Every per-function result carries a witness chain (function hop + reason)
so rules can render ``infer → helper → self._stash`` call-path traces
without embedding line numbers in messages (baseline identity stays stable
under unrelated edits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

from .callgraph import FuncKey, Project
from .facts import DATA_NAMES, CallFacts, FunctionFacts

__all__ = ["ProjectAnalysis", "Witness", "analyze_project"]


class Primitive(NamedTuple):
    """One metered noise primitive: where it is defined and where its
    noise-scale and generator arguments sit."""

    module: str      #: the defining module (the runtime seam patches it)
    scale: str       #: the noise-scale parameter (a PL008 sink)
    scale_at: int    #: its positional index
    rng: str         #: the generator parameter (a PL009 sink)
    rng_at: int      #: its positional index
    noise: bool      #: adds noise to values (False: picks an index)


#: The mechanism primitives, the one list every rule and the runtime
#: sanitizer read.  A call is matched by its resolved callee *or*, when the
#: callee is unresolved, by name, so fixtures without imports still analyse.
PRIMITIVES = {
    "laplace_noise": Primitive(
        "repro.algorithms.mechanisms", "scale", 0, "rng", 2, noise=True),
    "batched_laplace": Primitive(
        "repro.core.kernels", "scales", 1, "rng", 0, noise=True),
    "exponential_mechanism": Primitive(
        "repro.algorithms.mechanisms", "epsilon", 1, "rng", 3, noise=False),
}

#: ``numpy.random`` constructors that mint a generator (PL001, PL009).
FRESH_GENERATORS = {"default_rng", "RandomState", "Generator", "PCG64"}

#: The sanctioned seed -> generator adapter: the one place a generator may
#: be minted, and a pass-through for one it is handed.
RNG_ADAPTER = "as_rng"

#: Calls whose *return is sanitized*: the runtime ``sanitized_noise_stage``
#: patches the rows that draw noise, an index pick returns a plain int, and
#: ``measure_plan`` composes them.
DECLASSIFIERS = set(PRIMITIVES) | {"measure_plan"}

#: Scalar coercions and structural builtins whose result drops array taint —
#: mirroring the runtime model, where ``float(tainted[i])`` is a plain float
#: (mwem's documented declassification point) and ``len``/``range`` expose
#: only public domain structure.
CLEAN_BUILTINS = {"len", "range", "enumerate", "int", "float", "bool", "str",
                  "repr", "type", "isinstance", "hasattr"}

#: Generator-method draws and the (kwarg, positional index) of their scale.
GENERATOR_DRAWS = {
    "laplace": ("scale", 1),
    "normal": ("scale", 1),
    "gumbel": ("scale", 1),
    "exponential": ("scale", 0),
    "geometric": ("p", 0),
}

#: Function-name tokens that mark a value as budget-derived (PL004's list).
BUDGET_TOKENS = ("budget", "allocation", "share", "epsilons", "split", "spend")

#: Parameter names that *are* the raw budget.
RAW_EPSILON_NAMES = {"epsilon", "eps"}


@dataclass(frozen=True)
class Witness:
    """One hop of a call-path trace: where a property came from."""

    reason: str                    #: terminal explanation, or "" for a hop
    callee: FuncKey | None = None  #: next function in the chain, if any


@dataclass
class ProjectAnalysis:
    """The linked project plus every interprocedural summary the rules read."""

    project: Project
    #: entry-context taint: per-function tainted parameter names
    entry_param_taint: dict[FuncKey, set[str]] = field(default_factory=dict)
    #: entry-context taint: does the return value carry true data?
    entry_return_taint: dict[FuncKey, bool] = field(default_factory=dict)
    #: class-family heap taint: component id -> {attr: storing function}
    attr_taint: dict[int, dict[str, FuncKey]] = field(default_factory=dict)
    #: clean-parameter summaries (the PL007 query) with witnesses
    touches_taint_clean: dict[FuncKey, Witness] = field(default_factory=dict)
    returns_taint_clean: dict[FuncKey, bool] = field(default_factory=dict)
    #: PL008: parameter -> witness chain for scale-reaching params
    scale_params: dict[FuncKey, dict[str, Witness]] = field(default_factory=dict)
    #: PL009: parameter -> witness chain for generator-sink params
    rng_sink_params: dict[FuncKey, dict[str, Witness]] = field(default_factory=dict)
    #: suppressions that stopped a fixpoint: path -> line -> rule ids
    declassified: dict[str, dict[int, set[str]]] = field(default_factory=dict)

    # -- shared helpers -----------------------------------------------------------
    def suppressed(self, fkey: FuncKey, line: int, rule_id: str) -> bool:
        ids = self.project.modules[fkey[0]].suppressions.get(line, ())
        return "all" in ids or rule_id in ids

    def declassify(self, fkey: FuncKey, line: int, rule_id: str) -> None:
        """Record that the ``rule_id`` suppression at ``line`` stopped a
        property from propagating, so PL100 counts it as used."""
        self.declassified.setdefault(fkey[0], {}).setdefault(
            line, set()).add(rule_id)

    def trace(self, start: Witness, follow) -> str:
        """Render a witness chain as ``→``-joined hops ending in a reason.

        ``follow(fkey)`` returns the next :class:`Witness` for a chained hop
        (each fixpoint keeps its own witness map)."""
        hops: list[str] = []
        current: Witness | None = start
        guard = 0
        while current is not None and guard < 16:
            guard += 1
            if current.callee is not None:
                hops.append(self.project.qualified(current.callee))
                current = follow(current.callee)
            else:
                if current.reason:
                    hops.append(current.reason)
                current = None
        return " → ".join(hops)


def analyze_project(project: Project) -> ProjectAnalysis:
    analysis = ProjectAnalysis(project=project)
    read = _token_reader(project)
    _entry_taint_fixpoint(analysis, read)
    _clean_taint_fixpoint(analysis, read)
    analysis.scale_params = _param_sinks(
        analysis, "PL008", _scale_axioms, _scale_sinks)
    analysis.rng_sink_params = _param_sinks(
        analysis, "PL009", _rng_axioms, _rng_sinks,
        skip=lambda fn: fn.name == RNG_ADAPTER)
    return analysis


def converge(step: Callable[[], bool]) -> None:
    """Re-run ``step`` until a whole pass changes nothing.

    Every summary is a finite set that only grows, so this terminates; there
    is deliberately no pass cap — a cap silently drops long call chains."""
    while step():
        pass


# --------------------------------------------------------------------------------------
# helpers shared by the fixpoints
# --------------------------------------------------------------------------------------

def _external_name(project: Project, fkey: FuncKey, call: CallFacts) -> str | None:
    """Last segment of an unresolved callee (for axiomatic name matching)."""
    targets = project.resolve_call(fkey, call)
    if targets.resolved:
        return None
    if targets.external:
        return targets.external
    if call.callee:
        return call.callee.rsplit(".", 1)[-1]
    return None


def _is_declassifier(project: Project, fkey: FuncKey, call: CallFacts) -> bool:
    """Does the call resolve to (or, unresolved, is it spelled as) one of the
    :data:`DECLASSIFIERS`?"""
    targets = project.resolve_call(fkey, call)
    if targets.resolved:
        return any(callee[1].rsplit(".", 1)[-1] in DECLASSIFIERS
                   for callee in targets.functions)
    return bool(call.callee) and call.callee.rsplit(".", 1)[-1] in DECLASSIFIERS


def _unresolved_primitive(project: Project, fkey: FuncKey,
                          call: CallFacts) -> tuple[str, Primitive] | None:
    """The table row of a primitive called by a name the project cannot
    resolve (fixtures, or code linted without ``src/``).  A resolved call
    needs no row: the primitive's own parameters are its axioms."""
    name = call.callee.rsplit(".", 1)[-1] if call.callee else None
    if name not in PRIMITIVES or project.resolve_call(fkey, call).resolved:
        return None
    return (name, PRIMITIVES[name])


def _argument(call: CallFacts, param: str, position: int) -> set[str]:
    """The tokens ``call`` binds to ``param``: by keyword, else by position."""
    if param in call.kwargs:
        return set(call.kwargs[param])
    if position < len(call.args):
        return set(call.args[position])
    return set()


def _draw_scale_tokens(call: CallFacts) -> tuple[str, set[str]] | None:
    """For ``rng.laplace(loc, scale, ...)``-style draws, the scale operand."""
    if not call.callee or "." not in call.callee:
        return None
    draw = call.callee.rsplit(".", 1)[-1]
    if draw not in GENERATOR_DRAWS or not call.base_tokens:
        return None
    return (draw, _argument(call, *GENERATOR_DRAWS[draw]))


#: What one provenance token kind is worth to a taint summary: a truthy
#: value (``True`` or a :class:`Witness`) when it carries true data.
TokenSources = dict[str, Callable]
TokenReader = Callable[[FuncKey, str, TokenSources], object]


def _token_reader(project: Project) -> TokenReader:
    """The one token evaluator both taint summaries share.

    ``read(fkey, token, sources)`` returns the first true-data source behind
    a provenance token, or ``None``.  ``sources`` maps ``"p"``/``"a"``/``"g"``
    to ``(fkey, name) -> value`` and ``"r"`` to ``callee -> value`` (what a
    resolved callee's return is worth).  Unresolved calls pass their
    arguments and receiver through, mirroring ``TaintedArray``'s algebra;
    the noise stage and the scalar / structural builtins declassify.  That
    shape is static, so each token's leaves — parameter, attribute and
    global tokens, and the callee sets of resolved calls — are expanded once
    (depth-first, the order the sources are tried in) and reused by every
    fixpoint pass."""
    memo: dict[tuple[FuncKey, str], tuple] = {}

    def expand(fkey: FuncKey, token: str, seen: set[str]):
        if token[0] != "c":
            yield token
            return
        if token in seen:
            return  # self-referential binding (x = f(x))
        seen.add(token)
        call = project.functions[fkey].call_by_key(token)
        if call is None or _is_declassifier(project, fkey, call):
            return  # the metered noise stage sanitizes its return
        targets = project.resolve_call(fkey, call)
        if targets.functions:
            yield tuple(targets.functions)
        elif _external_name(project, fkey, call) not in CLEAN_BUILTINS:
            for arg in call.all_arg_tokens() | set(call.base_tokens):
                yield from expand(fkey, arg, seen)

    def read(fkey: FuncKey, token: str, sources: TokenSources):
        leaves = memo.get((fkey, token))
        if leaves is None:
            leaves = memo[(fkey, token)] = tuple(expand(fkey, token, set()))
        for leaf in leaves:
            if isinstance(leaf, str):
                found = sources[leaf[0]](fkey, leaf[2:])
            else:
                found = next(filter(None, map(sources["r"], leaf)), None)
            if found:
                return found
        return None

    return read


# --------------------------------------------------------------------------------------
# entry taint and heap (attribute) taint
# --------------------------------------------------------------------------------------

def _entry_taint_fixpoint(analysis: ProjectAnalysis, read: TokenReader) -> None:
    project = analysis.project
    param_taint: dict[FuncKey, set[str]] = {f: set() for f in project.functions}
    return_taint: dict[FuncKey, bool] = {f: False for f in project.functions}
    attr_taint: dict[int, dict[str, FuncKey]] = {}

    # Sources: data-named parameters of functions with no analysed callers.
    for fkey, fn in project.functions.items():
        if not project.callers.get(fkey):
            param_taint[fkey].update(p for p in fn.params if p in DATA_NAMES)

    sources: TokenSources = {
        "p": lambda fkey, name: name in param_taint[fkey],
        "a": lambda fkey, name: name in attr_taint.get(
            project.component(fkey), {}),
        "g": lambda fkey, name: name in DATA_NAMES,
        "r": return_taint.__getitem__,
    }

    def tainted(fkey: FuncKey, tokens) -> bool:
        return any(read(fkey, t, sources) for t in tokens)

    def step() -> bool:
        changed = False
        for fkey, fn in project.functions.items():
            if not return_taint[fkey] and tainted(fkey, fn.returns):
                return_taint[fkey] = changed = True
            component = project.component(fkey)
            if component is not None:
                for attr, tokens, _line, _locked in fn.attr_stores:
                    bucket = attr_taint.get(component, {})
                    if attr not in bucket and tainted(fkey, tokens):
                        attr_taint.setdefault(component, {})[attr] = fkey
                        changed = True
            for call in fn.calls:
                for callee, binding in project.bindings(fkey, call).items():
                    for param, tokens in binding.items():
                        if param not in param_taint[callee] \
                                and tainted(fkey, tokens):
                            param_taint[callee].add(param)
                            changed = True
        return changed

    converge(step)
    analysis.entry_param_taint = param_taint
    analysis.entry_return_taint = return_taint
    analysis.attr_taint = attr_taint


# --------------------------------------------------------------------------------------
# clean-parameter summaries (the PL007 query)
# --------------------------------------------------------------------------------------

def _clean_taint_fixpoint(analysis: ProjectAnalysis, read: TokenReader) -> None:
    project = analysis.project
    touches: dict[FuncKey, Witness] = {}
    returns: dict[FuncKey, bool] = {f: False for f in project.functions}

    def attr_source(fkey: FuncKey, attr: str) -> Witness | None:
        origin = analysis.attr_taint.get(project.component(fkey), {}).get(attr)
        if origin is None:
            return None
        return Witness(reason=f"self.{attr} (true data stored by "
                       f"{project.qualified(origin)})")

    sources: TokenSources = {
        "p": lambda fkey, name: None,  # the caller hands in clean values
        "a": attr_source,
        "g": lambda fkey, name: (Witness(
            reason=f"module-level true data {name!r}")
            if name in DATA_NAMES else None),
        "r": lambda callee: (Witness(reason="", callee=callee)
                             if returns[callee] else None),
    }

    def call_touch(fkey: FuncKey, call: CallFacts) -> Witness | None:
        for arg in call.all_arg_tokens():
            witness = read(fkey, arg, sources)
            if witness is not None:
                return witness
        for callee in project.resolve_call(fkey, call).functions:
            if callee in touches:
                return Witness(reason="", callee=callee)
        return None

    def declassified(fkey: FuncKey, line: int) -> bool:
        """A justified suppression at a tainted load or call stops it."""
        if not analysis.suppressed(fkey, line, "PL007"):
            return False
        analysis.declassify(fkey, line, "PL007")
        return True

    def first_touch(fkey: FuncKey, fn: FunctionFacts) -> Witness | None:
        for attr, line, _locked in fn.attr_loads:
            witness = attr_source(fkey, attr)
            if witness is not None and not declassified(fkey, line):
                return witness
        for call in fn.calls:
            witness = call_touch(fkey, call)
            if witness is not None and not declassified(fkey, call.line):
                return witness
        return None

    def step() -> bool:
        changed = False
        for fkey, fn in project.functions.items():
            if fkey not in touches:
                witness = first_touch(fkey, fn)
                if witness is not None:
                    touches[fkey] = witness
                    changed = True
            if not returns[fkey] and any(
                    read(fkey, token, sources) for token in fn.returns):
                returns[fkey] = changed = True
        return changed

    converge(step)
    analysis.touches_taint_clean = touches
    analysis.returns_taint_clean = returns


# --------------------------------------------------------------------------------------
# parameter sinks: budget flow (PL008) and RNG provenance (PL009)
# --------------------------------------------------------------------------------------

SinkTable = dict[FuncKey, dict[str, Witness]]


def _param_sinks(analysis: ProjectAnalysis, rule_id: str,
                 axioms: Callable[[str, FunctionFacts], Iterator[tuple[str, str]]],
                 local_sinks: Callable[[Project, FuncKey, CallFacts],
                                       Iterator[tuple[set[str], str]]],
                 skip: Callable[[FunctionFacts], bool] = lambda fn: False,
                 ) -> SinkTable:
    """Which parameters of each function reach a sink.

    ``axioms(name, facts)`` seeds a primitive's own sink parameters;
    ``local_sinks`` yields ``(tokens, reason)`` for the sinks at one call
    site.  A parameter bound into a callee's sink parameter is a sink too.
    Functions ``skip`` accepts neither propagate nor pass their sinks on."""
    project = analysis.project
    sinks: SinkTable = {f: {} for f in project.functions}
    for fkey, fn in project.functions.items():
        for param, reason in axioms(fkey[1].rsplit(".", 1)[-1], fn):
            sinks[fkey][param] = Witness(reason=reason)

    def add(fkey: FuncKey, tokens, witness: Witness) -> bool:
        changed = False
        for token in tokens:
            if token.startswith("p:") and token[2:] not in sinks[fkey]:
                sinks[fkey][token[2:]] = witness
                changed = True
        return changed

    def call_sinks(fkey: FuncKey, call: CallFacts):
        for tokens, reason in local_sinks(project, fkey, call):
            yield tokens, Witness(reason=reason)
        for callee, binding in project.bindings(fkey, call).items():
            if skip(project.functions[callee]):
                continue
            for param, tokens in binding.items():
                if param in sinks[callee]:
                    yield tokens, Witness(reason="", callee=callee)

    def step() -> bool:
        changed = False
        for fkey, fn in project.functions.items():
            if skip(fn):
                continue
            for call in fn.calls:
                if analysis.suppressed(fkey, call.line, rule_id):
                    # A justified declassification stops propagation; it is
                    # used if a parameter would have become a sink.
                    if any(token.startswith("p:")
                           for tokens, _ in call_sinks(fkey, call)
                           for token in tokens):
                        analysis.declassify(fkey, call.line, rule_id)
                    continue
                for tokens, witness in call_sinks(fkey, call):
                    changed |= add(fkey, tokens, witness)
        return changed

    converge(step)
    return sinks


def _scale_axioms(name: str, fn: FunctionFacts):
    row = PRIMITIVES.get(name)
    if row is not None and row.scale in fn.params:
        yield row.scale, f"{name}({row.scale}=…) noise scale"


def _scale_sinks(project: Project, fkey: FuncKey, call: CallFacts):
    draw = _draw_scale_tokens(call)
    if draw is not None:
        yield draw[1], f".{draw[0]}() draw scale"
    primitive = _unresolved_primitive(project, fkey, call)
    if primitive is not None:
        name, row = primitive
        yield (_argument(call, row.scale, row.scale_at),
               f"{name}() noise scale")


def _rng_axioms(name: str, fn: FunctionFacts):
    row = PRIMITIVES.get(name)
    if row is not None and row.rng in fn.params:
        yield row.rng, f"{name}({row.rng}=…) mechanism generator"


def _rng_sinks(project: Project, fkey: FuncKey, call: CallFacts):
    if _draw_scale_tokens(call) is not None:
        draw = call.callee.rsplit(".", 1)[-1]
        yield call.base_tokens, f".{draw}() draw receiver"
    primitive = _unresolved_primitive(project, fkey, call)
    if primitive is not None:
        name, row = primitive
        yield _argument(call, row.rng, row.rng_at), f"{name}() generator"


def raw_epsilon_token(analysis: ProjectAnalysis, fkey: FuncKey,
                      token: str, _depth: int = 0) -> bool:
    """Is this value the *raw* budget — named epsilon, not derived from a
    ``PrivacyBudget`` charge or a budget-share helper?"""
    if _depth > 12:
        return False
    project = analysis.project
    fn = project.functions[fkey]
    if token.startswith(("p:", "g:", "a:")):
        name = token[2:].lstrip("_")
        return name in RAW_EPSILON_NAMES
    if token.startswith("c:"):
        call = fn.call_by_key(token)
        if call is None or call.callee is None:
            return False
        last = call.callee.rsplit(".", 1)[-1].lower()
        if any(part in last for part in BUDGET_TOKENS):
            return False  # budget.spend(...) and friends are metered
        targets = project.resolve_call(fkey, call)
        if targets.functions:
            return False  # a resolved helper owns its own accounting
        # unresolved numeric pass-through: float(epsilon), np.exp(-epsilon)
        return any(raw_epsilon_token(analysis, fkey, t, _depth + 1)
                   for t in call.all_arg_tokens())
    return False


def fresh_rng_token(analysis: ProjectAnalysis, fkey: FuncKey,
                    token: str, _depth: int = 0) -> bool:
    """Does this value hold a generator constructed here rather than one
    threaded down from the executor's SeedSequence spawn?"""
    if _depth > 12 or not token.startswith("c:"):
        return False
    project = analysis.project
    fn = project.functions[fkey]
    call = fn.call_by_key(token)
    if call is None or call.callee is None:
        return False
    mod = project.modules[fkey[0]]
    module, _, attr = project.resolve_external_dotted(
        mod, call.callee).rpartition(".")
    last = call.callee.rsplit(".", 1)[-1]
    if last in FRESH_GENERATORS \
            or (module == "numpy.random" and attr in FRESH_GENERATORS):
        return True
    if last == RNG_ADAPTER:
        # The adapter mints a generator from no argument or a seed, and
        # passes a generator's provenance through.
        if not call.args and not call.kwargs:
            return True
        arg_tokens = call.all_arg_tokens()
        if not arg_tokens:
            return True  # literal seed
        return any(fresh_rng_token(analysis, fkey, t, _depth + 1)
                   for t in arg_tokens)
    return False
