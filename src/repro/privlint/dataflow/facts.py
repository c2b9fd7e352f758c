"""Per-module fact extraction: the one pass over each file's AST.

Every rule reads facts recorded here; no rule touches an AST.  One parse of a
module produces a :class:`ModuleFacts` record:

* for the interprocedural closures — functions with their parameter lists,
  call sites, attribute traffic and return provenance, classes with their
  bases and annotated attributes, the import table, and any module-level
  ``{"name": Class}`` dispatch dicts (the algorithm registry);
* for the per-function base cases — every call site in the module with the
  ``def`` chain around it (module level, class bodies and default arguments
  included), raw-epsilon arithmetic outside budget accounting, reads of
  data-named free variables, lazy ``... is None`` guards and thread-shared
  class docstrings;
* the module's ``# privlint: disable=`` suppressions.

Nothing in here looks at any *other* module — linking is the job of
:mod:`repro.privlint.dataflow.callgraph`.

Value provenance is tracked as small string tokens:

* ``p:name`` — the function parameter ``name``,
* ``a:attr`` — the instance attribute ``self.attr``,
* ``g:name`` — a module-level / builtin name,
* ``c:line:col`` — the return value of the call site at that location.

The local environment is flow-insensitive (two passes over the statement
list, so loop-carried assignments stabilise) and deliberately coarse: a
token set answers "*could* this value derive from X", which is the right
polarity for privacy lint — false negatives are the expensive failure mode.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "CallFacts",
    "CallSite",
    "ClassFacts",
    "DATA_NAMES",
    "FunctionFacts",
    "ModuleFacts",
    "extract_module_facts",
    "module_name_for_path",
    "parse_suppressions",
]

#: Conventional names of the true data in this codebase: data-named
#: parameters are taint sources, and post-processing may not read them.
DATA_NAMES = {"x", "data", "counts", "histogram", "true_x", "true_data",
              "raw_data", "dataset"}

#: Attribute names treated as locks for the ``with self._lock:`` discipline.
_LOCKISH = ("lock", "mutex", "cv", "cond")

#: Array *metadata* attributes carry no data provenance: ``x.shape`` of a
#: tainted histogram is public domain structure (the runtime ``TaintedArray``
#: agrees — its ``.shape`` is a plain tuple).
_STRUCTURAL_ATTRS = {"shape", "ndim", "size", "dtype", "itemsize", "nbytes",
                     "flags"}

#: Container methods that mutate their receiver in place: ``self._x.append(v)``
#: under the lock publishes ``_x`` as surely as ``self._x = ...`` does.
_MUTATING_METHODS = {"add", "append", "appendleft", "clear", "discard",
                     "extend", "extendleft", "insert", "move_to_end", "pop",
                     "popitem", "popleft", "remove", "reverse", "setdefault",
                     "sort", "update"}

#: The raw total budget: ``*``/``/`` on it outside accounting is a split the
#: accountant never sees.  Derived ``eps_*`` names are already-metered
#: ``PrivacyBudget.spend`` results, and bare ``eps`` is machine epsilon here.
_EPSILON = "epsilon"

#: Function-name tokens that mark a ``def`` as budget accounting.
_ACCOUNTING_TOKENS = ("budget", "allocation", "share", "epsilons", "split")

#: A suppression comment: ``disable=`` then a comma-separated id list, then
#: free-text justification.
_SUPPRESS_RE = re.compile(
    r"#\s*privlint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids suppressed on that line (``{"all"}`` for all).

    Only real comments count: a ``disable=`` inside a string literal (fixture
    source in a test, say) suppresses nothing.  Only the comma-separated id
    list right after ``disable=`` is parsed; the rest of the comment is the
    justification."""
    suppressions: dict[int, set[str]] = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match:
            suppressions[token.start[0]] = {
                rule.strip() for rule in match.group(1).split(",")}
    return suppressions


def _is_lockish(dotted: str | None) -> bool:
    if not dotted:
        return False
    last = dotted.rsplit(".", 1)[-1].lower()
    return any(part in last for part in _LOCKISH)


@dataclass
class CallFacts:
    """One call site, with the provenance of everything that flows into it."""

    key: str                      #: stable token, ``"c:line:col"``
    line: int
    col: int                      #: 1-based
    callee: str | None            #: dotted callee (``"self.m"``, ``"np.exp"``) or None
    subscript_of: str | None      #: for ``TABLE[k](...)`` — dotted name of ``TABLE``
    base_tokens: tuple[str, ...]  #: provenance of the receiver for method calls
    args: tuple[tuple[str, ...], ...]      #: positional argument token sets
    kwargs: dict[str, tuple[str, ...]]     #: keyword argument token sets
    has_star: bool                #: ``*args``/``**kwargs`` present at the site

    def all_arg_tokens(self) -> set[str]:
        tokens: set[str] = set()
        for arg in self.args:
            tokens.update(arg)
        for arg in self.kwargs.values():
            tokens.update(arg)
        return tokens


class CallSite(NamedTuple):
    """Any call anywhere in a module, with the ``def`` chain around it."""

    line: int
    callee: str | None        #: dotted callee, as in :class:`CallFacts`
    method: str | None        #: ``m`` for ``<anything>.m(...)``
    scopes: tuple[str, ...]   #: enclosing ``def`` names, outermost first
    metered: bool             #: some enclosing ``def`` takes a ``budget``


@dataclass
class FunctionFacts:
    """Summary-ready facts about one function or method."""

    qualname: str                 #: ``"Class.method"`` or bare function name
    name: str
    class_name: str | None
    line: int
    col: int
    params: tuple[str, ...]       #: positional + keyword-only, in order
    vararg: str | None
    kwarg: str | None
    annotations: dict[str, tuple[str, ...]]  #: param -> candidate dotted type names
    returns: tuple[str, ...]      #: union of all ``return`` expression tokens
    calls: list[CallFacts]
    #: ``(attr, tokens, line, under_lock)`` for every ``self.attr = value``
    attr_stores: list[tuple[str, tuple[str, ...], int, bool]]
    #: ``(attr, line, under_lock)`` for every ``self.attr`` read
    attr_loads: list[tuple[str, int, bool]]
    acquires_lock: bool           #: body contains ``with self._lock:`` (or acquire())
    decorators: tuple[str, ...]
    #: ``(name, line, col)`` of every read of a data-named free variable
    data_reads: tuple[tuple[str, int, int], ...] = ()
    lazy_guard: bool = False      #: body tests ``... is None`` (lazy init)
    #: ``(attr, line, under_lock)`` for every in-place mutation of
    #: ``self.attr``: a mutating method call or a subscript ``del``
    attr_mutations: tuple[tuple[str, int, bool], ...] = ()

    def __post_init__(self):
        self._calls_by_key = {call.key: call for call in self.calls}

    def call_by_key(self, key: str) -> CallFacts | None:
        return self._calls_by_key.get(key)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None and "staticmethod" not in self.decorators

    def bindable_params(self) -> tuple[str, ...]:
        """Parameters a caller can bind (``self``/``cls`` stripped for methods)."""
        params = self.params
        if self.is_method and params:
            params = params[1:]
        return params


@dataclass
class ClassFacts:
    name: str
    bases: tuple[str, ...]                     #: dotted base-class names as written
    attr_annotations: dict[str, tuple[str, ...]]  #: class-body ``attr: Type``
    thread_doc: bool = False      #: the docstring says instances are thread-shared


@dataclass
class ModuleFacts:
    """Everything the rules need to know about one module."""

    path: str                       #: posix path as reported in findings
    module: str                     #: dotted module name (``repro.core.plan``)
    imports: dict[str, str]         #: local name -> absolute dotted target
    #: the same for imports made inside a function or block
    local_imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    dispatch_dicts: dict[str, dict[str, str]] = field(default_factory=dict)
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    call_sites: list[CallSite] = field(default_factory=list)
    #: ``(line, "*" | "/")`` of raw-epsilon arithmetic outside budget accounting
    epsilon_ops: list[tuple[int, str]] = field(default_factory=list)


def module_name_for_path(path: str) -> str:
    """Dotted module name for a file path (``src/repro/core/plan.py`` ->
    ``repro.core.plan``; paths outside ``src`` keep their directory chain)."""
    parts = list(Path(path).parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "super":
        parts.append("super")
        return ".".join(reversed(parts))
    return None


def _annotation_types(node: ast.AST | None) -> tuple[str, ...]:
    """Candidate dotted class names mentioned in an annotation expression.

    ``Workload | None`` -> ("Workload",); ``np.random.Generator | int`` ->
    ("np.random.Generator",).  String annotations are re-parsed.
    """
    if node is None:
        return ()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return ()
    names: list[str] = []
    for inner in ast.walk(node):
        if isinstance(inner, (ast.Name, ast.Attribute)):
            dotted = _dotted(inner)
            if dotted and dotted not in ("None", "int", "float", "str", "bool"):
                names.append(dotted)
    # keep outermost spellings only (an Attribute walk also yields its parts)
    result: list[str] = []
    for name in names:
        if not any(other != name and other.endswith("." + name.split(".")[-1])
                   and name in other for other in names):
            if name not in result:
                result.append(name)
    return tuple(result)


def _relative_base(module: str, is_package: bool, level: int) -> str:
    parts = module.split(".") if module else []
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)] if level - 1 <= len(parts) else []
    return ".".join(parts)


def _import_table(nodes, module: str, is_package: bool) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(module, is_package, node.level)
                target = f"{base}.{node.module}" if node.module else base
            else:
                target = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{target}.{alias.name}"
    return imports


def _is_none_test(node: ast.Compare) -> bool:
    return any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops) \
        and any(isinstance(c, ast.Constant) and c.value is None
                for c in [node.left, *node.comparators])


class _FunctionExtractor:
    """Walks one function body, building the token environment and recording
    call sites / attribute traffic.  Two passes stabilise loop-carried flow;
    recording dedupes on source location so the second pass just refreshes
    token sets."""

    def __init__(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                 class_name: str | None):
        self.node = node
        self.class_name = class_name
        args = node.args
        ordered = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        self.params = tuple(ordered)
        self.vararg = args.vararg.arg if args.vararg else None
        self.kwarg = args.kwarg.arg if args.kwarg else None
        self.env: dict[str, set[str]] = {p: {f"p:{p}"} for p in ordered}
        if self.vararg:
            self.env[self.vararg] = {f"p:{self.vararg}"}
        if self.kwarg:
            self.env[self.kwarg] = {f"p:{self.kwarg}"}
        self.calls: dict[str, CallFacts] = {}
        self.attr_stores: dict[tuple[str, int], tuple[str, set[str], int, bool]] = {}
        self.attr_loads: set[tuple[str, int, bool]] = set()
        self.attr_mutations: set[tuple[str, int, bool]] = set()
        self.data_reads: set[tuple[str, int, int]] = set()
        self.lazy_guard = False
        self.returns: set[str] = set()
        self.acquires_lock = False
        self.annotations: dict[str, tuple[str, ...]] = {}
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            types = _annotation_types(arg.annotation)
            if types:
                self.annotations[arg.arg] = types

    def extract(self) -> FunctionFacts:
        for _ in range(2):
            for stmt in self.node.body:
                self._stmt(stmt, locked=False)
        decorators = tuple(d for d in (_dotted(dec) for dec
                                       in self.node.decorator_list) if d)
        qualname = (f"{self.class_name}.{self.node.name}"
                    if self.class_name else self.node.name)
        return FunctionFacts(
            qualname=qualname, name=self.node.name, class_name=self.class_name,
            line=self.node.lineno, col=self.node.col_offset + 1,
            params=self.params, vararg=self.vararg, kwarg=self.kwarg,
            annotations=self.annotations, returns=tuple(sorted(self.returns)),
            calls=sorted(self.calls.values(), key=lambda c: (c.line, c.col)),
            attr_stores=[(a, tuple(sorted(t)), ln, lk) for (a, ln), (_, t, _, lk)
                         in sorted(self.attr_stores.items(),
                                   key=lambda kv: kv[0][1])],
            attr_loads=sorted(self.attr_loads, key=lambda e: (e[1], e[0])),
            acquires_lock=self.acquires_lock, decorators=decorators,
            # a name bound anywhere in the body is local, read before or after
            data_reads=tuple(sorted(read for read in self.data_reads
                                    if read[0] not in self.env)),
            lazy_guard=self.lazy_guard,
            attr_mutations=tuple(sorted(self.attr_mutations,
                                        key=lambda e: (e[1], e[0]))),
        )

    # -- statements ---------------------------------------------------------------
    def _stmt(self, stmt: ast.stmt, locked: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function: inline its body so closure reads and the calls
            # it makes are attributed to the enclosing function; its own
            # params become opaque locals.
            saved = {p.arg: self.env.get(p.arg)
                     for p in stmt.args.posonlyargs + stmt.args.args
                     + stmt.args.kwonlyargs}
            for p in saved:
                self.env[p] = set()
            for inner in stmt.body:
                self._stmt(inner, locked)
            for p, tokens in saved.items():
                if tokens is None:
                    self.env.pop(p, None)
                else:
                    self.env[p] = tokens
            self.env[stmt.name] = set()
        elif isinstance(stmt, ast.ClassDef):
            pass  # classes nested in functions are out of scope
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = getattr(stmt, "value", None)
            tokens = self._tokens(value, locked) if value is not None else set()
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                self._bind(target, tokens, locked)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns |= self._tokens(stmt.value, locked)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            now_locked = locked
            for item in stmt.items:
                expr = item.context_expr
                self._tokens(expr, locked)
                target_dotted = _dotted(expr.func if isinstance(expr, ast.Call)
                                        else expr)
                if _is_lockish(target_dotted):
                    now_locked = True
                    self.acquires_lock = True
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, set(), locked)
            for inner in stmt.body:
                self._stmt(inner, now_locked)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            tokens = self._tokens(stmt.iter, locked)
            self._bind(stmt.target, tokens, locked)
            for inner in stmt.body + stmt.orelse:
                self._stmt(inner, locked)
        elif isinstance(stmt, ast.While):
            self._tokens(stmt.test, locked)
            for inner in stmt.body + stmt.orelse:
                self._stmt(inner, locked)
        elif isinstance(stmt, ast.If):
            self._tokens(stmt.test, locked)
            for inner in stmt.body + stmt.orelse:
                self._stmt(inner, locked)
        elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            for inner in stmt.body + stmt.orelse + stmt.finalbody:
                self._stmt(inner, locked)
            for handler in stmt.handlers:
                for inner in handler.body:
                    self._stmt(inner, locked)
        elif isinstance(stmt, ast.Expr):
            self._tokens(stmt.value, locked)
        elif isinstance(stmt, (ast.Assert, ast.Raise, ast.Delete)):
            if isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    if isinstance(target, ast.Subscript):
                        self._mutation(target.value, locked)
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._tokens(child, locked)
        # Pass/Break/Continue/Import/Global/Nonlocal: nothing to track

    def _bind(self, target: ast.expr, tokens: set[str], locked: bool) -> None:
        if isinstance(target, ast.Name):
            self.env.setdefault(target.id, set()).update(tokens)
        elif isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                key = (target.attr, target.lineno)
                prior = self.attr_stores.get(key)
                merged = set(tokens) | (prior[1] if prior else set())
                self.attr_stores[key] = (target.attr, merged, target.lineno,
                                         locked or (prior[3] if prior else False))
            else:
                self._tokens(target.value, locked)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, tokens, locked)
        elif isinstance(target, ast.Subscript):
            # out[idx] = value taints the container
            self._tokens(target.slice, locked)
            self._bind(target.value, tokens, locked)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, tokens, locked)

    def _mutation(self, target: ast.expr, locked: bool) -> None:
        """Record an in-place mutation of ``target`` if it is ``self.attr``."""
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            self.attr_mutations.add((target.attr, target.lineno, locked))

    # -- expressions --------------------------------------------------------------
    def _tokens(self, node: ast.expr | None, locked: bool) -> set[str]:
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return set(self.env[node.id])
            if node.id in DATA_NAMES and isinstance(node.ctx, ast.Load):
                self.data_reads.add((node.id, node.lineno, node.col_offset))
            return {f"g:{node.id}"}
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                if isinstance(node.ctx, ast.Load):
                    self.attr_loads.add((node.attr, node.lineno, locked))
                return {f"a:{node.attr}"}
            if node.attr in _STRUCTURAL_ATTRS:
                self._tokens(node.value, locked)  # still record calls/loads
                return set()
            return self._tokens(node.value, locked)
        if isinstance(node, ast.Call):
            return {self._record_call(node, locked)}
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Lambda):
            saved = {p.arg: self.env.get(p.arg)
                     for p in node.args.posonlyargs + node.args.args
                     + node.args.kwonlyargs}
            for p in saved:
                self.env[p] = set()
            tokens = self._tokens(node.body, locked)
            for p, old in saved.items():
                if old is None:
                    self.env.pop(p, None)
                else:
                    self.env[p] = old
            return tokens
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            tokens: set[str] = set()
            saved: dict[str, set[str] | None] = {}
            for gen in node.generators:
                iter_tokens = self._tokens(gen.iter, locked)
                tokens |= iter_tokens
                for name in self._target_names(gen.target):
                    saved.setdefault(name, self.env.get(name))
                    self.env[name] = set(iter_tokens)
                for cond in gen.ifs:
                    self._tokens(cond, locked)
            if isinstance(node, ast.DictComp):
                tokens |= self._tokens(node.key, locked)
                tokens |= self._tokens(node.value, locked)
            else:
                tokens |= self._tokens(node.elt, locked)
            for name, old in saved.items():
                if old is None:
                    self.env.pop(name, None)
                else:
                    self.env[name] = old
            return tokens
        if isinstance(node, ast.NamedExpr):
            tokens = self._tokens(node.value, locked)
            self._bind(node.target, tokens, locked)
            return tokens
        if isinstance(node, ast.Compare) and _is_none_test(node):
            self.lazy_guard = True
        # Generic container / operator nodes: union of child expressions.
        tokens = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                tokens |= self._tokens(child, locked)
        return tokens

    @staticmethod
    def _target_names(target: ast.expr) -> list[str]:
        names = []
        for inner in ast.walk(target):
            if isinstance(inner, ast.Name):
                names.append(inner.id)
        return names

    def _record_call(self, node: ast.Call, locked: bool) -> str:
        key = f"c:{node.lineno}:{node.col_offset}"
        callee = _dotted(node.func)
        subscript_of = None
        base_tokens: set[str] = set()
        if isinstance(node.func, ast.Subscript):
            subscript_of = _dotted(node.func.value)
            base_tokens = self._tokens(node.func.value, locked)
            self._tokens(node.func.slice, locked)
        elif isinstance(node.func, ast.Attribute):
            base_tokens = self._tokens(node.func.value, locked)
            if node.func.attr in _MUTATING_METHODS:
                self._mutation(node.func.value, locked)
        elif isinstance(node.func, ast.Call):
            base_tokens = self._tokens(node.func, locked)
        if _is_lockish(callee) and callee and callee.endswith(
                (".acquire", ".release", ".__enter__")):
            self.acquires_lock = True
        args: list[tuple[str, ...]] = []
        has_star = False
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                has_star = True
                args.append(tuple(sorted(self._tokens(arg.value, locked))))
            else:
                args.append(tuple(sorted(self._tokens(arg, locked))))
        kwargs: dict[str, tuple[str, ...]] = {}
        for kw in node.keywords:
            tokens = tuple(sorted(self._tokens(kw.value, locked)))
            if kw.arg is None:
                has_star = True
                kwargs.setdefault("**", tokens)
            else:
                kwargs[kw.arg] = tokens
        self.calls[key] = CallFacts(
            key=key, line=node.lineno, col=node.col_offset + 1, callee=callee,
            subscript_of=subscript_of,
            base_tokens=tuple(sorted(base_tokens)),
            args=tuple(args), kwargs=kwargs, has_star=has_star,
        )
        return key


#: Nodes with nothing below them the scan records.
_LEAF_NODES = (ast.Name, ast.Constant, ast.expr_context, ast.operator,
               ast.boolop, ast.unaryop, ast.cmpop, ast.alias)


class _SiteScanner:
    """Visits every node of a module once, carrying the ``def`` chain, and
    records the base-case sites: calls, raw-epsilon arithmetic, the imports
    made below module level, and the classes nested in a ``def`` or class
    (extracted under their ``__qualname__``)."""

    def __init__(self, facts: ModuleFacts):
        self.facts = facts
        self.nested_imports: list[ast.stmt] = []

    def visit(self, node: ast.AST, scopes: tuple[str, ...] = (),
              metered: bool = False, accounted: bool = False,
              qualname: str = "") -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            scopes += (node.name,)
            metered = metered or "budget" in {
                a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            accounted = accounted or any(token in node.name.lower()
                                         for token in _ACCOUNTING_TOKENS)
            qualname += f"{node.name}.<locals>."
        elif isinstance(node, ast.ClassDef):
            if qualname:
                _extract_class(node, self.facts, qualname + node.name)
            qualname += f"{node.name}."
        elif isinstance(node, ast.Call):
            func = node.func
            method = func.attr if isinstance(func, ast.Attribute) else None
            self.facts.call_sites.append(
                CallSite(node.lineno, _dotted(func), method, scopes, metered))
            # an argument of budget.spend*(...) is charged on the spot
            accounted = accounted or (method or "").startswith("spend")
        elif isinstance(node, ast.Compare):
            accounted = True  # validation against epsilon bounds, not a split
        elif isinstance(node, ast.BinOp) and not accounted \
                and isinstance(node.op, (ast.Mult, ast.Div)) \
                and any(isinstance(side, ast.Name) and side.id == _EPSILON
                        for side in (node.left, node.right)):
            op = "*" if isinstance(node.op, ast.Mult) else "/"
            self.facts.epsilon_ops.append((node.lineno, op))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            self.nested_imports.append(node)
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, _LEAF_NODES):
                self.visit(child, scopes, metered, accounted, qualname)

    def scan(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self.visit(stmt)


def extract_module_facts(source: str, path: str,
                         tree: ast.Module) -> ModuleFacts:
    """Extract all facts for one parsed module."""
    posix = Path(path).as_posix()
    module = module_name_for_path(posix)
    is_package = posix.endswith("__init__.py")
    facts = ModuleFacts(path=posix, module=module,
                        imports=_import_table(tree.body, module, is_package),
                        suppressions=parse_suppressions(source))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _FunctionExtractor(node, None).extract()
            facts.functions[fn.qualname] = fn
        elif isinstance(node, ast.ClassDef):
            _extract_class(node, facts, node.name)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Dict):
            table = _dispatch_entries(node.value)
            if table:
                facts.dispatch_dicts[node.targets[0].id] = table
    scanner = _SiteScanner(facts)
    scanner.scan(tree)
    facts.local_imports = _import_table(scanner.nested_imports, module,
                                        is_package)
    return facts


def _extract_class(node: ast.ClassDef, facts: ModuleFacts,
                   qualname: str) -> None:
    bases = tuple(b for b in (_dotted(base) for base in node.bases) if b)
    attr_annotations: dict[str, tuple[str, ...]] = {}
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _FunctionExtractor(stmt, qualname).extract()
            facts.functions[fn.qualname] = fn
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            types = _annotation_types(stmt.annotation)
            if types:
                attr_annotations[stmt.target.id] = types
    facts.classes[qualname] = ClassFacts(
        name=qualname, bases=bases, attr_annotations=attr_annotations,
        thread_doc="thread" in (ast.get_docstring(node) or "").lower(),
    )


def _dispatch_entries(node: ast.Dict) -> dict[str, str]:
    """``{"Identity": algs.Identity, ...}`` -> {"Identity": "algs.Identity"}."""
    table: dict[str, str] = {}
    for key, value in zip(node.keys, node.values):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            dotted = _dotted(value)
            if dotted:
                table[key.value] = dotted
    return table
