"""Project linking: resolve names across modules and build the call graph.

Facts are per-module (:mod:`repro.privlint.dataflow.facts`); this module
stitches them together.  Name resolution follows the import tables —
including relative imports and one-hop package ``__init__`` re-exports — and
call sites are resolved through four channels:

* plain names and dotted module attributes (``measure_plan``,
  ``plan.measure_plan``),
* ``self.method`` / ``super().method`` with *virtual dispatch*: the template
  methods (``Algorithm.run`` calling ``self._run``) resolve to every override
  in the class family, which is what makes the select→measure→infer pipeline
  a connected graph,
* receiver types recovered from parameter annotations, class attribute types
  (annotations plus ``self.attr = Ctor()`` stores), and constructor /
  factory return values,
* module-level dispatch dicts (``ALGORITHM_REGISTRY[name]()`` instantiates
  every registered class).

Resolution is deliberately may-analysis: a call site maps to a *set* of
candidate functions, and unresolvable callees stay explicit so the dataflow
engine can treat them as conservative pass-throughs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .facts import CallFacts, FunctionFacts, ModuleFacts

__all__ = ["CallTargets", "ClassInfo", "Project"]

#: function key = (module path, qualname); class key = (module path, name)
FuncKey = tuple[str, str]
ClassKey = tuple[str, str]

_MAX_HOPS = 8  # re-export / alias chain guard


@dataclass
class ClassInfo:
    key: ClassKey
    facts: "object"
    bases: list[ClassKey] = field(default_factory=list)
    ancestors: set[ClassKey] = field(default_factory=set)
    descendants: set[ClassKey] = field(default_factory=set)
    component: int = -1           #: weakly-connected family id
    attr_types: dict[str, set[ClassKey]] = field(default_factory=dict)


@dataclass
class CallTargets:
    """Resolution of one call site."""

    functions: set[FuncKey] = field(default_factory=set)
    #: classes this call instantiates (the call's value is an instance)
    instantiates: set[ClassKey] = field(default_factory=set)
    #: last-segment callee name when nothing resolved (axiomatic matching)
    external: str | None = None

    @property
    def resolved(self) -> bool:
        return bool(self.functions or self.instantiates)


class Project:
    """The linked project: modules, class table, call graph."""

    def __init__(self, modules: dict[str, ModuleFacts]):
        self.modules = modules                          # keyed by path
        self.by_name: dict[str, ModuleFacts] = {}
        for mod in modules.values():
            self.by_name[mod.module] = mod
        self.functions: dict[FuncKey, FunctionFacts] = {}
        for path, mod in modules.items():
            for qualname, fn in mod.functions.items():
                self.functions[(path, qualname)] = fn
        self.classes: dict[ClassKey, ClassInfo] = {}
        self._build_class_table()
        self._return_type_cache: dict[FuncKey, set[ClassKey]] = {}
        self._call_targets: dict[tuple[FuncKey, str], CallTargets] = {}
        self._bindings: dict[tuple[FuncKey, str],
                             dict[FuncKey, dict[str, set[str]]]] = {}
        self._infer_attr_types()
        self.callers: dict[FuncKey, list[tuple[FuncKey, CallFacts]]] = {}
        self._link()

    # -- symbol resolution --------------------------------------------------------
    def resolve_name(self, module: ModuleFacts, dotted: str,
                     _hops: int = 0):
        """Resolve a dotted name used inside ``module`` to a project symbol.

        Returns ``("func", FuncKey)``, ``("class", ClassKey)``,
        ``("dict", (path, name))``, ``("external", absolute_dotted)`` or
        ``None`` when the head is a local variable the caller must type.
        """
        if _hops > _MAX_HOPS or not dotted:
            return None
        head, _, rest = dotted.partition(".")
        if head in module.imports:
            absolute = module.imports[head] + (("." + rest) if rest else "")
            return self._resolve_absolute(absolute, _hops + 1)
        if not rest:
            if head in module.classes:
                return ("class", (module.path, head))
            if head in module.functions:
                return ("func", (module.path, head))
            if head in module.dispatch_dicts:
                return ("dict", (module.path, head))
        else:
            # Class attribute chains like ``Workload.from_ranges`` resolve to
            # the method on the local class.
            if head in module.classes:
                return self._resolve_in_module(module, dotted, _hops)
        return None

    def _resolve_absolute(self, dotted: str, _hops: int = 0):
        if _hops > _MAX_HOPS:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            mod_name = ".".join(parts[:cut])
            if mod_name in self.by_name:
                rest = ".".join(parts[cut:])
                if not rest:
                    return ("external", dotted)  # a bare module reference
                return self._resolve_in_module(self.by_name[mod_name], rest,
                                               _hops)
        return ("external", dotted)

    def _resolve_in_module(self, module: ModuleFacts, rest: str, _hops: int):
        head, _, tail = rest.partition(".")
        if head in module.classes:
            if tail and "." not in tail:
                qualname = f"{head}.{tail}"
                if qualname in module.functions:
                    return ("func", (module.path, qualname))
            if not tail:
                return ("class", (module.path, head))
            return None
        if not tail:
            if head in module.functions:
                return ("func", (module.path, head))
            if head in module.dispatch_dicts:
                return ("dict", (module.path, head))
        if head in module.imports:  # package __init__ re-export hop
            absolute = module.imports[head] + (("." + tail) if tail else "")
            return self._resolve_absolute(absolute, _hops + 1)
        return ("external", f"{module.module}.{rest}" if module.module else rest)

    def resolve_external_dotted(self, module: ModuleFacts, dotted: str) -> str:
        """Absolute spelling of ``dotted`` for axiomatic matching (numpy etc.).

        Unlike linking, this also honours imports made inside a function."""
        head, _, rest = dotted.partition(".")
        target = module.imports.get(head) or module.local_imports.get(head)
        if target:
            return target + (("." + rest) if rest else "")
        return dotted

    def _resolve_class(self, module: ModuleFacts, dotted: str) -> ClassKey | None:
        resolved = self.resolve_name(module, dotted)
        return resolved[1] if resolved and resolved[0] == "class" else None

    # -- class table --------------------------------------------------------------
    def _build_class_table(self) -> None:
        for path, mod in self.modules.items():
            for name, cls in mod.classes.items():
                self.classes[(path, name)] = ClassInfo(key=(path, name),
                                                       facts=cls)
        for key, info in self.classes.items():
            mod = self.modules[key[0]]
            for base in info.facts.bases:
                resolved = self._resolve_class(mod, base)
                if resolved:
                    info.bases.append(resolved)
        # transitive closure (hierarchies are shallow; iterate to fixpoint)
        changed = True
        while changed:
            changed = False
            for info in self.classes.values():
                for base in info.bases:
                    new = {base} | self.classes[base].ancestors
                    if not new <= info.ancestors:
                        info.ancestors |= new
                        changed = True
        for info in self.classes.values():
            for ancestor in info.ancestors:
                self.classes[ancestor].descendants.add(info.key)
        # weakly-connected components = class "families"
        component = 0
        seen: set[ClassKey] = set()
        for key, info in self.classes.items():
            if key in seen:
                continue
            stack = [key]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                self.classes[current].component = component
                stack.extend(self.classes[current].ancestors
                             | self.classes[current].descendants)
            component += 1

    def family(self, key: ClassKey) -> set[ClassKey]:
        info = self.classes[key]
        return {key} | info.ancestors | info.descendants

    def _attr_types(self, key: ClassKey, attr: str) -> set[ClassKey]:
        """Types stored in ``self.attr`` anywhere in the class family."""
        types: set[ClassKey] = set()
        for member in self.family(key):
            types |= self.classes[member].attr_types.get(attr, set())
        return types

    def find_method(self, key: ClassKey, name: str) -> FuncKey | None:
        """MRO-ish lookup: the class itself, then ancestors."""
        info = self.classes[key]
        for candidate in [key] + sorted(info.ancestors):
            path, cls_name = candidate
            qualname = f"{cls_name}.{name}"
            if (path, qualname) in self.functions:
                return (path, qualname)
        return None

    def virtual_targets(self, key: ClassKey, name: str) -> set[FuncKey]:
        """``self.name()`` dispatch: the statically found method plus every
        override in descendants (the receiver may be any subclass)."""
        targets: set[FuncKey] = set()
        found = self.find_method(key, name)
        if found:
            targets.add(found)
        for sub in self.classes[key].descendants:
            path, cls_name = sub
            qualname = f"{cls_name}.{name}"
            if (path, qualname) in self.functions:
                targets.add((path, qualname))
        return targets

    def class_of_function(self, fkey: FuncKey) -> ClassKey | None:
        fn = self.functions[fkey]
        if fn.class_name is None:
            return None
        return (fkey[0], fn.class_name)

    def component(self, fkey: FuncKey) -> int | None:
        """Class-family id of a method's class; ``None`` for plain functions."""
        ckey = self.class_of_function(fkey)
        return self.classes[ckey].component if ckey else None

    # -- receiver typing ----------------------------------------------------------
    def _infer_attr_types(self) -> None:
        """attr -> class types, from class-body annotations and
        ``self.attr = Ctor()`` stores in any method of the family."""
        for key, info in self.classes.items():
            mod = self.modules[key[0]]
            for attr, names in info.facts.attr_annotations.items():
                for name in names:
                    resolved = self._resolve_class(mod, name)
                    if resolved:
                        info.attr_types.setdefault(attr, set()).add(resolved)
        for fkey, fn in self.functions.items():
            ckey = self.class_of_function(fkey)
            if ckey is None:
                continue
            info = self.classes[ckey]
            for attr, tokens, _line, _locked in fn.attr_stores:
                for token in tokens:
                    for cls in self._token_types(fkey, token, set()):
                        info.attr_types.setdefault(attr, set()).add(cls)

    def _token_types(self, fkey: FuncKey, token: str,
                     visiting: set) -> set[ClassKey]:
        """Candidate instance types for one provenance token."""
        fn = self.functions[fkey]
        mod = self.modules[fkey[0]]
        if token.startswith("p:"):
            types = {self._resolve_class(mod, name)
                     for name in fn.annotations.get(token[2:], ())}
            return types - {None}
        if token.startswith("a:"):
            ckey = self.class_of_function(fkey)
            return self._attr_types(ckey, token[2:]) if ckey else set()
        if token.startswith("c:"):
            call = fn.call_by_key(token)
            if call is None or (fkey, token) in visiting:
                return set()
            visiting = visiting | {(fkey, token)}
            targets = self._resolve_call_inner(fkey, call, visiting)
            types = set(targets.instantiates)
            for callee in targets.functions:
                types |= self._return_types(callee, visiting)
            return types
        if token.startswith("g:"):
            resolved = self._resolve_class(mod, token[2:])
            if resolved:
                return {resolved}
        return set()

    def _return_types(self, fkey: FuncKey, visiting: set) -> set[ClassKey]:
        if fkey in self._return_type_cache:
            return self._return_type_cache[fkey]
        fn = self.functions[fkey]
        types: set[ClassKey] = set()
        if fn.name == "__init__" or fkey in {v[0] for v in visiting}:
            pass
        else:
            for token in fn.returns:
                types |= self._token_types(fkey, token, visiting)
        self._return_type_cache[fkey] = types
        return types

    # -- call resolution ----------------------------------------------------------
    def resolve_call(self, fkey: FuncKey, call: CallFacts) -> CallTargets:
        cached = self._call_targets.get((fkey, call.key))
        if cached is None:
            cached = self._resolve_call_inner(fkey, call, set())
            self._call_targets[(fkey, call.key)] = cached
        return cached

    def _resolve_call_inner(self, fkey: FuncKey, call: CallFacts,
                            visiting: set) -> CallTargets:
        fn = self.functions[fkey]
        mod = self.modules[fkey[0]]
        targets = CallTargets()
        if call.subscript_of:
            resolved = self.resolve_name(mod, call.subscript_of)
            if resolved and resolved[0] == "dict":
                path, name = resolved[1]
                table = self.modules[path].dispatch_dicts[name]
                table_mod = self.modules[path]
                for value in table.values():
                    entry = self.resolve_name(table_mod, value)
                    if entry and entry[0] == "class":
                        self._instantiate(targets, entry[1])
                    elif entry and entry[0] == "func":
                        targets.functions.add(entry[1])
            return targets
        if call.callee is None:
            return targets
        parts = call.callee.split(".")
        ckey = self.class_of_function(fkey)
        if parts[0] == "self" and ckey is not None:
            if len(parts) == 2:
                targets.functions |= self.virtual_targets(ckey, parts[1])
            if not targets.functions and len(parts) in (2, 3):
                # ``self.attr(...)`` / ``self.attr.m(...)`` on a typed attribute
                self._dispatch_on_types(targets, self._attr_types(ckey, parts[1]),
                                        parts[2] if len(parts) == 3 else None)
            if not targets.resolved:
                targets.external = parts[-1]
            return targets
        if parts[0] == "super" and ckey is not None and len(parts) == 2:
            for base in self.classes[ckey].bases:
                found = self.find_method(base, parts[1])
                if found:
                    targets.functions.add(found)
            if not targets.functions:
                targets.external = parts[-1]
            return targets
        resolved = self.resolve_name(mod, call.callee)
        if resolved is None and len(parts) >= 2:
            # head is a local variable: type it from the receiver tokens
            method = parts[-1] if len(parts) == 2 else None
            receiver_types = set()
            for token in call.base_tokens:
                receiver_types |= self._token_types(fkey, token, visiting)
            if method is not None:
                self._dispatch_on_types(targets, receiver_types, method)
            if not targets.resolved:
                targets.external = parts[-1]
            return targets
        if resolved is None:
            targets.external = parts[-1]
            return targets
        kind, payload = resolved
        if kind == "func":
            targets.functions.add(payload)
        elif kind == "class":
            self._instantiate(targets, payload)
        else:
            targets.external = (payload if isinstance(payload, str)
                                else parts[-1]).rsplit(".", 1)[-1] or parts[-1]
        return targets

    def _instantiate(self, targets: CallTargets, cls: ClassKey) -> None:
        targets.instantiates.add(cls)
        init = self.find_method(cls, "__init__")
        if init:
            targets.functions.add(init)

    def _dispatch_on_types(self, targets: CallTargets,
                           receiver_types: set[ClassKey],
                           method: str | None) -> None:
        for cls in receiver_types:
            if method is None:
                self._instantiate(targets, cls)
            else:
                targets.functions |= self.virtual_targets(cls, method)

    # -- graph --------------------------------------------------------------------
    def _link(self) -> None:
        for fkey in self.functions:
            self.callers.setdefault(fkey, [])
        for fkey, fn in self.functions.items():
            for call in fn.calls:
                for callee in self.resolve_call(fkey, call).functions:
                    self.callers.setdefault(callee, []).append((fkey, call))

    def bindings(self, fkey: FuncKey, call: CallFacts
                 ) -> dict[FuncKey, dict[str, set[str]]]:
        """``{callee: {param: caller-side tokens}}`` for one call site."""
        cached = self._bindings.get((fkey, call.key))
        if cached is None:
            cached = {callee: self.bind_args(call, self.functions[callee])
                      for callee in self.resolve_call(fkey, call).functions}
            self._bindings[(fkey, call.key)] = cached
        return cached

    def bind_args(self, call: CallFacts, callee: FunctionFacts
                  ) -> dict[str, set[str]]:
        """Map caller-side token sets onto callee parameter names."""
        params = callee.bindable_params()
        binding: dict[str, set[str]] = {}
        for index, tokens in enumerate(call.args):
            if index < len(params):
                binding.setdefault(params[index], set()).update(tokens)
            elif callee.vararg:
                binding.setdefault(callee.vararg, set()).update(tokens)
        for name, tokens in call.kwargs.items():
            if name == "**":
                for param in params:
                    binding.setdefault(param, set()).update(tokens)
            elif name in params:
                binding.setdefault(name, set()).update(tokens)
            elif callee.kwarg:
                binding.setdefault(callee.kwarg, set()).update(tokens)
        if call.has_star:
            star_tokens = call.all_arg_tokens()
            for param in params:
                binding.setdefault(param, set()).update(star_tokens)
        return binding

    def qualified(self, fkey: FuncKey) -> str:
        """Human-readable name: ``module.Class.method``."""
        mod = self.modules[fkey[0]]
        prefix = mod.module + "." if mod.module else ""
        return prefix + fkey[1]
