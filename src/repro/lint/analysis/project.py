"""Project assembly: compose module summaries into a whole-program view.

The :class:`Project` is built from the module summaries on every run --
it is cheap, deterministic, and holds the two things the
interprocedural engines need:

- a **symbol table** mapping dotted names to function and class records
  across every linted module;
- **call resolution**: a call record's callee descriptor (dotted name,
  ``self.method``, typed-receiver method, constructor) resolved to the
  global function it lands on, using parameter/return annotations and
  constructor-call bindings collected per module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Project", "FuncView"]


@dataclass
class FuncView:
    """One function or method, addressable by its global dotted name."""

    name: str  # e.g. repro.obs.metrics.MetricsRegistry.snapshot
    module: str
    qualname: str  # module-local, e.g. MetricsRegistry.snapshot
    class_name: Optional[str]
    info: Dict[str, object] = field(repr=False)

    @property
    def calls(self) -> List[Dict[str, object]]:
        return list(self.info.get("calls", ()))

    @property
    def params(self) -> List[str]:
        return list(self.info.get("params", ()))


class Project:
    """Global symbol table + call resolution over module summaries."""

    def __init__(self, summaries: Sequence[Dict[str, object]]) -> None:
        self.summaries = {str(s["module"]): s for s in summaries}
        self.functions: Dict[str, FuncView] = {}
        self.classes: Dict[str, Dict[str, object]] = {}
        for module, summary in self.summaries.items():
            for qualname, info in summary.get("functions", {}).items():
                view = FuncView(
                    name=f"{module}.{qualname}",
                    module=module,
                    qualname=qualname,
                    class_name=info.get("class"),
                    info=info,
                )
                self.functions[view.name] = view
            for class_name, class_info in summary.get("classes", {}).items():
                self.classes[f"{module}.{class_name}"] = class_info

    # -- symbol table ----------------------------------------------------

    def function(self, name: str) -> Optional[FuncView]:
        return self.functions.get(name)

    def class_info(self, name: str) -> Optional[Dict[str, object]]:
        return self.classes.get(name)

    def constructor(self, class_name: str) -> Optional[FuncView]:
        return self.functions.get(f"{class_name}.__init__")

    def method(self, class_name: str, attr: str) -> Optional[FuncView]:
        return self.functions.get(f"{class_name}.{attr}")

    def path_of(self, module: str) -> Optional[str]:
        summary = self.summaries.get(module)
        return None if summary is None else str(summary.get("path"))

    # -- type resolution -------------------------------------------------

    def _binding_type(
        self, caller: FuncView, binding: Dict[str, object], depth: int = 0
    ) -> Optional[str]:
        """A var_bindings entry -> the dotted class name it holds."""
        if depth > 4:
            return None
        if "class" in binding:
            return str(binding["class"])
        if "call" in binding:
            return self._call_result_type(str(binding["call"]))
        if "var" in binding:
            bindings = caller.info.get("var_bindings", {})
            other = bindings.get(str(binding["var"]))
            if other is not None:
                return self._binding_type(caller, other, depth + 1)
        return None

    def _call_result_type(self, dotted: str) -> Optional[str]:
        if dotted in self.classes:
            return dotted
        func = self.functions.get(dotted)
        if func is not None:
            returns = func.info.get("returns")
            return None if returns is None else str(returns)
        return None

    def var_type(self, caller: FuncView, var: str) -> Optional[str]:
        bindings = caller.info.get("var_bindings", {})
        binding = bindings.get(var)
        if binding is None:
            return None
        return self._binding_type(caller, binding)

    def self_attr_type(self, caller: FuncView, attr: str) -> Optional[str]:
        if caller.class_name is None:
            return None
        class_info = self.classes.get(f"{caller.module}.{caller.class_name}")
        if class_info is None:
            return None
        fields = class_info.get("fields", {})
        if attr in fields:
            annotation = fields[attr].get("annotation")
            if annotation is not None:
                return str(annotation)
        attr_type = class_info.get("attr_types", {}).get(attr)
        if attr_type is None:
            return None
        attr_type = str(attr_type)
        if attr_type.startswith("call:"):
            return self._call_result_type(attr_type[len("call:"):])
        return attr_type

    # -- call resolution -------------------------------------------------

    def resolve_callee(
        self, caller: FuncView, desc: Dict[str, object]
    ) -> Optional[FuncView]:
        """Resolve a callee descriptor to the function the call lands on.

        Constructor calls resolve to the class's ``__init__`` when we have
        one.  Returns ``None`` for external or unresolvable targets.
        """
        if "dotted" in desc:
            dotted = str(desc["dotted"])
            if dotted in self.functions:
                return self.functions[dotted]
            if dotted in self.classes:
                return self.constructor(dotted)
            return None
        attr = desc.get("attr")
        if desc.get("recv_self") and caller.class_name is not None and attr:
            found = self.method(f"{caller.module}.{caller.class_name}", str(attr))
            if found is not None:
                return found
            return None
        if "recv_self_attr" in desc and attr:
            owner = self.self_attr_type(caller, str(desc["recv_self_attr"]))
            if owner is not None:
                return self.method(owner, str(attr))
            return None
        if "recv_var" in desc:
            var = str(desc["recv_var"])
            if attr is None:
                # A bare name holding a callable: a class via var binding.
                owner = self.var_type(caller, var)
                if owner is not None and owner in self.classes:
                    return self.constructor(owner)
                return None
            owner = self.var_type(caller, var)
            if owner is not None:
                return self.method(owner, str(attr))
            return None
        if "recv_call" in desc and attr:
            owner = self._call_result_type(str(desc["recv_call"]))
            if owner is not None:
                return self.method(owner, str(attr))
        return None

    def resolve_class_of_chain(
        self, caller: FuncView, chain: Sequence[str]
    ) -> Optional[Tuple[str, str]]:
        """Resolve an attribute chain to ``(owner_class, final_attr)``.

        ``("self", "config", "seed")`` inside a method whose class binds
        ``self.config`` to a ``PlatformConfig`` resolves to
        ``("...PlatformConfig", "seed")``.
        """
        if len(chain) < 2:
            return None
        head, rest = chain[0], list(chain[1:])
        if head == "self":
            if caller.class_name is None:
                return None
            owner: Optional[str] = f"{caller.module}.{caller.class_name}"
        else:
            owner = self.var_type(caller, head)
        while owner is not None and len(rest) > 1:
            attr, rest = rest[0], rest[1:]
            info = self.classes.get(owner)
            if info is None:
                return None
            annotation = info.get("fields", {}).get(attr, {}).get("annotation")
            if annotation is None:
                annotation = info.get("attr_types", {}).get(attr)
                if annotation is not None and str(annotation).startswith("call:"):
                    annotation = self._call_result_type(str(annotation)[len("call:"):])
            owner = None if annotation is None else str(annotation)
        if owner is None or owner not in self.classes:
            return None
        return owner, rest[0]
