"""Per-module program summaries: the per-file half of whole-program lint.

:func:`build_summary` distills one :class:`repro.lint.context.FileContext`
into a plain dict of facts the project layer composes later:

- every function/method with its parameters, defaults, resolved
  annotations, local variable bindings, and one record per call --
  carrying the *taint atoms* of each argument (int literals, wall-clock
  reads, dataclass-attribute reads, parameter mentions);
- every class with its methods, ``self.*`` attribute types (inferred
  from annotated parameters and constructor calls), and dataclass
  fields.

Everything is plain data that depends only on the file's source bytes;
the project phase reads the summaries, never the ASTs.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.lint.context import FileContext, dotted_parts

__all__ = ["build_summary"]

# Wall-clock reads: mirror DET002's list -- values derived from these are
# taint sources for DET010 (a wall-clock seed is as magic as a literal).
WALL_CLOCK = frozenset(
    {
        "time.time", "time.time_ns", "time.ctime", "time.localtime",
        "time.gmtime", "time.strftime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _annotation_name(node: Optional[ast.AST], ctx: FileContext) -> Optional[str]:
    """Resolve an annotation to a dotted class name, through Optional/Union."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if base_name in ("Optional", "Union"):
            inner = node.slice
            candidates = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            for candidate in candidates:
                if isinstance(candidate, ast.Constant) and candidate.value is None:
                    continue
                resolved = _annotation_name(candidate, ctx)
                if resolved is not None:
                    return resolved
        return None
    resolved = ctx.resolve_imported(node)
    if resolved is not None:
        return resolved
    # A bare local name: a class defined in this module.
    if isinstance(node, ast.Name):
        return f"{ctx.module}.{node.id}"
    return None


def _callee_descriptor(
    func: ast.AST, ctx: FileContext, local_defs: Dict[str, str]
) -> Optional[Dict[str, object]]:
    """How a call target will be resolved: now (dotted) or at project time.

    Returns ``{"dotted": name}`` for import- or locally-resolved targets,
    ``{"recv_var"/"recv_self"/"recv_call": ..., "attr": m}`` for method
    calls needing type inference, ``None`` for unresolvable targets.
    """
    resolved = ctx.resolve_imported(func)
    if resolved is not None:
        return {"dotted": resolved}
    if isinstance(func, ast.Name):
        if func.id in local_defs:
            return {"dotted": local_defs[func.id]}
        return {"recv_var": func.id, "attr": None}
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "self":
                return {"recv_self": True, "attr": func.attr}
            return {"recv_var": base.id, "attr": func.attr}
        if isinstance(base, ast.Attribute):
            chain = dotted_parts(base)
            if chain and chain[0] == "self" and len(chain) == 2:
                return {"recv_self_attr": chain[1], "attr": func.attr}
            return None
        if isinstance(base, ast.Call):
            inner = _callee_descriptor(base.func, ctx, local_defs)
            if inner is not None and "dotted" in inner:
                return {"recv_call": inner["dotted"], "attr": func.attr}
    return None


def _binding_candidates(
    value: ast.AST, ctx: FileContext, local_defs: Dict[str, str]
) -> List[Dict[str, object]]:
    """Type-inference candidates for the RHS of an assignment."""
    if isinstance(value, ast.Call):
        desc = _callee_descriptor(value.func, ctx, local_defs)
        if desc is not None and "dotted" in desc:
            return [{"call": desc["dotted"]}]
        return []
    if isinstance(value, ast.Name):
        return [{"var": value.id}]
    if isinstance(value, (ast.BoolOp, ast.IfExp)):
        parts = value.values if isinstance(value, ast.BoolOp) else [value.body, value.orelse]
        out: List[Dict[str, object]] = []
        for part in parts:
            out.extend(_binding_candidates(part, ctx, local_defs))
        return out
    return []


def _int_literal(node: ast.AST) -> Optional[int]:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _int_literal(node.operand)
        return None if inner is None else -inner
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``self.config.seed`` -> ["self", "config", "seed"], len >= 2 only."""
    chain = dotted_parts(node)
    if chain is not None and len(chain) >= 2:
        return chain
    return None


class _FunctionExtractor:
    """One pass over a function body collecting calls and taint atoms."""

    def __init__(
        self,
        ctx: FileContext,
        function: _FuncDef,
        class_name: Optional[str],
        local_defs: Dict[str, str],
    ) -> None:
        self.ctx = ctx
        self.function = function
        self.class_name = class_name
        self.local_defs = local_defs
        self.calls: List[Dict[str, object]] = []
        self.params = self._params()
        self.derivation: Dict[str, List[Tuple]] = {}
        self.var_bindings: Dict[str, Dict[str, object]] = {}

    # -- signature -------------------------------------------------------

    def _params(self) -> List[str]:
        args = self.function.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        return [n for n in names if n not in ("self", "cls")]

    def signature(self) -> Dict[str, object]:
        args = self.function.args
        ordered = args.posonlyargs + args.args
        skip = 1 if ordered and ordered[0].arg in ("self", "cls") else 0
        defaults: Dict[str, Dict[str, object]] = {}
        positional = ordered[skip:]
        for arg, default in zip(positional[len(positional) - len(args.defaults):], args.defaults):
            defaults[arg.arg] = self._default_info(default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                defaults[arg.arg] = self._default_info(default)
        annotations = {}
        for arg in ordered[skip:] + args.kwonlyargs:
            resolved = _annotation_name(arg.annotation, self.ctx)
            if resolved is not None:
                annotations[arg.arg] = resolved
        returns = _annotation_name(self.function.returns, self.ctx)
        return {
            "params": self.params,
            "positional": [a.arg for a in positional],
            "defaults": defaults,
            "annotations": annotations,
            "returns": returns,
        }

    def _default_info(self, node: ast.AST) -> Dict[str, object]:
        literal = _int_literal(node)
        return {
            "line": getattr(node, "lineno", 0),
            "col": getattr(node, "col_offset", 0),
            "int_literal": literal,
        }

    # -- taint atoms -----------------------------------------------------

    def atoms(self, expr: ast.AST) -> List[Tuple]:
        literal = _int_literal(expr)
        if literal is not None:
            return [("lit", literal, expr.lineno, expr.col_offset)]
        if isinstance(expr, ast.Call):
            canonical = self.ctx.resolve_imported(expr.func)
            if canonical in WALL_CLOCK:
                return [("wc", canonical, expr.lineno, expr.col_offset)]
        chain = _attr_chain(expr)
        if chain is not None and self.ctx.resolve_imported(expr) is None:
            return [("attr", tuple(chain), expr.lineno, expr.col_offset)]
        found: List[Tuple] = []
        seen = set()
        for node in ast.walk(expr):
            if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                canonical = self.ctx.resolve_imported(node.func)
                if canonical in WALL_CLOCK:
                    atom = ("wc", canonical, node.lineno, node.col_offset)
                    if atom not in found:
                        found.append(atom)
            if isinstance(node, ast.Attribute):
                nested = _attr_chain(node)
                if nested is not None and self.ctx.resolve_imported(node) is None:
                    atom = ("attr", tuple(nested), node.lineno, node.col_offset)
                    if atom not in found:
                        found.append(atom)
            if isinstance(node, ast.Name) and node.id not in seen:
                seen.add(node.id)
                if node.id in self.params:
                    found.append(("param", node.id))
                for atom in self.derivation.get(node.id, ()):
                    if atom not in found:
                        found.append(atom)
        return found

    def _settle_derivation(self, body: Sequence[ast.AST]) -> None:
        """Fixpoint over simple assignments: var -> taint atoms of its RHS."""
        assigns: List[Tuple[List[str], ast.AST]] = []
        for node in self._own_nodes(body):
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                if names:
                    assigns.append((names, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assigns.append(([node.target.id], node.value))
        for _ in range(4):  # chains settle in a few rounds; cap for safety
            changed = False
            for names, value in assigns:
                atoms = self.atoms(value)
                for name in names:
                    existing = self.derivation.setdefault(name, [])
                    for atom in atoms:
                        if atom not in existing:
                            existing.append(atom)
                            changed = True
            if not changed:
                break

    def _collect_bindings(self, body: Sequence[ast.AST]) -> None:
        args = self.function.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            resolved = _annotation_name(arg.annotation, self.ctx)
            if resolved is not None:
                self.var_bindings[arg.arg] = {"class": resolved}
        for node in self._own_nodes(body):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
                resolved = _annotation_name(node.annotation, self.ctx)
                if resolved is not None and isinstance(node.target, ast.Name):
                    self.var_bindings[node.target.id] = {"class": resolved}
                    continue
            if value is None:
                continue
            candidates = _binding_candidates(value, self.ctx, self.local_defs)
            for target in targets:
                if isinstance(target, ast.Name) and candidates:
                    self.var_bindings.setdefault(target.id, candidates[0])

    def _own_nodes(self, body: Sequence[ast.AST]) -> Iterator[ast.AST]:
        """Nodes of this function excluding nested function/class bodies."""
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    # -- the walk --------------------------------------------------------

    def run(self) -> Dict[str, object]:
        body = self.function.body
        self._collect_bindings(body)
        self._settle_derivation(body)
        self._walk(body)
        info = self.signature()
        info.update(
            {
                "line": self.function.lineno,
                "col": self.function.col_offset,
                "class": self.class_name,
                "calls": self.calls,
                "var_bindings": self.var_bindings,
            }
        )
        return info

    def _walk(self, body: Sequence[ast.AST]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            self._visit_expressions(node)
            for child_body in self._child_bodies(node):
                self._walk(child_body)

    @staticmethod
    def _child_bodies(node: ast.AST) -> List[Sequence[ast.AST]]:
        bodies = []
        for field in ("body", "orelse", "finalbody"):
            value = getattr(node, field, None)
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                bodies.append(value)
        for handler in getattr(node, "handlers", []) or []:
            bodies.append(handler.body)
        return bodies

    def _visit_expressions(self, node: ast.AST) -> None:
        """Record every call in this statement (excluding nested bodies)."""
        stack: List[ast.AST] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(current, ast.stmt) and current is not node:
                continue  # nested statements are walked by _walk
            if isinstance(current, ast.Call):
                self._record_call(current)
            stack.extend(ast.iter_child_nodes(current))

    def _record_call(self, node: ast.Call) -> None:
        desc = _callee_descriptor(node.func, self.ctx, self.local_defs)
        if desc is None:
            return
        args: List[Dict[str, object]] = []
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            atoms = self.atoms(arg)
            if atoms:
                args.append(
                    {"pos": position, "atoms": atoms,
                     "line": arg.lineno, "col": arg.col_offset}
                )
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            atoms = self.atoms(keyword.value)
            if atoms:
                args.append(
                    {"kw": keyword.arg, "atoms": atoms,
                     "line": keyword.value.lineno, "col": keyword.value.col_offset}
                )
        record: Dict[str, object] = {
            "callee": desc,
            "line": node.lineno,
            "col": node.col_offset,
        }
        if args:
            record["args"] = args
        self.calls.append(record)


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _extract_class(
    ctx: FileContext,
    node: ast.ClassDef,
    local_defs: Dict[str, str],
) -> Tuple[Dict[str, object], List[Tuple[str, _FuncDef]]]:
    fields: Dict[str, Dict[str, object]] = {}
    methods: List[Tuple[str, _FuncDef]] = []
    attr_types: Dict[str, str] = {}
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            default = statement.value
            fields[statement.target.id] = {
                "line": statement.lineno,
                "col": statement.col_offset,
                "int_literal": None if default is None else _int_literal(default),
                "annotation": _annotation_name(statement.annotation, ctx),
            }
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append((statement.name, statement))
    # self.* attribute types, from every method body.
    for _, method in methods:
        param_annotations: Dict[str, Optional[str]] = {}
        args = method.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            param_annotations[arg.arg] = _annotation_name(arg.annotation, ctx)
        for sub in ast.walk(method):
            if not isinstance(sub, ast.Assign):
                continue
            for target in sub.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                for candidate in _binding_candidates(sub.value, ctx, local_defs):
                    if "class" in candidate:
                        attr_types.setdefault(target.attr, str(candidate["class"]))
                    elif "var" in candidate:
                        annotated = param_annotations.get(str(candidate["var"]))
                        if annotated is not None:
                            attr_types.setdefault(target.attr, annotated)
                    elif "call" in candidate:
                        attr_types.setdefault(target.attr, f"call:{candidate['call']}")
    info = {
        "line": node.lineno,
        "dataclass": _is_dataclass_decorated(node),
        "fields": fields,
        "methods": [name for name, _ in methods],
        "attr_types": attr_types,
    }
    return info, methods


def build_summary(ctx: FileContext) -> Dict[str, object]:
    """Distill one parsed file into its whole-program summary dict."""
    module = ctx.module
    local_defs: Dict[str, str] = {
        node.name: f"{module}.{node.name}"
        for node in ctx.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }

    functions: Dict[str, Dict[str, object]] = {}
    classes: Dict[str, Dict[str, object]] = {}

    def extract(function: _FuncDef, qualname: str, class_name: Optional[str]) -> None:
        extractor = _FunctionExtractor(ctx, function, class_name, local_defs)
        functions[qualname] = extractor.run()

    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract(node, node.name, None)
        elif isinstance(node, ast.ClassDef):
            info, methods = _extract_class(ctx, node, local_defs)
            classes[node.name] = info
            for name, method in methods:
                extract(method, f"{node.name}.{name}", node.name)

    return {
        "module": module,
        "path": ctx.path.as_posix(),
        "functions": functions,
        "classes": classes,
    }
