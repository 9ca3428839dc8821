"""CCH001: every knob on a config dataclass must reach the cache fingerprint.

The artifact cache keys entries by
:func:`repro.harness.engine.config_fingerprint`, which canonicalizes a
config by walking ``dataclasses.fields(...)``.  Anything on a
``*Config`` class that is *not* a dataclass field is invisible to the
fingerprint: a bare class attribute (no annotation), a ``ClassVar``, or
an instance attribute invented in ``__post_init__``/methods.  Change
such a knob and the fingerprint stays put -- the cache serves a stale
artifact built under the old value, which is the worst failure mode a
reproduction can have (wrong results that look cached-fast and healthy).

Leading-underscore attributes are exempt: they are derived/private state
by convention, not knobs.  The fingerprint holds only the configs and the
package version; the cache's layout version (``CACHE_SCHEMA_VERSION``)
names the entry's directory, not its key, so a layout bump leaves the
campaign checkpoints (:func:`repro.service.checkpoint.campaign_fingerprint`,
same function) as they were.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Union

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

__all__ = ["ConfigFieldsOutsideFingerprint"]


def _is_dataclass_decorator(node: ast.AST) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id == "dataclass"
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return False


def _is_classvar(annotation: ast.AST) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    if isinstance(target, ast.Name):
        return target.id == "ClassVar"
    if isinstance(target, ast.Attribute):
        return target.attr == "ClassVar"
    return False


@register
class ConfigFieldsOutsideFingerprint(Rule):
    code = "CCH001"
    name = "config-outside-fingerprint"
    severity = Severity.ERROR
    rationale = (
        "config_fingerprint() walks dataclasses.fields(); a knob stored as a "
        "bare class attribute, ClassVar, or ad-hoc instance attribute is "
        "invisible to it, so changing the knob serves stale cached artifacts."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Config"):
                continue
            if not any(_is_dataclass_decorator(dec) for dec in node.decorator_list):
                continue
            yield from self._check_config_class(ctx, node)

    def _check_config_class(self, ctx: FileContext, node: ast.ClassDef) -> Iterator[Finding]:
        fields: Set[str] = set()
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                if not _is_classvar(statement.annotation):
                    fields.add(statement.target.id)
        for statement in node.body:
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("_"):
                        yield self.finding(
                            ctx, statement,
                            f"{node.name}.{target.id} is a bare class attribute, "
                            "not a dataclass field; it never reaches the cache "
                            "fingerprint (annotate it to make it a field)",
                        )
            elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                if _is_classvar(statement.annotation) and not statement.target.id.startswith("_"):
                    yield self.finding(
                        ctx, statement,
                        f"{node.name}.{statement.target.id} is a ClassVar; "
                        "dataclasses.fields() skips it, so the cache "
                        "fingerprint never sees it",
                    )
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_method(ctx, node, statement, fields)

    def _check_method(
        self,
        ctx: FileContext,
        class_node: ast.ClassDef,
        method: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        fields: Set[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(method):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and not target.attr.startswith("_")
                    and target.attr not in fields
                ):
                    yield self.finding(
                        ctx, node,
                        f"{class_node.name}.{method.name} sets self.{target.attr}, "
                        "which is not a declared dataclass field; the cache "
                        "fingerprint cannot see it (declare it as an annotated "
                        "field, or prefix it with _ if it is derived state)",
                    )
            # Frozen dataclasses smuggle attributes past __setattr__ with
            # object.__setattr__(self, "name", ...) -- same invisibility.
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"
                and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "self"
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
                and not node.args[1].value.startswith("_")
                and node.args[1].value not in fields
            ):
                yield self.finding(
                    ctx, node,
                    f"{class_node.name}.{method.name} sets "
                    f"self.{node.args[1].value} via object.__setattr__, "
                    "which is not a declared dataclass field; the cache "
                    "fingerprint cannot see it (declare it as an annotated "
                    "field, or prefix it with _ if it is derived state)",
                )
