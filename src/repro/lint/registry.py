"""The rule registry: base class, registration decorator, lookup.

Rules self-register at import time (``repro.lint.rules`` imports every
rule module), so the runner and the CLI's ``--list-rules`` see the same
set without a hand-maintained table.  The two hand-written inventories,
RULES.md's sections and the README's rule table, are held to the
registry's codes by ``tests/lint/test_rule_docs.py``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Type

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity

__all__ = [
    "Rule",
    "register",
    "get_rule",
    "all_rules",
    "rule_codes",
]

_REGISTRY: Dict[str, "Rule"] = {}


class Rule:
    """One invariant check over a single file's AST.

    Subclasses set the class attributes and implement :meth:`check`;
    :meth:`applies` narrows the rule to the packages whose invariant it
    protects.  ``synthetic`` rules (parse errors, undocumented
    suppressions) are emitted by the runner itself and have a no-op
    :meth:`check` -- they are registered so they show up in
    ``--list-rules`` and can be selected/ignored like any other.
    """

    code: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR
    rationale: str = ""
    synthetic: bool = False

    def applies(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` for this rule at ``node``'s location."""
        return self.finding_at(
            ctx,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
            message,
        )

    def finding_at(self, ctx: FileContext, line: int, col: int, message: str) -> Finding:
        return Finding(
            rule=self.code,
            severity=self.severity,
            path=ctx.path.as_posix(),
            line=line,
            col=col,
            message=message,
        )


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of the rule to the registry."""
    instance = rule_class()
    if not instance.code:
        raise ValueError(f"{rule_class.__name__} has no rule code")
    if instance.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {instance.code}")
    _REGISTRY[instance.code] = instance
    return rule_class


def get_rule(code: str) -> Rule:
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(f"unknown rule {code!r}; known: {rule_codes()}") from None


def all_rules(
    select: Optional[Iterable[str]] = None, ignore: Optional[Iterable[str]] = None
) -> List[Rule]:
    """Registered rules in code order, filtered by select/ignore code sets."""
    selected = set(select) if select is not None else None
    ignored = set(ignore or ())
    for requested in (selected or set()) | ignored:
        get_rule(requested)  # validate early: a typo'd code is a usage error
    return [
        rule
        for code, rule in sorted(_REGISTRY.items())
        if (selected is None or code in selected) and code not in ignored
    ]


def rule_codes() -> List[str]:
    return sorted(_REGISTRY)
