"""Per-file analysis context: AST, import aliases, and noqa suppressions.

Every rule receives one :class:`FileContext` per file.  The context does
the shared work once: parse the source, build an import-alias map so
rules can resolve ``np.random.default_rng`` and ``from numpy.random
import default_rng`` to the same canonical dotted name, and collect
``# repro: noqa[RULE]`` suppression comments.

Suppression grammar (rule codes are mandatory -- there is no bare noqa):

- line-scoped:  ``some_call()  # repro: noqa[DET001] -- reason``
- file-scoped:  ``# repro: noqa-file[DET002,OBS001] -- reason``
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["FileContext", "Suppressions", "SuppressionComment", "dotted_parts"]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?P<scope>-file)?\[(?P<rules>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\]"
)


@dataclass(frozen=True)
class SuppressionComment:
    """One parsed noqa comment."""

    line: int
    rules: Tuple[str, ...]
    file_scoped: bool


class Suppressions:
    """One file's noqa lookup: which rule codes are silenced on which lines."""

    def __init__(self, comments: Sequence[SuppressionComment]) -> None:
        self._line_rules: Dict[int, Set[str]] = {}
        self._file_rules: Set[str] = set()
        for comment in comments:
            if comment.file_scoped:
                self._file_rules.update(comment.rules)
            else:
                self._line_rules.setdefault(comment.line, set()).update(comment.rules)

    def is_suppressed(self, rule: str, line: int) -> bool:
        if rule in self._file_rules:
            return True
        return rule in self._line_rules.get(line, ())


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` attribute chains as ``["a", "b", "c"]``; None otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _parse_suppressions(source: str) -> List[SuppressionComment]:
    comments: List[SuppressionComment] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # Un-tokenizable source still parses noqa comments line-by-line so
        # suppression behavior does not depend on unrelated syntax trouble.
        tokens = [
            tokenize.TokenInfo(tokenize.COMMENT, line, (number, 0), (number, len(line)), line)
            for number, line in enumerate(source.splitlines(), start=1)
            if "#" in line
        ]
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(token.string)
        if match is None:
            continue
        rules = tuple(code.strip() for code in match.group("rules").split(","))
        comments.append(
            SuppressionComment(
                line=token.start[0],
                rules=rules,
                file_scoped=match.group("scope") is not None,
            )
        )
    return comments


def _module_name(path: Path) -> str:
    """Dotted module path, anchored at the last ``repro`` path component."""
    parts = list(path.parts)
    if path.suffix == ".py":
        parts[-1] = path.stem
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return ".".join(parts[index:])
    return ".".join(parts[-1:])


class FileContext:
    """Shared per-file state handed to every rule."""

    def __init__(self, path: Path, source: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.module = _module_name(path)
        self.module_parts: Tuple[str, ...] = tuple(self.module.split("."))
        self.is_package = path.stem == "__init__"
        self.aliases = self._import_aliases(self.tree)
        self.suppressions = _parse_suppressions(source)
        self.noqa = Suppressions(self.suppressions)

    # -- scope helpers ---------------------------------------------------

    def in_packages(self, *packages: str) -> bool:
        """Whether this module lives under ``repro.<one of packages>``."""
        return (
            len(self.module_parts) >= 2
            and self.module_parts[0] == "repro"
            and self.module_parts[1] in packages
        )

    @property
    def is_main_module(self) -> bool:
        return self.path.name == "__main__.py"

    # -- import resolution ----------------------------------------------

    def _import_aliases(self, tree: ast.Module) -> Dict[str, str]:
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        aliases[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Relative import: anchor at this module's package.  A
                    # package's own name is already its level-1 anchor
                    # (module_parts has no ``__init__`` component to strip),
                    # so drop one component fewer there.
                    drop = node.level - 1 if self.is_package else node.level
                    keep = len(self.module_parts) - drop
                    package = list(self.module_parts[:keep]) if keep > 0 else []
                    base = ".".join(package + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    origin = f"{base}.{alias.name}" if base else alias.name
                    aliases[alias.asname or alias.name] = origin
        return aliases

    def resolve_imported(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain rooted at an import.

        ``np.random.default_rng`` -> ``numpy.random.default_rng`` when
        ``import numpy as np`` is in scope; ``None`` when the chain's base
        name was never imported (a local variable, a builtin, ...).
        """
        parts = dotted_parts(node)
        if not parts or parts[0] not in self.aliases:
            return None
        return ".".join([self.aliases[parts[0]]] + parts[1:])

    # -- suppressions ----------------------------------------------------

    def suppression_comments(self) -> Sequence[SuppressionComment]:
        return tuple(self.suppressions)
