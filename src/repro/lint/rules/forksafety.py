"""FRK001: module-level state mutated inside ``fork_map`` workers.

``repro.datasets.parallel.fork_map`` runs the mapped callable in forked
worker processes.  Workers receive a copy-on-write snapshot of module
state, so any mutation of a module-level list/dict/set -- or a ``global``
rebinding -- happens in the *worker's copy* and silently vanishes when
the worker exits.  Serial runs keep the mutation, parallel runs lose it:
exactly the serial/parallel divergence PR 1 eliminated.

The sanctioned channel for worker-side side effects is the metrics
registry: ``fork_map`` snapshots the worker's
:class:`repro.obs.metrics.MetricsRegistry` around each item and merges
the delta back into the parent.  Counter/gauge/histogram calls are
therefore invisible to this rule (they are reads plus registry method
calls, not mutations of *this module's* globals) -- the rule only fires
on direct mutation of names defined at module level in the same module.

The same copy-on-write trap applies to raw ``multiprocessing`` workers:
``repro.stream.source.ShardedSource`` forks ``Process(target=...)``
workers directly, so the rule also resolves callables passed as the
``target=`` keyword (or first positional argument) of ``Process(...)``
calls and holds them to the identical contract -- results travel through
the queue, side effects through registry snapshot deltas.

Scope and limits: the rule resolves the callable passed to ``fork_map``
or ``Process`` when it is a lambda, a ``def`` in the same file
(including closures), or a ``self``-attribute naming a method defined in
the same file, and inspects that one function body; it does not chase
calls into other functions.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Union

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

__all__ = ["ForkUnsafeMutation"]

_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "appendleft",
        # numpy in-place mutators: a worker writing into a module-level
        # preallocated column buffer loses the writes the same way.
        "fill", "sort", "resize", "partition", "put",
    }
)

_Worker = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _module_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            for name_node in ast.walk(target):
                if isinstance(name_node, ast.Name):
                    names.add(name_node.id)
    return names


def _function_defs(tree: ast.Module) -> Dict[str, List[_Worker]]:
    defs: Dict[str, List[_Worker]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    return defs


@register
class ForkUnsafeMutation(Rule):
    code = "FRK001"
    name = "fork-unsafe-mutation"
    severity = Severity.ERROR
    rationale = (
        "Mutations of module-level state inside fork_map or Process workers "
        "die with the worker process, so serial and parallel runs diverge; "
        "worker side effects must travel through MetricsRegistry snapshot "
        "deltas."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module_names = _module_level_names(ctx.tree)
        if not module_names:
            return
        defs = _function_defs(ctx.tree)
        seen: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func_name = None
            if isinstance(node.func, ast.Name):
                func_name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                func_name = node.func.attr
            worker = None
            if func_name == "fork_map" and node.args:
                worker = node.args[0]
            elif func_name == "Process":
                # multiprocessing.Process / ctx.Process: the worker is the
                # target= keyword (or, rarely, the first positional arg).
                for keyword in node.keywords:
                    if keyword.arg == "target":
                        worker = keyword.value
                        break
                if worker is None and node.args:
                    worker = node.args[0]
            if worker is None:
                continue
            workers: List[_Worker] = []
            if isinstance(worker, ast.Lambda):
                workers = [worker]
            elif isinstance(worker, ast.Name):
                workers = defs.get(worker.id, [])
            elif (
                isinstance(worker, ast.Attribute)
                and isinstance(worker.value, ast.Name)
                and worker.value.id == "self"
            ):
                # self._loop style process targets: resolve to the
                # same-file method of that name.
                workers = defs.get(worker.attr, [])
            for candidate in workers:
                if id(candidate) in seen:
                    continue
                seen.add(id(candidate))
                yield from self._check_worker(ctx, candidate, module_names, func_name)

    def _check_worker(
        self,
        ctx: FileContext,
        worker: _Worker,
        module_names: Set[str],
        via: str,
    ) -> Iterator[Finding]:
        for node in ast.walk(worker):
            if isinstance(node, ast.Global):
                shared = sorted(set(node.names) & module_names)
                if shared:
                    yield self.finding(
                        ctx, node,
                        f"{via} worker declares global {', '.join(shared)}; "
                        "rebinding module state in a worker never reaches "
                        "the parent process",
                    )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if (
                    node.func.attr in _MUTATORS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in module_names
                ):
                    yield self._mutation_finding(ctx, node, node.func.value.id, via)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Subscript, ast.Attribute)):
                        base = base.value
                    if (
                        base is not target  # plain `x = ...` rebinding is local
                        and isinstance(base, ast.Name)
                        and base.id in module_names
                    ):
                        yield self._mutation_finding(ctx, node, base.id, via)

    def _mutation_finding(
        self, ctx: FileContext, node: ast.AST, name: str, via: str
    ) -> Finding:
        return self.finding(
            ctx, node,
            f"{via} worker mutates module-level {name!r}; the change is "
            "lost when the worker exits -- accumulate through "
            "MetricsRegistry snapshot deltas or return the data as the "
            "item's result",
        )
