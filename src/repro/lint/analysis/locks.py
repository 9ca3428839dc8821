"""Fork/thread lock-order analysis: the engine behind FRK010.

Two hazards of mixing threads with forks:

**Held lock at fork.**  ``fork_map``/``ShardedSource`` children inherit a
snapshot of every lock in the parent.  If the forking call sits inside a
``with some_lock:`` block -- directly, or anywhere down the call chain a
fork is reachable from -- the child is born owning (or waiting on) a
lock no thread of its own will ever release.  The engine walks every
call record carrying a non-empty held-lock set and flags the ones that
can reach a fork action, using the project's fork-reachability fixpoint.

**Thread started outside the fork guard.**  A sampling thread that takes
a shared lock (``MetricsRegistry``, a checkpoint writer) can hold it at
the instant another thread forks -- unless its lock acquisitions are
routed through :func:`repro.obs.metrics.fork_guard`,
whose ``os.register_at_fork`` hooks quiesce the guard around every fork.
For every resolvable ``threading.Thread(target=...)`` in a project that
forks anywhere, the engine walks the target's call graph; a shared-lock
acquisition on a path not covered by the guard is flagged at the thread
start site.

Local locks (created inside the function) are exempt from the thread
check: they cannot be contended across the fork boundary.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.analysis.project import FuncView, Project

__all__ = ["analyze_fork_locks"]


def _held_lock_findings(project: Project) -> Iterator[Tuple[str, int, int, str]]:
    forking = project.forking_functions
    for view in project.functions.values():
        path = project.path_of(view.module)
        if path is None:
            continue
        for record in view.calls:
            locks: List[str] = [
                token for token in record.get("locks", ())  # type: ignore[union-attr]
                if not token.startswith("local:")
            ]
            if not locks:
                continue
            desc: Dict[str, object] = record["callee"]  # type: ignore[assignment]
            held = ", ".join(sorted(locks))
            if project.is_direct_fork(desc):
                what = desc.get("dotted") or desc.get("attr") or "a fork action"
                yield (
                    path, int(record["line"]), int(record["col"]),
                    f"{what} forks while holding {held}; children inherit "
                    "held locks -- release before spawning workers",
                )
                continue
            callee = project.resolve_callee(view, desc)
            if callee is not None and callee.name in forking:
                yield (
                    path, int(record["line"]), int(record["col"]),
                    f"call to {callee.name} can fork (transitively) while "
                    f"holding {held}; children inherit held locks -- "
                    "release before spawning workers",
                )


def _resolve_thread_target(
    project: Project, view: FuncView, desc: Optional[Dict[str, object]]
) -> Optional[FuncView]:
    if desc is None:
        return None
    return project.resolve_callee(view, desc)


def _unguarded_acquire(
    project: Project,
    view: FuncView,
    guarded: bool,
    memo: Set[Tuple[str, bool]],
) -> Optional[Tuple[str, str, int]]:
    """First shared-lock acquisition reachable from ``view`` with no guard.

    Returns ``(function, lock_token, line)`` or ``None``.  ``guarded``
    means some caller on this path entered :func:`fork_guard`'s critical
    section, so a fork cannot interleave with anything below.
    """
    key = (view.name, guarded)
    if key in memo:
        return None
    memo.add(key)
    for record in view.acquires:
        token = str(record["acquire"])
        if token.startswith("local:"):
            continue
        if not guarded and not record.get("guard"):
            return (view.name, token, int(record["line"]))
    for record in view.calls:
        callee = project.resolve_callee(view, record["callee"])  # type: ignore[arg-type]
        if callee is None:
            continue
        hit = _unguarded_acquire(
            project, callee, guarded or bool(record.get("guard")), memo
        )
        if hit is not None:
            return hit
    return None


def _thread_findings(project: Project) -> Iterator[Tuple[str, int, int, str]]:
    if not project.has_fork_actions:
        return
    for view in project.functions.values():
        path = project.path_of(view.module)
        if path is None:
            continue
        for start in view.thread_starts:
            target = _resolve_thread_target(project, view, start.get("target"))
            if target is None:
                continue
            hit = _unguarded_acquire(project, target, False, set())
            if hit is None:
                continue
            where, token, line = hit
            yield (
                path, int(start["line"]), int(start["col"]),
                f"thread target {target.name} acquires {token} "
                f"(in {where}, line {line}) without routing through "
                "obs.metrics.fork_guard; a concurrent fork can freeze the "
                "lock held in the child",
            )


def analyze_fork_locks(project: Project) -> Iterator[Dict[str, object]]:
    """Yield finding dicts: {path, line, col, message}, deduped + sorted."""
    found = set(_held_lock_findings(project))
    found.update(_thread_findings(project))
    for path, line, col, message in sorted(found):
        yield {"path": path, "line": line, "col": col, "message": message}
