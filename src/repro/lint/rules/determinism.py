"""DET001/DET002: the pipeline's determinism invariants.

The reproduction's headline guarantee is bit-identical output for a
given (scenario, seed) -- serial or parallel, cached or rebuilt.  Two
classes of code break that silently:

- **DET001** -- randomness that does not flow from an explicit seed:
  zero-argument ``np.random.default_rng()``, the legacy global numpy
  RNG (``np.random.uniform`` and friends share hidden process state),
  the stdlib ``random`` module, and integer-literal seeds scattered at
  call sites instead of the named constants in :mod:`repro.seeds`
  (literals drift apart between call sites; the constants module is the
  single whitelisted home for them).
- **DET002** -- wall-clock reads and set iteration feeding ordered
  output inside the result-producing packages (``core``, ``datasets``,
  ``routing``, ``topology``).  ``time.time()`` makes output depend on
  when a run happened; iterating a set into a list/tuple/loop makes it
  depend on insertion order and hash seeding.  Telemetry clocks
  (``time.monotonic``/``perf_counter``) are deliberately allowed: they
  time stages, they never feed results.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

__all__ = ["UnseededRandomness", "WallClockAndSetOrder"]

# Modules allowed to spell RNG seeds as integer literals: the named-seed
# constants module is their single source of truth (everything else must
# import from it or derive seeds from config/stream hashing).
SEED_LITERAL_WHITELIST = ("repro.seeds",)

_NUMPY_LEGACY_GLOBALS = frozenset(
    {
        "random", "rand", "randn", "randint", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "seed", "uniform",
        "normal", "standard_normal", "poisson", "exponential", "lognormal",
        "binomial", "beta", "gamma", "geometric", "pareto", "zipf",
    }
)

_STDLIB_RANDOM_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
        "expovariate", "betavariate", "gammavariate", "paretovariate",
        "weibullvariate", "triangular", "vonmisesvariate", "seed",
        "getrandbits", "randbytes",
    }
)

_WALL_CLOCK = frozenset(
    {
        "time.time", "time.time_ns", "time.ctime", "time.localtime",
        "time.gmtime", "time.strftime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)


@register
class UnseededRandomness(Rule):
    code = "DET001"
    name = "unseeded-randomness"
    severity = Severity.ERROR
    rationale = (
        "Every random draw must flow from an explicit seed so a (scenario, "
        "seed) pair fully determines the output; hidden global RNG state and "
        "magic literal seeds both break that."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        literals_allowed = ctx.module in SEED_LITERAL_WHITELIST
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = ctx.resolve_imported(node.func)
            if canonical is None:
                continue
            yield from self._check_call(ctx, node, canonical, literals_allowed)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, canonical: str, literals_allowed: bool
    ) -> Iterator[Finding]:
        if canonical == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx, node,
                    "np.random.default_rng() without a seed draws OS entropy; "
                    "pass a seed (see repro.seeds) or thread an rng through",
                )
            elif not literals_allowed:
                seed = node.args[0] if node.args else next(
                    (kw.value for kw in node.keywords if kw.arg == "seed"), None
                )
                if (
                    isinstance(seed, ast.Constant)
                    and isinstance(seed.value, int)
                    and not isinstance(seed.value, bool)
                ):
                    yield self.finding(
                        ctx, node,
                        f"magic literal seed {seed.value}; use a named "
                        "constant from repro.seeds so default streams stay disjoint",
                    )
            return
        if canonical == "numpy.random.SeedSequence" and not node.args and not node.keywords:
            yield self.finding(
                ctx, node, "np.random.SeedSequence() without entropy is nondeterministic"
            )
            return
        if canonical.startswith("numpy.random."):
            tail = canonical.rsplit(".", 1)[1]
            if tail in _NUMPY_LEGACY_GLOBALS:
                yield self.finding(
                    ctx, node,
                    f"legacy global numpy RNG np.random.{tail}() shares hidden "
                    "process-wide state; use a seeded np.random.Generator",
                )
            return
        if canonical == "random.Random":
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx, node, "random.Random() without a seed is nondeterministic"
                )
            return
        if canonical.startswith("random."):
            tail = canonical.rsplit(".", 1)[1]
            if tail in _STDLIB_RANDOM_FUNCS:
                yield self.finding(
                    ctx, node,
                    f"stdlib random.{tail}() uses hidden global state; use a "
                    "seeded np.random.Generator from the platform's rng streams",
                )


# ---------------------------------------------------------------------------
# DET002: wall clocks and set-order leakage
# ---------------------------------------------------------------------------


def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _scope_statements(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node in ``scope`` excluding nested function/class bodies."""
    body = scope.body if isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)) else []
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


_SET_METHODS = frozenset({"intersection", "union", "difference", "symmetric_difference"})
_SET_BINOPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)


class _SetFlow:
    """Conservative per-scope tracking of names that hold sets.

    A name counts as set-typed only when *every* binding of it in the
    scope is a recognizably-set expression; names rebound by loops,
    ``with`` targets, or non-set values are dropped.  This trades recall
    for a near-zero false-positive rate -- the rule exists to catch the
    obvious ``for x in some_set: out.append(...)`` leak, not to be a type
    checker.
    """

    def __init__(self, scope: ast.AST) -> None:
        self.set_names: Set[str] = set()
        bindings: Dict[str, List[ast.AST]] = {}
        disqualified: Set[str] = set()
        for node in _scope_statements(scope):
            if isinstance(node, ast.Assign):
                if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                    bindings.setdefault(node.targets[0].id, []).append(node.value)
                else:
                    # Tuple/list unpacking and chained targets rebind names
                    # to values we cannot see through; drop them.
                    for target in node.targets:
                        for name_node in ast.walk(target):
                            if isinstance(name_node, ast.Name):
                                disqualified.add(name_node.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if node.value is not None:
                    bindings.setdefault(node.target.id, []).append(node.value)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                # |= / &= etc. keep a set a set; anything else disqualifies.
                if not isinstance(node.op, _SET_BINOPS):
                    disqualified.add(node.target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for name_node in ast.walk(node.target):
                    if isinstance(name_node, ast.Name):
                        disqualified.add(name_node.id)
            elif isinstance(node, (ast.withitem,)) and node.optional_vars is not None:
                for name_node in ast.walk(node.optional_vars):
                    if isinstance(name_node, ast.Name):
                        disqualified.add(name_node.id)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                disqualified.add(arg.arg)
        # Fixpoint: `a = set(); b = a | other` needs a second look at b.
        while True:
            grown = {
                name
                for name, values in bindings.items()
                if name not in disqualified
                and all(self.is_set_expr(value) for value in values)
            }
            if grown == self.set_names:
                break
            self.set_names = grown

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and self.is_set_expr(node.func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_set_expr(node.body) and self.is_set_expr(node.orelse)
        return False


@register
class WallClockAndSetOrder(Rule):
    code = "DET002"
    name = "wall-clock-and-set-order"
    severity = Severity.ERROR
    rationale = (
        "Result-producing packages must be pure functions of (config, seed): "
        "wall-clock reads tie output to run time, and iterating sets into "
        "ordered output ties it to insertion order and hash seeding."
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_packages(
            "core", "datasets", "measurement", "routing", "topology", "stream",
            "service",
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                canonical = ctx.resolve_imported(node.func)
                if canonical in _WALL_CLOCK:
                    yield self.finding(
                        ctx, node,
                        f"wall-clock read {canonical}() in a result-producing "
                        "package; results must depend only on (config, seed)",
                    )
        for scope in _scopes(ctx.tree):
            yield from self._check_set_order(ctx, scope)

    def _check_set_order(self, ctx: FileContext, scope: ast.AST) -> Iterator[Finding]:
        flow = _SetFlow(scope)
        for node in _scope_statements(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)) and flow.is_set_expr(node.iter):
                yield self._order_finding(ctx, node.iter, "for-loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if flow.is_set_expr(generator.iter):
                        yield self._order_finding(ctx, generator.iter, "comprehension")
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple", "enumerate", "iter")
                    and node.args
                    and flow.is_set_expr(node.args[0])
                ):
                    yield self._order_finding(ctx, node, f"{node.func.id}()")
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                    and flow.is_set_expr(node.args[0])
                ):
                    yield self._order_finding(ctx, node, "str.join()")

    def _order_finding(self, ctx: FileContext, node: ast.AST, consumer: str) -> Finding:
        return self.finding(
            ctx, node,
            f"set iterated into ordered output via {consumer}; wrap the set "
            "in sorted(...) so the order is a function of the data",
        )
