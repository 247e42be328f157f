"""Bounded-depth function summaries for interprocedural analysis.

Each project function gets one :class:`FunctionSummary` of the abstract
facts the flow rules propagate across call boundaries:

- ``rng_origin`` -- does the function return a ``SeededRNG``, and is it
  a sanctioned one (``spawn``/``make_rng``/``derive_seed`` provenance or
  a ``SeededRNG`` return annotation) or a raw reseed? RL005 uses this to
  see through factory wrappers instead of giving up at them.
- ``rng_fanout`` -- how many stochastic consumers an ``rng`` parameter
  feeds inside the body (transitively, to a bounded depth). A caller
  handing its stream to a fanning-out helper shares it just as surely as
  calling two constructors itself.
- ``returns_hook`` -- does the function return a maybe-``None``
  telemetry hook (RL007's contract), directly or through a wrapper?
- ``global_writes`` -- module globals the function rebinds or mutates
  (RL010's process-safety reachability walks these).
- :meth:`SummaryTable.return_ref` -- the inferred return
  :class:`~repro.lint.flow.symbols.TypeRef` of an *unannotated*
  function, computed lazily by running the dataflow engine over its
  body (recursion-guarded, depth-bounded). RL006/RL011 call through it
  so dimension facts survive helper extraction.

Syntactic facts are computed in one pass; call-transported facts
(wrapped origins, transitive fanout) run a bounded fixed point over the
:mod:`~repro.lint.flow.callgraph` -- ``_PROPAGATION_PASSES`` passes, so
chains up to that depth resolve and deeper ones conservatively stay
unknown.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.lint.flow.callgraph import CallGraph, CallResolver, FunctionNode
from repro.lint.flow.project import Project
from repro.lint.flow.symbols import AnyFunctionDef, TypeRef

#: Canonical RNG factory module and class (shared with RL005).
RNG_MODULE = "repro.sim.rng"
RNG_CLASS = f"{RNG_MODULE}.SeededRNG"

#: Factory methods whose result is "None when disabled, else a bound
#: sample method" (shared with RL007). ``span_hook`` is the tracing
#: recorder's factory — same None-when-disabled contract.
HOOK_FACTORY_METHODS = frozenset({
    "event_hook", "counter_hook", "gauge_hook", "histogram_hook", "hook",
    "span_hook",
})

#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "appendleft",
})

#: Fixed-point passes for call-transported facts; also the wrapper
#: depth through which they propagate.
_PROPAGATION_PASSES = 3

#: Maximum helper-chain depth for lazy return-type inference.
_RETURN_DEPTH = 5


@dataclass(frozen=True)
class GlobalWrite:
    """One write to a module global inside a function body."""

    name: str
    node: ast.AST
    kind: str  # "rebind" | "mutate"


@dataclass
class FunctionSummary:
    qualname: str
    rng_origin: Optional[str] = None  # "sanctioned" | "raw" | None
    rng_fanout: dict[str, int] = field(default_factory=dict)
    returns_hook: bool = False
    global_writes: tuple[GlobalWrite, ...] = ()


class SummaryTable:
    """Per-function summaries plus lazy return-type inference."""

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self.by_qualname: dict[str, FunctionSummary] = {}
        self._ref_memo: dict[str, Optional[TypeRef]] = {}
        self._ref_active: set[str] = set()

    @classmethod
    def build(cls, project: Project) -> "SummaryTable":
        table = cls(project, project.call_graph())
        builders = {
            qualname: _SummaryBuilder(project, node)
            for qualname, node in table.graph.nodes.items()
        }
        for qualname, builder in builders.items():
            table.by_qualname[qualname] = builder.syntactic_summary()
        for _ in range(_PROPAGATION_PASSES):
            changed = False
            for qualname, builder in builders.items():
                if builder.propagate(table.by_qualname[qualname], table):
                    changed = True
            if not changed:
                break
        return table

    def get(self, qualname: str) -> Optional[FunctionSummary]:
        return self.by_qualname.get(qualname)

    def rng_origin(self, qualname: str) -> Optional[str]:
        summary = self.by_qualname.get(qualname)
        return summary.rng_origin if summary is not None else None

    def returns_hook(self, qualname: str) -> bool:
        summary = self.by_qualname.get(qualname)
        return summary is not None and summary.returns_hook

    def rng_weight(self, qualname: Optional[str], param: str) -> int:
        """Consumers one pass to ``param`` of ``qualname`` stands for."""
        if qualname is None:
            return 1
        summary = self.by_qualname.get(qualname)
        if summary is None:
            return 1
        return max(1, summary.rng_fanout.get(param, 0))

    def return_ref(self, qualname: str) -> Optional[TypeRef]:
        """Inferred return type of an unannotated project function.

        Runs the dataflow engine over the body on first use; recursion
        and chains deeper than ``_RETURN_DEPTH`` resolve to None (the
        caller keeps treating the result as unknown).
        """
        if qualname in self._ref_memo:
            return self._ref_memo[qualname]
        node = self.graph.nodes.get(qualname)
        if node is None:
            return None
        declared = self.project.resolve_annotation(
            node.module, node.func.returns
        )
        if declared.kind != "any":
            self._ref_memo[qualname] = declared
            return declared
        if (
            qualname in self._ref_active
            or len(self._ref_active) >= _RETURN_DEPTH
        ):
            return None
        from repro.lint.flow.dataflow import FunctionAnalysis

        self._ref_active.add(qualname)
        try:
            analysis = FunctionAnalysis(
                self.project, node.module, node.func, node.cls,
                summaries=self,
            )
            try:
                analysis.run()
            except RecursionError:  # pragma: no cover - pathological
                self._ref_memo[qualname] = None
                return None
            inferred = analysis.return_value
        finally:
            self._ref_active.discard(qualname)
        if inferred is not None and inferred.kind in ("any", "lit"):
            inferred = None
        self._ref_memo[qualname] = inferred
        return inferred


def _own_statements(func: AnyFunctionDef) -> list[ast.stmt]:
    """Statements of ``func``'s body, nested ``def`` bodies excluded."""
    out: list[ast.stmt] = []
    stack: list[ast.stmt] = list(func.body)
    while stack:
        stmt = stack.pop()
        out.append(stmt)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                stack.extend(
                    sub
                    for sub in ast.iter_child_nodes(child)
                    if isinstance(sub, ast.stmt)
                )
    return out


class _SummaryBuilder:
    """Computes one function's summary facts."""

    def __init__(self, project: Project, node: FunctionNode) -> None:
        self.project = project
        self.node = node
        self.symbols = project.modules[node.module].symbols
        self.statements = _own_statements(node.func.node)
        self._resolver: Optional[CallResolver] = None  # built lazily

    # ---------------------------------------------------------- resolution

    def _resolve_call(self, call: ast.Call) -> Optional[str]:
        if self._resolver is None:
            self._resolver = CallResolver(self.project, self.node)
        return self._resolver.resolve(call)

    def _dotted_target(self, func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name):
            target = self.symbols.imports.get(func.id)
            if target is not None:
                return target
            if func.id in self.symbols.functions:
                return f"{self.symbols.name}.{func.id}"
            if func.id in self.symbols.classes:
                return f"{self.symbols.name}.{func.id}"
            return None
        if isinstance(func, ast.Attribute):
            parts: list[str] = [func.attr]
            current: ast.expr = func.value
            while isinstance(current, ast.Attribute):
                parts.append(current.attr)
                current = current.value
            if not isinstance(current, ast.Name):
                return None
            head = self.symbols.imports.get(current.id)
            if head is None:
                return None
            parts.append(head)
            return ".".join(reversed(parts))
        return None

    # ------------------------------------------------------ pass 0 (local)

    def syntactic_summary(self) -> FunctionSummary:
        summary = FunctionSummary(self.node.qualname)
        declared = self.project.resolve_annotation(
            self.node.module, self.node.func.returns
        )
        if declared.kind == "cls" and declared.qualname == RNG_CLASS:
            summary.rng_origin = "sanctioned"
        else:
            returns = self.node.func.returns
            if (
                isinstance(returns, ast.Name)
                and self.symbols.imports.get(returns.id) == RNG_CLASS
            ):
                summary.rng_origin = "sanctioned"
        for value in self._return_values():
            if summary.rng_origin is None and isinstance(value, ast.Call):
                summary.rng_origin = self._direct_rng_origin(value)
            if not summary.returns_hook:
                summary.returns_hook = _is_hook_factory_call(value)
        summary.rng_fanout = self._fanout(None)
        summary.global_writes = tuple(self._global_writes())
        return summary

    def _return_values(self) -> list[ast.expr]:
        """Returned expressions, locals traced one assignment deep."""
        assigned: dict[str, ast.expr] = {}
        for stmt in self.statements:
            value: Optional[ast.expr] = None
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, list(stmt.targets)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    assigned[target.id] = value
        out: list[ast.expr] = []
        for stmt in self.statements:
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                value = stmt.value
                if isinstance(value, ast.Name) and value.id in assigned:
                    value = assigned[value.id]
                out.append(value)
        return out

    def _direct_rng_origin(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "spawn":
            return "sanctioned"
        target = self._dotted_target(func)
        if target is None:
            return None
        if target == f"{RNG_MODULE}.make_rng":
            return "sanctioned"
        if target in ("random.Random", "random.SystemRandom"):
            return "raw"
        if target == RNG_CLASS:
            if call.args and isinstance(call.args[0], ast.Call):
                seed_func = call.args[0].func
                seed_target = self._dotted_target(seed_func)
                seed_name = (
                    seed_func.id if isinstance(seed_func, ast.Name) else None
                )
                if (
                    seed_target == f"{RNG_MODULE}.derive_seed"
                    or seed_name == "derive_seed"
                ):
                    return "sanctioned"
            return "raw"
        return None

    def _rng_params(self) -> list[str]:
        return [p.name for p in self.node.func.params if p.name == "rng"]

    def _rng_args_of(
        self, call: ast.Call, rng_params: set[str]
    ) -> list[str]:
        """Names of own rng params this call binds to a callee ``rng``."""
        out: list[str] = []
        for kw in call.keywords:
            if (
                kw.arg == "rng"
                and isinstance(kw.value, ast.Name)
                and kw.value.id in rng_params
            ):
                out.append(kw.value.id)
        params = self._callee_param_names(call)
        if params is not None:
            for name, arg in zip(params, call.args):
                if (
                    name == "rng"
                    and isinstance(arg, ast.Name)
                    and arg.id in rng_params
                ):
                    out.append(arg.id)
        return out

    def _callee_param_names(self, call: ast.Call) -> Optional[list[str]]:
        qualname = self._resolve_call(call)
        if qualname is None:
            return None
        node = self.project.call_graph().nodes.get(qualname)
        if node is None:
            return None
        params = node.func.params
        if node.cls is not None and not node.func.is_staticmethod and params:
            params = params[1:]
        return [p.name for p in params]

    def _fanout(self, table: Optional["SummaryTable"]) -> dict[str, int]:
        """Consumers each ``rng`` param feeds along the worst-case path.

        Branch-aware, matching RL005's intraprocedural rule: exclusive
        ``if``/``else`` arms take the per-name maximum (a dispatch chain
        hands the stream to exactly one consumer per execution), a
        terminated arm (``if ...: return use(rng)``) never rejoins the
        fall-through, and loop bodies count double (a second iteration
        is a second consumer). With ``table`` given, each hand-off
        weighs as many consumers as the callee itself fans out to.
        """
        rng_params = set(self._rng_params())
        if not rng_params:
            return {}
        counts = self._count_block(
            list(self.node.func.node.body), rng_params, table
        )
        return {name: n for name, n in counts.items() if n}

    def _count_block(
        self,
        stmts: list[ast.stmt],
        rng_params: set[str],
        table: Optional["SummaryTable"],
    ) -> dict[str, int]:
        totals: dict[str, int] = {}
        #: Counts along paths that left the block early (return/raise):
        #: the block's fanout is the max of the fall-through and each of
        #: these, never their sum.
        alternatives: list[dict[str, int]] = []

        def branch(
            block: list[ast.stmt], loop: bool = False
        ) -> dict[str, int]:
            counted = self._count_block(block, rng_params, table)
            if loop:  # a second iteration is a second consumer
                counted = {name: n * 2 for name, n in counted.items()}
            return counted

        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.If):
                _add(totals, self._count_exprs(stmt.test, rng_params, table))
                arms = [(stmt.body, _terminates(stmt.body))]
                if stmt.orelse:
                    arms.append((stmt.orelse, _terminates(stmt.orelse)))
                rejoining: dict[str, int] = {}
                for block, terminated in arms:
                    counted = branch(block)
                    if terminated:
                        merged = dict(totals)
                        _add(merged, counted)
                        alternatives.append(merged)
                    else:
                        rejoining = _peak(rejoining, counted)
                _add(totals, rejoining)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                head = stmt.iter if isinstance(
                    stmt, (ast.For, ast.AsyncFor)) else stmt.test
                _add(totals, self._count_exprs(head, rng_params, table))
                _add(totals, branch(stmt.body, loop=True))
                _add(totals, branch(stmt.orelse))
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    _add(totals, self._count_exprs(
                        item.context_expr, rng_params, table))
                _add(totals, branch(stmt.body))
            elif isinstance(stmt, ast.Try):
                _add(totals, branch(stmt.body))
                handler_peak: dict[str, int] = {}
                for handler in stmt.handlers:
                    handler_peak = _peak(handler_peak, branch(handler.body))
                _add(totals, handler_peak)
                _add(totals, branch(stmt.orelse))
                _add(totals, branch(stmt.finalbody))
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        _add(totals, self._count_exprs(
                            child, rng_params, table))
        for alt in alternatives:
            totals = _peak(totals, alt)
        return totals

    def _count_exprs(
        self,
        expr: ast.expr,
        rng_params: set[str],
        table: Optional["SummaryTable"],
    ) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.project.walk(expr):
            if isinstance(node, ast.Lambda) or not isinstance(node, ast.Call):
                continue
            passed = self._rng_args_of(node, rng_params)
            if not passed:
                continue
            weight = 1
            if table is not None:
                weight = table.rng_weight(self._resolve_call(node), "rng")
            for name in passed:
                counts[name] = counts.get(name, 0) + weight
        return counts

    def _global_writes(self) -> list[GlobalWrite]:
        declared: set[str] = set()
        for stmt in self.statements:
            if isinstance(stmt, ast.Global):
                declared.update(stmt.names)
        module_mutables = self._module_mutables()
        locals_bound = self._locally_bound_names()
        out: list[GlobalWrite] = []
        for stmt in self.statements:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared:
                    out.append(GlobalWrite(target.id, stmt, "rebind"))
                elif isinstance(target, ast.Subscript):
                    base = target.value
                    if (
                        isinstance(base, ast.Name)
                        and base.id in module_mutables
                        and base.id not in locals_bound
                    ):
                        out.append(GlobalWrite(base.id, stmt, "mutate"))
            for expr in self.project.walk(stmt):
                if (
                    isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr in _MUTATOR_METHODS
                    and isinstance(expr.func.value, ast.Name)
                    and expr.func.value.id in module_mutables
                    and expr.func.value.id not in locals_bound
                ):
                    out.append(
                        GlobalWrite(expr.func.value.id, expr, "mutate")
                    )
        return out

    def _module_mutables(self) -> set[str]:
        """Module-level names bound to mutable containers."""
        out: set[str] = set()
        for name, value in self.symbols.assigns.items():
            if isinstance(value, (ast.List, ast.Dict, ast.Set)):
                out.add(name)
            elif isinstance(value, ast.Call):
                target = self._dotted_target(value.func)
                leaf = (target or "").rpartition(".")[2] or (
                    value.func.id if isinstance(value.func, ast.Name) else ""
                )
                if leaf in (
                    "list", "dict", "set", "defaultdict", "OrderedDict",
                    "Counter", "deque",
                ):
                    out.add(name)
        return out

    def _locally_bound_names(self) -> set[str]:
        bound = {p.name for p in self.node.func.params}
        for stmt in self.statements:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    bound.add(stmt.target.id)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                for name_node in self.project.walk(stmt.target):
                    if isinstance(name_node, ast.Name):
                        bound.add(name_node.id)
        return bound

    # ------------------------------------------------- fixed-point passes

    def propagate(
        self, summary: FunctionSummary, table: SummaryTable
    ) -> bool:
        """One pass of call-transported facts; True if anything changed."""
        changed = False
        for value in self._return_values():
            if not isinstance(value, ast.Call):
                continue
            callee = self._resolve_call(value)
            if callee is None:
                continue
            if summary.rng_origin is None:
                origin = table.rng_origin(callee)
                if origin is not None:
                    summary.rng_origin = origin
                    changed = True
            if not summary.returns_hook and table.returns_hook(callee):
                summary.returns_hook = True
                changed = True
        fanout = self._fanout(table)
        if fanout != summary.rng_fanout:
            summary.rng_fanout = fanout
            changed = True
        return changed


def _add(into: dict[str, int], more: dict[str, int]) -> None:
    for name, count in more.items():
        into[name] = into.get(name, 0) + count


def _peak(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    out = dict(a)
    for name, count in b.items():
        out[name] = max(out.get(name, 0), count)
    return out


def _terminates(block: list[ast.stmt]) -> bool:
    return bool(block) and isinstance(
        block[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _is_hook_factory_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in HOOK_FACTORY_METHODS
    )
