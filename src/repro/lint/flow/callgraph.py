"""Project call graph: who calls whom, resolved across modules.

Each function or method in the project becomes a node named by its
qualname (``module.func`` or ``module.Class.method``). Edges are the
call sites the resolver can pin down *definitely*:

- ``f(...)`` where ``f`` is a module-level function or class of the
  enclosing module, or an imported project function/class;
- ``mod.f(...)`` through an imported project module;
- ``self.m(...)`` through the enclosing class's MRO;
- ``obj.m(...)`` where ``obj`` is a parameter or ``self`` attribute
  whose annotation resolves to a project class.

Calls to classes resolve to their ``__init__`` (when one exists in the
MRO) so constructor bodies participate in reachability. Unresolvable
calls are dropped, matching the linter's definite-facts-only bias: the
graph under-approximates, so reachability-based rules (RL010) miss
rather than cry wolf.

Nested ``def``s are attributed to their enclosing function -- their
calls execute (at the latest) when the closure runs, and for process-
safety reachability the enclosing function is the submission unit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.lint.flow.project import Project
from repro.lint.flow.symbols import ClassInfo, FunctionInfo


@dataclass(frozen=True)
class FunctionNode:
    """One function or method definition in the project."""

    qualname: str
    module: str
    func: FunctionInfo
    cls: Optional[ClassInfo] = None


@dataclass
class CallGraph:
    """Forward and reverse adjacency over resolved project calls."""

    nodes: dict[str, FunctionNode] = field(default_factory=dict)
    edges: dict[str, set[str]] = field(default_factory=dict)
    reverse: dict[str, set[str]] = field(default_factory=dict)

    def callees(self, qualname: str) -> set[str]:
        return self.edges.get(qualname, set())

    def callers(self, qualname: str) -> set[str]:
        return self.reverse.get(qualname, set())

    def reachable(self, entry: str, max_depth: int = 6) -> set[str]:
        """Nodes reachable from ``entry`` within ``max_depth`` edges.

        The depth bound keeps the analysis a bounded-summary one: facts
        propagate through wrapper chains, not through unbounded
        recursion over pathological graphs.
        """
        seen = {entry}
        frontier = [entry]
        for _ in range(max_depth):
            nxt: list[str] = []
            for name in frontier:
                for callee in self.edges.get(name, ()):
                    if callee not in seen:
                        seen.add(callee)
                        nxt.append(callee)
            if not nxt:
                break
            frontier = nxt
        return seen

    def add_edge(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)
        self.reverse.setdefault(callee, set()).add(caller)


def iter_functions(project: Project) -> Iterator[FunctionNode]:
    """Every function and method of every module, with its qualname."""
    for name in sorted(project.modules):
        info = project.modules[name]
        for fn in info.symbols.functions.values():
            yield FunctionNode(f"{name}.{fn.name}", name, fn)
        for cls in info.symbols.classes.values():
            for method in cls.methods.values():
                yield FunctionNode(
                    f"{cls.qualname}.{method.name}", name, method, cls
                )


def build_call_graph(project: Project) -> CallGraph:
    graph = CallGraph()
    for node in iter_functions(project):
        graph.nodes[node.qualname] = node
        graph.edges.setdefault(node.qualname, set())
    for node in graph.nodes.values():
        resolver = CallResolver(project, node)
        for call in project.walk(node.func.node):
            if isinstance(call, ast.Call):
                target = resolver.resolve(call)
                if target is not None and target in graph.nodes:
                    graph.add_edge(node.qualname, target)
    return graph


class CallResolver:
    """Resolve one function's call expressions to project qualnames."""

    def __init__(self, project: Project, node: FunctionNode) -> None:
        self.project = project
        self.node = node
        self.symbols = project.modules[node.module].symbols
        self._param_classes = self._annotated_param_classes()

    def _annotated_param_classes(self) -> dict[str, ClassInfo]:
        out: dict[str, ClassInfo] = {}
        for param in self.node.func.params:
            ref = self.project.resolve_annotation(
                self.node.module, param.annotation
            )
            if ref.kind == "cls":
                info = self.project.resolve_class(ref.qualname)
                if info is not None:
                    out[param.name] = info
        return out

    def resolve(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(func)
        return None

    def _resolve_name(self, name: str) -> Optional[str]:
        if name in self.symbols.functions:
            return f"{self.symbols.name}.{name}"
        if name in self.symbols.classes:
            return self._class_init(self.symbols.classes[name])
        target = self.symbols.imports.get(name)
        if target is not None:
            return self._resolve_dotted(target)
        return None

    def _resolve_dotted(self, dotted: str) -> Optional[str]:
        owner, _, leaf = dotted.rpartition(".")
        info = self.project.modules.get(owner)
        if info is None or not leaf:
            return None
        if leaf in info.symbols.functions:
            return dotted
        if leaf in info.symbols.classes:
            return self._class_init(info.symbols.classes[leaf])
        return None

    def _resolve_attribute(self, func: ast.Attribute) -> Optional[str]:
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "self" and self.node.cls is not None:
                return self._method_on(self.node.cls, func.attr)
            owner_cls = self._param_classes.get(base.id)
            if owner_cls is not None:
                return self._method_on(owner_cls, func.attr)
            target = self.symbols.imports.get(base.id)
            if target is not None:
                return self._resolve_dotted(f"{target}.{func.attr}")
            return None
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and self.node.cls is not None
        ):
            # self.attr.m(): follow the attribute's resolved class type.
            ref = self.project.attr_type(self.node.cls, base.attr)
            if ref.kind == "cls":
                info = self.project.resolve_class(ref.qualname)
                if info is not None:
                    return self._method_on(info, func.attr)
        return None

    def _method_on(self, cls: ClassInfo, name: str) -> Optional[str]:
        found = self.project.find_method(cls, name)
        if found is None:
            return None
        owner, method = found
        return f"{owner.qualname}.{method.name}"

    def _class_init(self, cls: ClassInfo) -> Optional[str]:
        found = self.project.find_method(cls, "__init__")
        if found is None:
            return None
        owner, _ = found
        return f"{owner.qualname}.__init__"
