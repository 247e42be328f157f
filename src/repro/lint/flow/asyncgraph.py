"""Asyncio-aware whole-program facts layered on the call graph.

The synchronous flow analyses (call graph, summaries, dataflow) see a
program where every call completes before the caller's next statement.
The streaming service broke that assumption: coroutines interleave at
``await`` points, event-loop callbacks run between them, and a spawned
task outlives the statement that created it. This module computes the
facts the async rules (RL013-RL015) consume:

- **coroutine/sync classification** and the **runs-on-loop** set:
  every ``async def``, every protocol callback of an
  ``asyncio.*Protocol`` subclass, and every function registered with
  ``loop.call_soon``/``call_later``/``call_at``/``add_done_callback``.
- **may-block** propagation: direct blocking sites (``time.sleep``,
  ``subprocess``, sync socket/file I/O) flow caller-ward through *sync*
  wrapper chains to a fixed point, carrying a witness chain for the
  diagnostic. Blocking never propagates through a coroutine boundary:
  the coroutine itself is flagged, not its awaiters. References passed
  to ``run_in_executor``/``asyncio.to_thread`` are exempt -- they run
  off-loop by construction.
- **task spawns with ownership**: each ``asyncio.create_task``/
  ``ensure_future`` site is classified as dropped (bare expression),
  discarded (bound to a never-read local), or retained (awaited,
  tracked in a collection, stored on an attribute); attribute-stored
  tasks also record whether any method of the spawning or owning class
  ever calls ``.cancel()``.
- **task contexts and shared state**: each spawn target (and each
  coroutine handed to ``asyncio.run``) roots a *context* -- the set of
  functions reachable from it -- and all event-loop callbacks share the
  ``loop`` context. Attribute accesses are collected per function with
  receiver classes resolved through annotations (``self``, typed
  params, typed ``self.<attr>`` chains), and a per-coroutine scan finds
  writes that *span an await*: an access, an ``await``, then a write to
  the same attribute from a different statement. Single-statement
  updates (``self.n += 1``) are loop-atomic and never span.

Everything here keeps the linter's definite-facts bias: unresolvable
receivers, unbounded recursion, and dynamic registration are dropped,
so the rules under-approximate -- they miss rather than cry wolf.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.lint.flow.callgraph import CallResolver, FunctionNode
from repro.lint.flow.project import Project
from repro.lint.flow.symbols import AnyFunctionDef, ClassInfo

#: Dotted call targets that block the calling thread.
BLOCKING_CALLS = {
    "time.sleep": "time.sleep",
    "subprocess.run": "subprocess.run",
    "subprocess.call": "subprocess.call",
    "subprocess.check_call": "subprocess.check_call",
    "subprocess.check_output": "subprocess.check_output",
    "subprocess.Popen": "subprocess.Popen",
    "subprocess.getoutput": "subprocess.getoutput",
    "os.system": "os.system",
    "os.popen": "os.popen",
    "os.waitpid": "os.waitpid",
    "socket.create_connection": "socket.create_connection",
    "socket.getaddrinfo": "socket.getaddrinfo",
    "socket.gethostbyname": "socket.gethostbyname",
    "urllib.request.urlopen": "urllib.request.urlopen",
    "requests.get": "requests.get",
    "requests.post": "requests.post",
    "requests.request": "requests.request",
    "shutil.copy": "shutil.copy",
    "shutil.copytree": "shutil.copytree",
    "shutil.move": "shutil.move",
}

#: Method names that perform sync file I/O on any receiver (the
#: ``pathlib.Path`` idiom); only meaningful when the enclosing function
#: runs on the loop, so reachability gates false positives.
BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: JSON (de)serialization: CPU work that does not belong on the
#: per-datagram hot path.
JSON_CALLS = frozenset({"json.dumps", "json.loads", "json.dump", "json.load"})

#: asyncio transport-protocol callback names, keyed for the loop set.
PROTOCOL_CALLBACKS = frozenset(
    {
        "connection_made",
        "connection_lost",
        "datagram_received",
        "error_received",
        "data_received",
        "eof_received",
        "pause_writing",
        "resume_writing",
    }
)

#: The per-packet subset: one invocation per received datagram.
PACKET_CALLBACKS = frozenset({"datagram_received", "data_received"})

_ASYNC_PROTO_BASES = frozenset(
    {
        "asyncio.BaseProtocol",
        "asyncio.Protocol",
        "asyncio.BufferedProtocol",
        "asyncio.DatagramProtocol",
        "asyncio.SubprocessProtocol",
    }
)

#: ``loop.<method>(...)`` callback registrations: method -> positional
#: index of the callback argument.
_SCHEDULE_CALLS = {
    "call_soon": 0,
    "call_soon_threadsafe": 0,
    "call_later": 1,
    "call_at": 1,
    "add_done_callback": 0,
}

_SPAWN_ATTRS = frozenset({"create_task", "ensure_future"})
_EXECUTOR_CALLS = frozenset({"asyncio.to_thread"})
_EXECUTOR_ATTRS = frozenset({"run_in_executor"})

#: Container/receiver mutators treated as writes to the receiver attr.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "extend",
        "insert",
        "update",
        "setdefault",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "discard",
        "clear",
    }
)

#: Fixed-point passes for may-block propagation (wrapper-chain depth).
_PROPAGATION_PASSES = 4

#: Interprocedural attr-access attribution depth (call-edge hops).
_ACCESS_HOPS = 2

#: Context reachability bound.
_CONTEXT_DEPTH = 8

#: The shared context id for event-loop callbacks.
LOOP_CONTEXT = "loop"

#: asyncio primitives whose ``async with`` serializes the guarded body.
_LOCK_TYPES = ("asyncio.Lock", "asyncio.Semaphore", "asyncio.Condition")


def _is_lock_expr(node: "FunctionNode", expr: ast.expr) -> bool:
    """``self.<attr>`` initialized to ``asyncio.Lock()`` (or kin)."""
    if not isinstance(expr, ast.Attribute):
        return False
    cls = node.cls
    if cls is None or not (
        isinstance(expr.value, ast.Name) and expr.value.id == "self"
    ):
        return False
    assign = cls.attr_assigns.get(expr.attr)
    if assign is None or not isinstance(assign.value, ast.Call):
        return False
    return _dotted(assign.value.func) in _LOCK_TYPES


@dataclass(frozen=True)
class BlockingSite:
    """One direct blocking (or hot-path JSON) call site."""

    node: ast.AST
    what: str


@dataclass(frozen=True)
class MayBlock:
    """Witness that calling a function may block the loop."""

    what: str
    chain: tuple[str, ...]  # callee qualnames walked to the site

    def describe(self) -> str:
        if not self.chain:
            return self.what
        return " -> ".join((*self.chain, self.what))


@dataclass(frozen=True)
class AttrAccess:
    """One attribute (or module-global) access with a resolved owner.

    ``owner`` is a class qualname, or ``""`` with ``attr`` a dotted
    module-global name. ``node`` anchors diagnostics; for accesses
    attributed interprocedurally it is the *call site* in the function
    being scanned, not the far-away load/store.
    """

    owner: str
    attr: str
    node: ast.AST
    write: bool
    guarded: bool = False

    @property
    def key(self) -> tuple[str, str]:
        return (self.owner, self.attr)


@dataclass(frozen=True)
class SpanningWrite:
    """A write paired with an earlier access across an ``await``."""

    owner: str
    attr: str
    node: ast.AST
    function: str  # coroutine qualname the span occurs in


@dataclass
class TaskSpawn:
    """One ``create_task``/``ensure_future`` site, with ownership."""

    node: ast.Call
    module: str
    spawner: str
    target: Optional[str]
    #: "dropped" | "discarded" | "stored" | "retained"
    ownership: str
    stored_attr: Optional[tuple[str, str]] = None
    cancelled: bool = True


@dataclass
class FunctionFacts:
    """Per-function async facts."""

    qualname: str
    module: str
    is_coroutine: bool = False
    on_loop: bool = False
    packet_callback: bool = False
    blocking: list[BlockingSite] = field(default_factory=list)
    json_sites: list[BlockingSite] = field(default_factory=list)
    calls: list[tuple[ast.Call, str]] = field(default_factory=list)
    accesses: list[AttrAccess] = field(default_factory=list)
    may_block: Optional[MayBlock] = None


class AsyncGraph:
    """All async facts for one project, built once per run."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = project.call_graph()
        self.functions: dict[str, FunctionFacts] = {}
        self.spawns: list[TaskSpawn] = []
        #: context id -> member function qualnames.
        self.contexts: dict[str, frozenset[str]] = {}
        #: coroutine qualname -> spanning writes found in its body.
        self.spans: dict[str, list[SpanningWrite]] = {}
        self._edges: Optional[dict[str, set[str]]] = None

    @classmethod
    def build(cls, project: Project) -> "AsyncGraph":
        self = cls(project)
        run_roots: list[str] = []
        scheduled: set[str] = set()
        for node in self.graph.nodes.values():
            collector = _FunctionCollector(self, node)
            facts = collector.collect()
            self.functions[facts.qualname] = facts
            run_roots.extend(collector.run_roots)
            scheduled.update(collector.scheduled)
        self._mark_loop_callbacks(scheduled)
        self._propagate_may_block()
        self._build_contexts(run_roots)
        for qualname, facts in self.functions.items():
            if facts.is_coroutine:
                node = self.graph.nodes[qualname]
                self.spans[qualname] = _SpanScanner(self, node).scan()
        self._classify_spawn_cancellation()
        return self

    # ------------------------------------------------------------ loop set

    def _bases_of(self, cls: ClassInfo) -> set[str]:
        module = self.project.modules.get(cls.module)
        if module is None:
            return set()
        imports = module.symbols.imports
        out: set[str] = set()
        for base in cls.bases:
            dotted = _dotted(base)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            canonical = imports.get(head, head)
            out.add(f"{canonical}.{rest}" if rest else canonical)
        return out

    def _is_protocol_class(self, cls: ClassInfo) -> bool:
        if self._bases_of(cls) & _ASYNC_PROTO_BASES:
            return True
        # One inheritance hop through a project class is enough for the
        # codebase's idiom; deeper towers stay unclassified (miss, not
        # cry wolf).
        for base in cls.bases:
            ref = self.project.resolve_annotation(cls.module, base)
            parent = (
                self.project.resolve_class(ref.qualname)
                if ref.kind == "cls"
                else None
            )
            if parent is not None and self._bases_of(parent) & _ASYNC_PROTO_BASES:
                return True
        return False

    def _mark_loop_callbacks(self, scheduled: set[str]) -> None:
        for qualname, facts in self.functions.items():
            node = self.graph.nodes[qualname]
            if facts.is_coroutine:
                facts.on_loop = True
                continue
            if qualname in scheduled:
                facts.on_loop = True
            if (
                node.cls is not None
                and node.func.name in PROTOCOL_CALLBACKS
                and self._is_protocol_class(node.cls)
            ):
                facts.on_loop = True
                facts.packet_callback = node.func.name in PACKET_CALLBACKS

    # --------------------------------------------------------------- edges

    def edge_map(self) -> dict[str, set[str]]:
        """Call edges over collected facts (resolver + typed locals)."""
        if self._edges is None:
            self._edges = {
                qualname: {
                    target
                    for _, target in facts.calls
                    if target in self.functions
                }
                for qualname, facts in self.functions.items()
            }
        return self._edges

    def reachable(self, entry: str, max_depth: int) -> set[str]:
        edges = self.edge_map()
        seen = {entry}
        frontier = [entry]
        for _ in range(max_depth):
            nxt: list[str] = []
            for name in frontier:
                for callee in edges.get(name, ()):
                    if callee not in seen:
                        seen.add(callee)
                        nxt.append(callee)
            if not nxt:
                break
            frontier = nxt
        return seen

    # ----------------------------------------------------------- may-block

    def _propagate_may_block(self) -> None:
        for facts in self.functions.values():
            if facts.blocking:
                site = facts.blocking[0]
                facts.may_block = MayBlock(site.what, ())
        edges = self.edge_map()
        for _ in range(_PROPAGATION_PASSES):
            changed = False
            for qualname, facts in self.functions.items():
                if facts.may_block is not None:
                    continue
                for callee in sorted(edges.get(qualname, ())):
                    sub = self.functions.get(callee)
                    if sub is None or sub.may_block is None:
                        continue
                    if sub.is_coroutine:
                        # Awaiting a blocking coroutine is *that*
                        # coroutine's finding, not the awaiter's.
                        continue
                    facts.may_block = MayBlock(
                        sub.may_block.what, (callee, *sub.may_block.chain)
                    )
                    changed = True
                    break
            if not changed:
                break

    # ------------------------------------------------------------ contexts

    def _build_contexts(self, run_roots: list[str]) -> None:
        roots: dict[str, set[str]] = {}
        for spawn in self.spawns:
            if spawn.target is not None:
                roots.setdefault(spawn.target, set()).add(spawn.target)
        for target in run_roots:
            roots.setdefault(target, set()).add(target)
        loop_roots = {
            qualname
            for qualname, facts in self.functions.items()
            if facts.on_loop and not facts.is_coroutine
        }
        if loop_roots:
            roots[LOOP_CONTEXT] = loop_roots
        for context_id, entries in roots.items():
            members: set[str] = set()
            for entry in entries:
                members |= self.reachable(entry, _CONTEXT_DEPTH)
            if context_id == LOOP_CONTEXT:
                # Reaching *into* a coroutine from a callback means the
                # callback created it, not that it runs there.
                members = {
                    m
                    for m in members
                    if not self.functions[m].is_coroutine
                    or m in entries
                }
            self.contexts[context_id] = frozenset(members)

    def contexts_of(self, qualname: str) -> frozenset[str]:
        return frozenset(
            context_id
            for context_id, members in self.contexts.items()
            if qualname in members
        )

    def access_contexts(self) -> dict[tuple[str, str], set[str]]:
        """Map each accessed (owner, attr) key to its context ids."""
        out: dict[tuple[str, str], set[str]] = {}
        for context_id, members in self.contexts.items():
            for member in members:
                facts = self.functions.get(member)
                if facts is None:
                    continue
                for access in facts.accesses:
                    out.setdefault(access.key, set()).add(context_id)
        return out

    def guarded_keys(self) -> set[tuple[str, str]]:
        """Keys whose every access sits under an ``asyncio.Lock``."""
        guarded: set[tuple[str, str]] = set()
        unguarded: set[tuple[str, str]] = set()
        for facts in self.functions.values():
            for access in facts.accesses:
                (guarded if access.guarded else unguarded).add(access.key)
        return guarded - unguarded

    # ------------------------------------------------------- spawn hygiene

    def _classify_spawn_cancellation(self) -> None:
        for spawn in self.spawns:
            if spawn.stored_attr is None:
                continue
            owner, _ = spawn.stored_attr
            spawner_cls = spawn.spawner.rsplit(".", 1)[0]
            candidates = {owner, spawner_cls}
            spawn.cancelled = any(
                self._class_cancels(qualname) for qualname in candidates
            )

    def _class_cancels(self, class_qualname: str) -> bool:
        info = self.project.resolve_class(class_qualname)
        if info is None:
            return False
        for method in info.methods.values():
            for node in self.project.walk(method.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "cancel"
                ):
                    return True
        return False


def _dotted(node: ast.expr) -> Optional[str]:
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


class ReceiverTyper:
    """Resolve receiver expressions to project classes (best effort).

    Beyond the resolver's annotated-parameter typing this also types
    locals built by direct construction
    (``session = ServiceSession(...)``) -- the service idiom for
    per-connection state -- and annotated locals. A name with two
    *conflicting* class-resolvable assignments stays untyped;
    unresolvable re-assignments (dict lookups of the same object) do
    not clear an established type.
    """

    def __init__(self, project: Project, node: FunctionNode) -> None:
        self.project = project
        self.node = node
        self._params: dict[str, ClassInfo] = {}
        for param in node.func.params:
            ref = project.resolve_annotation(node.module, param.annotation)
            if ref.kind == "cls":
                info = project.resolve_class(ref.qualname)
                if info is not None:
                    self._params[param.name] = info
        self._locals = self._constructed_locals()

    def _constructed_locals(self) -> dict[str, ClassInfo]:
        classes: dict[str, ClassInfo] = {}
        conflicted: set[str] = set()
        for stmt in self.project.walk(self.node.func.node):
            name: Optional[str] = None
            info: Optional[ClassInfo] = None
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                name = stmt.targets[0].id
                if isinstance(stmt.value, ast.Call):
                    info = self._resolved_class(stmt.value.func)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                name = stmt.target.id
                info = self._resolved_class(stmt.annotation)
            if name is None or info is None:
                continue
            seen = classes.get(name)
            if seen is not None and seen.qualname != info.qualname:
                conflicted.add(name)
            classes[name] = info
        return {
            name: info
            for name, info in classes.items()
            if name not in conflicted
        }

    def _resolved_class(self, expr: ast.expr) -> Optional[ClassInfo]:
        ref = self.project.resolve_annotation(self.node.module, expr)
        if ref.kind != "cls":
            return None
        return self.project.resolve_class(ref.qualname)

    def class_of(self, expr: ast.expr) -> Optional[ClassInfo]:
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return self.node.cls
            found = self._params.get(expr.id)
            if found is not None:
                return found
            return self._locals.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.class_of(expr.value)
            if base is None:
                return None
            ref = self.project.attr_type(base, expr.attr)
            if ref.kind == "cls":
                return self.project.resolve_class(ref.qualname)
        return None


class _FunctionCollector:
    """One pass over a function body: sites, calls, accesses, spawns."""

    def __init__(self, owner: AsyncGraph, node: FunctionNode) -> None:
        self.owner = owner
        self.project = owner.project
        self.node = node
        self.symbols = self.project.modules[node.module].symbols
        self.resolver = CallResolver(self.project, node)
        self.typer = ReceiverTyper(self.project, node)
        self.facts = FunctionFacts(
            qualname=node.qualname,
            module=node.module,
            is_coroutine=node.func.is_async,
        )
        self.run_roots: list[str] = []
        self.scheduled: list[str] = []
        self._exempt: set[int] = set()
        self._seen_attrs: set[int] = set()
        self._guarded_ids: set[int] = set()
        #: Attribute writes recorded in ``__init__`` are construction
        #: handoff -- they happen-before any sharing -- and never count
        #: as cross-task accesses.
        self._handoff = node.func.name in ("__init__", "__post_init__")

    # --------------------------------------------------------------- main

    def collect(self) -> FunctionFacts:
        func = self.node.func.node
        self._mark_executor_exemptions(func)
        self._mark_lock_guards(func)
        for stmt in self.project.walk(func):
            self._visit(stmt)
        return self.facts

    def _mark_lock_guards(self, func: AnyFunctionDef) -> None:
        for stmt in self.project.walk(func):
            if not isinstance(stmt, ast.AsyncWith):
                continue
            if not any(
                _is_lock_expr(self.node, item.context_expr)
                for item in stmt.items
            ):
                continue
            for body_stmt in stmt.body:
                for sub in self.project.walk(body_stmt):
                    self._guarded_ids.add(id(sub))

    def _mark_executor_exemptions(self, func: AnyFunctionDef) -> None:
        for call in self.project.walk(func):
            if not isinstance(call, ast.Call):
                continue
            dotted = self._dotted_target(call)
            is_executor = dotted in _EXECUTOR_CALLS or (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in _EXECUTOR_ATTRS
            )
            if not is_executor:
                continue
            for arg in [*call.args, *[kw.value for kw in call.keywords]]:
                for sub in self.project.walk(arg):
                    self._exempt.add(id(sub))

    def _dotted_target(self, call: ast.Call) -> Optional[str]:
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        canonical = self.symbols.imports.get(head)
        if canonical is None:
            return dotted
        return f"{canonical}.{rest}" if rest else canonical

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._visit_call(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._visit_store(node)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            self._record_attr(node, write=False)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self._record_global(node, write=False)
        elif isinstance(node, ast.While):
            self._check_cpu_loop(node)

    # -------------------------------------------------------------- calls

    def _visit_call(self, call: ast.Call) -> None:
        dotted = self._dotted_target(call)
        if dotted is not None and id(call) not in self._exempt:
            what = BLOCKING_CALLS.get(dotted)
            if what is not None:
                self.facts.blocking.append(BlockingSite(call, what))
            elif dotted in JSON_CALLS:
                self.facts.json_sites.append(BlockingSite(call, dotted))
            elif dotted == "open":
                if "open" not in self.symbols.imports:
                    self.facts.blocking.append(BlockingSite(call, "open"))
            elif dotted == "input":
                self.facts.blocking.append(BlockingSite(call, "input"))
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in BLOCKING_METHODS
            and id(call) not in self._exempt
        ):
            self.facts.blocking.append(
                BlockingSite(call, f"<receiver>.{call.func.attr}")
            )
        target = self._resolve_call(call)
        if target is not None:
            self.facts.calls.append((call, target))
        self._visit_spawn(call, dotted)
        self._visit_schedule(call)
        if dotted == "asyncio.run" and call.args:
            root = self._callback_target(call.args[0])
            if root is not None:
                self.run_roots.append(root)
        # Mutator method on an attribute chain: a write to the receiver.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _MUTATOR_METHODS
        ):
            self._record_attr(call.func.value, write=True, anchor=call)

    def _visit_schedule(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        position = _SCHEDULE_CALLS.get(func.attr)
        if position is None or len(call.args) <= position:
            return
        target = self._callback_target(call.args[position])
        if target is not None:
            self.scheduled.append(target)

    def _resolve_call(self, call: ast.Call) -> Optional[str]:
        """Resolver result, widened by typed-local receiver lookup."""
        target = self.resolver.resolve(call)
        if target is not None:
            return target
        func = call.func
        if isinstance(func, ast.Attribute):
            owner = self.typer.class_of(func.value)
            if owner is not None:
                found = self.project.find_method(owner, func.attr)
                if found is not None:
                    cls_info, method = found
                    return f"{cls_info.qualname}.{method.name}"
        return None

    def _callback_target(self, expr: ast.expr) -> Optional[str]:
        """Qualname of a function referenced (or called) by ``expr``."""
        reference = expr.func if isinstance(expr, ast.Call) else expr
        if not isinstance(reference, (ast.Name, ast.Attribute)):
            return None
        fake = ast.Call(func=reference, args=[], keywords=[])
        return self._resolve_call(fake)

    # ------------------------------------------------------------- spawns

    def _is_spawn(self, call: ast.Call, dotted: Optional[str]) -> bool:
        if dotted in ("asyncio.create_task", "asyncio.ensure_future"):
            return True
        return (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _SPAWN_ATTRS
        )

    def _visit_spawn(self, call: ast.Call, dotted: Optional[str]) -> None:
        if not self._is_spawn(call, dotted):
            return
        target = None
        if call.args:
            target = self._callback_target(call.args[0])
        spawn = TaskSpawn(
            node=call,
            module=self.node.module,
            spawner=self.node.qualname,
            target=target,
            ownership="retained",
        )
        self._classify_ownership(call, spawn)
        self.owner.spawns.append(spawn)

    def _classify_ownership(self, call: ast.Call, spawn: TaskSpawn) -> None:
        parents = _parent_chain(self.node.func.node, call)
        if not parents:
            return
        parent = parents[-1]
        if isinstance(parent, ast.Expr) and parent.value is call:
            spawn.ownership = "dropped"
            return
        if isinstance(parent, ast.Assign) and parent.value is call:
            targets = parent.targets
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                name = targets[0].id
                if not self._local_used_after(parent, name):
                    spawn.ownership = "discarded"
                return
            if len(targets) == 1 and isinstance(targets[0], ast.Attribute):
                attr_node = targets[0]
                owner_cls = self.typer.class_of(attr_node.value)
                spawn.ownership = "stored"
                spawn.stored_attr = (
                    owner_cls.qualname if owner_cls is not None else "",
                    attr_node.attr,
                )
                return

    def _local_used_after(self, assign: ast.stmt, name: str) -> bool:
        # Lexical position stands in for execution order here: a load
        # of the name anywhere in the function counts as a use.
        for node in self.project.walk(self.node.func.node):
            if (
                isinstance(node, ast.Name)
                and node.id == name
                and isinstance(node.ctx, ast.Load)
            ):
                return True
        return False

    # ----------------------------------------------------------- accesses

    def _visit_store(self, stmt: ast.stmt) -> None:
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        else:
            assert isinstance(stmt, ast.AnnAssign)
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Attribute):
                self._record_attr(target, write=True)
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Attribute
            ):
                self._record_attr(target.value, write=True, anchor=stmt)
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                self._record_global(target.value, write=True, anchor=stmt)
            elif isinstance(target, ast.Name):
                self._record_global(target, write=True, anchor=stmt)
            elif isinstance(target, ast.Tuple):
                for element in target.elts:
                    if isinstance(element, ast.Attribute):
                        self._record_attr(element, write=True)

    def _record_attr(
        self,
        node: ast.expr,
        write: bool,
        anchor: Optional[ast.AST] = None,
    ) -> None:
        if not isinstance(node, ast.Attribute):
            return
        if id(node) in self._seen_attrs:
            return
        self._seen_attrs.add(id(node))
        if self._handoff:
            return
        owner = self.typer.class_of(node.value)
        if owner is None:
            return
        self.facts.accesses.append(
            AttrAccess(
                owner=owner.qualname,
                attr=node.attr,
                node=anchor if anchor is not None else node,
                write=write,
                guarded=id(node) in self._guarded_ids,
            )
        )

    def _record_global(
        self,
        node: ast.Name,
        write: bool,
        anchor: Optional[ast.AST] = None,
    ) -> None:
        if self._handoff:
            return
        if node.id not in self.symbols.assigns:
            return
        if not write:
            return  # global reads are collected only where written
        value = self.symbols.assigns.get(node.id)
        if not isinstance(value, (ast.Dict, ast.List, ast.Set, ast.Call)):
            return
        self.facts.accesses.append(
            AttrAccess(
                owner="",
                attr=f"{self.node.module}.{node.id}",
                node=anchor if anchor is not None else node,
                write=True,
                guarded=id(node) in self._guarded_ids,
            )
        )

    # ------------------------------------------------------------ cpu loop

    def _check_cpu_loop(self, node: ast.While) -> None:
        """``while True`` with no suspension or exit never yields."""
        if not _is_constant_true(node.test):
            return
        for sub in self.project.walk(node):
            if isinstance(
                sub,
                (
                    ast.Await,
                    ast.AsyncFor,
                    ast.AsyncWith,
                    ast.Break,
                    ast.Return,
                    ast.Raise,
                    ast.Yield,
                    ast.YieldFrom,
                ),
            ):
                return
        self.facts.blocking.append(BlockingSite(node, "unbounded loop"))


def _is_constant_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


def _parent_chain(func: AnyFunctionDef, needle: ast.AST) -> list[ast.AST]:
    """Ancestor chain of ``needle`` within ``func`` (innermost last)."""
    out: list[ast.AST] = []

    def walk(node: ast.AST, trail: list[ast.AST]) -> bool:
        for child in ast.iter_child_nodes(node):
            if child is needle:
                out.extend(trail + [node])
                return True
            if walk(child, trail + [node]):
                return True
        return False

    walk(func, [])
    # Drop everything above the nearest statement: callers want the
    # enclosing statement, which is the last stmt in the chain.
    for index in range(len(out) - 1, -1, -1):
        if isinstance(out[index], ast.stmt):
            return out[: index + 1]
    return out


# ------------------------------------------------------------ span scanner


@dataclass(frozen=True)
class _Event:
    """One ordered event in a coroutine body."""

    kind: str  # "access" | "await"
    key: tuple[str, str] = ("", "")
    stmt_id: tuple[int, str] = (0, "")
    write: bool = False
    node: Optional[ast.AST] = None


class _SpanScanner:
    """Find writes spanning an await inside one coroutine body.

    Statements are walked in source order; branch bodies are walked
    sequentially (an over-approximation of path order that stays sound
    for *pairing* -- the pair must still straddle an ``await`` event
    that really sits between the two accesses on some path through a
    loop). Loops containing an await are unrolled once so an access in
    iteration N pairs with a write in iteration N+1.
    """

    def __init__(self, owner: AsyncGraph, node: FunctionNode) -> None:
        self.owner = owner
        self.project = owner.project
        self.node = node
        self.resolver = CallResolver(self.project, node)
        self.events: list[_Event] = []
        self._guard_depth = 0
        self._summary_memo: dict[str, list[AttrAccess]] = {}

    def scan(self) -> list[SpanningWrite]:
        for stmt in self.node.func.node.body:
            self._emit_stmt(stmt)
        return self._pair()

    # ------------------------------------------------------------ emission

    def _emit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(stmt, ast.If):
            self._emit_expr(stmt.test, stmt)
            self._emit_block(stmt.body)
            self._emit_block(stmt.orelse)
            return
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self._emit_loop(stmt)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._emit_with(stmt)
            return
        if isinstance(stmt, ast.Try):
            self._emit_block(stmt.body)
            for handler in stmt.handlers:
                self._emit_block(handler.body)
            self._emit_block(stmt.orelse)
            self._emit_block(stmt.finalbody)
            return
        self._emit_simple(stmt)

    def _emit_block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._emit_stmt(stmt)

    def _emit_loop(self, stmt: ast.While | ast.For | ast.AsyncFor) -> None:
        def once() -> None:
            if isinstance(stmt, ast.While):
                self._emit_expr(stmt.test, stmt)
            else:
                self._emit_expr(stmt.iter, stmt)
                if isinstance(stmt, ast.AsyncFor):
                    self.events.append(_Event("await"))
            self._emit_block(stmt.body)

        once()
        if _contains_await(stmt):
            once()
        self._emit_block(stmt.orelse)

    def _emit_with(self, stmt: ast.With | ast.AsyncWith) -> None:
        guarded = False
        for item in stmt.items:
            self._emit_expr(item.context_expr, stmt)
        if isinstance(stmt, ast.AsyncWith):
            self.events.append(_Event("await"))
            guarded = any(
                self._is_lock(item.context_expr) for item in stmt.items
            )
        if guarded:
            self._guard_depth += 1
        self._emit_block(stmt.body)
        if guarded:
            self._guard_depth -= 1
            self.events.append(_Event("await"))  # lock release point

    def _is_lock(self, expr: ast.expr) -> bool:
        return _is_lock_expr(self.node, expr)

    def _emit_simple(self, stmt: ast.stmt) -> None:
        accesses = self._stmt_accesses(stmt)
        has_await = _contains_await(stmt)
        if self._guard_depth > 0:
            return  # lock-protected: spans here are safe by design
        if not has_await:
            stmt_id = (id(stmt), "")
            for access in accesses:
                self.events.append(
                    _Event(
                        "access",
                        key=access.key,
                        stmt_id=stmt_id,
                        write=access.write,
                        node=access.node,
                    )
                )
            return
        # Reads happen before the await commits, writes after: an
        # ``x = await f() + self.n`` style statement is genuinely split.
        for access in accesses:
            if not access.write:
                self.events.append(
                    _Event(
                        "access",
                        key=access.key,
                        stmt_id=(id(stmt), "pre"),
                        write=False,
                        node=access.node,
                    )
                )
        self.events.append(_Event("await"))
        for access in accesses:
            if access.write:
                self.events.append(
                    _Event(
                        "access",
                        key=access.key,
                        stmt_id=(id(stmt), "post"),
                        write=True,
                        node=access.node,
                    )
                )

    def _emit_expr(self, expr: ast.expr, stmt: ast.stmt) -> None:
        accesses = self._expr_accesses(expr, stmt)
        if self._guard_depth > 0:
            return
        stmt_id = (id(stmt), "test")
        for access in accesses:
            self.events.append(
                _Event(
                    "access",
                    key=access.key,
                    stmt_id=stmt_id,
                    write=access.write,
                    node=access.node,
                )
            )

    # ---------------------------------------------------- access gathering

    def _stmt_accesses(self, stmt: ast.stmt) -> list[AttrAccess]:
        return self._subtree_accesses(stmt)

    def _expr_accesses(
        self, expr: ast.expr, stmt: ast.stmt
    ) -> list[AttrAccess]:
        del stmt  # anchoring is per access node
        return self._subtree_accesses(expr)

    def _subtree_accesses(self, root: ast.AST) -> list[AttrAccess]:
        shallow = _ShallowCollector(self.owner, self.node, root)
        accesses = shallow.collect()
        for call, target in shallow.calls:
            accesses.extend(
                replace(access, node=call)
                for access in self._callee_accesses(target, 0)
            )
        return accesses

    def _callee_accesses(self, qualname: str, hops: int) -> list[AttrAccess]:
        if hops >= _ACCESS_HOPS:
            return []
        memo = self._summary_memo.get(qualname)
        if memo is not None:
            return memo
        self._summary_memo[qualname] = []  # cycle guard
        facts = self.owner.functions.get(qualname)
        if facts is None or facts.is_coroutine:
            return []
        out = list(facts.accesses)
        for _, target in facts.calls:
            out.extend(self._callee_accesses(target, hops + 1))
        self._summary_memo[qualname] = out
        return out

    # ------------------------------------------------------------- pairing

    def _pair(self) -> list[SpanningWrite]:
        accessed: dict[tuple[str, str], set[tuple[int, str]]] = {}
        pending: dict[tuple[str, str], set[tuple[int, str]]] = {}
        found: dict[tuple[str, str], SpanningWrite] = {}
        for event in self.events:
            if event.kind == "await":
                for key, stmts in accessed.items():
                    pending.setdefault(key, set()).update(stmts)
                continue
            if event.write and event.key not in found:
                prior = pending.get(event.key, set())
                if prior - {event.stmt_id}:
                    assert event.node is not None
                    found[event.key] = SpanningWrite(
                        owner=event.key[0],
                        attr=event.key[1],
                        node=event.node,
                        function=self.node.qualname,
                    )
            accessed.setdefault(event.key, set()).add(event.stmt_id)
        return list(found.values())


class _ShallowCollector:
    """Direct attr accesses + resolved calls of one statement subtree."""

    def __init__(
        self,
        owner: AsyncGraph,
        node: FunctionNode,
        root: ast.AST,
    ) -> None:
        self.owner = owner
        self.node = node
        self.root = root
        self.resolver = CallResolver(owner.project, node)
        self.typer = ReceiverTyper(owner.project, node)
        self.calls: list[tuple[ast.Call, str]] = []
        self._out: list[AttrAccess] = []
        self._seen: set[int] = set()

    def collect(self) -> list[AttrAccess]:
        for sub in self.owner.project.walk(self.root):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(sub, ast.Call):
                target = self.resolver.resolve(sub)
                if target is None and isinstance(sub.func, ast.Attribute):
                    owner_cls = self.typer.class_of(sub.func.value)
                    if owner_cls is not None:
                        found = self.owner.project.find_method(
                            owner_cls, sub.func.attr
                        )
                        if found is not None:
                            cls_info, method = found
                            target = f"{cls_info.qualname}.{method.name}"
                if target is not None:
                    self.calls.append((sub, target))
                if (
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _MUTATOR_METHODS
                ):
                    self._add(sub.func.value, write=True, anchor=sub)
            elif isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (
                    list(sub.targets)
                    if isinstance(sub, ast.Assign)
                    else [sub.target]
                )
                for target_expr in targets:
                    if isinstance(target_expr, ast.Attribute):
                        self._add(target_expr, write=True)
                    elif isinstance(target_expr, ast.Subscript) and isinstance(
                        target_expr.value, ast.Attribute
                    ):
                        self._add(
                            target_expr.value, write=True, anchor=sub
                        )
            elif isinstance(sub, ast.Attribute) and isinstance(
                sub.ctx, ast.Load
            ):
                self._add(sub, write=False)
        return self._out

    def _add(
        self,
        node: ast.expr,
        write: bool,
        anchor: Optional[ast.AST] = None,
    ) -> None:
        if not isinstance(node, ast.Attribute):
            return
        if id(node) in self._seen:
            return
        self._seen.add(id(node))
        owner = self.typer.class_of(node.value)
        if owner is None:
            return
        self._out.append(
            AttrAccess(
                owner=owner.qualname,
                attr=node.attr,
                node=anchor if anchor is not None else node,
                write=write,
            )
        )


def _contains_await(node: ast.AST) -> bool:
    """True if executing ``node`` suspends (nested defs excluded)."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
            return True
        if (
            isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef))
            and current is not node
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))
    return False
