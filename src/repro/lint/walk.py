"""The analyzer's one tree traversal: ``ast.walk`` as a flat list.

``ast.walk`` is a generator over ``iter_child_nodes`` over
``iter_fields``: three Python frames per node. The rules and the flow
layer ask for the same subtrees many times over (a module for each
import-level question, a function body for the call graph, the async
graph and several rules), so the traversal dominates a cold lint unless
it is cheap and shared.

:func:`walk` builds the same nodes, in the same breadth-first order, in
one loop over one list. :class:`Walker` adds a memo for scope roots
(modules and function definitions) that lives exactly as long as one
analysis run: the run creates it, every
:class:`~repro.lint.rules.base.FileContext` and the
:class:`~repro.lint.flow.project.Project` of that run share it, and the
run clears it when it returns. The memo is never module-global, so it
cannot outlive the trees it indexes, and it holds its roots strongly, so
an ``id`` can never be recycled under it. Memoized walks are tuples:
every caller in the run shares them, so they must not be mutable.
"""

from __future__ import annotations

import ast
from typing import Sequence

#: Roots whose walks are memoized: the scopes rules and the flow layer
#: revisit. Expressions and statements are walked fresh -- they are
#: small, and a memo of every root costs far more memory than it saves.
SCOPE_ROOTS = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)

_AST = ast.AST


def walk(node: ast.AST) -> list[ast.AST]:
    """``list(ast.walk(node))``, without a generator frame per node."""
    nodes = [node]
    append = nodes.append
    # Appending while iterating is well-defined for lists: the iterator
    # re-reads the length each step, so this is the breadth-first queue.
    for current in nodes:
        for name in current._fields:
            value = getattr(current, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, _AST):
                        append(item)
            elif isinstance(value, _AST):
                append(value)
    return nodes


class Walker:
    """:func:`walk` with a memo of scope roots, scoped to one run."""

    __slots__ = ("_memo",)

    def __init__(self) -> None:
        self._memo: dict[ast.AST, tuple[ast.AST, ...]] = {}

    def __call__(self, node: ast.AST) -> Sequence[ast.AST]:
        if not isinstance(node, SCOPE_ROOTS):
            return walk(node)
        nodes = self._memo.get(node)
        if nodes is None:
            nodes = self._memo[node] = tuple(walk(node))
        return nodes

    def __len__(self) -> int:
        return len(self._memo)

    def clear(self) -> None:
        """Drop every memoized walk (the run is over)."""
        self._memo.clear()
