"""RL004: experiment modules must not import dynamically.

``repro.experiments.cache`` computes each experiment's cache key from a
static AST walk of its ``repro.*`` import closure. A module pulled in
via ``importlib.import_module`` or ``__import__`` never enters that
closure, so edits to it do not change the cache key -- the cache then
serves stale results that no test can distinguish from fresh ones. This
rule bans dynamic-import machinery outright in experiment modules (the
runner and the cache itself, whose dynamic dispatch *is* the mechanism,
are out of scope).
"""

from __future__ import annotations

import ast

from repro.lint.rules.base import FileContext, Rule
from repro.lint.violations import Violation

#: Experiments-package infrastructure allowed to import dynamically.
_EXEMPT_STEMS = frozenset({"__init__", "__main__", "runner", "cache"})


class CacheKeyHygieneRule(Rule):
    code = "RL004"
    title = "cache-key hygiene"
    rationale = (
        "The result cache keys on a static walk of each experiment's "
        "import closure; dynamically imported modules are invisible to "
        "it, so their edits serve stale cached results."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return (
            ctx.path.parent.name == "experiments"
            and ctx.stem not in _EXEMPT_STEMS
        )

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ctx.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".", 1)[0] == "importlib":
                        out.append(self._flag(ctx, node, "importlib"))
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if not node.level and module.split(".", 1)[0] == "importlib":
                    out.append(self._flag(ctx, node, "importlib"))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "__import__"
            ):
                out.append(self._flag(ctx, node, "__import__"))
        return out

    def _flag(self, ctx: FileContext, node: ast.AST, what: str) -> Violation:
        return ctx.violation(
            node,
            self.code,
            f"{what} is invisible to the cache-key source-closure walk "
            "(experiments/cache.py); use a static repro.* import",
        )
