"""Rule plumbing: per-file context, the rule base class, AST helpers."""

from __future__ import annotations

import abc
import ast
import pathlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar, Iterable, Optional

from repro.lint.violations import Violation
from repro.lint.walk import Walker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.flow.project import Project


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may inspect about one source file.

    ``display_path`` is the path as the user spelled it (relative paths
    stay relative so output is stable across machines); ``path`` is the
    resolved location used for sibling lookups (RL002's registry).

    ``walk`` is the run's shared :class:`~repro.lint.walk.Walker`: rules
    traverse with ``ctx.walk(node)``, never ``ast.walk``. Per-module
    facts (``import_aliases``) are computed once per context.
    """

    path: pathlib.Path
    display_path: str
    source: str
    tree: ast.Module
    walk: Walker = field(default_factory=Walker, compare=False, repr=False)

    @cached_property
    def import_aliases(self) -> dict[str, str]:
        """Map local names to the canonical dotted path they import.

        ``import numpy as np`` maps ``np -> numpy``; ``import
        numpy.random`` maps ``numpy -> numpy``; ``from datetime import
        datetime as dt`` maps ``dt -> datetime.datetime``. Relative
        imports are skipped (the repo uses absolute imports throughout).
        Shared by every caller in the run: treat it as read-only.
        """
        aliases: dict[str, str] = {}
        for node in self.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".", 1)[0]
                        aliases[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    aliases[local] = f"{node.module}.{alias.name}"
        return aliases

    @property
    def stem(self) -> str:
        return self.path.stem

    def dir_parts(self) -> tuple[str, ...]:
        """Directory components of the path (the filename excluded)."""
        return self.path.parent.parts

    def in_dirs(self, names: Iterable[str]) -> bool:
        """Does any directory component match one of ``names``?"""
        wanted = set(names)
        return any(part in wanted for part in self.dir_parts())

    def violation(self, node: ast.AST, code: str, message: str) -> Violation:
        """A violation anchored at ``node``'s location."""
        return Violation(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        )


class Rule(abc.ABC):
    """One named check with a stable code.

    Rules are stateless between runs except for per-run memoization
    (RL002 caches each experiments directory's registry); the CLI builds
    a fresh rule set per invocation via :func:`repro.lint.rules.
    default_rules`.
    """

    code: ClassVar[str]
    title: ClassVar[str]
    rationale: ClassVar[str]

    @abc.abstractmethod
    def applies_to(self, ctx: FileContext) -> bool:
        """Should this rule inspect ``ctx`` at all?"""

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> list[Violation]:
        """All violations of this rule in ``ctx``."""


class FlowRule(Rule):
    """A rule that runs once over the whole-program :class:`Project`.

    Flow rules never run through the per-file ``check`` path -- the CLI
    builds one Project from every parsed file in the run and calls
    :meth:`check_project` once. Findings are still per-file
    :class:`Violation` objects, so suppressions and report formats apply
    unchanged.
    """

    #: Whether per-module findings depend only on the module's import
    #: closure. True for every flow rule except RL010, whose findings in
    #: module B can depend on a *caller* in module A -- outside B's
    #: closure -- so its results are cached under a whole-project key
    #: instead of per-module cones.
    cone_cacheable: ClassVar[bool] = True

    #: Whether findings consume the async fact layer
    #: (:meth:`repro.lint.flow.project.Project.asyncgraph`). Async facts
    #: flow both ways along call edges (a spawner types its target's
    #: context; a callee's blocking site surfaces at the caller), so the
    #: cache keys these rules on the *bidirectional* import closure --
    #: :func:`repro.lint.cache.async_digests` -- instead of the forward
    #: cone alone.
    uses_async_facts: ClassVar[bool] = False

    def applies_to(self, ctx: FileContext) -> bool:
        return False

    def check(self, ctx: FileContext) -> list[Violation]:
        return []

    @abc.abstractmethod
    def check_project(
        self,
        project: "Project",
        only: Optional[frozenset[str]] = None,
    ) -> list[Violation]:
        """All violations of this rule across the project.

        When ``only`` is given, restrict reporting to findings whose
        *attribution module* (the module a finding's path belongs to) is
        in the set -- the incremental cache supplies the dirty cone and
        merges cached findings for the clean remainder.
        """


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def resolve_dotted(node: ast.AST, aliases: dict[str, str]) -> Optional[str]:
    """Canonical dotted path of a Name/Attribute use, through imports.

    ``np.random.rand`` with ``np -> numpy`` resolves to
    ``numpy.random.rand``; a chain whose head is not an imported name
    resolves to None (locals never alias banned modules in this
    analysis -- an accepted imprecision).
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    canonical = aliases.get(head)
    if canonical is None:
        return None
    return f"{canonical}.{rest}" if rest else canonical
