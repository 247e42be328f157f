"""RL002: experiment modules must obey the runner protocol.

``repro-experiments`` discovers experiments through the ``EXPERIMENTS``
registry in ``experiments/__init__.py``, invokes each module's ``run``
with keyword overrides only, threads ``--seed`` into stochastic
experiments, and renders the result through a small protocol. A module
that drifts from any of these conventions fails at dispatch time -- or
worse, silently runs unseeded. This rule checks the contract statically:

- every ``fig*``/``table*``/``ablation*``/``multiflow*`` module in an
  experiments directory appears in the sibling registry;
- a top-level ``def run`` exists and every parameter has a default (the
  runner calls ``run(**overrides)`` with possibly-empty overrides);
- a module that imports the stochastic toolkit
  (``repro.experiments.common`` or ``repro.sim.rng``) must let the
  runner thread the seed: ``run`` accepts ``seed``, ``seeds``, or
  ``**kwargs``;
- the result is renderable: a module-level ``def render`` or a class
  with a ``render`` method.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Optional

from repro.lint.rules.base import FileContext, Rule
from repro.lint.violations import Violation

_EXPERIMENT_STEM = re.compile(r"^(fig|table|ablation|multiflow)")

#: Infrastructure modules an experiments directory may contain that are
#: not themselves experiments.
_NON_EXPERIMENTS = frozenset({"__init__", "__main__", "runner", "cache", "common"})

_STOCHASTIC_IMPORTS = ("repro.experiments.common", "repro.sim.rng")


def _registry_names(init_path: pathlib.Path) -> Optional[frozenset[str]]:
    """Module stems registered in ``EXPERIMENTS`` in ``init_path``.

    Values in the registry are dotted module paths; the stem is the last
    component. Returns None when the file is missing or unparsable, or
    has no ``EXPERIMENTS`` assignment.
    """
    try:
        source = init_path.read_text(encoding="utf-8")
        tree = ast.parse(source)
    except (OSError, SyntaxError):
        return None
    for node in tree.body:
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "EXPERIMENTS":
                if not isinstance(value, ast.Dict):
                    return None
                stems = set()
                for item in value.values:
                    if isinstance(item, ast.Constant) and isinstance(
                        item.value, str
                    ):
                        stems.add(item.value.rsplit(".", 1)[-1])
                return frozenset(stems)
    return None


def _imports_stochastic_toolkit(ctx: FileContext) -> bool:
    for node in ctx.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _STOCHASTIC_IMPORTS:
                    return True
        elif isinstance(node, ast.ImportFrom):
            if node.module in _STOCHASTIC_IMPORTS:
                return True
    return False


def _find_run(tree: ast.Module) -> Optional[ast.FunctionDef]:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "run":
            return node
    return None


def _all_params_defaulted(fn: ast.FunctionDef) -> bool:
    args = fn.args
    positional = args.posonlyargs + args.args
    if len(args.defaults) < len(positional):
        return False
    if len(args.kw_defaults) < len(args.kwonlyargs) or any(
        default is None for default in args.kw_defaults
    ):
        return False
    return True


def _accepts_seed(fn: ast.FunctionDef) -> bool:
    args = fn.args
    if args.kwarg is not None:
        return True
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    return bool(names & {"seed", "seeds"})


def _has_render(tree: ast.Module) -> bool:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "render":
            return True
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "render"
                ):
                    return True
    return False


class ExperimentProtocolRule(Rule):
    code = "RL002"
    title = "experiment protocol"
    rationale = (
        "The runner dispatches through the EXPERIMENTS registry, calls "
        "run(**overrides), threads --seed, and renders results through a "
        "fixed protocol; modules that drift fail at dispatch time or run "
        "unseeded."
    )

    def __init__(self) -> None:
        self._registry_cache: dict[pathlib.Path, Optional[frozenset[str]]] = {}

    def applies_to(self, ctx: FileContext) -> bool:
        return (
            ctx.path.parent.name == "experiments"
            and ctx.stem not in _NON_EXPERIMENTS
            and _EXPERIMENT_STEM.match(ctx.stem) is not None
        )

    def check(self, ctx: FileContext) -> list[Violation]:
        out: list[Violation] = []
        self._check_registered(ctx, out)

        run = _find_run(ctx.tree)
        if run is None:
            out.append(
                ctx.violation(
                    ctx.tree,
                    self.code,
                    "experiment module has no top-level run() entry "
                    "point; the runner cannot dispatch it",
                )
            )
        else:
            if not _all_params_defaulted(run):
                out.append(
                    ctx.violation(
                        run,
                        self.code,
                        "run() has parameters without defaults; the "
                        "runner calls run(**overrides) with possibly "
                        "no overrides",
                    )
                )
            if _imports_stochastic_toolkit(ctx) and not _accepts_seed(run):
                out.append(
                    ctx.violation(
                        run,
                        self.code,
                        "stochastic experiment (imports the seeded "
                        "toolkit) but run() accepts no seed/seeds/"
                        "**kwargs; --seed cannot be threaded through",
                    )
                )

        if not _has_render(ctx.tree):
            out.append(
                ctx.violation(
                    ctx.tree,
                    self.code,
                    "no render protocol: define module-level render() "
                    "or return an object with a .render() method",
                )
            )
        return out

    def _check_registered(self, ctx: FileContext, out: list[Violation]) -> None:
        init_path = ctx.path.parent / "__init__.py"
        if init_path not in self._registry_cache:
            self._registry_cache[init_path] = _registry_names(init_path)
        registered = self._registry_cache[init_path]
        if registered is None:
            out.append(
                ctx.violation(
                    ctx.tree,
                    self.code,
                    "no parsable EXPERIMENTS registry found in sibling "
                    "__init__.py; experiments must be registered",
                )
            )
        elif ctx.stem not in registered:
            out.append(
                ctx.violation(
                    ctx.tree,
                    self.code,
                    f"module '{ctx.stem}' is not registered in "
                    "EXPERIMENTS in its package __init__.py; the "
                    "runner cannot discover it",
                )
            )
