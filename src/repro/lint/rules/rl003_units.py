"""RL003: no unit-mixing arithmetic in the core QA math.

The paper's buffer math (Section 4) works in three unit systems at once:
bandwidth in kilobits/s, buffered data in bytes, time in seconds.
``repro.core.units`` provides the conversion helpers (``kbps_to_bytes``,
``ms``, ...) precisely so that conversions happen at construction, not
mid-expression. Adding or comparing a helper-constructed value against a
bare numeric literal is the signature of a units bug (a raw ``1000``
that should have been ``KILOBYTE``, a raw ``0.1`` that should have been
``ms(100)``).

The rule runs a shallow taint pass per expression: a value is *unitful*
if it is a call to a units helper, a reference to ``KILOBYTE``, or an
arithmetic expression containing a unitful operand. An ``Add``/``Sub``
binop or a comparison that mixes a unitful operand with a raw numeric
literal is flagged. Multiplication and division are exempt -- scaling a
unitful value by a dimensionless factor is exactly how the helpers are
meant to be used.

Annotate intentional mixing with ``# repro-lint: disable=RL003`` on the
offending line.
"""

from __future__ import annotations

import ast

from repro.lint.rules.base import FileContext, Rule
from repro.lint.violations import Violation

#: Unit-constructing helpers exported by repro.core.units.
UNIT_HELPERS = frozenset(
    {"kbps_to_bytes", "kBps_to_bytes", "bytes_to_kBps", "ms"}
)
UNIT_CONSTANTS = frozenset({"KILOBYTE"})

#: Core modules always checked, even before they adopt the helpers.
CORE_MATH_STEMS = frozenset({"formulas", "add_drop", "draining", "filling"})

_UNITS_MODULE = "repro.core.units"


def _imports_units(ctx: FileContext) -> bool:
    for node in ctx.walk(ctx.tree):
        if isinstance(node, ast.Import):
            if any(alias.name == _UNITS_MODULE for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == _UNITS_MODULE:
                return True
    return False


def _is_raw_number(node: ast.AST) -> bool:
    """A non-zero bare numeric literal (zero is dimensionless-safe)."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value != 0
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and _is_raw_number(node.operand)
    )


class UnitsDisciplineRule(Rule):
    code = "RL003"
    title = "units discipline"
    rationale = (
        "Buffer math mixes kilobits, bytes and seconds; adding or "
        "comparing a units-helper value against a bare literal is the "
        "signature of a conversion bug."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.stem == "units":
            return False
        if ctx.in_dirs(("core",)) and ctx.stem in CORE_MATH_STEMS:
            return True
        return _imports_units(ctx)

    def check(self, ctx: FileContext) -> list[Violation]:
        aliases = ctx.import_aliases
        unit_names = {
            local
            for local, canonical in aliases.items()
            if canonical.rsplit(".", 1)[-1] in (UNIT_HELPERS | UNIT_CONSTANTS)
            and canonical.startswith(_UNITS_MODULE)
        }
        # Helpers referenced through the module object (units.ms(...))
        # count too; collect module aliases for repro.core.units.
        module_names = {
            local
            for local, canonical in aliases.items()
            if canonical in (_UNITS_MODULE, "repro.core")
        }
        finder = _MixFinder(ctx, self.code, unit_names, module_names)
        finder.visit(ctx.tree)
        return finder.out


class _MixFinder(ast.NodeVisitor):
    def __init__(
        self,
        ctx: FileContext,
        code: str,
        unit_names: set[str],
        module_names: set[str],
    ) -> None:
        self.ctx = ctx
        self.code = code
        self.unit_names = unit_names
        self.module_names = module_names
        self.out: list[Violation] = []

    # ------------------------------------------------------------- taint

    def _is_unitful(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in self.unit_names:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in UNIT_HELPERS
                and isinstance(func.value, ast.Name)
                and func.value.id in self.module_names
            ):
                return True
            return False
        if isinstance(node, ast.Name) and node.id in self.unit_names:
            return True
        if (
            isinstance(node, ast.Attribute)
            and node.attr in UNIT_CONSTANTS
            and isinstance(node.value, ast.Name)
            and node.value.id in self.module_names
        ):
            return True
        if isinstance(node, ast.BinOp):
            return self._is_unitful(node.left) or self._is_unitful(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._is_unitful(node.operand)
        return False

    # ----------------------------------------------------------- visitors

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            pairs = ((node.left, node.right), (node.right, node.left))
            for unitful, other in pairs:
                if self._is_unitful(unitful) and _is_raw_number(other):
                    self.out.append(
                        self.ctx.violation(
                            node,
                            self.code,
                            "adds/subtracts a units-helper value and a "
                            "raw numeric literal; construct the literal "
                            "with the matching repro.core.units helper",
                        )
                    )
                    break
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        has_unitful = any(self._is_unitful(op) for op in operands)
        has_raw = any(_is_raw_number(op) for op in operands)
        if has_unitful and has_raw:
            self.out.append(
                self.ctx.violation(
                    node,
                    self.code,
                    "compares a units-helper value against a raw numeric "
                    "literal; construct the literal with the matching "
                    "repro.core.units helper",
                )
            )
        self.generic_visit(node)
