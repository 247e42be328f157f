"""The analyzer's shared traversal: parity, memo lifetime, and a guard.

:func:`repro.lint.walk.walk` must be ``ast.walk`` node for node, in the
same order; :class:`repro.lint.walk.Walker` memoizes scope roots for one
run only; and no module of the analyzer may call ``ast.walk`` again.
"""

import ast
import gc
import pathlib
import weakref

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.lint.cli as cli
from repro.lint import lint_paths
from repro.lint.rules.rl012_numpy import NumpyDisciplineRule
from repro.lint.walk import SCOPE_ROOTS, Walker, walk

REPO = pathlib.Path(__file__).resolve().parents[2]
LINT_PACKAGE = REPO / "src" / "repro" / "lint"


def parsed_modules():
    """Every parseable module under ``src/`` and the lint fixtures."""
    for root in (REPO / "src", REPO / "tests" / "lint" / "fixtures"):
        for path in sorted(root.rglob("*.py")):
            try:
                yield path, ast.parse(path.read_text(encoding="utf-8"))
            except SyntaxError:
                continue  # the RL000 fixtures are meant not to parse


def assert_same_walk(tree):
    for node in ast.walk(tree):
        got = walk(node)
        expected = list(ast.walk(node))
        assert len(got) == len(expected)
        assert all(a is b for a, b in zip(got, expected))


class TestParity:
    def test_every_node_of_every_module(self):
        count = 0
        for _, tree in parsed_modules():
            assert_same_walk(tree)
            count += 1
        assert count > 100

    def test_walker_memoizes_scope_roots_only(self):
        tree = ast.parse(
            "class C:\n"
            "    def f(self):\n"
            "        return [x for x in self.y]\n"
            "async def g():\n"
            "    await h()\n"
        )
        walker = Walker()
        roots = [n for n in ast.walk(tree) if isinstance(n, SCOPE_ROOTS)]
        for node in ast.walk(tree):
            first = walker(node)
            assert list(first) == list(ast.walk(node))
            assert (walker(node) is first) == isinstance(node, SCOPE_ROOTS)
        assert len(walker) == len(roots) == 3
        walker.clear()
        assert len(walker) == 0


NAMES = st.sampled_from(["a", "b", "x", "self"])

EXPRS = st.recursive(
    st.one_of(NAMES, st.integers(0, 9).map(str)),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: f"({t[0]} + {t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"f({t[0]}, k={t[1]})"),
        st.tuples(inner, NAMES).map(lambda t: f"({t[0]}).{t[1]}"),
        st.tuples(inner, NAMES, inner).map(
            lambda t: f"[{t[0]} for {t[1]} in {t[2]} if {t[1]}]"
        ),
        st.tuples(inner, NAMES, inner).map(
            lambda t: f"{{{t[1]}: {t[0]} for {t[1]} in {t[2]}}}"
        ),
        st.tuples(inner, NAMES, inner).map(
            lambda t: f"({t[0]} for {t[1]} in {t[2]})"
        ),
        inner.map(lambda e: f"(lambda a, *b, c=1: {e})"),
    ),
    max_leaves=6,
)

SIMPLE_STATEMENTS = st.one_of(
    st.tuples(NAMES, EXPRS).map(lambda t: [f"{t[0]} = {t[1]}"]),
    EXPRS.map(lambda e: [f"f({e})"]),
    st.just(["pass"]),
)


def _indent(lines):
    return ["    " + line for line in lines]


def _flatten(statements):
    return [line for statement in statements for line in statement]


def _compound(block):
    return st.one_of(
        st.tuples(NAMES, block).map(
            lambda t: [f"def {t[0]}(a, *b, c=1, **d):"] + _indent(t[1])
        ),
        st.tuples(NAMES, block).map(
            lambda t: [f"async def {t[0]}(a):", "    await a"]
            + _indent(t[1])
        ),
        st.tuples(NAMES, block).map(
            lambda t: [f"class {t[0].title()}(Base, metaclass=M):"]
            + _indent(t[1])
        ),
        st.tuples(EXPRS, block, block).map(
            lambda t: [f"if {t[0]}:"] + _indent(t[1]) + ["else:"]
            + _indent(t[2])
        ),
        st.tuples(NAMES, EXPRS, block).map(
            lambda t: [f"for {t[0]} in {t[1]}:"] + _indent(t[2])
        ),
        st.tuples(block, block).map(
            lambda t: ["try:"] + _indent(t[0]) + ["except E as e:"]
            + _indent(t[1])
        ),
    )


BLOCKS = st.recursive(
    st.lists(SIMPLE_STATEMENTS, min_size=1, max_size=3).map(_flatten),
    lambda block: st.lists(
        st.one_of(SIMPLE_STATEMENTS, _compound(block)),
        min_size=1,
        max_size=3,
    ).map(_flatten),
    max_leaves=8,
)


@seed(20_261_018)
@settings(max_examples=150, deadline=None)
@given(BLOCKS)
def test_parity_on_generated_nested_scopes(lines):
    tree = ast.parse("\n".join(lines) + "\n")
    assert_same_walk(tree)
    walker = Walker()
    for node in ast.walk(tree):
        assert list(walker(node)) == list(ast.walk(node))


class RecordingWalker(Walker):
    """A walker that remembers how large its memo grew."""

    def __init__(self, made):
        super().__init__()
        self.peak = 0
        made.append(self)

    def __call__(self, node):
        nodes = super().__call__(node)
        self.peak = max(self.peak, len(self))
        return nodes


def record_run(monkeypatch):
    """Record every walker and every parsed tree of the runs to come."""
    made, trees = [], []
    monkeypatch.setattr(cli, "Walker", lambda: RecordingWalker(made))
    make_entry = cli._make_entry

    def recording(*args):
        entry = make_entry(*args)
        if entry.ctx is not None:
            trees.append(weakref.ref(entry.ctx.tree))
        return entry

    monkeypatch.setattr(cli, "_make_entry", recording)
    return made, trees


def keyed(violations):
    return [(v.path, v.line, v.col, v.code, v.message) for v in violations]


class TestMemoLifetime:
    FIRST = "import numpy as np\nBAD = np.zeros(4)\n"
    SECOND = (
        "import numpy as np\n"
        "\n"
        "\n"
        "def fill(n):\n"
        "    out = np.empty(n)\n"
        "    return out, np.ones(n)\n"
    )

    def assert_dropped(self, made, trees):
        """Every walker of the run was used, then emptied and freed, and
        nothing -- no memo, wherever it lives -- keeps a tree alive."""
        assert made and trees
        assert all(walker.peak > 0 for walker in made)
        assert all(len(walker) == 0 for walker in made)
        refs = [weakref.ref(walker) for walker in made] + trees
        made.clear()
        trees.clear()
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_rerun_after_edit_sees_the_new_tree(self, tmp_path, monkeypatch):
        made, trees = record_run(monkeypatch)
        target = tmp_path / "mod.py"
        target.write_text(self.FIRST)
        first, _ = lint_paths([str(tmp_path)])
        assert [(v.line, v.code) for v in first] == [(2, "RL012")]
        self.assert_dropped(made, trees)

        # The first run's trees are gone, so their ids may be reused.
        target.write_text(self.SECOND)
        second, _ = lint_paths([str(tmp_path)])
        assert [(v.line, v.code) for v in second] == [
            (5, "RL012"),
            (6, "RL012"),
        ]
        self.assert_dropped(made, trees)

    def test_cached_and_cone_runs_match_cold_runs(
        self, tmp_path, monkeypatch
    ):
        made, trees = record_run(monkeypatch)
        proj = tmp_path / "proj"
        proj.mkdir()
        (proj / "a.py").write_text(self.FIRST)
        (proj / "b.py").write_text("def right():\n    return 2\n")
        cache_dir = tmp_path / "cache"
        cold = keyed(lint_paths([str(proj)])[0])
        assert cold
        assert keyed(lint_paths([str(proj)], cache_dir=cache_dir)[0]) == cold
        self.assert_dropped(made, trees)

        # Only b's cone is dirty: flow rules re-run with ``only={"b"}``
        # and a's findings are replayed from the cache.
        seen = []
        original = NumpyDisciplineRule.check_project

        def spy(self, project, only=None):
            seen.append(only)
            return original(self, project, only=only)

        monkeypatch.setattr(NumpyDisciplineRule, "check_project", spy)
        (proj / "b.py").write_text(self.SECOND)
        cone = keyed(lint_paths([str(proj)], cache_dir=cache_dir)[0])
        assert seen == [frozenset({"b"})]
        self.assert_dropped(made, trees)
        assert cone == keyed(lint_paths([str(proj)])[0])
        assert {path.rsplit("/", 1)[-1] for path, *_ in cone} == {
            "a.py",
            "b.py",
        }


def test_no_ast_walk_in_the_analyzer():
    """``ast.walk`` re-walks whole trees per call; the analyzer shares one
    memoized traversal instead."""
    offenders = []
    for path in sorted(LINT_PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in walk(tree):
            called = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "walk"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "ast"
            )
            imported = isinstance(node, ast.ImportFrom) and (
                node.module == "ast"
                and any(alias.name == "walk" for alias in node.names)
            )
            if called or imported:
                rel = path.relative_to(REPO)
                offenders.append(f"{rel}:{node.lineno}")
    assert not offenders, (
        "ast.walk in the analyzer: "
        + ", ".join(offenders)
        + "; traverse with the shared walker instead -- ctx.walk(node) or "
        "project.walk(node) (repro.lint.walk.Walker), or "
        "repro.lint.walk.walk for a context-free expression"
    )
