"""Checks on the package source itself: its syntax trees and its public
names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jumpspec"


def unread_parameters(source: str) -> list[str]:
    """``name(param) line N`` for each parameter of a ``def`` that its body
    never reads.

    ``self``, ``cls`` and names starting with ``_`` are exempt. A read in
    a nested function or lambda counts, since closures use their
    enclosing function's parameters. Lambdas are not checked: their
    signature is set by whoever calls them (``lambda t: drift``).
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}({a.arg}) line {node.lineno}" for a in params
                  if a.arg not in ("self", "cls")
                  and not a.arg.startswith("_") and a.arg not in read]
    return found


def test_checker_flags_an_unread_parameter():
    source = ("def f(a, b, *, c, _d, **e):\n"
              "    def g(self, h):\n"
              "        return a\n"
              "    return (lambda x, y: c)(1, 2)\n")
    assert unread_parameters(source) == ["f(b) line 1", "f(e) line 1",
                                         "g(h) line 2"]


def test_every_parameter_is_read():
    found = [f"{path.name}: {hit}" for path in sorted(SRC.glob("*.py"))
             for hit in unread_parameters(path.read_text())]
    assert found == []


def scipy_imports(source: str) -> list[str]:
    """``module line N`` for each import of scipy or of a scipy submodule,
    at any depth (a function body included)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{m} line {node.lineno}" for m in modules
                  if m == "scipy" or m.startswith("scipy.")]
    return found


def test_checker_flags_a_scipy_import():
    source = ("import numpy, scipy\n"
              "from scipy.optimize import least_squares\n"
              "from .scipy_like import x\n"
              "def f():\n"
              "    import scipyx\n"
              "    import scipy.linalg as la\n")
    assert scipy_imports(source) == ["scipy line 1", "scipy.optimize line 2",
                                     "scipy.linalg line 6"]


def test_package_imports_no_scipy():
    """scipy is a test-only dependency: the installed package runs on
    numpy, pyyaml and click alone."""
    found = [f"{path.name}: {hit}" for path in sorted(SRC.glob("*.py"))
             for hit in scipy_imports(path.read_text())]
    assert found == []


def pass_offset_writes(source: str) -> list[str]:
    """``function line N`` for each store to an attribute ``shot_offset``
    and each call argument ``shot_offset=``, named by the innermost
    ``def`` or ``class`` around it (``<module>`` at the top level)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            stored = (isinstance(child, ast.Attribute)
                      and child.attr == "shot_offset"
                      and isinstance(child.ctx, ast.Store))
            passed = (isinstance(child, ast.keyword)
                      and child.arg == "shot_offset")
            if stored or passed:
                found.append(f"{where} line {child.lineno}")
            scope = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            visit(child, child.name if isinstance(child, scope) else where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_flags_a_pass_offset_write():
    source = ("state.shot_offset = 1.0\n"
              "class C:\n"
              "    shot_offset: float = 0.0\n"
              "    def f(self, s):\n"
              "        s.shot_offset += self.shot_offset\n"
              "        def g():\n"
              "            return SystemState(level=0, shot_offset=2.0)\n"
              "        return s.shot_offset\n")
    assert pass_offset_writes(source) == ["<module> line 1", "f line 5",
                                          "g line 7"]


def test_only_the_runner_sets_the_pass_offset():
    """Each pass's static detuning is decided in one place: the runner
    draws it as the pass starts. Tests may still set it directly."""
    found = [f"{path.name}: {hit}" for path in sorted(SRC.glob("*.py"))
             for hit in pass_offset_writes(path.read_text())]
    assert found and all(hit.startswith("sequencer.py: _run line ")
                         for hit in found), found


def test_every_public_name_resolves():
    """``from jumpspec import *`` fetches each name in ``__all__``, so a
    stale export, left by deleting what it named, would break it."""
    import jumpspec
    assert [n for n in jumpspec.__all__ if not hasattr(jumpspec, n)] == []
