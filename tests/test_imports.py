"""Every module under src/ and tests/ uses each name it imports, every
private module-level name in src/ is used somewhere in src/, and no function
of the command-line front end calls itself."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by the module's imports that it never reads and does not
    list in __all__ (`from __future__` imports excepted)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import xml.dom\n"
              "from fractions import Fraction as F, gcd\n"
              "__all__ = ['gcd']\n"
              "def f():\n"
              "    from math import pi\n"
              "    return sys.argv, xml.dom, pi\n")
    assert unused_imports(source) == [(2, "os"), (4, "F")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(sources):
    """Module-level `_name` bindings (not dunders) of the given module sources
    that no source reads, as a name or an attribute, outside the binding's
    own statement."""
    trees = [ast.parse(source) for source in sources]
    reads = {}
    for tree in trees:
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name:
                reads[name] = reads.get(name, 0) + 1
    out = []
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    own = sum(1 for n in ast.walk(stmt)
                              if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                                  and n.id == name)
                              or (isinstance(n, ast.Attribute) and n.attr == name))
                    if reads.get(name, 0) <= own:
                        out.append(name)
    return sorted(out)


def test_private_checker_finds_unreferenced_names():
    source = ("_A, _B = 1, 2\n"
              "__all__ = []\n"
              "def _rec(n):\n"
              "    return _rec(n - 1) if n else _A\n"
              "def _used():\n"
              "    return 0\n"
              "class _K:\n"
              "    pass\n")
    other = "import m\nprint(m._used(), m._K)\n"
    assert unreferenced_private_names([source, other]) == ["_B", "_rec"]


def test_no_unreferenced_private_names_in_src():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unreferenced_private_names(sources) == []


def self_calls(source):
    """Functions and methods (as `name` or `Class.name`) whose body calls
    them by name, as `name(...)` or `self.name(...)`."""
    out = []

    def visit(body, owner):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                visit(stmt.body, stmt.name + ".")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = stmt.name
                calls = [n.func for n in ast.walk(stmt) if isinstance(n, ast.Call)]
                if any((isinstance(f, ast.Name) and not owner and f.id == name)
                       or (isinstance(f, ast.Attribute) and owner and f.attr == name
                           and isinstance(f.value, ast.Name) and f.value.id == "self")
                       for f in calls):
                    out.append(owner + name)
    visit(ast.parse(source).body, "")
    return sorted(out)


def test_self_call_checker_finds_recursion():
    source = ("def fact(n):\n"
              "    return n * fact(n - 1) if n else 1\n"
              "def loop(n):\n"
              "    return [x for x in range(n)]\n"
              "class P:\n"
              "    def expr(self):\n"
              "        return self.atom() + self.expr()\n"
              "    def atom(self):\n"
              "        return atom()\n")
    assert self_calls(source) == ["P.expr", "fact"]


def test_cli_front_end_does_not_recurse():
    source = (ROOT / "src" / "mahler" / "cli.py").read_text(encoding="utf-8")
    assert self_calls(source) == []
