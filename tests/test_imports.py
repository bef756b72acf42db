"""Every module under src/ and tests/ uses each name it imports, every
private module-level name in src/ is used somewhere in src/, every function
and method in src/ has a reader there (or is exported, or traced by the
benchmark), every exported name is read by the package or the benchmark,
traced, or named in README, and no function of the command-line front end
calls itself."""
import ast
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def exported(tree):
    """The names listed in the module's `__all__`."""
    return {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


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
    used |= exported(tree)
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


def reads(node, classes=frozenset(), names=True):
    """How often each name is read under `node`, as a name or an attribute
    (as an attribute only when `names` is false).  An attribute read as
    `Cls.name`, with Cls one of `classes`, counts as a read of `Cls.name`
    only."""
    def key(n):
        if isinstance(n, ast.Name):
            return n.id
        if isinstance(n.value, ast.Name) and n.value.id in classes:
            return n.value.id + "." + n.attr
        return n.attr
    return Counter(key(n) for n in ast.walk(node)
                   if (names and isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
                   or isinstance(n, ast.Attribute))


def unreferenced_private_names(sources):
    """Module-level `_name` bindings (not dunders) of the given module sources
    that no source reads, as a name or an attribute, outside the binding's
    own statement."""
    trees = [ast.parse(source) for source in sources]
    total = sum(map(reads, trees), Counter())
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
                if (name.startswith("_") and not name.startswith("__")
                        and total[name] <= reads(stmt)[name]):
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


def tracer_targets(source):
    """Attribute names bound by the `targets()` list of the benchmark's
    span tracer, read from its source: entries are (owner, attribute, span
    name, hook) tuples."""
    tree = ast.parse(source)
    [fn] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "targets"]
    [ret] = [n for n in ast.walk(fn) if isinstance(n, ast.Return)]
    return {entry.elts[1].value for entry in ret.value.elts}


def unread_functions(sources, traced=()):
    """Module-level functions and class methods (as `name` or `Class.name`)
    of the given module sources whose name no source reads outside the
    definition itself: as a name or an attribute for a function, as an
    attribute only for a method, since a local variable of the same name
    does not read it.  A read written `Cls.name`, with Cls a class of these
    sources, reads only that class's method.  Dunders, names listed in an
    `__all__` and the `traced` names are exempt."""
    trees = [ast.parse(source) for source in sources]
    classes = {stmt.name for tree in trees for stmt in tree.body if isinstance(stmt, ast.ClassDef)}
    total = sum((reads(tree, classes) for tree in trees), Counter())
    attrs = sum((reads(tree, classes, names=False) for tree in trees), Counter())
    exempt = set(traced).union(*map(exported, trees))
    out = []
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                defs = [("", stmt)]
            elif isinstance(stmt, ast.ClassDef):
                defs = [(stmt.name + ".", d) for d in stmt.body if isinstance(d, ast.FunctionDef)]
            else:
                continue
            for owner, d in defs:
                name = d.name
                keys = {name, owner + name}
                read = attrs if owner else total
                own = reads(d, classes, names=not owner)
                dunder = name.startswith("__") and name.endswith("__")
                if (not dunder and name not in exempt
                        and sum(read[k] for k in keys) <= sum(own[k] for k in keys)):
                    out.append(owner + name)
    return sorted(out)


def test_unread_function_checker():
    source = ("__all__ = ['exported']\n"
              "def exported():\n"
              "    return 0\n"
              "def unread(n):\n"
              "    return unread(n - 1) if n else 0\n"
              "def traced():\n"
              "    return 0\n"
              "def used():\n"
              "    cap = 0\n"
              "    return cap\n"
              "class K:\n"
              "    def __add__(self, other):\n"
              "        return self\n"
              "    def method(self):\n"
              "        return used()\n"
              "    def lonely(self):\n"
              "        return self.method()\n"
              "    def cap(self):\n"
              "        return self\n")
    tracer = ("def targets():\n"
              "    m = object()\n"
              "    return [(m, 'traced', 'm.traced', None)]\n")
    assert tracer_targets(tracer) == {"traced"}
    # a local variable named cap does not read the method K.cap
    assert unread_functions([source]) == ["K.cap", "K.lonely", "traced", "unread"]
    assert unread_functions([source], tracer_targets(tracer)) == ["K.cap", "K.lonely", "unread"]
    # a read written `Cls.name` reads that class's method only
    collision = ("class A:\n"
                 "    @classmethod\n"
                 "    def load(cls):\n"
                 "        return cls()\n"
                 "class B:\n"
                 "    @classmethod\n"
                 "    def load(cls):\n"
                 "        return cls()\n"
                 "def read():\n"
                 "    return A.load()\n")
    assert unread_functions([collision]) == ["B.load", "read"]
    assert unread_functions([collision, "import m\nm.read(object().load)\n"]) == []


def test_every_function_in_src_has_a_reader():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    traced = tracer_targets((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    assert unread_functions(sources, traced) == []


def unbacked_exports(init_source, readers, traced=(), readme=""):
    """Names in the `__all__` of the package's `__init__` source that no
    reader source reads, as a name or an attribute, that are not among the
    `traced` names and that README never names inside inline backticks."""
    read = sum((reads(ast.parse(source)) for source in readers), Counter())
    named = {word for span in re.findall(r"`([^`\n]+)`", readme)
             for word in re.findall(r"[A-Za-z_]\w*", span)}
    return sorted(name for name in exported(ast.parse(init_source))
                  if not read[name] and name not in traced and name not in named)


def test_unbacked_export_checker():
    init = ("from .core import read, attr, traced, documented, bare, loose\n"
            "__all__ = ['read', 'attr', 'traced', 'documented', 'bare', 'loose']\n")
    readers = ["from .core import read\nread()\n", "import pkg\npkg.attr\n"]
    readme = ("Call `documented(x)`.  The bare word loose is not backticked,\n"
              "```python\nbare()\n```\n")
    assert unbacked_exports(init, readers, {"traced"}, readme) == ["bare", "loose"]


def test_every_export_is_read_traced_or_documented():
    readers = [path.read_text(encoding="utf-8") for path in SOURCES
               if path.name != "__init__.py"]
    readers += [path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))]
    traced = tracer_targets((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    init = (ROOT / "src" / "mahler" / "__init__.py").read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unbacked_exports(init, readers, traced, readme) == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(modules):
    """Every attribute of the given modules, and of the classes they define."""
    out = {}
    for mod in modules:
        for key, value in vars(mod).items():
            out[mod.__name__, key] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[mod.__name__, key, attr] = member
    return out


def test_tracer_targets_resolve_and_uninstall_restores_every_binding():
    """The tracer-bound names that the unread-function check exempts exist,
    and tracing leaves no wrapper behind."""
    tracer = _load_tracer()
    targets = tracer.targets()
    for owner, attr, _, _ in targets:
        assert callable(vars(owner).get(attr)), (owner.__name__, attr)
    modules = tracer.mahler_modules()
    before = _bindings(modules)
    t = tracer.Tracer()
    t.install()
    try:
        during = _bindings(modules)
    finally:
        t.uninstall()
    wrapped = {key[-1] for key, value in before.items() if during[key] is not value}
    assert wrapped == {attr for _, attr, _, _ in targets}
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


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


def imports_from(source, module):
    """The names the source imports from the package module `module`,
    relatively or as mahler.<module>; the module itself when it is imported
    whole."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.module in (module, "mahler." + module):
                names |= {alias.name for alias in node.names}
            elif node.module in (None, "mahler"):
                names |= {alias.name for alias in node.names if alias.name == module}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names if alias.name == "mahler." + module}
    return names


def test_hahn_takes_only_lambda_polynomials_from_fields():
    """The Hahn kernel runs over Q; its one parametric numerator is the
    LamPoly of the triangular solve, so RatFun arithmetic stays out of it."""
    assert imports_from("from .fields import RatFun, _poly\nfrom . import fields\n"
                        "import mahler.fields\n", "fields") == {
        "RatFun", "_poly", "fields", "mahler.fields"}
    source = (ROOT / "src" / "mahler" / "hahn.py").read_text(encoding="utf-8")
    assert imports_from(source, "fields") == {"LamPoly", "_lam_poly"}


def lattice_form_uses(source):
    """Lines where the source touches a series' kept lattice form: an
    attribute `_lat` or `_M`, or either name as a string (getattr, setattr)."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in ("_lat", "_M")
                   or isinstance(node, ast.Constant) and node.value in ("_lat", "_M")})


def test_lattice_form_stays_in_the_kernel():
    """Only hahn.py reads or writes the lattice form a series keeps, so no
    other module can build on it or change it."""
    assert lattice_form_uses("M = f._M\nf._lat = None\ngetattr(f, '_lat')\nf.M, f._Mx\n") == [
        1, 2, 3]
    hahn_py = ROOT / "src" / "mahler" / "hahn.py"
    assert lattice_form_uses(hahn_py.read_text(encoding="utf-8"))
    assert {str(path.relative_to(ROOT)): lattice_form_uses(path.read_text(encoding="utf-8"))
            for path in SOURCES if path != hahn_py} == {
        str(path.relative_to(ROOT)): [] for path in SOURCES if path != hahn_py}


def mask_of_readers(source):
    """Functions and methods (as `name` or `Class.name`, a nested function
    counted in the one it is defined in) that read the attribute `_of`, as
    a `Mask._of(...)` call does, or name it in a string; `<body>` (after a
    `Class.` when inside one) for a read outside every function."""
    def reads_of(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "_of"
                   or isinstance(n, ast.Constant) and n.value == "_of" for n in ast.walk(node))
    out = set()

    def visit(body, owner):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                visit(stmt.body, stmt.name + ".")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if reads_of(stmt):
                    out.add(owner + stmt.name)
            elif reads_of(stmt):
                out.add(owner + "<body>")
    visit(ast.parse(source).body, "")
    return sorted(out)


def test_mask_of_checker():
    source = ("class Mask:\n"
              "    @classmethod\n"
              "    def _of(cls, ivs):\n"
              "        return cls()\n"
              "    def copy(self):\n"
              "        return Mask._of(self.ivs)\n"
              "def build(ivs):\n"
              "    def inner():\n"
              "        return getattr(Mask, '_of')(ivs)\n"
              "    return inner()\n"
              "of = Mask._of\n"
              "def other(f):\n"
              "    return Mask(()), f.of\n")
    assert mask_of_readers(source) == ["<body>", "Mask.copy", "build"]


def test_only_the_series_builder_picks_a_mask_head():
    """`Mask._of` trusts its intervals as given, stored head included.
    Only `_series`, the one builder of a canonical series, which picks the
    stored head, and HahnSeries.shift and mal, which move a built mask
    whole, may call it, so that no second builder can come back."""
    allowed = {"_series", "HahnSeries.shift", "HahnSeries.mal"}
    for path in SOURCES:
        readers = set(mask_of_readers(path.read_text(encoding="utf-8")))
        assert readers <= (allowed if path.name == "hahn.py" else set()), (path.name, readers)
        if path.name == "hahn.py":
            assert "_series" in readers


def test_import_loads_no_heavy_standard_modules():
    """`import mahler` in a fresh interpreter adds none of dataclasses,
    inspect, argparse or ast to sys.modules; modules loaded before the
    import (by site) do not count."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import mahler\n"
             "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "mahler.cli" in added
    assert added & {"dataclasses", "inspect", "argparse", "ast"} == set()
