"""Source hygiene: every name a library module imports is used in it, every
definition in a library module is referenced somewhere in the project, and no
library module calls exprkit.simplify."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hiddensym"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads."""
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
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                            key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import pi, tau\n"
                          "print(sys.argv, pi)\n") == ["line 1: os", "line 3: tau"]


def definitions(source: str) -> list[tuple[int, str]]:
    """Top-level functions and classes, and the methods of top-level classes
    whose names are not dunders."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, defs):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend((m.lineno, m.name) for m in node.body if isinstance(m, defs[:2])
                       and not (m.name.startswith("__") and m.name.endswith("__")))
    return out


def references(source: str) -> set[str]:
    """Every name the source reads: as a Name, an Attribute or an import alias."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out |= {node.name.split(".")[-1], node.asname} - {None}
    return out


def unreferenced(source: str, corpus: list[str]) -> list[str]:
    """Definitions in `source` that no source in `corpus` references."""
    used = set().union(*map(references, corpus))
    return [f"line {line}: {name}" for line, name in definitions(source)
            if name not in used]


@pytest.fixture(scope="module")
def project_sources() -> list[str]:
    return [p.read_text() for d in ("src", "tests", "perfbench")
            for p in sorted((ROOT / d).rglob("*.py"))]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unreferenced_definitions(path, project_sources):
    assert unreferenced(path.read_text(), project_sources) == []


def test_reference_checker_sees_an_unreferenced_definition():
    source = ("def used():\n    pass\ndef dead():\n    pass\nclass Box:\n"
              "    def __init__(self):\n        pass\n    def read(self):\n"
              "        pass\n    def stale(self):\n        pass\n"
              "class Unused:\n    pass\n")
    corpus = [source, "from m import used as u\nBox().read()\n"]
    assert unreferenced(source, corpus) == ["line 3: dead", "line 10: stale",
                                            "line 12: Unused"]


def exprkit_simplify_calls(source: str, defines_it: bool = False) -> list[int]:
    """Lines that call exprkit.simplify: by a name imported from exprkit (in
    exprkit itself, by its own name), or as an attribute of the module."""
    tree = ast.parse(source)
    names = {"simplify"} if defines_it else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("exprkit"):
            names |= {a.asname or a.name for a in node.names if a.name == "simplify"}
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for a in node.names if a.name.endswith("exprkit")}
    def is_simplify(f):
        if isinstance(f, ast.Name):
            return f.id in names
        if not (isinstance(f, ast.Attribute) and f.attr == "simplify"):
            return False
        owner = ast.unparse(f.value)
        return owner in modules or owner.endswith("exprkit")

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and is_simplify(node.func)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_exprkit_simplify_call(path):
    """Simplification is for tests and the user: a check path never pays it."""
    assert exprkit_simplify_calls(path.read_text(), path.name == "exprkit.py") == []


def test_simplify_checker_sees_each_spelling():
    source = ("import sympy as sp\nfrom . import exprkit\nfrom .exprkit import simplify as s\n"
              "import hiddensym.exprkit as ek\n"
              "sp.simplify(1)\nexprkit.simplify(1)\ns(1)\nek.simplify(1)\n"
              "hiddensym.exprkit.simplify(1)\n")
    assert exprkit_simplify_calls(source) == [6, 7, 8, 9]
    assert exprkit_simplify_calls("def simplify(e):\n    return e\nsimplify(1)\n",
                                  defines_it=True) == [3]
