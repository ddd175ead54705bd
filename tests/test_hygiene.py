"""Source hygiene: every name a library module imports is used in it, every
definition in a library module is referenced somewhere in the project, no
library module calls exprkit.simplify, only exprkit calls sympy's trigsimp,
no module outside manifold.py calls the symbolic tensor algebra, and every
default of a library function that a call reaches is set by some call."""

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


def trigsimp_uses(source: str) -> list[int]:
    """Lines that reach sympy's trigsimp: an import of it from a sympy
    module, a call of a name so imported, or a call of any `.trigsimp`
    attribute (the module function or the Expr method)."""
    tree = ast.parse(source)
    names, lines = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy":
            for a in node.names:
                if a.name == "trigsimp":
                    names.add(a.asname or a.name)
                    lines.append(node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "trigsimp") or (
                    isinstance(f, ast.Name) and f.id in names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "exprkit.py"),
                         ids=lambda p: p.name)
def test_no_trigsimp_outside_exprkit(path):
    """trigsimp is for exprkit.simplify, which tests and users call; a library
    construction states its expressions in closed form instead."""
    assert trigsimp_uses(path.read_text()) == []


def test_trigsimp_checker_sees_each_spelling():
    source = ("import sympy as sp\nfrom sympy import trigsimp\n"
              "from sympy.simplify import trigsimp as ts\n"
              "sp.trigsimp(1)\ntrigsimp(1)\nts(1)\nsp.cos(1).trigsimp()\nsp.simplify(1)\n")
    assert trigsimp_uses(source) == [2, 3, 4, 5, 6, 7]
    assert trigsimp_uses((SRC / "exprkit.py").read_text()) != []


SYMBOLIC_ALGEBRA = {"lower_index", "raise_index", "exterior_derivative", "lie_bracket"}


def symbolic_algebra_calls(source: str) -> list[str]:
    """Calls of the symbolic tensor algebra, by name or as an attribute: as
    'line N: caller -> callee', the caller being the enclosing top-level
    function or method, or <module>."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == "<module>":
                inner = child.name
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in SYMBOLIC_ALGEBRA:
                    out.append(f"line {child.lineno}: {owner} -> {name}")
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return out


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "manifold.py"),
                         ids=lambda p: p.name)
def test_checkers_do_no_symbolic_tensor_algebra(path):
    """Outside manifold.py, a check combines evaluated jets in numpy and no
    construction lowers indices or takes d symbolically."""
    assert symbolic_algebra_calls(path.read_text()) == []


def test_symbolic_algebra_checker_sees_each_caller():
    source = ("from .manifold import lower_index\nfrom . import manifold as m\n"
              "def check(X, M):\n    return lower_index(X, M, 0)\n"
              "class C:\n    def run(self, X, Y, M):\n"
              "        return [m.lie_bracket(X, Y, M) for _ in (1,)]\n"
              "def reverse_cone(C):\n    def inner(e, M):\n"
              "        return m.exterior_derivative(e, M)\n    return inner\n"
              "d = m.raise_index(1, 2, 0)\n")
    assert symbolic_algebra_calls(source) == ["line 4: check -> lower_index",
                                              "line 7: run -> lie_bracket",
                                              "line 10: reverse_cone -> exterior_derivative",
                                              "line 12: <module> -> raise_index"]


EXEMPT_DEFAULTS = {"points", "seed", "tol"}     # the signature every check shares


def defaulted_parameters(source: str) -> list[tuple[str, int | None, str]]:
    """(function, position, name) of each parameter with a default: position
    counts the positional parameters a call fills, a method's self not
    counted, and is None for a keyword-only one.  A class's __init__ is
    listed under the class's name, since a call of the class reaches it."""
    out = []

    def add(fn, name, method):
        args = fn.args
        positional = (args.posonlyargs + args.args)[1 if method else 0:]
        first = len(positional) - len(args.defaults)
        out.extend((name, first + i, a.arg) for i, a in enumerate(positional[first:]))
        out.extend((name, None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None)

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = in_class if in_class and child.name == "__init__" else child.name
                add(child, name, bool(in_class))
                visit(child, None)
            else:
                visit(child, child.name if isinstance(child, ast.ClassDef) else None)

    visit(ast.parse(source), None)
    return out


def call_sites(sources: list[str]) -> dict[str, list[tuple[int, set[str], bool]]]:
    """Per called name (a Name, or an Attribute's attr): for each call, the
    number of positional arguments, the keywords, and whether it unpacks
    * or ** arguments."""
    out: dict = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            out.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, starred))
    return out


def unset_defaults(sources: list[str], callers: list[str]) -> list[str]:
    """'function(parameter)' for each defaulted parameter of a function in
    `sources` that some call in `callers` reaches but none passes, by
    keyword, by position or through * or **."""
    calls = call_sites(callers)
    return [f"{fn}({param})" for source in sources
            for fn, position, param in defaulted_parameters(source)
            if fn in calls and param not in EXEMPT_DEFAULTS
            and not any(starred or param in keywords
                        or (position is not None and count > position)
                        for count, keywords, starred in calls[fn])]


def test_every_default_is_set_by_a_caller():
    """A parameter no caller sets is a constant: no option without a caller."""
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    callers = sources + [p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert unset_defaults(sources, callers) == []


def test_default_checker_sees_each_unset_default():
    source = ("def f(a, b=1, *, c=2, tol=0):\n    pass\n"
              "def g(a=1, b=2):\n    pass\n"
              "def unused(a=1):\n    pass\n"
              "class Box:\n    def __init__(self, a, size=1):\n        pass\n"
              "    def read(self, n=0, m=0):\n        pass\n")
    callers = [source, "f(1)\nf(1, c=3)\ng(**kw)\nBox(1)\nbox.read(5)\n"]
    assert unset_defaults([source], callers) == ["f(b)", "Box(size)", "read(m)"]
