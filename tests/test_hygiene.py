"""Source hygiene: every name a library module imports is used in it, every
definition in a library module is referenced by the library or the benchmark
(tests alone do not count; a module-level function only by a reference that
can resolve to it), no library module calls exprkit.simplify, only
exprkit calls sympy's trigsimp, no library module calls sympy's lambdify, no
module outside manifold.py calls the symbolic tensor algebra, every default
of a library function or dataclass that a call reaches is set by some call,
no library module imports sympy at its module level, neither the library's
import nor any command but the emitted symbolic components nor a tensor-suite
benchmark pass loads sympy, no library module imports the CLI, a command
loads only the library modules it runs, only exprkit.run_source runs code
from text, every exception class of the library derives from
hiddensym.InputError, only cli.main prints, after every output is
formatted, and only the derived-kind table spells a derived target's prefix."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from hiddensym import InputError, cli
from hiddensym.document import DERIVED

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


def references(source: str, strings: bool = False) -> set[str]:
    """Every name the source reads: as a Name, an Attribute or an import
    alias, and with `strings` every identifier in a string constant."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out |= {node.name.split(".")[-1], node.asname} - {None}
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out |= set(re.findall(r"[^\W\d]\w*", node.value))
    return out


def _last(node) -> str | None:
    """The last name of a dotted expression: m of m, and of pkg.m."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def function_references(source: str, module: str) -> set[str]:
    """The names the source reads that can resolve to a module-level
    function of `module`: an import of the name from it, or an attribute of
    it, by its own name or an alias an import binds to it."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    aliases = {module} | {a.asname for node in imports for a in node.names
                          if a.asname and a.name.split(".")[-1] == module}
    out = {a.name for node in imports if isinstance(node, ast.ImportFrom)
           and (node.module or "").split(".")[-1] == module for a in node.names}
    return out | {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _last(node.value) in aliases}


def unreferenced(source: str, corpus: list[str], by_name: list[str] = (),
                 module: str | None = None) -> list[str]:
    """Definitions in `source` that no source in `corpus` references, nor
    any source in `by_name`, whose string constants count as references.
    Given the source's module name, a module-level function counts only
    references that can resolve to it: a use in the source itself, an
    import of it or an attribute of its module (function_references), or
    a string in `by_name` that is its name, as a tracer wraps it by name."""
    used = set().union(*map(references, corpus), *(references(s, True) for s in by_name))
    functions = set()
    if module is not None:
        functions = {(node.lineno, node.name) for node in ast.parse(source).body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        resolved = set().union(
            {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)},
            *(function_references(s, module) for s in [*corpus, *by_name]),
            *({node.value for node in ast.walk(ast.parse(s)) if isinstance(node, ast.Constant)
               and isinstance(node.value, str) and node.value.isidentifier()} for s in by_name))
    return [f"line {line}: {name}" for line, name in definitions(source)
            if name not in (resolved if (line, name) in functions else used)]


@pytest.fixture(scope="module")
def library_sources() -> tuple[list[str], list[str]]:
    """src/, and perfbench/, whose tracer wraps library functions by name."""
    return tuple([p.read_text() for p in sorted((ROOT / d).rglob("*.py"))]
                 for d in ("src", "perfbench"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unreferenced_definitions(path, library_sources):
    """A definition only the tests reach belongs in tests/, as their oracle."""
    assert unreferenced(path.read_text(), *library_sources, module=path.stem) == []


def test_reference_checker_sees_an_unreferenced_definition():
    source = ("def used():\n    pass\ndef dead():\n    pass\nclass Box:\n"
              "    def __init__(self):\n        pass\n    def read(self):\n"
              "        pass\n    def stale(self):\n        pass\n"
              "class Unused:\n    pass\n"
              "def traced():\n    pass\ndef oracle():\n    pass\n")
    corpus = [source, "from m import used as u\nBox().read()\n"]
    tracer = "wrap(m, 'traced', 'm.traced')\n"
    dead = ["line 3: dead", "line 10: stale", "line 12: Unused"]
    assert unreferenced(source, corpus, [tracer]) == dead + ["line 16: oracle"]
    # a string constant counts only where functions are wrapped by name
    assert unreferenced(source, corpus + [tracer]) == dead + ["line 14: traced",
                                                             "line 16: oracle"]


def test_reference_checker_resolves_module_functions():
    """A module-level function counts only references that can reach it: a
    catalog.names() reached only as exprkit.names(...), a same-named
    function of another module, fails; an import or an attribute of its
    module, under any alias, passes."""
    source = "def names():\n    return []\nclass Entry:\n    def names(self):\n        pass\n"
    other = ("from . import exprkit\nexprkit.names(roots)\nfrom .exprkit import names\n"
             "Entry().names()\n")
    assert unreferenced(source, [source, other], module="catalog") == ["line 1: names"]
    assert unreferenced(source, [source, other]) == []
    for reaching in ("from . import catalog\ncatalog.names()\n",
                     "from .catalog import names as entry_names\n",
                     "import hiddensym.catalog as c\nc.names()\n",
                     "import hiddensym.catalog\nhiddensym.catalog.names()\n"):
        assert unreferenced(source, [source, other, reaching], module="catalog") == []
    used_here = source + "NAMES = names()\n"
    assert unreferenced(used_here, [used_here, other], module="catalog") == []
    assert unreferenced(source, [source, other], ["wrap(catalog, 'names')\n"],
                        module="catalog") == []
    prose = ["def f(names):\n    '''Wraps names.'''\n    return names\n"]
    assert unreferenced(source, [source, other], prose, module="catalog") == ["line 1: names"]


def test_reference_checker_reads_the_library_not_the_tests(library_sources):
    """Planted in the real corpus: a definition that only tests call (the
    symbolic Lie bracket, now their oracle) fails; one that the library
    calls passes."""
    planted = "def lie_bracket(X, Y, M):\n    pass\ndef christoffel(self):\n    pass\n"
    assert unreferenced(planted, *library_sources) == ["line 1: lie_bracket"]


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


def sympy_uses(source: str, name: str) -> list[int]:
    """Lines that reach sympy's function `name`: an import of it from a sympy
    module, a call of a name so imported, or a call of any attribute so
    named (the module function or an Expr method)."""
    tree = ast.parse(source)
    names, lines = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy":
            for a in node.names:
                if a.name == name:
                    names.add(a.asname or a.name)
                    lines.append(node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == name) or (
                    isinstance(f, ast.Name) and f.id in names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "exprkit.py"),
                         ids=lambda p: p.name)
def test_no_trigsimp_outside_exprkit(path):
    """trigsimp is for exprkit.simplify, which tests and users call; a library
    construction states its expressions in closed form instead."""
    assert sympy_uses(path.read_text(), "trigsimp") == []


def test_trigsimp_checker_sees_each_spelling():
    source = ("import sympy as sp\nfrom sympy import trigsimp\n"
              "from sympy.simplify import trigsimp as ts\n"
              "sp.trigsimp(1)\ntrigsimp(1)\nts(1)\nsp.cos(1).trigsimp()\nsp.simplify(1)\n")
    assert sympy_uses(source, "trigsimp") == [2, 3, 4, 5, 6, 7]
    assert sympy_uses((SRC / "exprkit.py").read_text(), "trigsimp") != []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_lambdify(path):
    """The library compiles one way, exprkit.compiled_function of its own
    trees; sympy's lambdify is for the tests' old-path references."""
    assert sympy_uses(path.read_text(), "lambdify") == []


def test_lambdify_checker_sees_each_spelling():
    source = ("import sympy as sp\nimport sympy\nfrom sympy import lambdify\n"
              "from sympy.utilities.lambdify import lambdify as compile_text\n"
              "sp.lambdify([], 1)\nsympy.lambdify([], 1)\nlambdify([], 1)\n"
              "compile_text([], 1)\nsp.sympify(1)\n")
    assert sympy_uses(source, "lambdify") == [3, 4, 5, 6, 7, 8]


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


CODE_FROM_TEXT = {"exec", "compile", "eval"}


def code_from_text(source: str) -> list[str]:
    """'line N: owner -> name' for each use of a builtin that compiles or
    runs source text, the owner being the enclosing top-level function or
    method, or <module>: the bare name, called or not; an attribute of the
    builtins module (under any alias) or of __builtins__; a name imported
    from builtins; or the name as a string given to getattr or a subscript."""
    tree = ast.parse(source)
    modules = {"builtins", "__builtins__"} | {
        a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "builtins"}
    out = []

    def named(node):
        return isinstance(node, ast.Constant) and node.value in CODE_FROM_TEXT

    def use(node):
        if isinstance(node, ast.Name) and node.id in CODE_FROM_TEXT:
            return node.id
        if (isinstance(node, ast.Attribute) and node.attr in CODE_FROM_TEXT
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            return node.attr
        if isinstance(node, ast.ImportFrom) and node.module == "builtins":
            return next((a.name for a in node.names if a.name in CODE_FROM_TEXT), None)
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                and any(named(a) for a in node.args)):
            return next(a.value for a in node.args if named(a))
        if isinstance(node, ast.Subscript) and named(node.slice):
            return node.slice.value
        return None

    def visit(node, owner, in_class):
        for child in ast.iter_child_nodes(node):
            inner, cls = owner, in_class
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if owner == "<module>" or in_class:
                    inner = child.name
                cls = False
            elif isinstance(child, ast.ClassDef):
                cls = owner == "<module>"
            if (name := use(child)) is not None:
                out.append(f"line {child.lineno}: {owner} -> {name}")
            visit(child, inner, cls)

    visit(tree, "<module>", False)
    return out


def test_only_the_rk4_loop_builder_runs_code_from_text():
    """exprkit.run_source is the one place that compiles and runs text: the
    RK4 loop geodesic generates and the code exprkit generates from trees
    both go through it; no other library code compiles or runs text."""
    uses = {p.name: code_from_text(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    found = uses.pop("exprkit.py")
    assert {u.split(": ")[1] for u in found} == {"run_source -> exec", "run_source -> compile"}
    assert {name: found for name, found in uses.items() if found} == {}


def test_code_from_text_checker_sees_each_spelling():
    source = ("import builtins\nimport builtins as b\nimport re\n"
              "from builtins import compile as build\n"
              "exec('x = 1')\n"
              "def f(text):\n    return eval(text)\n"
              "class C:\n    def run(self, text):\n"
              "        return builtins.exec(text)\n"
              "    def build(self, text):\n        return b.compile(text, 't', 'exec')\n"
              "run = exec\n"
              "g = getattr(builtins, 'eval')\n"
              "h = __builtins__['exec']\n"
              "k = __builtins__.compile\n"
              "pattern = re.compile('x')\n"
              "def outer():\n    def inner(t):\n        return compile(t, 'f', 'exec')\n"
              "    return inner\n")
    assert code_from_text(source) == [
        "line 4: <module> -> compile", "line 5: <module> -> exec", "line 7: f -> eval",
        "line 10: run -> exec", "line 12: build -> compile", "line 13: <module> -> exec",
        "line 14: <module> -> eval", "line 15: <module> -> exec",
        "line 16: <module> -> compile", "line 20: outer -> compile"]


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
                if isinstance(child, ast.ClassDef) and is_dataclass(child):
                    out.extend((child.name, position, name)
                               for position, name, default in dataclass_fields(child) if default)
                visit(child, child.name if isinstance(child, ast.ClassDef) else None)

    visit(ast.parse(source), None)
    return out


def is_dataclass(cls: ast.ClassDef) -> bool:
    """Whether a dataclass decorator, called or not, decorates the class."""
    return any(_last(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def dataclass_fields(cls: ast.ClassDef) -> list[tuple[int, str, bool]]:
    """(position, name, has a default) of each parameter of a dataclass's
    generated __init__: its annotated fields in order, but not a
    field(init=False, ...); a field(...) without default or default_factory
    has none."""
    out = []
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        call = node.value if (isinstance(node.value, ast.Call)
                              and _last(node.value.func) == "field") else None
        keywords = {k.arg: k.value for k in call.keywords} if call else {}
        if getattr(keywords.get("init"), "value", True) is False:
            continue
        default = call is not None and bool({"default", "default_factory"} & set(keywords))
        out.append((len(out), node.target.id, default or (call is None and node.value is not None)))
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
    """A parameter or dataclass field no caller sets is a constant: no
    option without a caller."""
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


def test_default_checker_sees_dataclass_fields():
    """A dataclass field with a default is a parameter of the class's call:
    one no call sets fails, by position or keyword; a field(init=False, ...),
    which the caller cannot set, and a class attribute are not parameters."""
    source = ("from dataclasses import dataclass, field\n"
              "@dataclass(frozen=True)\nclass Spec:\n    kind: str\n"
              "    payload: object = None\n    sign: int = -1\n"
              "    cache: dict = field(init=False, default_factory=dict)\n"
              "    extra: dict = field(default_factory=dict)\n    needed: int = field()\n"
              "    rank = 2\n"
              "@dataclasses.dataclass\nclass Plain:\n    size: int = 1\n"
              "class NotData:\n    size: int = 1\n")
    callers = [source, "Spec('a', p)\nSpec('b', extra={}, needed=1)\nPlain()\nNotData()\n"]
    assert unset_defaults([source], callers) == ["Spec(sign)", "Plain(size)"]
    callers.append("Spec('c', None, 1)\n")
    assert unset_defaults([source], callers) == ["Plain(size)"]


def imported_modules(source: str, package: str, whole: bool) -> list[tuple[int, str]]:
    """(line, dotted module) for each import in `source`: at the module level
    (class bodies included), or anywhere with `whole`.  A relative import is
    resolved in `package`; a name imported from a module counts as a
    submodule of it too; importlib.import_module and __import__ of a
    constant count as imports."""
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                out.extend((child.lineno, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module != "__future__":
                base = package if child.level else ""
                base = ".".join(p for p in (base, child.module) if p)
                out.append((child.lineno, base))
                out.extend((child.lineno, f"{base}.{a.name}") for a in child.names)
            elif (isinstance(child, ast.Call) and child.args
                  and isinstance(child.args[0], ast.Constant)
                  and getattr(child.func, "id", getattr(child.func, "attr", None))
                  in ("import_module", "__import__")):
                out.append((child.lineno, child.args[0].value))
            if whole or not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                               ast.Lambda)):
                visit(child)

    visit(ast.parse(source))
    return out


def cli_imports(source: str) -> list[int]:
    """Lines that import hiddensym.cli, or a name from it, anywhere."""
    return sorted({line for line, m in imported_modules(source, "hiddensym", True)
                   if m.startswith("hiddensym.cli.") or m == "hiddensym.cli"})


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_library_does_not_import_the_cli(path):
    """The front end imports the library, never the reverse: under `python -m
    hiddensym.cli` an import of hiddensym.cli runs a second copy of it, with
    its own FileFormatError that the running copy does not catch."""
    assert cli_imports(path.read_text()) == []


def test_cli_import_checker_sees_each_spelling():
    source = ("from .cli import ingest\nfrom . import algebra, cli\nimport hiddensym.cli\n"
              "from hiddensym.cli import main as m\ndef f():\n    from . import cli as c\n"
              "importlib.import_module('hiddensym.cli')\nfrom .clifford import x\n"
              "from . import client\nimport hiddensym.clip\n")
    assert cli_imports(source) == [1, 2, 3, 4, 6, 7]
    assert cli_imports((SRC / "cli.py").read_text()) == []


def sympy_based_modules() -> set[str]:
    """The hiddensym modules whose import loads sympy: those importing sympy,
    or such a module, at their module level."""
    imports = {p.stem: {m for _, m in imported_modules(p.read_text(), "hiddensym", False)}
               for p in SRC.glob("*.py")}
    based: set[str] = set()
    while True:
        more = {name for name, mods in imports.items()
                if any(m.split(".")[0] == "sympy" or m in {f"hiddensym.{b}" for b in based}
                       for m in mods)}
        if more <= based:
            return based
        based |= more


def sympy_imports(source: str, whole: bool, based: set[str]) -> list[str]:
    """'line N: module' for each import of sympy or of a sympy-based
    hiddensym module."""
    loaders = {f"hiddensym.{b}" for b in based}
    return [f"line {line}: {m}" for line, m in imported_modules(source, "hiddensym", whole)
            if m.split(".")[0] == "sympy" or m in loaders]


def test_sympy_based_modules():
    """No library module imports sympy at its module level; every use
    imports it where it derives."""
    assert sympy_based_modules() == set()


@pytest.mark.parametrize("name, whole", [("algebra.py", True), ("cli.py", False)])
def test_algebra_path_imports_no_sympy(name, whole):
    """The exact algebra is plain Python, and the CLI imports the sympy-based
    modules in the handlers that use them, so `hiddensym algebra ...` never
    loads sympy."""
    assert sympy_imports((SRC / name).read_text(), whole, sympy_based_modules()) == []


def test_sympy_import_checker_sees_each_spelling():
    source = ("import sympy\nimport sympy.core as c\nfrom sympy import QQ_I\n"
              "from . import algebra, catalog\nfrom .manifold import Chart\n"
              "from hiddensym import spin\nimport hiddensym.killing\n"
              "from hiddensym.exprkit import parse\nimport numpy as np\n"
              "class C:\n    from sympy import Rational\n"
              "sp = importlib.import_module('sympy')\n"
              "def handler():\n    from . import sasaki\n    import sympy as sp\n"
              "f = lambda: __import__('sympy')\n")
    based = {"catalog", "manifold", "spin", "killing", "exprkit", "sasaki"}
    module_level = ["line 1: sympy", "line 2: sympy.core", "line 3: sympy",
                    "line 3: sympy.QQ_I", "line 4: hiddensym.catalog",
                    "line 5: hiddensym.manifold", "line 6: hiddensym.spin",
                    "line 7: hiddensym.killing", "line 8: hiddensym.exprkit",
                    "line 11: sympy", "line 11: sympy.Rational", "line 12: sympy"]
    assert sympy_imports(source, False, based) == module_level
    assert sympy_imports(source, True, based) == module_level[:-1] + [
        "line 12: sympy", "line 14: hiddensym.sasaki", "line 15: sympy", "line 16: sympy"]


def _loaded_after(argv, cwd, modules=("sympy",)) -> tuple[str, str]:
    """Runs the command as `python -m hiddensym.cli` does; returns its stdout
    and 'exit N, loaded: [...]', the modules of `modules` that were loaded
    when the command ended.  The command runs as __main__, so hiddensym.cli
    is among them only if something imported it a second time."""
    script = ("import runpy, sys\n"
              "names, sys.argv = sys.argv[1].split(','), ['hiddensym', *sys.argv[2:]]\n"
              "try:\n    runpy.run_module('hiddensym.cli', run_name='__main__', alter_sys=True)\n"
              "except SystemExit as exc:\n    code = exc.code\n"
              "sys.stderr.write(f'exit {code}, loaded: {[n for n in names if n in sys.modules]}')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script, ",".join(modules), *argv], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return done.stdout, done.stderr


@pytest.mark.parametrize("argv", [["table", "--cutoff", "2"], ["jacobi", "--cutoff", "3"]],
                         ids=["table", "jacobi"])
def test_algebra_commands_do_not_load_sympy(argv, tmp_path):
    """The algebra commands load no sympy.  They do load numpy, through the
    document reader the CLI imports: without it `algebra table` ends within
    the benchmark's 40 ms host-speed probe interval, which it cannot time."""
    out, status = _loaded_after(["algebra", *argv], tmp_path, ("sympy", "numpy"))
    assert status == "exit 0, loaded: ['numpy']"
    assert json.loads(out.splitlines()[0])


def test_tensor_suite_pass_loads_no_sympy():
    """A tensor-suite benchmark pass at seed 0, set up and run as perfbench's
    worker runs it but without the worker's version report, passes every
    operation and never loads sympy.  No bytecode is written."""
    script = ("import json, sys\nsys.path[:0] = sys.argv[1:]\nimport workloads\n"
              "workloads.import_library('tensor-suite')\n"
              "env = workloads.build('tensor-suite')\nrec = workloads.Recorder()\n"
              "workloads.tensor_suite(rec, env, 0)\n"
              "print(json.dumps({'ops': rec.ops, 'sympy': 'sympy' in sys.modules}))\n")
    done = subprocess.run([sys.executable, "-B", "-c", script, str(ROOT / "perfbench"),
                           str(ROOT / "src")], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["ops"] and [op for op in result["ops"] if op["problems"]] == []
    assert result["sympy"] is False


TAUB_NUT = ["--catalog", "taub-nut"]
POINTS = ["--points", "3"]
ORBIT = ["--position", "r=2,theta=1.5,phi=0.5,chi=6",
         "--velocity", "r=-0.5,theta=0.02,phi=0.2,chi=0.1", "--t1", "0.01"]


@pytest.mark.parametrize("argv, loaded", [
    (["check", "killing-vector", *TAUB_NUT, "--target", "k1"], False),
    (["check", "ky", "--manifold", "taub-nut.json", "--target", "f1", *POINTS], False),
    (["spin", "anticommute", *TAUB_NUT, "--target", "f1", *POINTS, "--bank", "1"], False),
    (["sasaki", "verify", "--catalog", "pseudo-sphere", *POINTS], False),
    (["catalog", "export", *TAUB_NUT], False),
    (["geodesic", "run", *TAUB_NUT, *ORBIT], False),
    (["geodesic", "run", *TAUB_NUT, *ORBIT, "--method", "rk45"], False),
    (["geodesic", "run", "--manifold", "taub-nut.json", *ORBIT], False),
    (["construct", "assoc-sk", *TAUB_NUT, "--target", "fY", *POINTS, "--emit-components"],
     True),
], ids=["check", "check-manifold", "spin", "sasaki", "export", "geodesic", "geodesic-rk45",
        "geodesic-manifold", "construct"])
def test_only_symbolic_derivations_load_sympy(argv, loaded, tmp_path):
    """The checks, the spin and Sasaki suites, the export and the geodesic
    runs read their expressions as trees and run generated code; only the
    emitted symbolic components load sympy."""
    out, _ = _loaded_after(["catalog", "export", *TAUB_NUT], tmp_path)
    (tmp_path / "taub-nut.json").write_text(out)
    out, status = _loaded_after(argv, tmp_path)
    assert status == f"exit 0, loaded: {['sympy'] if loaded else []}"
    assert json.loads(out.splitlines()[0])


@pytest.mark.parametrize("argv, loaded", [
    (["check", "killing-vector", *TAUB_NUT, "--target", "k1"], []),
    (["sasaki", "verify", "--catalog", "pseudo-sphere", *POINTS], ["hiddensym.sasaki"]),
], ids=["check", "sasaki"])
def test_commands_load_only_the_modules_they_run(argv, loaded, tmp_path):
    """A Taub-NUT check loads neither the exact algebra nor the mixed
    3-structures, and no second copy of the CLI; a Sasaki suite loads its
    module."""
    out, status = _loaded_after(argv, tmp_path,
                                ("hiddensym.cli", "hiddensym.algebra", "hiddensym.sasaki"))
    assert status == f"exit 0, loaded: {loaded}"
    assert json.loads(out.splitlines()[0])


def test_library_import_does_not_load_sympy():
    """The modules every benchmarked pass imports load no sympy."""
    script = ("import sys\nfrom hiddensym import catalog, geodesic, killing, sasaki, spin\n"
              "sys.stderr.write(f'sympy loaded: {\"sympy\" in sys.modules}')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stderr == "sympy loaded: False"


def stray_exceptions(module) -> list[str]:
    """The exception classes the module defines that do not derive from
    hiddensym.InputError, the one base the CLI refuses with exit 2."""
    return [name for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, BaseException)
            and value.__module__ == module.__name__ and not issubclass(value, InputError)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exception_is_an_input_error(path):
    """A refusal is an InputError, whatever module raises it; an exception
    of another class is an internal error (exit 3)."""
    name = "hiddensym" if path.stem == "__init__" else f"hiddensym.{path.stem}"
    assert stray_exceptions(importlib.import_module(name)) == []


def test_exception_checker_sees_each_stray_class():
    planted = types.ModuleType("planted")
    exec("from hiddensym import InputError\n"
         "from hiddensym.manifold import GeometryError\n"
         "class Refusal(InputError):\n    pass\n"
         "class Stray(Exception):\n    pass\n"
         "class StrayChild(Stray):\n    pass\n"
         "class Warned(UserWarning):\n    pass\n"
         "class Plain:\n    pass\n"
         "Lookup = KeyError\n", vars(planted))
    assert stray_exceptions(planted) == ["Stray", "StrayChild", "Warned"]


def printers(source: str) -> list[str]:
    """'line N: owner' for each print, sys.stdout and sys.stderr in the
    source, owner the top-level function or class around it."""
    out = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        out.extend(f"line {node.lineno}: {owner}" for node in ast.walk(top)
                   if isinstance(node, ast.Name) and node.id == "print"
                   or isinstance(node, ast.Attribute) and node.attr in ("print", "stdout",
                                                                        "stderr"))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_cli_main_prints(path):
    """The handlers return their outputs and the library returns values;
    cli.main alone writes to stdout and stderr."""
    owners = {line.split(": ")[1] for line in printers(path.read_text())}
    assert owners == ({"main"} if path.name == "cli.py" else set())


def test_print_checker_sees_each_spelling():
    source = ("import builtins, sys\n"
              "print('module')\n"
              "def _cmd_check(args):\n    print(args)\n"
              "def _write(text):\n    sys.stdout.write(text)\n"
              "def helper():\n    def inner():\n        builtins.print(1)\n    return inner\n"
              "class Report:\n    def show(self):\n        emit = print\n"
              "def warn():\n    sys.stderr.write('x')\n"
              "def main():\n    print('fine')\n")
    assert printers(source) == ["line 2: <module>", "line 4: _cmd_check", "line 6: _write",
                                "line 9: helper", "line 13: Report", "line 15: warn",
                                "line 17: main"]


def _main_with_handler(monkeypatch, capsys, handler) -> tuple[int, str, str]:
    """cli.main on a command whose handler is replaced: exit code, stdout, stderr."""
    monkeypatch.setattr(cli, "_cmd_algebra", handler)
    code = cli.main(["algebra", "table"])
    return (code, *capsys.readouterr())


def _raise(exc):
    raise exc


@pytest.mark.parametrize("handler, want", [
    (lambda args: [({"b": 1.5, "a": None}, True), ({"c": [1]}, False)],
     (1, '{"a":null,"b":1.5}\n{"c":[1]}\n', "")),
    (lambda args: [({"first": 1.0}, True), ({"second": float("nan")}, True)],
     (3, "", "internal error: ValueError: Out of range float values are not JSON compliant\n")),
    (lambda args: _raise(InputError("refused")), (2, "", "error: refused\n")),
    (lambda args: _raise(KeyError("name")), (3, "", "internal error: KeyError: 'name'\n")),
], ids=["printed", "unformattable-second", "input-error", "key-error"])
def test_main_prints_only_formed_outputs(monkeypatch, capsys, handler, want):
    """main formats every output before it prints any, so an output that is
    not strict JSON exits 3 with nothing on stdout; InputError alone exits 2."""
    assert _main_with_handler(monkeypatch, capsys, handler) == want


def test_planted_eager_print_is_seen(monkeypatch, capsys):
    """A handler that prints its first output itself leaves it on stdout
    before the exit 3, and the test above would fail on it."""
    def eager(args):
        print(json.dumps({"first": 1.0}, separators=(",", ":")))
        return [({"first": 1.0}, True), ({"second": float("nan")}, True)]
    code, out, _ = _main_with_handler(monkeypatch, capsys, eager)
    assert (code, out) == (3, '{"first":1.0}\n')


def derived_prefix_literals(source: str) -> list[str]:
    """'line N: owner' for each string literal (a docstring or a part of an
    f-string too) holding a prefix of document.DERIVED, owner the top-level function
    or class around it, the name a module-level assignment binds, or <module>."""
    out = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None) or next(
            (t.id for t in getattr(top, "targets", []) if isinstance(t, ast.Name)), "<module>")
        out.extend(f"line {node.lineno}: {owner}" for node in ast.walk(top)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and any(prefix in node.value for prefix in DERIVED))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_derived_prefix_only_in_its_table(path):
    """document.DERIVED alone spells a derived target's prefix (assoc-sk:), and
    CatalogEntry.target alone reads it, so no other code parses such a name
    a second way; once the CLI's geodesic handler stripped the prefix itself."""
    owners = {line.split(": ")[1] for line in derived_prefix_literals(path.read_text())}
    assert owners == ({"DERIVED"} if path.name == "document.py" else set())


def test_derived_prefix_checker_sees_each_spelling():
    source = ('"""Names such as assoc-sk:F."""\n'
              'DERIVED = {"assoc-sk:": 1}\n'
              'def resolve(name):\n    return name.removeprefix("assoc-sk:")\n'
              'class Parser:\n    def run(self, name):\n        return f"assoc-sk:{name}"\n'
              'HELP = "tensor name or assoc-sk:FORM"\n'
              'WHAT = ["assoc-sk"]\n')
    assert derived_prefix_literals(source) == ["line 1: <module>", "line 2: DERIVED",
                                               "line 4: resolve", "line 7: Parser",
                                               "line 8: HELP"]
