"""Checks on the shape of the source itself."""

import ast
from pathlib import Path

import cmtop

SOURCES = sorted(Path(cmtop.__file__).parent.glob("*.py"))


def unread_parameters(tree):
    """(line, function, parameter) for each parameter of a ``def``, other
    than self or cls, that its body never reads.  A nested function or
    lambda that reads it counts.  Lambdas themselves are exempt: their
    callers fix their signature."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, node.name, p.arg) for p in params
                if p.arg not in ("self", "cls") and p.arg not in read]
    return out


def unread_imports(tree):
    """(line, name) for each name that a module-level import binds, other
    than from ``__future__``, and that the module never reads."""
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
            out += [(node.lineno, name) for name in names if name not in read]
    return out


def self_calls(tree):
    """(line, function) for each call that a ``def`` makes to its own name,
    by a bare name or as a method of self or cls, in its body or in a
    function nested there."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in (n for stmt in node.body for n in ast.walk(stmt)):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (isinstance(f, ast.Name) and f.id == node.name
                    or isinstance(f, ast.Attribute) and f.attr == node.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                out.append((call.lineno, node.name))
    return out


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "moves.py", "statesum.py", "cli.py"}


def test_no_parameter_that_does_nothing():
    unread = [(path.name, *where) for path in SOURCES
              for where in unread_parameters(ast.parse(path.read_text(), str(path)))]
    assert unread == []


def test_unread_parameters_are_found():
    tree = ast.parse(
        "def f(a, b, *rest, c=1, **kw):\n"
        "    return a + (lambda: c)()\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        def inner(y):\n"
        "            return x\n"
        "        return inner\n"
        "g = lambda unused: 0\n")
    assert unread_parameters(tree) == [(1, "f", "b"), (1, "f", "rest"), (1, "f", "kw"),
                                       (5, "inner", "y")]


def test_no_import_that_is_never_read():
    # __init__.py imports to re-export
    unread = [(path.name, *where) for path in SOURCES if path.name != "__init__.py"
              for where in unread_imports(ast.parse(path.read_text(), str(path)))]
    assert unread == []


def test_unread_imports_are_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import heapq\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import gcd, prod\n"
        "def f(x):\n"
        "    import json\n"
        "    return os.path.join(x) + prod(x)\n")
    assert unread_imports(tree) == [(2, "heapq"), (4, "np"), (5, "gcd")]


def test_no_function_calls_itself():
    calls = [(path.name, name) for path in SOURCES
             for _, name in self_calls(ast.parse(path.read_text(), str(path)))]
    assert calls == []


def test_self_calls_are_found():
    tree = ast.parse(
        "def f(n):\n"
        "    return f(n - 1) if n else g(n)\n"
        "def g(n):\n"
        "    def inner():\n"
        "        return g(n)\n"
        "    return inner\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        return self.m(x) + other.m(x) + self.n(x)\n"
        "    def n(self, x):\n"
        "        return x\n")
    assert self_calls(tree) == [(2, "f"), (5, "g"), (9, "m")]


def test_only_statesum_reads_or_writes_the_plans_of_a_complex():
    # the complex holds the state sum's plans; statesum builds and reads them
    touching = [path.name for path in SOURCES
                if any(isinstance(n, ast.Attribute) and n.attr == "plans"
                       for n in ast.walk(ast.parse(path.read_text(), str(path))))]
    assert touching == ["statesum.py"]
    tree = ast.parse(next(p for p in SOURCES if p.name == "complexes.py").read_text())
    imported = [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    imported += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    assert imported and not [m for m in imported if "statesum" in m]
