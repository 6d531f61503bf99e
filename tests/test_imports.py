"""The package's own import structure, read from its source with ast."""

import ast
import graphlib
import pathlib

import fatflip

SRC = pathlib.Path(fatflip.__file__).parent
MODULES = {path.stem: path for path in SRC.glob("*.py")}


def _target(module, name):
    """The package module that importing ``name`` from ``module`` (a
    dotted name relative to the package, "" for the package) loads."""
    if module:
        return module.split(".")[0]
    return name if name in MODULES else "__init__"


def _imports(tree):
    """The package module of each intra-package import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""
            elif (node.module or "").split(".")[0] == "fatflip":
                module = node.module[len("fatflip."):]
            else:
                continue
            for alias in node.names:
                yield _target(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "fatflip":
                    yield parts[1] if len(parts) > 1 else "__init__"


def _parsed():
    return {name: ast.parse(path.read_text()) for name, path in MODULES.items()}


def test_intra_package_imports_form_no_cycle():
    # function bodies count: an import deferred into a function is how a
    # cycle hides from the interpreter
    graph = {name: set(_imports(tree)) for name, tree in _parsed().items()}
    assert graph["cocycles"] >= {"intlinalg", "markings", "flips"}
    graphlib.TopologicalSorter(graph).prepare()  # CycleError names a ring


def test_no_import_inside_a_function():
    found = []
    for name, tree in _parsed().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += ["%s.%s line %d" % (name, func.name, node.lineno)
                          for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found


def test_only_fatgraph_walks_a_boundary_cycle():
    # FatGraph._tail_cycle is the one-boundary gate: other modules read
    # it rather than walk the cycle and repeat its length test
    found = ["%s line %d" % (name, node.lineno)
             for name, tree in _parsed().items() if name != "fatgraph"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "_cycle"]
    assert not found
