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


def test_front_ends_import_no_private_name():
    # cli and the shared checks of selftest use the public API, as the
    # acceptance suite does
    parsed = _parsed()
    found = ["%s imports %s" % (name, alias.name)
             for name in ("cli", "selftest")
             for node in ast.walk(parsed[name])
             if isinstance(node, ast.ImportFrom) and (
                 node.level or (node.module or "").startswith("fatflip"))
             for alias in node.names if alias.name.startswith("_")]
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


def test_only_fatgraph_flips_and_flipgraph_build_from_codes():
    # FatGraph._from_codes skips the structural checks, so only the modules
    # whose rows are valid by construction reach it: canonical forms, the
    # end of a flip or a flip path, and flipgraph's new classes; randgen
    # reaches the flip core through flips
    found = ["%s line %d" % (name, node.lineno)
             for name, tree in _parsed().items()
             if name not in ("fatgraph", "flips", "flipgraph")
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr == "_from_codes"]
    assert not found


def test_only_fatgraph_and_flipgraph_relabel_canonically():
    # FatGraph._canonical_codes is the one canonical relabeling: fatgraph
    # builds the canonical form and key on it, and flipgraph reads the
    # relabeling itself for new classes, inverse flips and cell steps
    found = ["%s line %d" % (name, node.lineno)
             for name, tree in _parsed().items()
             if name not in ("fatgraph", "flipgraph")
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr == "_canonical_codes"]
    assert not found


def test_only_intlinalg_and_markings_name_the_standard_form():
    # markings.SymplecticForm owns omega, from intlinalg's J: the other
    # modules read its Gram matrix, contraction and symplecticity test
    found = ["%s line %d" % (name, node.lineno)
             for name, tree in _parsed().items()
             if name not in ("intlinalg", "markings")
             for node in ast.walk(tree)
             if "standard_symplectic" in (getattr(node, "attr", None),
                                          getattr(node, "id", None),
                                          getattr(node, "name", None))]
    assert not found


def test_only_markings_calls_gram():
    # a Gram product compared with J outside SymplecticForm would be a
    # second symplecticity test; intlinalg's own gram is a plain call
    found = ["%s line %d" % (name, node.lineno)
             for name, tree in _parsed().items() if name != "markings"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "gram"]
    assert not found


def test_only_fatgraph_stores_what_a_graph_keeps():
    # the boundary number, the tail tree and the pairing block are filled
    # in by FatGraph's own methods, never from outside
    kept = {"_boundaries", "_tree", "_pairing"}
    found = ["%s line %d" % (name, node.lineno)
             for name, tree in _parsed().items() if name != "fatgraph"
             for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in kept
                 and not isinstance(node.ctx, ast.Load))
             or (isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "setattr"
                 and getattr(node.args[1], "value", None) in kept)]
    assert not found


def test_only_abelian_stores_a_kept_support():
    # a value's kept support is filled by abelian alone, on the first read
    # or through KElement._of, so no other module can make it stale
    found = ["%s line %d" % (name, node.lineno)
             for name, tree in _parsed().items() if name != "abelian"
             for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr == "_nz"
                 and not isinstance(node.ctx, ast.Load))
             or (isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "setattr"
                 and getattr(node.args[1], "value", None) == "_nz")]
    assert not found


def _definitions(body, prefix=""):
    """(qualified name, name) of every function and class in ``body``,
    methods and nested definitions included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from _definitions(node.body, prefix + node.name + ".")


def _layer_names(tree):
    """The module, class and function names in perfbench's LAYERS specs,
    such as "fatgraph:FatGraph.__init__"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYERS" for t in node.targets):
            for spec in ast.literal_eval(node.value):
                module, attr = spec.split(":")
                yield module
                yield from attr.split(".")


def test_every_definition_is_referenced():
    # a name nothing reads, in the package, its tests or the benchmark, is
    # dead code; dunder methods are called by the language, not by name
    root = pathlib.Path(__file__).resolve().parent.parent
    referenced = set()
    for folder in (SRC, root / "tests", root / "perfbench"):
        for path in folder.glob("*.py"):
            tree = ast.parse(path.read_text())
            referenced.update(_layer_names(tree))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.add(node.name.split(".")[-1])
    unused = ["%s.%s" % (module, qualname)
              for module, tree in sorted(_parsed().items())
              for qualname, name in _definitions(tree.body)
              if name not in referenced
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unused
