"""Every module-level import in a ``symwave`` module is used there or listed in its ``__all__``.

``__init__.py`` is exempt: its re-exports are checked by ``test_public_api.py``.
Every private definition is read somewhere, and ``np.linalg.eigvals`` is
called in one kernel only, ``symplectic._spectrum``.  The index modules write
each small threshold once, in the decisions block of ``symplectic.py``.  No
module calls ``json.dump``, and json's encoder is built in one place, the
envelope writer ``cli._write_json``.  Only ``flows.py`` indexes the family
table ``_FAMILIES``, and ``waveforms.py`` reads no Hamiltonian ``.matrix``.
``waveforms.py`` lifts no path of planes itself (index reads take each
manifold's ``cover_lift``), and the torus tangent frame is built in two
places: ``TorusManifold.tangent_frame`` and the torus loop record.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "symwave"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.partition(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name) for a in node.names if a.name != "*")


def _exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            yield from ast.literal_eval(node.value)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(_imported_names(tree)) - used - set(_exported_names(tree))
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def _private_definitions(tree):
    # module-level private functions, classes and constants, by top-level statement
    for k, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, k) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _references(tree):
    # every name a top-level statement reads: bare, as an attribute, or imported
    for k, stmt in enumerate(tree.body):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                yield node.id, k
            elif isinstance(node, ast.Attribute):
                yield node.attr, k
            elif isinstance(node, ast.ImportFrom):
                yield from ((a.name, k) for a in node.names)


def test_every_private_definition_is_referenced():
    # a private helper is read somewhere in the package besides its own definition
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    refs = {(name, module, k) for module, tree in trees.items()
            for name, k in _references(tree)}
    dangling = sorted(f"{module}:{name}" for module, tree in trees.items()
                      for name, k in _private_definitions(tree)
                      if not any(r[0] == name and (r[1], r[2]) != (module, k) for r in refs))
    assert not dangling, f"private definitions nobody references: {dangling}"


def _eigvals_sites(node, where=""):
    # the enclosing definition of every read of linalg.eigvals, or import of eigvals
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}" if where else child.name
        if isinstance(child, ast.Attribute) and child.attr == "eigvals":
            owner = child.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                    or isinstance(owner, ast.Name) and owner.id == "linalg"):
                yield where
        elif isinstance(child, ast.ImportFrom) and any(a.name == "eigvals" for a in child.names):
            yield where
        yield from _eigvals_sites(child, inner)


def test_eigvals_is_called_in_one_kernel():
    sites = sorted(f"{p.name}:{site}" for p in sorted(SRC.glob("*.py"))
                   for site in _eigvals_sites(ast.parse(p.read_text())))
    assert sites == ["symplectic.py:_spectrum"]


def _encoder_sites(node, where=""):
    # (enclosing definition, name) of every read of json's encoder machinery,
    # and of every json.dump call or json call with an indent
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}" if where else child.name
        if isinstance(child, ast.Attribute) and child.attr in ("JSONEncoder", "c_make_encoder"):
            yield where, child.attr
        elif isinstance(child, ast.Name) and child.id in ("JSONEncoder", "c_make_encoder"):
            yield where, child.id
        elif isinstance(child, ast.ImportFrom) and child.module in ("json", "json.encoder"):
            yield where, "import"
        elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and isinstance(child.func.value, ast.Name) and child.func.value.id == "json"):
            if child.func.attr == "dump":
                yield where, "json.dump"
            if any(k.arg == "indent" for k in child.keywords):
                yield where, "indent"
        yield from _encoder_sites(child, inner)


def test_envelopes_are_written_by_one_writer():
    # json.dump with indent runs json's pure-Python encoder; the envelope
    # goes through cli._write_json, the one place that builds an encoder
    sites = sorted({(p.name, *site) for p in sorted(SRC.glob("*.py"))
                    for site in _encoder_sites(ast.parse(p.read_text()))})
    assert sites == [("cli.py", "_write_json.walk", "c_make_encoder")]


def _small_float_statements(tree):
    # index of each top-level statement holding a float literal 0 < |x| < 1e-3
    for k, stmt in enumerate(tree.body):
        if any(isinstance(node, ast.Constant) and type(node.value) is float
               and 0 < abs(node.value) < 1e-3 for node in ast.walk(stmt)):
            yield k


def test_index_thresholds_are_written_once_in_one_block():
    # the one home of each numerical decision: consecutive module-level
    # assignments in symplectic.py, and no small literal anywhere else
    trees = {name: ast.parse((SRC / name).read_text()) for name in ("maslov.py", "symplectic.py")}
    assert list(_small_float_statements(trees["maslov.py"])) == []
    tree = trees["symplectic.py"]
    block = list(_small_float_statements(tree))
    assert block and block == list(range(block[0], block[-1] + 1))
    assert all(isinstance(tree.body[k], ast.Assign) for k in block)


def test_family_knowledge_stays_in_flows():
    # how far one step turns a plane, and whether one step is exact, are the
    # family table's to say: waveforms reads them through flows, not off H
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    matrix_reads = [node.lineno for node in ast.walk(trees["waveforms.py"])
                    if isinstance(node, ast.Attribute) and node.attr == "matrix"]
    assert matrix_reads == []
    indexing = sorted({name for name, tree in trees.items() for node in ast.walk(tree)
                       if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                       and node.value.id == "_FAMILIES"})
    assert indexing == ["flows.py"]


def _call_sites(node, name, where=""):
    # the enclosing definition of every call of `name`, bare or as an attribute
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}" if where else child.name
        if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                    getattr(child.func, "attr", None)):
            yield where
        yield from _call_sites(child, name, inner)


def test_cover_facts_have_one_source():
    # an index read takes the manifold's cover_lift rather than lifting a
    # path of its own, and the torus frame is built by the torus alone
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert list(_call_sites(trees["waveforms.py"], "lift_path_adaptive")) == []
    sites = sorted(f"{name}:{site}" for name, tree in trees.items()
                   for site in _call_sites(tree, "_diagonal_torus_frame"))
    assert sites == ["waveforms.py:TorusManifold.tangent_frame"]
