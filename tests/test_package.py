"""The package's public names, and invariants of its source."""

import ast
from pathlib import Path

import groupcut


def test_source_has_no_assert_statement():
    # python -O strips asserts, so an invariant must raise instead
    src = Path(groupcut.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_public_names_are_pinned():
    """The package's __all__; a new public name needs an edit here."""
    assert groupcut.__all__ == [
        "QNum", "Rat", "parse_qnum", "format_qnum",
        "BreakpointRow", "PwlFunction", "MINUS", "AT", "PLUS",
        "parse_text", "to_text", "save", "load",
        "Interval", "Face2D", "Complex2D", "n_f",
        "ADDITIVE", "LIMIT_ADDITIVE", "NON_ADDITIVE",
        "additive_face_report", "e_containment",
        "minimality_test", "slack_at",
        "covering_components",
        "LinearSystem", "build_system", "drop_one_ranks",
        "lipschitz_epsilon", "scaling_epsilon", "verify_effective",
        "catalog_names", "get", "kzh_function", "kzh_params",
        "lifted_function", "psi_function", "psi_prime_function",
        "ClaimReport", "verify_all", "verify_kzh_claim_slacks",
        "verify_kzh_perturbation_rank", "verify_lifted",
        "verify_psi_separation",
        "render_sidecar", "render_svg",
    ]
    assert all(hasattr(groupcut, name) for name in groupcut.__all__)


# the private fields of the face store, of the complex's rank space and of
# the classifications
_STORE_FIELDS = {"_faces_x", "_faces_k", "_intervals", "_points", "_triples",
                 "_proj", "_starts", "_verts", "_values", "_value_rows",
                 "_point_ranks", "_interval_ranks", "_faces", "_kind",
                 "_kind_starts", "_codes", "_slacks", "_status"}


def test_only_the_analysis_reads_its_private_fields():
    """Other modules read the store through ``ids``, ``positions`` and
    ``kinds``, so its layout can change in two files."""
    src = Path(groupcut.__file__).parent
    found = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in sorted(src.glob("*.py"))
             if path.name not in ("complex2d.py", "additivity.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in _STORE_FIELDS]
    assert found == []
    # the guard sees a read where there is one
    assert any(isinstance(node, ast.Attribute) and node.attr in _STORE_FIELDS
               for node in ast.walk(ast.parse(
                   (src / "additivity.py").read_text())))


def test_every_private_helper_has_a_reader():
    """Each ``_``-prefixed function, method or class of the package is read
    somewhere in the package, by the rule of ``_unread_names`` below."""
    src = Path(groupcut.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "_sweep" in defined and "_PieceCover" in defined
    assert [name for name in _unread_names(trees)
            if name.startswith("_")] == []
    # the guard sees an unread helper where there is one, and a method that
    # only a local variable's name matches
    extra = ast.parse("def _helper(q):\n    return q\n"
                      "class C:\n    def _gap(self):\n        return 0\n"
                      "def f():\n    _gap = 1\n    return _gap\n")
    assert {"_helper", "_gap"} <= set(_unread_names(trees + [extra]))


def _by_value_face_calls(tree) -> list[int]:
    """Lines that call make_face or polygon_vertices, outside the bodies
    of those two definitions."""
    names = {"make_face", "polygon_vertices"}
    stack, found = [tree], []
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name in names:
            continue
        if isinstance(node, ast.Call) and names & {
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)}:
            found.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_the_package_finds_faces_by_vertex_keys_only():
    """``make_face`` and ``polygon_vertices`` build a face by value; they
    stay as the tests' reference, and no module of the package calls
    them."""
    src = Path(groupcut.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             for line in _by_value_face_calls(ast.parse(path.read_text()))]
    assert found == []
    # the guard sees a call where there is one
    assert _by_value_face_calls(ast.parse(
        "def f(I, J, K):\n    return complex2d.make_face(I, J, K)\n")) == [2]


# public names outside __all__ that nothing in the package reads, each kept
# for a reader outside it
_PUBLIC_WITHOUT_A_CALLER = {
    "make_face",  # the tests' by-value reference; bench/tracing.py rebinds it
    "face_of_point",  # documented API (README)
    "continuous_from_values",  # documented API (README)
    "delta",  # the paper's Delta pi(x, y); reference_lipschitz_epsilon in
    # tests/helpers.py and tests/test_pwl.py read it
    "triple_key",  # documented API (README)
    "classification_digest",  # bench/worker.py reads it
    "classification_of",  # the tests look a face's classification up by it
    "is_rational",  # bench/worker.py reads it
    "matrix",  # bench/worker.py reads it; rank eliminates on sparse rows
    "mutate_value",  # bench/test_checks.py reads it
}


def _unread_names(trees) -> list[str]:
    """Functions, classes, methods and properties of the trees that nothing
    reads, dunder names left out.  A class member is read only by an
    ``Attribute`` load, so that a local variable of the same name does not
    hide it; any other definition by a ``Name`` load too."""
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    members = {id(node): node.name for cls in nodes
               if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, defs)}
    others = {node.name for node in nodes
              if isinstance(node, defs) and id(node) not in members}
    loads = [node for node in nodes
             if isinstance(node, (ast.Name, ast.Attribute))
             and isinstance(node.ctx, ast.Load)]
    attrs = {node.attr for node in loads if isinstance(node, ast.Attribute)}
    names = attrs | {node.id for node in loads if isinstance(node, ast.Name)}
    unread = set(members.values()) - attrs | others - names
    return sorted(name for name in unread
                  if not (name.startswith("__") and name.endswith("__")))


def _unread_public_names(trees) -> list[str]:
    """The unread names that are public and not in ``__all__``."""
    return [name for name in _unread_names(trees)
            if name not in groupcut.__all__ and not name.startswith("_")]


def test_every_public_name_has_a_caller():
    """A public name leaves the package with its last caller, unless the
    allow-list above says who else reads it."""
    src = Path(groupcut.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    assert _unread_public_names(trees) == sorted(_PUBLIC_WITHOUT_A_CALLER)
    # the guard sees an unread name where there is one
    extra = ast.parse("def in_group_t(q):\n    return reduced_pair(q)\n")
    assert "in_group_t" in _unread_public_names(trees + [extra])
    # and a method that only a local variable's name matches
    extra = ast.parse("class C:\n    def gap(self):\n        return 0\n"
                      "def f():\n    gap = 1\n    return gap\n")
    assert "gap" in _unread_public_names(trees + [extra])


def _unused_imports(tree) -> list[str]:
    """Names that an import of the module binds and the module never reads."""
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_every_import_is_read():
    """Each module other than ``__init__`` reads every name it imports."""
    src = Path(groupcut.__file__).parent
    found = [f"{path.name}: {name}" for path in sorted(src.glob("*.py"))
             if path.name != "__init__.py"
             for name in _unused_imports(ast.parse(path.read_text()))]
    assert found == []
    # the guard sees an unused import where there is one
    assert _unused_imports(ast.parse(
        "from .exactnum import QNum, parse_qnum\nx = QNum(1)\n")) == [
            "parse_qnum"]
