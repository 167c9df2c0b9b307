"""Package surface: the public export list stays in step with the modules."""

import ast
from pathlib import Path

import phonetrait


def test_every_exported_name_resolves():
    missing = [name for name in phonetrait.__all__ if not hasattr(phonetrait, name)]
    assert not missing, f"__all__ names without a binding: {missing}"


def _opens_for_reading(call: ast.Call) -> bool:
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax"))


def test_only_corpus_opens_files_for_reading():
    # Every text file is read through corpus._LineReader, which owns the rules
    # for line numbers, blank lines, float cells and repeated keys.
    package = Path(phonetrait.__file__).parent
    readers = sorted(
        path.name for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _opens_for_reading(node)
    )
    assert set(readers) == {"corpus.py"}, readers


def _names_norm_floor(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "_NORM_FLOOR" for n in ast.walk(node))


def test_scoring_has_one_cosine_kernel():
    # Every cosine in scoring goes through one kernel, which owns the
    # near-zero-norm guard and takes norms from the same row dot product.
    tree = ast.parse((Path(phonetrait.__file__).parent / "scoring.py").read_text())
    guarded = sorted(
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(n, ast.Compare) and _names_norm_floor(n) for n in ast.walk(node))
    )
    assert len(guarded) == 1, guarded
    linalg_norms = [
        ast.unparse(node) for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "norm"
            and ast.unparse(node.value) in ("np.linalg", "numpy.linalg"))
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg")
    ]
    assert not linalg_norms, linalg_norms


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names a module reads, leaving out each def's or class's reads of itself."""
    names: set[str] = set()

    def visit(node: ast.AST, defining: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in defining:
                names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return names


def test_every_export_has_a_caller():
    # An exported name that no module of the package and no script reads has
    # no production caller; tests alone do not keep it.
    package = Path(phonetrait.__file__).parent
    scripts = package.parents[1] / "scripts"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += sorted(scripts.glob("*.py"))
    read = set().union(*(_loaded_names(ast.parse(p.read_text())) for p in sources))
    uncalled = sorted(set(phonetrait.__all__) - read)
    assert not uncalled, f"exported without a caller: {uncalled}"
