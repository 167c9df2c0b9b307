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


def test_only_textio_opens_files_for_reading():
    # Every text file is read through textio.LineReader, which owns the rules
    # for line numbers, blank lines, float cells and repeated keys.
    package = Path(phonetrait.__file__).parent
    readers = sorted(
        path.name for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _opens_for_reading(node)
    )
    assert set(readers) == {"textio.py"}, readers


def test_only_textio_writes_files():
    # Every file is written through textio.atomic_write, which writes a
    # temporary file and renames it into place.
    package = Path(phonetrait.__file__).parent
    writers = sorted(
        path.name for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and (
            ast.unparse(node.func) in ("open", "os.fdopen", "os.replace", "os.rename")
            or ast.unparse(node.func).startswith("tempfile.")
            or isinstance(node.func, ast.Attribute)
            and node.func.attr in ("write_text", "write_bytes"))
    )
    assert set(writers) == {"textio.py"}, writers


def _private_reads(tree: ast.Module, modules: set[str]):
    """Every ``_`` name, dunders aside, that a module imports from another
    package module, or reads as an attribute of one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "phonetrait"):
            yield from (alias.name for alias in node.names
                        if alias.name.startswith("_") and not alias.name.startswith("__"))
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and not node.attr.startswith("__") and ast.unparse(node.value) in modules):
            yield ast.unparse(node)


def test_no_module_reads_another_modules_private_name():
    # A name another module reads is part of its module's interface, so it
    # is public; no module reaches into another's private names.
    package = Path(phonetrait.__file__).parent
    paths = sorted(package.glob("*.py"))
    modules = {path.stem for path in paths}
    private = sorted(f"{path.stem}: {name}" for path in paths
                     for name in _private_reads(ast.parse(path.read_text()), modules))
    assert not private, private


def _names_norm_floor(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "NORM_FLOOR" for n in ast.walk(node))


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
    """Names a module reads, leaving out annotations and each def's or class's
    reads of itself."""
    names: set[str] = set()

    def visit(node: ast.AST, defining: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in defining:
                names.add(name)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, defining)

    visit(tree, frozenset())
    return names


def _definitions(tree: ast.Module):
    """(qualified name, name) of every module-level function, class and
    assigned name, and of every method of a module-level class, leaving out
    dunder names, which Python itself reads."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs[:2]):
                        yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, target.id


def test_every_export_has_a_caller():
    # A function, class, method or module-level name that no module of the
    # package and no script reads has no production caller; tests alone do
    # not keep it, and neither does a type annotation. This holds for private
    # names too, so a helper that a refactor leaves behind fails here.
    package = Path(phonetrait.__file__).parent
    scripts = package.parents[1] / "scripts"
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    trees = {p: ast.parse(p.read_text()) for p in modules + sorted(scripts.glob("*.py"))}
    read = set().union(*map(_loaded_names, trees.values()))
    defined = {f"{p.stem}.{qualified}": name for p in modules
               for qualified, name in _definitions(trees[p])}
    defined.update((f"__all__.{name}", name) for name in phonetrait.__all__)
    uncalled = sorted(qualified for qualified, name in defined.items()
                      if name not in read and not name.startswith("__"))
    assert not uncalled, f"defined without a caller: {uncalled}"


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, called name, parameter, position) of every defaulted
    parameter of a module-level function and of a method of a module-level
    class. A method's position leaves out ``self`` or ``cls``, an ``__init__``
    is called by its class's name, and a keyword-only parameter has no
    position."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    functions = [(node.name, node.name, node, 0) for node in tree.body if isinstance(node, defs)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for item in (item for item in cls.body if isinstance(item, defs)):
            called = cls.name if item.name == "__init__" else item.name
            bound = "staticmethod" not in map(ast.unparse, item.decorator_list)
            functions.append((f"{cls.name}.{item.name}", called, item, int(bound)))
    for qualified, called, fn, bound in functions:
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], start=first - bound):
            yield qualified, called, arg.arg, i
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield qualified, called, arg.arg, None


def _passes(call: ast.Call, parameter: str, position) -> bool:
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, parameter) for k in call.keywords)
            or (position is not None and len(call.args) > position))


def test_every_parameter_is_passed():
    # A defaulted parameter that no call passes holds one value, and the
    # branch behind its default is the only one production runs. Calls count
    # from the package, the scripts, the benchmark and the acceptance suite,
    # which is the reproduction's spec; a call matches by the name it calls.
    package = Path(phonetrait.__file__).parent
    root = package.parents[1]
    callers = [*package.glob("*.py"), *(root / "scripts").glob("*.py"),
               *(root / "perfbench").glob("*.py"), Path(__file__).with_name("test_acceptance.py")]
    calls: dict[str, list[ast.Call]] = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    unpassed = sorted(
        f"{path.stem}.{qualified}({parameter})"
        for path in sorted(package.glob("*.py"))
        for qualified, called, parameter, position in _defaulted_parameters(
            ast.parse(path.read_text()))
        if not any(_passes(call, parameter, position) for call in calls.get(called, []))
    )
    assert not unpassed, f"defaulted but never passed: {unpassed}"


def test_every_error_is_constructed():
    # An error type that no other module of the package constructs is never
    # raised, so an ``except`` clause or exit code naming it is dead. A
    # ``raise lines.error(...)`` counts through the ``ParseError(`` call in
    # ``textio.LineReader.error``.
    package = Path(phonetrait.__file__).parent
    errors = ast.parse((package / "errors.py").read_text())
    subclasses = {
        node.name for node in errors.body
        if isinstance(node, ast.ClassDef) and node.name != "PhonetraitError"
    }
    constructed = {
        node.func.id
        for path in package.glob("*.py") if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert subclasses, "no error types found in errors.py"
    assert not subclasses - constructed, f"never constructed: {sorted(subclasses - constructed)}"


def test_workspaces_come_from_runs_alone():
    # A Workspace lives for one training run, one gradient check or one
    # score_trials call. Every function that writes into one requires it, so
    # no call site quietly gets a fresh workspace of its own.
    package = Path(phonetrait.__file__).parent
    defaulted, makers = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]
                if any(arg.arg == "workspace" for arg in with_default):
                    defaulted.append(f"{path.stem}.{node.name}")
            elif (isinstance(node, ast.Call)
                  and ast.unparse(node.func).split(".")[-1] == "Workspace"):
                makers.add(path.stem)
    assert not defaulted, f"workspace with a default: {defaulted}"
    assert makers <= {"training", "scoring"}, f"modules making a Workspace: {sorted(makers)}"
