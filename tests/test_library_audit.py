"""The library defines only what the pipeline reaches: every function, class
and method of the library modules (every module of src/automizer) is named
in the code of those modules or of the scripts outside its own definition,
or is a name the benchmark's tracer wraps.  A name counts only where the
code reads it: as a name, as an attribute or in an import, never in a
comment or a docstring.  Test-only helpers belong in tests/testkit.py.
Every attribute the library stores on self is read on some line of the
library, the scripts or the tests (testkit among them), and every parameter
with a default is passed by some call there.  No library module imports
testkit."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "automizer").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
READERS = LIBRARY + SCRIPTS + sorted((ROOT / "tests").glob("*.py"))


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def code_names(tree: ast.AST) -> list[tuple[str, int]]:
    """Each name the code reads, with its line: names, attributes and the
    names an import binds or fetches."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out += [(part, node.lineno) for part in node.name.split(".")]
    return out


def unused_definitions() -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in LIBRARY + SCRIPTS}
    names = {path: code_names(tree) for path, tree in trees.items()}
    tracing = load_tracing()
    wrapped = {name for _, name, _ in tracing.FUNCTION_PATCH_POINTS}
    wrapped |= {name for _, cls, attr, _ in tracing.METHOD_PATCH_POINTS for name in (cls, attr)}
    unused = []
    for path in LIBRARY:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if node.name not in wrapped and not any(
                name == node.name and not (other == path and number in body)
                for other, found in names.items()
                for name, number in found
            ):
                unused.append("%s:%d %s" % (path.name, node.lineno, node.name))
    return unused


def test_every_library_definition_is_reached():
    assert unused_definitions() == []


def imports_of_testkit() -> list[str]:
    """Each import in a library module that binds testkit or a name from it."""
    found = []
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if any("testkit" in m.split(".") for m in modules):
                found.append("%s:%d" % (path.name, node.lineno))
    return found


def test_library_never_imports_testkit():
    assert imports_of_testkit() == []


def unread_attributes() -> list[str]:
    """Each `self.<attr> =` in the library whose attribute no line reads, a
    line that stores it not counting."""
    stores: dict[str, list[tuple[Path, int, str]]] = {}
    for path in LIBRARY:
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for t in ast.walk(target):
                        if (
                            isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                        ):
                            stores.setdefault(t.attr, []).append((path, t.lineno, cls.name))
    lines = {path: path.read_text().splitlines() for path in READERS}
    unread = []
    for attr, sites in sorted(stores.items()):
        stored_at = {(path, number) for path, number, _ in sites}
        word = re.compile(r"\.%s\b" % re.escape(attr))
        if not any(
            word.search(line)
            for path, text in lines.items()
            for number, line in enumerate(text, 1)
            if (path, number) not in stored_at
        ):
            unread += ["%s:%d %s.%s" % (p.name, n, c, attr) for p, n, c in sites]
    return unread


def test_every_stored_attribute_is_read():
    assert unread_attributes() == []


def test_benchmark_patch_points_resolve():
    """Every name the benchmark's tracer wraps still exists: a renamed
    function or method would otherwise leave its span silently empty."""
    tracing = load_tracing()
    missing = [
        "%s.%s" % (module, name)
        for module, name, _ in tracing.FUNCTION_PATCH_POINTS
        if not hasattr(importlib.import_module(module), name)
    ]
    missing += [
        "%s.%s.%s" % (module, cls, attr)
        for module, cls, attr, _ in tracing.METHOD_PATCH_POINTS
        if attr not in vars(getattr(importlib.import_module(module), cls))
    ]
    assert tracing.FUNCTION_PATCH_POINTS and tracing.METHOD_PATCH_POINTS
    assert missing == []


def test_benchmark_patch_points_are_reached(tmp_path):
    """Every name the benchmark's tracer wraps is called through the wrapper
    on a C2 realize and verify by the command line and one to_json_bytes: a
    caller that bound a function before the tracer wrapped it (a stage list
    holding a check, say) would leave its span empty though the name
    resolves."""
    tracing = load_tracing()
    tracer = tracing.Tracer("audit")
    restore, missing = tracing.install(tracer)
    try:
        cli = importlib.import_module("automizer.cli")
        path = str(tmp_path / "c2.json")
        with tracer.root():
            assert cli.main(["realize", "--group", "C2", "--out", path]) == 0
            assert cli.main(["verify", "--cert", path]) == 0
            importlib.import_module("automizer.realize").Certificate.load(path).to_json_bytes()
    finally:
        restore()
    calls = {name: row["calls"] for name, row in tracer.layer_table().items()}
    assert missing == []
    assert [name for name in tracing.SPAN_NAMES if not calls.get(name)] == []


def call_name(call: ast.Call):
    """The name a call reads its callee by: a plain name or an attribute."""
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def passes(call: ast.Call, parameter: str, index) -> bool:
    """Whether the call passes the parameter: by keyword, through ** or *,
    or positionally at its index (None for a keyword-only parameter)."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed_parameters() -> list[str]:
    """Each parameter with a default of a library function or method that no
    call in the library, the scripts or the tests passes.  A call
    counts where its callee's name is the function's, or the class's for
    __init__; a method's index skips self or cls."""
    calls: dict[str, list[ast.Call]] = {}
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                calls.setdefault(call_name(node), []).append(node)
    unpassed = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text())
        owner = {
            id(f): cls.name
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for f in cls.body
        }
        for f in ast.walk(tree):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)
            shift = 1 if id(f) in owner and not static else 0
            name = owner[id(f)] if f.name == "__init__" else f.name
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            params = [(p.arg, i - shift) for i, p in enumerate(positional) if i >= first]
            params += [(p.arg, None) for p, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
            unpassed += [
                "%s:%d %s(%s)" % (path.name, f.lineno, f.name, parameter)
                for parameter, index in params
                if not any(passes(call, parameter, index) for call in calls.get(name, []))
            ]
    return unpassed


def test_every_library_parameter_is_passed():
    assert unpassed_parameters() == []
