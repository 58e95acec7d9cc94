"""The library defines only what the pipeline reaches: every function, class
and method of the library modules (testkit excluded) is named on some line of
those modules or of the scripts outside its own definition.  Test-only helpers
belong in testkit.  Every attribute the library stores on self is read on
some line of the library, the scripts, testkit or the tests."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "automizer").glob("*.py") if p.name != "testkit.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
READERS = LIBRARY + SCRIPTS + [ROOT / "src" / "automizer" / "testkit.py"]
READERS += sorted((ROOT / "tests").glob("*.py"))


def unused_definitions() -> list[str]:
    lines = {path: path.read_text().splitlines() for path in LIBRARY + SCRIPTS}
    unused = []
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            word = re.compile(r"\b%s\b" % re.escape(node.name))
            body = range(node.lineno, node.end_lineno + 1)
            if not any(
                word.search(line)
                for other, text in lines.items()
                for number, line in enumerate(text, 1)
                if not (other == path and number in body)
            ):
                unused.append("%s:%d %s" % (path.name, node.lineno, node.name))
    return unused


def test_every_library_definition_is_reached():
    assert unused_definitions() == []


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
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
