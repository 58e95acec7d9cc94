"""The library defines only what the pipeline reaches: every function, class
and method of the library modules (testkit excluded) is named on some line of
those modules or of the scripts outside its own definition.  Test-only helpers
belong in testkit."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "automizer").glob("*.py") if p.name != "testkit.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


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
