"""Every exported name has a caller outside the tests.

A function that only tests call belongs in the tests. The guard reads the
library's own modules and the benchmark harness with `ast` and collects
every name, attribute and string constant they use; each name of
`local_update_lab.__all__` must be among them.
"""

import ast
from pathlib import Path

import local_update_lab

ROOT = Path(__file__).resolve().parents[1]


def non_test_modules():
    library = [p for p in (ROOT / "src" / "local_update_lab").glob("*.py") if p.name != "__init__.py"]
    harness = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    return library + harness


def used_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_has_a_non_test_caller():
    modules = non_test_modules()
    assert len(modules) >= 12  # nine library modules and three harness modules
    used = set().union(*(used_names(p) for p in modules))
    unused = sorted(set(local_update_lab.__all__) - used)
    assert unused == [], f"exported but used only by tests: {unused}"
