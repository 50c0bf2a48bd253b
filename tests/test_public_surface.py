"""Every exported name, and every public member of an exported class, has a caller outside the tests.

A function, method, property or field that only tests read belongs in the
tests. The guards read the library's own modules and the benchmark harness
with `ast`. Each name of `local_update_lab.__all__` must be among the names,
attributes and string constants they use. Each public method, property and
dataclass field of an exported class must be read there as an attribute or
passed there as a keyword argument.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import local_update_lab

ROOT = Path(__file__).resolve().parents[1]


def non_test_modules():
    library = [p for p in (ROOT / "src" / "local_update_lab").glob("*.py") if p.name != "__init__.py"]
    harness = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    return library + harness


def parsed_non_test_modules():
    modules = non_test_modules()
    assert len(modules) >= 12  # nine library modules and three harness modules
    return [ast.parse(path.read_text(encoding="utf-8")) for path in modules]


def used_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def read_members(tree: ast.AST) -> set[str]:
    """Attributes read and keyword arguments passed in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
    return names


def public_members(cls) -> set[str]:
    """Public methods, properties and dataclass fields that cls itself defines."""
    names = {field.name for field in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    names |= {
        name for name, value in vars(cls).items()
        if inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod))
    }
    return {name for name in names if not name.startswith("_")}


def test_every_export_has_a_non_test_caller():
    used = set().union(*map(used_names, parsed_non_test_modules()))
    unused = sorted(set(local_update_lab.__all__) - used)
    assert unused == [], f"exported but used only by tests: {unused}"


def test_every_public_member_of_an_exported_class_is_read_outside_the_tests():
    read = set().union(*map(read_members, parsed_non_test_modules()))
    classes = [obj for obj in map(local_update_lab.__dict__.get, local_update_lab.__all__) if inspect.isclass(obj)]
    assert len(classes) >= 14
    unread = sorted(
        f"{cls.__name__}.{name}" for cls in classes for name in public_members(cls) - read
    )
    assert unread == [], f"public members read only by tests: {unread}"
