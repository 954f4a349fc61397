"""Every public name of the package has a user, and no private name has
one outside its module.

A name exported by ``eenas/__init__.py`` must be imported by another module
of the package, called by its own module, or named in the README's Library
section. A name that only tests use fails here: move it into the tests or
delete it. A ``_``-prefixed name is its module's own: a module that needs
another's must import a public name instead.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "eenas")
README = os.path.join(ROOT, "README.md")


def parse(module: str) -> ast.Module:
    with open(os.path.join(PACKAGE, f"{module}.py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def relative_imports(tree: ast.Module):
    """``(module, name)`` of every ``from .module import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


def called_names(tree: ast.Module) -> set[str]:
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def library_section() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def unused_exports() -> list[str]:
    modules = sorted(
        name[:-3] for name in os.listdir(PACKAGE)
        if name.endswith(".py") and name != "__init__.py"
    )
    trees = {module: parse(module) for module in modules}
    imported = {
        name for tree in trees.values() for _, name in relative_imports(tree)
    }
    library = set(re.findall(r"\w+", library_section()))
    return sorted(
        f"{module}.{name}"
        for module, name in relative_imports(parse("__init__"))
        if name not in imported
        and name not in called_names(trees[module])
        and name not in library
    )


def test_every_export_has_a_user_outside_the_tests():
    assert unused_exports() == []


def private_imports() -> list[str]:
    """``module: from .other import _name`` for every import of a private
    name from another module of the package."""
    modules = sorted(
        name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")
    )
    return sorted(
        f"{module}: from .{source} import {name}"
        for module in modules
        for source, name in relative_imports(parse(module))
        if name.startswith("_")
    )


def test_no_module_imports_a_private_name_of_another():
    assert private_imports() == []
