"""Every public name of the package has a user, and no private name has
one outside its module.

A name exported by ``eenas/__init__.py`` (its lazy export table) must be
imported by another module
of the package, called by its own module, or named in the README's Library
section: imported by its code or put in backticks by its prose. A name that
only tests use fails here: move it into the tests or delete it. A
``_``-prefixed name is its module's own: a module that needs another's must
import a public name instead.
"""

import ast
import os
import re
import subprocess
import sys

import eenas
from eenas import audit_history

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


#: A ``python`` code block of the README, its code as group 1.
CODE_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def library_names(section: str) -> set[str]:
    """Names the Library section offers: those its ``python`` code blocks
    import from ``eenas``, and every word inside a backtick span of its
    prose. A name merely used in the code, such as an attribute, is not
    offered."""
    imported = {
        alias.name
        for block in CODE_BLOCK.findall(section)
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "eenas"
        for alias in node.names
    }
    quoted = re.findall(r"`([^`\n]+)`", CODE_BLOCK.sub("", section))
    return imported | {w for span in quoted for w in re.findall(r"\w+", span)}


def unused_exports() -> list[str]:
    modules = sorted(
        name[:-3] for name in os.listdir(PACKAGE)
        if name.endswith(".py") and name != "__init__.py"
    )
    trees = {module: parse(module) for module in modules}
    imported = {
        name for tree in trees.values() for _, name in relative_imports(tree)
    }
    library = library_names(library_section())
    return sorted(
        f"{module}.{name}"
        for module, names in eenas._EXPORTS.items()
        for name in names
        if name not in imported
        and name not in called_names(trees[module])
        and name not in library
    )


def test_every_export_has_a_user_outside_the_tests():
    assert unused_exports() == []


#: Child code: load the exports in the given order, each after the
#: submodules before it, and print every one that comes out a module.
MODULE_EXPORTS = (
    "import importlib, sys, types\n"
    "for name in sys.argv[1:]:\n"
    "    value = getattr(importlib.import_module('eenas'), name)\n"
    "    if isinstance(value, types.ModuleType):\n"
    "        print(name)\n"
)


def test_no_export_comes_out_a_module():
    """``from eenas import X`` gives X itself, also where X spells a
    submodule (``predict``) that an earlier import has loaded, in a fresh
    interpreter: after every submodule has loaded, and in the README's
    order, after the search's lazy import has loaded ``eenas.predict``."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    modules = sorted(
        name[:-3] for name in os.listdir(PACKAGE)
        if name.endswith(".py") and name != "__init__.py"
    )
    clashing = sorted(set(modules) & set(eenas.__all__))
    assert clashing == ["predict"]
    preload = "".join(f"import eenas.{m}\n" for m in modules)
    for code, names in (
        (preload + MODULE_EXPORTS, eenas.__all__),
        (MODULE_EXPORTS, ["run_search", "featurize", "fit", "predict"]),
    ):
        run = subprocess.run(
            [sys.executable, "-c", code, *names], env=env,
            capture_output=True, text=True, check=True,
        )
        assert run.stdout.split() == []


def test_library_names_are_imports_and_quoted_words():
    section = (
        "```python\nfrom eenas import (\n    Alpha, beta,\n)\n"
        "import numpy as np\nprint(record.gamma, delta(1))\n```\n\n"
        "Pieces: `epsilon` / `zeta_eta` (see `theta.iota`), kappa.\n"
    )
    assert library_names(section) == {
        "Alpha", "beta", "epsilon", "zeta_eta", "theta", "iota"
    }


def test_library_example_runs_as_written(tmp_path, monkeypatch, capsys):
    """The Library section's ``python`` block, run as written twice in one
    directory, writes the same history bytes each time, a history that
    audits clean, and prints the front, one record a line."""
    (block,) = CODE_BLOCK.findall(library_section())
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "history.jsonl"
    written = []
    for _ in range(2):
        exec(compile(block, "README.md", "exec"), {})
        written.append(path.read_bytes())
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(len(line.split()) == 3 for line in lines)
    assert written[0] == written[1]
    audit = audit_history(str(path))
    assert audit.ok, audit.violations


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
