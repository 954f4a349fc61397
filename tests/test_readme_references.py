"""Every backticked ``module.name`` in README.md names something the
package has: ``module`` is one of the package's modules, and ``name``
resolves on it by ``getattr``, a dotted name one attribute at a time.
File names such as ``history.jsonl`` or ``files.py`` are not references."""

import importlib
import os
import pkgutil
import re

import eenas

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

#: Suffixes that make a backticked ``stem.suffix`` a file name.
FILE_SUFFIXES = {"csv", "json", "jsonl", "md", "py", "tmp", "txt"}

MODULES = {info.name for info in pkgutil.iter_modules(eenas.__path__)}


def readme_references() -> list[tuple[str, str]]:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return sorted({
        (module, name)
        for module, name in re.findall(r"`([a-z_]+)\.([A-Za-z_][\w.]*)`", text)
        if module in MODULES and name.rsplit(".", 1)[-1] not in FILE_SUFFIXES
    })


def resolves(module: str, name: str) -> bool:
    value = importlib.import_module(f"eenas.{module}")
    for part in name.split("."):
        try:
            value = getattr(value, part)
        except AttributeError:
            return False
    return True


def test_every_module_name_in_the_readme_resolves():
    references = readme_references()
    assert len(references) >= 18
    unresolved = [f"{m}.{n}" for m, n in references if not resolves(m, n)]
    assert unresolved == []
