"""Reading and writing the package's JSON and text files.

Every file the package writes goes through :func:`atomic_write`, and every
JSON input it loads through :func:`load_json`, which refuses the non-finite
numbers that the standard parser accepts.
"""

from __future__ import annotations

import json
import math
import os


def atomic_write(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` so that a crash leaves either the old
    file or the new one: write a temp file with a fresh random name in the
    same directory, fsync it, rename it over ``path``, then fsync the
    directory so the rename itself is durable. On any error before the
    rename the temp file is removed and ``path`` is untouched. A temp file
    left behind by a killed writer never blocks a later write."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_json(path: str, error: type[Exception], what: str):
    """Parse the JSON file at ``path``. Malformed JSON, the non-finite
    literals ``NaN``, ``Infinity`` and ``-Infinity``, and numbers such as
    ``1e400`` that parse to an infinite float raise ``error``, its message
    starting with ``what``."""

    def reject(literal: str):
        raise error(f"{what} holds {literal}: numbers must be finite")

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            reject(literal)
        return value

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
