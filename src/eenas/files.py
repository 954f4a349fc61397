"""Reading and writing the package's JSON and text files, and the checks
of the values read from them.

Every file the package writes goes through :func:`atomic_write`, and every
JSON input it loads through :func:`load_json`, which refuses the non-finite
numbers that the standard parser accepts. Readers pass loaded values on
unchanged, and each class built from outside input checks its own fields
with the predicates below: ``1`` stays an integer, ``"8"`` is not one.
"""

from __future__ import annotations

import dataclasses
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
    """Parse the JSON file at ``path``. Bytes that are not UTF-8, malformed
    JSON, the non-finite literals ``NaN``, ``Infinity`` and ``-Infinity``,
    and numbers such as ``1e400`` that parse to an infinite float raise
    ``error``, its message starting with ``what``."""

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
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8 text: {exc.reason}") from exc


def is_int(value) -> bool:
    """An integer, not ``true`` or ``false``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """An integer or float, not a bool, that is finite as a float."""
    try:
        return (is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def is_object(value) -> bool:
    return isinstance(value, dict)


def is_int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(is_int, value))


def is_real_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(is_real, value))


_MUST_BE = {is_int: "an integer", is_real: "finite and numeric",
            is_int_list: "a list of integers", is_real_list: "a list of finite numbers"}


def require(error: type[Exception], predicate, **values) -> None:
    """Raise ``error`` naming the first of ``values`` that ``predicate`` refuses."""
    for name, value in values.items():
        if not predicate(value):
            raise error(f"{name} must be {_MUST_BE[predicate]}")


def check_fields(obj, error: type[Exception], skip=()) -> None:
    """:func:`require` each field of the dataclass ``obj`` annotated ``int``,
    ``float`` or as a tuple of ints or floats to hold a value of that type.
    The module of ``obj`` must postpone annotations, so that each is its
    source text."""
    checks = {"int": is_int, "float": is_real, "tuple[int, ...]": is_int_list,
              "tuple[int, int, int]": is_int_list,
              "tuple[float, ...]": is_real_list}
    for f in dataclasses.fields(obj):
        if f.type in checks and f.name not in skip:
            require(error, checks[f.type], **{f.name: getattr(obj, f.name)})


def check_fixed(data: dict, fixed: dict, error: type[Exception], what: str) -> None:
    """A fixed or retired key of ``data`` may be given only at the value a
    header writes for it, ``fixed[key]``, and as the same JSON text: so
    ``1`` or ``true`` is not ``1.0``. Raises ``error`` naming the first
    key of ``fixed`` that ``data`` holds at another value."""
    for key, value in fixed.items():
        if key in data and json.dumps(data[key]) != json.dumps(value):
            raise error(f"{what} field {key} must be {json.dumps(value)}")


def check_exit_ratios(ratios, error: type[Exception]) -> None:
    """Exit ratios must be finite, lie in [0, 1] and sum to 1 within 1e-9."""
    if not all(math.isfinite(r) and 0 <= r <= 1 for r in ratios):
        raise error("exit ratios must be finite and lie in [0, 1]")
    if abs(math.fsum(ratios) - 1.0) > 1e-9:
        raise error("exit ratios must sum to 1")
