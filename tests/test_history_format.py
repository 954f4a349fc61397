"""The history format has one home: ``eenas.history``.

Its table, ``EVENTS``, declares each event kind and its fields once. These
tests hold the rest of the package to it: no other module spells a kind,
``history`` loads without the search or the command line, the names other
modules re-export are its own objects, the README's event table is its
table, and a header that its readers cannot use raises ``HistoryError``.
"""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys

import pytest

from eenas import history, search
from eenas.arch import SpaceConfig, builtin_backbone
from eenas.cli import EXIT_CONFIG, main
from eenas.history import EVENTS, SAMPLED, HistoryError, event, read_history
from eenas.hwcost import AcceleratorSpec
from eenas.search import NasConfig, OracleEvaluator, audit_history, run_search

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "eenas")
README = os.path.join(ROOT, "README.md")


def kind_spellings(source: str) -> list[str]:
    """The event kinds that a string constant of ``source`` spells: as the
    whole constant, or in double quotes within one, as JSON text holds it.
    A dict key is skipped: a field that shares a kind's name, such as the
    ``evaluated`` count of a summary's stats, is no kind, and a kind is the
    value of an ``event`` key, not a key."""
    tree = ast.parse(source)
    keys = {
        id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict)
        for key in node.keys
    }
    return [
        kind
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in keys
        for kind in EVENTS
        if node.value == kind or f'"{kind}"' in node.value
    ]


def test_the_spelling_guard_finds_constants_and_json_text():
    source = (
        'log({"event": "sampled"})\n'
        "MARK = '\"event\":\"evaluated\"'\n"
        'stats = {"k": 0, "selected": 1}\n'
        '"""A selected parent, or an offspring."""\n'
    )
    assert sorted(kind_spellings(source)) == ["evaluated", "sampled"]


def test_no_module_but_history_spells_an_event_kind():
    spelled = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "history.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                kinds = kind_spellings(fh.read())
            if kinds:
                spelled[name] = kinds
    assert spelled == {}


def test_history_loads_neither_the_search_nor_the_cli():
    """``eenas/__init__.py`` exports lazily, so what ``import eenas.history``
    loads is what the history module itself imports."""
    code = (
        "import sys\n"
        "import eenas.history\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('eenas'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    loaded = set(run.stdout.split())
    assert "eenas.history" in loaded
    assert not loaded & {"eenas.search", "eenas.cli"}


def test_names_the_search_reexports_are_the_history_objects():
    """So a tracer or a monkeypatch that rebinds ``search.read_history``
    rebinds the reader the search calls."""
    for name in ("HistoryError", "HistoryLog", "HistoryReplay", "header_section",
                 "read_history", "read_report_events", "replay_history"):
        assert getattr(search, name) is getattr(history, name), name


def test_event_takes_exactly_the_table_fields():
    fields = dict(k=0, hash="0" * 16, genes=[1], oh_max=0.1)
    assert event(SAMPLED, **fields) == {"event": SAMPLED, **fields}
    with pytest.raises(TypeError, match="oh_max"):
        event(SAMPLED, k=0, hash="0" * 16, genes=[1])
    with pytest.raises(TypeError, match="extra"):
        event(SAMPLED, **fields, extra=1)
    with pytest.raises(KeyError):
        event("no-such-kind", k=0)


@pytest.mark.parametrize(
    "kind", [kind for kind, fields in EVENTS.items() if "genes" in fields]
)
def test_a_written_gene_line_is_one_the_report_can_skip(kind):
    """``eenas report`` leaves a gene line unparsed only if it starts with
    ``_GENE_PREFIXES`` and holds the exact ``"hash":"`` text; a field that
    sorted before ``event``, or another spelling of the hash, would make
    every report parse every gene line."""
    values = dict(k=0, hash="0123456789abcdef", genes=[1, 0], oh_max=0.5)
    line = history._event_line(
        event(kind, **{name: values.get(name, 0) for name in EVENTS[kind]})
    )
    assert line.startswith(history._GENE_PREFIXES)
    assert f'{history._HASH}{values["hash"]}"' in line


def readme_event_table() -> list[tuple[str, list[str]]]:
    """(kind, fields) of each row of the README's event table."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n| event | fields, in write order |", 1)[1]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", section.split("\n\n", 1)[0], re.M)
    return [(kind, re.findall(r"`([^`]+)`", cells)) for kind, cells in rows]


def test_readme_event_table_is_the_history_table():
    assert readme_event_table() == [
        (kind, list(fields)) for kind, fields in EVENTS.items()
    ]


class TestUnusableHeader:
    """A header its readers cannot use raises ``HistoryError`` from the
    audit, whatever class refuses the value, and exits 2 from the CLI."""

    @pytest.fixture(scope="class")
    def events(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("header") / "history.jsonl"
        run_search(
            SpaceConfig(backbone=builtin_backbone("smallconv")), AcceleratorSpec(),
            OracleEvaluator(), NasConfig(iterations=1, n_select=3, init_population=6),
            history_path=str(path), evaluator_kind="oracle",
        )
        return read_history(str(path))

    def edited(self, events, edit):
        header = {
            name: dict(value) if isinstance(value, dict) else value
            for name, value in events[0].items()
        }
        edit(header)
        return [header, *events[1:]]

    @pytest.mark.parametrize("edit, section", [
        (lambda h: h["space"].update(head_options=[]), "space"),
        (lambda h: h["accelerator"].update(bogus=1), "accelerator"),
        (lambda h: h["nas"].update(mu=2), "nas"),
    ], ids=["no-head-options", "unknown-accelerator-key", "mu-2"])
    def test_a_refused_section_value(self, events, edit, section):
        with pytest.raises(HistoryError, match=f"malformed run-config header: {section}"):
            audit_history(self.edited(events, edit))

    def test_a_header_without_its_event_key(self, events, tmp_path, capsys):
        edited = self.edited(events, lambda h: h.pop("event"))
        message = "history lacks a run-config header"
        with pytest.raises(HistoryError, match=message):
            audit_history(edited)
        path = tmp_path / "history.jsonl"
        path.write_text("".join(history._event_line(ev) for ev in edited))
        with pytest.raises(HistoryError, match=message):
            audit_history(str(path))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["report", "--history", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
