"""The history log: one encoder, a verbatim resume prefix, events that
are the parsed file, a closing check that the events a search hands its
audit and exports describe the file on disk, and nothing to resume after
a crash before the history exists."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import eenas.history
from eenas import (
    AcceleratorSpec,
    NasConfig,
    OracleEvaluator,
    SpaceConfig,
    builtin_backbone,
    run_search,
)
from eenas.cli import EXIT_CONFIG, EXIT_EVAL, EXIT_OK, main
from eenas.history import _event_line
from eenas.search import (
    HistoryError,
    audit_history,
    read_history,
    read_report_events,
)

SMALL_CONFIG = {
    "seed": 11,
    "backbone": "builtin:smallconv",
    "accelerator": "default",
    "space": {"head_depths": [1, 2], "exit_bits": [8, 4], "backbone_bits": 8},
    "nas": {"iterations": 2, "n_select": 6, "init_population": 12},
    "evaluator": {"kind": "oracle"},
}
CSV_FILES = ("front.csv", "iterations.csv", "scatter.csv")


def run_cli(*argv):
    """``eenas`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


@pytest.fixture
def full(tmp_path, config):
    """The output directory of an uninterrupted run of ``config``."""
    out = tmp_path / "full"
    assert run_cli("search", "--config", config, "--out", str(out))[0] == EXIT_OK
    return out


def summary_lines(lines):
    return [i for i, line in enumerate(lines) if '"event":"iteration-summary"' in line]


# ---------------------------------------------------------------------------
# The shared encoder
# ---------------------------------------------------------------------------

keys = st.text(max_size=6)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=20,
)
events = st.dictionaries(keys, values, max_size=6)


@given(events)
def test_event_line_is_the_json_dumps_line(event):
    assert _event_line(event) == json.dumps(
        event, sort_keys=True, separators=(",", ":"), allow_nan=False
    ) + "\n"


@given(
    events,
    keys,
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.sampled_from(["list", "dict"]), max_size=3),
)
def test_event_line_refuses_a_non_finite_number_anywhere(event, key, bad, nesting):
    value = bad
    for kind in nesting:
        value = [1, value] if kind == "list" else {"a": 1, key: value}
    with pytest.raises(ValueError):
        _event_line({**event, key: value})


# ---------------------------------------------------------------------------
# A run's events are the file it wrote
# ---------------------------------------------------------------------------

def test_events_are_the_parsed_file(tmp_path):
    path = tmp_path / "history.jsonl"
    space = SpaceConfig(backbone=builtin_backbone("smallconv"))
    state = run_search(
        space, AcceleratorSpec(), OracleEvaluator(),
        NasConfig(iterations=2, n_select=6, init_population=12), history_path=str(path),
    )
    state.log.check()
    assert state.log.events == read_history(str(path))
    assert state.log.path == str(path)


# ---------------------------------------------------------------------------
# The closing check: the file on disk is the file the search wrote
# ---------------------------------------------------------------------------

def flip_one_byte(path):
    """Change one hex digit of the second line's hash, in place."""
    with open(path, "r+b") as fh:
        data = fh.read()
        at = data.index(b'"hash":"', data.index(b"\n")) + len(b'"hash":"')
        fh.seek(at)
        fh.write(b"1" if data[at:at + 1] != b"1" else b"2")


def append_line(path):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"event":"note","k":0}\n')


@pytest.mark.parametrize("edit", [flip_one_byte, append_line])
@pytest.mark.parametrize("resume", [False, True], ids=["search", "resume"])
def test_history_changed_mid_run(tmp_path, config, full, monkeypatch, edit, resume):
    out = tmp_path / "run"
    out.mkdir()
    history = out / "history.jsonl"
    argv = ["search", "--config", config, "--out", str(out)]
    if resume:
        lines = (full / "history.jsonl").read_text().splitlines(keepends=True)
        history.write_text("".join(lines[: summary_lines(lines)[0] + 3]))
        argv.append("--resume")
    evaluate = OracleEvaluator.__call__
    calls = []

    def editing(self, key, arch):
        calls.append(key)
        if len(calls) == 5:
            edit(history)
        return evaluate(self, key, arch)

    monkeypatch.setattr(OracleEvaluator, "__call__", editing)
    code, stdout, err = run_cli(*argv)
    assert len(calls) > 5
    assert code == EXIT_CONFIG
    assert err == f"error: {history} changed while the search wrote it\n"
    assert stdout == ""
    assert os.listdir(out) == ["history.jsonl"]


# ---------------------------------------------------------------------------
# --resume keeps its prefix as written
# ---------------------------------------------------------------------------

def test_resume_keeps_the_prefix_lines_verbatim(tmp_path, config, full):
    """A kept prefix with blank lines and a valid line that is not in the
    canonical form is rewritten as its committed non-blank lines, byte for
    byte; the run then continues as an uninterrupted one would."""
    whole = (full / "history.jsonl").read_text().splitlines(keepends=True)
    last = summary_lines(whole)[-2]
    prefix = whole[: last + 1]
    i = next(i for i, line in enumerate(prefix) if '"event":"evaluated"' in line)
    prefix[i] = json.dumps(json.loads(prefix[i]), sort_keys=True) + "\n"
    assert prefix[i] != whole[i] and ", " in prefix[i]
    out = tmp_path / "resumed"
    out.mkdir()
    cut = [*prefix[:3], "\n", *prefix[3:], "   \n", *whole[last + 1: last + 4]]
    (out / "history.jsonl").write_text("".join(cut))

    code, _, err = run_cli("search", "--config", config, "--out", str(out), "--resume")
    assert code == EXIT_OK, err
    resumed = (out / "history.jsonl").read_text()
    assert resumed == "".join(prefix) + "".join(whole[last + 1:])
    assert audit_history(str(out / "history.jsonl")).ok
    for name in CSV_FILES:
        assert (out / name).read_bytes() == (full / name).read_bytes(), name


def test_every_event_is_encoded_once(tmp_path, config, full, monkeypatch):
    """A search encodes each event it logs once, and a resume only the
    events it appends."""
    encode = eenas.history._ENCODER.encode
    encoded = []

    def counting(event):
        encoded.append(event)
        return encode(event)

    monkeypatch.setattr(eenas.history._ENCODER, "encode", counting)
    out = tmp_path / "run"
    assert run_cli("search", "--config", config, "--out", str(out))[0] == EXIT_OK
    whole = (out / "history.jsonl").read_text().splitlines(keepends=True)
    assert len(encoded) == len(whole)

    kept = summary_lines(whole)[-2] + 1
    (out / "history.jsonl").write_text("".join(whole[: kept + 3]))
    encoded.clear()
    argv = ["search", "--config", config, "--out", str(out), "--resume"]
    assert run_cli(*argv)[0] == EXIT_OK
    assert len(encoded) == len(whole) - kept


# ---------------------------------------------------------------------------
# A crash before the history exists leaves nothing to resume
# ---------------------------------------------------------------------------

def test_a_crash_before_the_history_exists_leaves_nothing_to_resume(
    tmp_path, config
):
    """A search killed at its first ``os.replace``, the one that would
    create ``history.jsonl``, leaves only the history's temp file in
    ``--out``; ``--resume`` then exits 3, as for a missing history, and
    leaves the temp file as it is."""
    out = tmp_path / "out"
    code = (
        "import os\n"
        "from eenas.cli import main\n"
        "os.replace = lambda src, dst: os._exit(9)\n"
        f"main(['search', '--config', {config!r}, '--out', {str(out)!r}])\n"
    )
    src = os.path.dirname(os.path.dirname(eenas.history.__file__))
    killed = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, timeout=120,
    )
    assert killed.returncode == 9
    (tmp,) = os.listdir(out)
    assert re.fullmatch(r"history\.jsonl\.[0-9a-f]{16}\.tmp", tmp)
    before = (out / tmp).read_bytes()
    code, _, err = run_cli("search", "--config", config, "--out", str(out), "--resume")
    assert (code, err) == (
        EXIT_EVAL, "error: cannot resume without an existing history file\n"
    )
    assert os.listdir(out) == [tmp] and (out / tmp).read_bytes() == before


# ---------------------------------------------------------------------------
# An unparsable line is named by its line in the file
# ---------------------------------------------------------------------------

def cut_summary(lines):
    """Cut the first summary to 40 characters, after a blank line."""
    i = summary_lines(lines)[0]
    lines[i] = lines[i][:40] + "\n"
    lines.insert(i, "\n")
    return i + 2, "is not valid JSON: Expecting value (char 41)"


def array_header(lines):
    """Replace the header with a JSON array."""
    lines[0] = '["run-config"]\n'
    return 1, "is not a JSON object"


class TestUnparsableLine:
    """A line that is not a JSON object is named by its line in the file
    (counted from 1, blank lines included) by every reader."""

    @pytest.fixture(params=[cut_summary, array_header])
    def bad(self, request, tmp_path, full):
        """A copy of the full run's history with one line made unparsable;
        returns the copy and the message each reader must give."""
        lines = (full / "history.jsonl").read_text().splitlines(keepends=True)
        number, problem = request.param(lines)
        out = tmp_path / "bad"
        out.mkdir()
        path = out / "history.jsonl"
        path.write_text("".join(lines))
        return path, f"{path} line {number} {problem}"

    @pytest.mark.parametrize(
        "reader", [read_history, read_report_events, audit_history]
    )
    def test_readers(self, bad, reader):
        path, message = bad
        with pytest.raises(HistoryError, match=re.escape(message)):
            reader(str(path))

    def test_report(self, bad):
        path, message = bad
        code, _, err = run_cli("report", "--history", str(path))
        assert (code, err) == (EXIT_CONFIG, f"error: {message}\n")

    def test_resume(self, bad, config):
        path, message = bad
        before = path.read_bytes()
        code, _, err = run_cli(
            "search", "--config", config, "--out", str(path.parent), "--resume"
        )
        assert (code, err) == (EXIT_CONFIG, f"error: {message}\n")
        assert path.read_bytes() == before
