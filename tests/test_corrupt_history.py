"""A corrupt history fails with ``HistoryError``, whichever field of
whichever line is corrupted, and whichever line is dropped or repeated.

The harness draws one corruption of a small pinned smallconv oracle
history: an event, one of its fields (the ``event`` key and the fields
of the header's sections included), and a value from a fixed pool of
JSON values, or the field's deletion. Every history reader, the audit
given the events or the history's path, must then return or raise
``HistoryError``, ``eenas report`` must exit 0 or 2, and ``eenas search
--resume`` with the pinned run's config 0, 2, 3 or 4, never with another
exception. The same holds with each line of the pinned history dropped
in turn, and with one line repeated at a drawn place.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eenas.cli import EXIT_AUDIT, EXIT_CONFIG, EXIT_EVAL, EXIT_OK, main
from eenas.history import HistoryError, _event_line, read_history, replay_history
from eenas.search import _rebuild_state, audit_history

#: The values a corrupted field may take.
POOL = (
    None, "x", [], {}, -1, 0, 2, 1.5, True, [1, "a"], [[0.5]], {"a": 1}, "0",
    10**30,
)

#: Stands for the deletion of the field.
DELETE = object()

#: The header sections whose own fields a corruption may reach.
SECTIONS = ("nas", "space", "accelerator")

#: sha256 of the pinned history.
PINNED_SHA256 = "6224f606e3bbc702ead12699fb174ad8732ee1f5acf2772f71c97bd4412af4a4"

#: The number of events in the pinned history.
PINNED_LENGTH = 63

#: The run config of the pinned history, as ``eenas search`` reads it.
PINNED_RUN = {
    "seed": 3, "backbone": "builtin:smallconv", "accelerator": "default",
    "space": {"head_depths": [1, 2], "exit_bits": [8, 4], "backbone_bits": 8},
    "nas": {"iterations": 2, "n_select": 3, "init_population": 6},
    "evaluator": {"kind": "oracle", "seed": 0},
}


def run_cli(*argv):
    """``eenas`` in-process; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """The events of the pinned history, written by ``eenas search`` from
    :data:`PINNED_RUN`."""
    root = tmp_path_factory.mktemp("pinned")
    config = root / "run.json"
    config.write_text(json.dumps(PINNED_RUN))
    out = root / "run"
    assert run_cli("search", "--config", str(config), "--out", str(out)) == (
        EXIT_OK, ""
    )
    path = out / "history.jsonl"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256
    events = read_history(str(path))
    assert len(events) == PINNED_LENGTH
    return events


@st.composite
def corruptions(draw, events):
    """A copy of ``events`` with one field of one event set to a value of
    :data:`POOL`, or deleted."""
    events = copy.deepcopy(events)
    ev = events[draw(st.integers(0, len(events) - 1))]
    places = [(ev, name) for name in ev]
    if ev is events[0]:
        places += [(ev[s], name) for s in SECTIONS for name in ev[s]]
    owner, name = draw(st.sampled_from(places))
    value = draw(st.sampled_from((DELETE, *POOL)))
    if value is DELETE:
        del owner[name]
    else:
        owner[name] = copy.deepcopy(value)
    return events


@st.composite
def repeats(draw, events):
    """A copy of ``events`` with one event repeated at a drawn place."""
    events = copy.deepcopy(events)
    ev = copy.deepcopy(events[draw(st.integers(0, len(events) - 1))])
    events.insert(draw(st.integers(0, len(events))), ev)
    return events


def returns_or_refuses(reader, *args) -> None:
    try:
        reader(*args)
    except HistoryError:
        pass


def every_reader_returns_or_refuses(events, path) -> None:
    """Each history reader of ``events``, and of them written to ``path``,
    returns or raises ``HistoryError``; ``eenas report`` exits 0 or 2."""
    returns_or_refuses(replay_history, events)
    returns_or_refuses(_rebuild_state, events)
    returns_or_refuses(audit_history, events)
    path.write_text("".join(map(_event_line, events)))
    returns_or_refuses(audit_history, str(path))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["report", "--history", str(path)]) in (EXIT_OK, EXIT_CONFIG)


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_reader_refuses_a_corrupt_history_with_history_error(
    pinned, tmp_path, data
):
    events = data.draw(corruptions(pinned))
    every_reader_returns_or_refuses(events, tmp_path / "history.jsonl")


def resume(events, out):
    """``eenas search --resume`` of ``events`` written as the history in
    the directory ``out``, with the pinned run's config."""
    config = os.path.join(out, "run.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(PINNED_RUN, fh)
    with open(os.path.join(out, "history.jsonl"), "w", encoding="utf-8") as fh:
        fh.write("".join(map(_event_line, events)))
    return run_cli("search", "--config", config, "--out", out, "--resume")


@settings(
    max_examples=300, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_a_resume_of_a_corrupt_history_exits_with_its_code(pinned, data):
    events = data.draw(corruptions(pinned))
    with tempfile.TemporaryDirectory() as out:
        code, _ = resume(events, out)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_EVAL, EXIT_AUDIT)


@pytest.mark.parametrize("index", range(PINNED_LENGTH))
def test_a_history_with_a_dropped_line_is_read_or_refused(pinned, tmp_path, index):
    events = copy.deepcopy(pinned)
    del events[index]
    every_reader_returns_or_refuses(events, tmp_path / "dropped.jsonl")
    code, _ = resume(events, str(tmp_path))
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_EVAL, EXIT_AUDIT)


@settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_a_history_with_a_repeated_line_is_read_or_refused(pinned, data):
    events = data.draw(repeats(pinned))
    with tempfile.TemporaryDirectory() as out:
        every_reader_returns_or_refuses(
            events, pathlib.Path(out, "repeated.jsonl")
        )
        code, _ = resume(events, out)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_EVAL, EXIT_AUDIT)


class TestAKindThatIsNoString:
    """An ``event`` that is no string is skipped as an unknown kind is, so
    each reader ends in the ``HistoryError`` it gives for the missing
    line."""

    def write(self, events, path, index, kind):
        events = copy.deepcopy(events)
        events[index]["event"] = kind
        path.write_text("".join(map(_event_line, events)))
        return events

    @pytest.mark.parametrize("kind", [[], {}])
    def test_a_header_kind(self, pinned, tmp_path, kind):
        path = tmp_path / "history.jsonl"
        events = self.write(pinned, path, 0, kind)
        message = "history lacks a run-config header"
        with pytest.raises(HistoryError, match=message):
            audit_history(events)
        assert run_cli("report", "--history", str(path)) == (
            EXIT_CONFIG, f"error: {message}\n"
        )

    @pytest.mark.parametrize("kind", [[], {}])
    def test_a_gene_line_kind_on_resume(self, pinned, tmp_path, kind):
        """A member's gene line is skipped, so the member has no genes
        when ``--resume`` rebuilds the population."""
        member = pinned[-1]["s"][0]
        index = next(i for i, ev in enumerate(pinned) if ev.get("genes")
                     and ev["hash"] == member)
        events = self.write(pinned, tmp_path / "history.jsonl", index, kind)
        assert resume(events, str(tmp_path)) == (
            EXIT_CONFIG, f"error: member {member} has no recorded genes\n"
        )
