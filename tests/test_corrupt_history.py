"""A corrupt history fails with ``HistoryError``, whichever field of
whichever line is corrupted.

The harness draws one corruption of a small pinned smallconv oracle
history: an event, one of its fields (the ``event`` key and the fields
of the header's sections included), and a value from a fixed pool of
JSON values, or the field's deletion. Every history reader must then
return or raise ``HistoryError``, and ``eenas report`` must exit 0 or 2,
never with another exception.
"""

import contextlib
import copy
import hashlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eenas.arch import SpaceConfig, builtin_backbone
from eenas.cli import EXIT_CONFIG, EXIT_OK, main
from eenas.history import HistoryError, _event_line, read_history, replay_history
from eenas.hwcost import AcceleratorSpec
from eenas.search import (
    NasConfig,
    OracleEvaluator,
    _rebuild_state,
    audit_history,
    run_search,
)

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


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """The events of the pinned history: smallconv, the oracle, seed 3."""
    path = tmp_path_factory.mktemp("pinned") / "history.jsonl"
    run_search(
        SpaceConfig(backbone=builtin_backbone("smallconv")), AcceleratorSpec(),
        OracleEvaluator(),
        NasConfig(iterations=2, n_select=3, init_population=6, seed=3),
        history_path=str(path), evaluator_kind="oracle",
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256
    return read_history(str(path))


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


def returns_or_refuses(reader, *args) -> None:
    try:
        reader(*args)
    except HistoryError:
        pass


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_reader_refuses_a_corrupt_history_with_history_error(
    pinned, tmp_path, data
):
    events = data.draw(corruptions(pinned))
    returns_or_refuses(replay_history, events)
    returns_or_refuses(_rebuild_state, events)
    returns_or_refuses(audit_history, events)
    path = tmp_path / "history.jsonl"
    path.write_text("".join(map(_event_line, events)))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["report", "--history", str(path)]) in (EXIT_OK, EXIT_CONFIG)


def run_cli(*argv):
    """``eenas`` in-process; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


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
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "seed": 3, "backbone": "builtin:smallconv", "accelerator": "default",
            "space": {"head_depths": [1, 2], "exit_bits": [8, 4], "backbone_bits": 8},
            "nas": {"iterations": 2, "n_select": 3, "init_population": 6},
            "evaluator": {"kind": "oracle"},
        }))
        self.write(pinned, tmp_path / "history.jsonl", index, kind)
        assert run_cli(
            "search", "--config", str(config), "--out", str(tmp_path), "--resume"
        ) == (EXIT_CONFIG, f"error: member {member} has no recorded genes\n")
