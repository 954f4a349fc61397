"""`eenas report` leaves unparsed only the gene lines it does not use.

The report parses every committed line but one kind: a gene line as the
search writes it (it starts with ``_GENE_PREFIXES`` and holds the exact
``"hash":"`` text) whose hash is not labeled at the last summary
(``history.read_report_events``). These tests pin its output to the full
parse (``read_history``), count what it parses, and check that any other
corrupt line stops it as it stops the full parse."""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eenas.cli
import eenas.history
import eenas.search
from eenas.arch import SpaceConfig, builtin_backbone
from eenas.cli import EXIT_CONFIG, EXIT_OK, main
from eenas.history import _GENE_KINDS, _GENE_PREFIXES, _HASH, _event_line
from eenas.hwcost import AcceleratorSpec
from eenas.search import (
    EvaluationFailure,
    HistoryError,
    NasConfig,
    OracleEvaluator,
    audit_history,
    pareto_front,
    read_history,
    replay_history,
    run_search,
)
from helpers import README_RUN

SMALL_CONFIG = {
    "seed": 11,
    "backbone": "builtin:smallconv",
    "accelerator": "default",
    "space": {"head_depths": [1, 2], "exit_bits": [8, 4], "backbone_bits": 8},
    "nas": {"iterations": 2, "n_select": 6, "init_population": 12},
    "evaluator": {"kind": "oracle"},
}


def report(history, pick="best-acc", full_parse=False):
    """Run ``eenas report`` in-process; returns (exit code, stdout, stderr).
    With ``full_parse`` the report reads the history through
    ``read_history``, as every command did before it skipped lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if full_parse:
            stack.enter_context(
                mock.patch.object(eenas.cli, "read_report_events", read_history)
            )
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(["report", "--history", str(history), "--pick", pick])
    return code, out.getvalue(), err.getvalue()


def flaky_search(backbone, path, seed):
    """A search whose oracle fails for an eighth of the hashes, with a
    last-exit cap that rejects some of the rest."""
    oracle = OracleEvaluator(seed=0)

    def flaky(key, arch):
        if key[0] in "01":
            raise EvaluationFailure("simulated failure")
        return oracle(key, arch)

    config = NasConfig(
        iterations=3, n_select=6, init_population=15, theta=0.5, seed=seed
    )
    run_search(
        SpaceConfig(backbone=builtin_backbone(backbone)),
        AcceleratorSpec(),
        flaky,
        config,
        history_path=str(path),
    )
    return path


def cut_in_final_iteration(src, dst):
    """Copy ``src`` through the first evaluation of its final iteration, so
    the copy ends inside that iteration with evaluations no summary labels."""
    lines = src.read_text().splitlines(keepends=True)
    summaries = [
        i for i, line in enumerate(lines) if '"event":"iteration-summary"' in line
    ]
    first = next(
        i for i in range(summaries[-2], summaries[-1])
        if '"event":"evaluated"' in lines[i]
    )
    dst.write_text("".join(lines[: first + 1]))
    return dst


def kinds(path):
    return [ev["event"] for ev in read_history(str(path))]


def used(events):
    """The events a report parses: all but the gene events of hashes not
    labeled at the last summary."""
    labeled = replay_history(events).labeled
    return [
        ev for ev in events
        if ev["event"] not in _GENE_KINDS or ev["hash"] in labeled
    ]


@pytest.fixture(scope="module")
def histories(tmp_path_factory):
    root = tmp_path_factory.mktemp("histories")
    small = flaky_search("smallconv", root / "smallconv.jsonl", seed=11)
    mobile = flaky_search("mobilenetv2_cifar", root / "mobilenet.jsonl", seed=5)
    return {
        "smallconv": small,
        "mobilenet": mobile,
        "mobilenet-cut": cut_in_final_iteration(mobile, root / "mobilenet-cut.jsonl"),
    }


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """A smallconv oracle search run through the CLI, with its config."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    out = root / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["search", "--config", str(config), "--out", str(out)]) == EXIT_OK
    return config, out / "history.jsonl"


class TestSameOutputAsFullParse:
    def test_histories_cover_failures_rejections_and_a_cut(self, histories):
        for name, path in histories.items():
            events = kinds(path)
            assert "eval-failed" in events, name
            assert "filtered-mu" in events, name
        cut = kinds(histories["mobilenet-cut"])
        assert cut[-1] != "iteration-summary"
        assert "evaluated" in cut[len(cut) - cut[::-1].index("iteration-summary"):]

    @pytest.mark.parametrize("name", ["smallconv", "mobilenet", "mobilenet-cut"])
    def test_every_pick_prints_the_same(self, histories, name):
        path = histories[name]
        history = replay_history(read_history(str(path)))
        front = pareto_front(history.labeled_records())
        picks = ["best-acc", "best-et", *map(str, range(len(front)))]
        for pick in picks:
            new = report(path, pick)
            assert new[0] == EXIT_OK, (pick, new[2])
            assert new == report(path, pick, full_parse=True), pick

    def test_torn_last_line_is_dropped(self, cli_run, tmp_path):
        _, history = cli_run
        text = history.read_bytes()
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(text[: len(text) - 40])
        whole = tmp_path / "whole.jsonl"
        whole.write_bytes(text[: text.rstrip(b"\n").rfind(b"\n") + 1])
        assert report(torn)[0] == EXIT_OK
        assert report(torn) == report(whole) == report(torn, full_parse=True)
        assert report(torn) != report(history)

    def test_reader_keeps_the_used_events_in_log_order(self, histories):
        path = str(histories["mobilenet"])
        events = read_history(path)
        kept = eenas.search.read_report_events(path)
        assert kept == used(events)
        assert {"selected", "filtered-mu", "eval-failed"} <= {
            ev["event"] for ev in kept
        }


class TestLinesKeptAsWritten:
    """``--resume`` keeps a valid line of the kept prefix as written. The
    report parses every line that is not spelled as the search spells a
    gene line, so it reads such a line, however it is spaced or its keys
    ordered, as the full parse does."""

    def test_respelled_last_summary(self, tmp_path):
        """On the README search at seed 401, the last summary labels 17
        front points and the one before it 16: a report that missed the
        respelled last summary would report the older archive."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**README_RUN, "seed": 401}))
        out = tmp_path / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["search", "--config", str(config), "--out", str(out)]) == EXIT_OK
        history = out / "history.jsonl"
        expected = report(history)
        assert expected[0] == EXIT_OK and "front size: 17\n" in expected[1]
        lines = history.read_text().splitlines(keepends=True)
        last = max(i for i, line in enumerate(lines) if "iteration-summary" in line)
        lines[last] = json.dumps(json.loads(lines[last]), sort_keys=True) + "\n"
        history.write_text("".join(lines))
        assert report(history) == expected
        assert report(history, full_parse=True) == expected
        assert audit_history(str(history)).ok

    @pytest.mark.parametrize("spacing", ['"hash": "', '"hash" :\t"'])
    def test_respelled_hash_of_a_labeled_gene_line(self, cli_run, tmp_path, spacing):
        """A gene line that still starts as the search writes one, but
        whose hash field is spaced, is parsed in full."""
        _, history = cli_run
        first = replay_history(read_history(str(history))).summaries[-1]["p"][0]
        respelled = tmp_path / "history.jsonl"
        rewrite_line(
            history, respelled,
            lambda line: line.startswith('{"event":"sampled"')
            and f'"hash":"{first}"' in line,
            lambda line: line.replace('"hash":"', spacing),
        )
        assert spacing + first in respelled.read_text()
        expected = report(history)
        assert expected[0] == EXIT_OK
        assert report(respelled) == expected
        assert report(respelled, full_parse=True) == expected

    @pytest.mark.parametrize("name", ["smallconv", "mobilenet", "mobilenet-cut"])
    def test_every_line_respelled(self, histories, name, tmp_path):
        path = histories[name]
        respelled = tmp_path / "history.jsonl"
        respelled.write_text(
            "".join(json.dumps(ev) + "\n" for ev in read_history(str(path)))
        )
        assert respelled.read_text() != path.read_text()
        for pick in ("best-acc", "best-et", "0"):
            expected = report(path, pick)
            assert expected[0] == EXIT_OK
            assert report(respelled, pick) == expected, pick


class TestReportParsesLess:
    def test_no_full_parse_and_bounded_json_loads(
        self, histories, monkeypatch
    ):
        path = histories["mobilenet"]
        events = read_history(str(path))
        parsed = len(used(events))
        assert parsed < len(events) / 2

        def forbidden(*args, **kwargs):
            raise AssertionError("report called read_history")

        for module in (eenas.history, eenas.search):
            monkeypatch.setattr(module, "read_history", forbidden)
            monkeypatch.setattr(module, "read_lines", forbidden)
        calls = []
        loads = json.loads

        def counting(*args, **kwargs):
            calls.append(1)
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        code, out, err = report(path)
        assert code == EXIT_OK, err
        assert len(calls) == parsed


def rewrite_line(path, dst, pick, text):
    """Copy ``path`` to ``dst`` with the first line for which ``pick``
    holds replaced by ``text(line)``."""
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if pick(line))
    lines[i] = text(lines[i])
    dst.write_text("".join(lines))


def halve(line):
    return line[: len(line) // 2] + "\n"


def cut_after_hash(line):
    """``line`` cut just after the exact text of its hash."""
    end = line.index('"', line.index(_HASH) + len(_HASH))
    return line[: end + 1] + "\n"


def cut_before_hash(line):
    return line[: line.index(_HASH)] + "\n"


class TestCorruptLines:
    def test_corrupt_evaluated_line_stops_the_report(self, cli_run, tmp_path):
        _, history = cli_run
        bad = tmp_path / "history.jsonl"
        rewrite_line(history, bad, lambda l: '"event":"evaluated"' in l, halve)
        code, out, err = report(bad)
        assert code == EXIT_CONFIG
        assert out == "" and "error:" in err

    def test_corrupt_last_summary_stops_the_report(self, cli_run, tmp_path):
        _, history = cli_run
        lines = history.read_text().splitlines(keepends=True)
        assert '"event":"iteration-summary"' in lines[-1]
        bad = tmp_path / "history.jsonl"
        bad.write_text("".join(lines[:-1]) + halve(lines[-1]))
        assert report(bad)[0] == EXIT_CONFIG

    def unlabeled_offspring(self, history):
        labeled = replay_history(read_history(str(history))).labeled

        def pick(line):
            if not line.startswith('{"event":"offspring"'):
                return False
            return json.loads(line)["hash"] not in labeled

        return pick

    def test_corrupt_unlabeled_offspring_only_stops_full_readers(
        self, cli_run, tmp_path
    ):
        """The line still holds the exact text of its unlabeled hash, so
        the report leaves it unparsed."""
        config, history = cli_run
        out = tmp_path / "run"
        out.mkdir()
        bad = out / "history.jsonl"
        rewrite_line(history, bad, self.unlabeled_offspring(history), cut_after_hash)
        assert report(bad) == report(history)
        assert report(bad)[0] == EXIT_OK

        with pytest.raises(HistoryError, match="is not valid JSON"):
            audit_history(str(bad))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(
                ["search", "--config", str(config), "--out", str(out), "--resume"]
            )
        assert code == EXIT_CONFIG

    def test_unlabeled_offspring_cut_before_its_hash_stops_the_report(
        self, cli_run, tmp_path
    ):
        _, history = cli_run
        bad = tmp_path / "history.jsonl"
        rewrite_line(history, bad, self.unlabeled_offspring(history), cut_before_hash)
        code, out, err = report(bad)
        assert (code, out) == (EXIT_CONFIG, "")
        assert "is not valid JSON" in err
        assert report(bad, full_parse=True) == (code, out, err)

    def test_unlabeled_gene_line_above_the_header_stops_the_report(
        self, cli_run, tmp_path
    ):
        """The first non-blank line is parsed whatever it holds, so the
        report, as the full readers, finds no header there."""
        _, history = cli_run
        lines = history.read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines)
                 if self.unlabeled_offspring(history)(line))
        bad = tmp_path / "history.jsonl"
        bad.write_text("".join([lines[i], *lines[:i], *lines[i + 1:]]))
        message = "error: history lacks a run-config header\n"
        assert report(bad) == (EXIT_CONFIG, "", message)
        assert report(bad, full_parse=True) == report(bad)

    def test_genes_that_no_longer_match_their_hash(self, cli_run, tmp_path):
        """A changed gene of the chosen point still parses, but its genes
        no longer hash to the hash its line names."""
        _, history = cli_run
        best = report(history)[1].splitlines()[0].split()[-1]

        def flip_last_gene(line):
            event = json.loads(line)
            event["genes"][-1] = 1 - event["genes"][-1]
            return _event_line(event)

        def gene_line_of_best(line):
            return f'"hash":"{best}"' in line and '"genes"' in line

        bad = tmp_path / "history.jsonl"
        rewrite_line(history, bad, gene_line_of_best, flip_last_gene)
        code, out, err = report(bad)
        assert code == EXIT_CONFIG
        assert f"the genes recorded for {best} do not hash to it" in err

    def test_header_without_its_space(self, cli_run, tmp_path):
        _, history = cli_run

        def drop_space(line):
            event = json.loads(line)
            del event["space"]["backbone"]
            return _event_line(event)

        bad = tmp_path / "history.jsonl"
        rewrite_line(history, bad, lambda l: '"event":"run-config"' in l, drop_space)
        code, out, err = report(bad)
        assert code == EXIT_CONFIG
        assert "malformed run-config header" in err

    @pytest.mark.parametrize(
        "section, value",
        [
            ("space", None),
            ("accelerator", None),
            ("nas", None),
            ("space", "x"),
            ("space", {}),
            ("nas", []),
            ("nas", "x"),
        ],
    )
    def test_malformed_header_section(self, cli_run, tmp_path, section, value):
        """A header section that is missing (None here) or not shaped as
        the search writes it stops the audit with a ``HistoryError`` that
        names it; the report reads the space section alone."""
        _, history = cli_run

        def edit(line):
            event = json.loads(line)
            if value is None:
                del event[section]
            else:
                event[section] = value
            return _event_line(event)

        bad = tmp_path / "history.jsonl"
        rewrite_line(history, bad, lambda l: '"event":"run-config"' in l, edit)
        message = f"malformed run-config header: {section}: "
        with pytest.raises(HistoryError, match=message):
            audit_history(str(bad))
        code, out, err = report(bad)
        if section == "space":
            assert code == EXIT_CONFIG and out == "" and message in err
        else:
            assert (code, out) == report(history)[:2]

    @pytest.mark.parametrize(
        "ratios",
        [[], ["a", "b"], [[0.5], [0.5]], ["a", "b", "c"]],
        ids=["empty", "strings", "lists", "three-strings"],
    )
    def test_malformed_exit_ratios_of_the_chosen_point(
        self, cli_run, tmp_path, ratios
    ):
        """Exit ratios that are not one or more finite numbers stop both
        of their readers, the audit and the report, with a
        ``HistoryError``."""
        _, history = cli_run
        best = report(history)[1].splitlines()[0].split()[-1]

        def edit(line):
            return _event_line(dict(json.loads(line), exit_ratios=ratios))

        def evaluation_of_best(line):
            return f'"hash":"{best}"' in line and '"event":"evaluated"' in line

        bad = tmp_path / "history.jsonl"
        rewrite_line(history, bad, evaluation_of_best, edit)
        message = f"exit ratios of {best} must be one or more finite numbers"
        with pytest.raises(HistoryError, match=message):
            audit_history(str(bad))
        code, out, err = report(bad)
        assert code == EXIT_CONFIG and out == "" and message in err


@st.composite
def corruptions(draw, lines):
    """One corrupted line of ``lines``: dropped, truncated, or with one
    byte changed to another printable ASCII byte. Returns (line index, new
    content or None for a dropped line)."""
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    kind = draw(st.sampled_from(["drop", "truncate", "byte"]))
    if kind == "drop":
        return i, None
    if kind == "truncate":
        return i, line[: draw(st.integers(0, len(line) - 1))]
    j = draw(st.integers(0, len(line) - 1))
    byte = draw(st.integers(0x20, 0x7E).filter(lambda b: b != line[j]))
    return i, line[:j] + bytes([byte]) + line[j + 1:]


def write_lines(path, lines):
    with open(path, "wb") as fh:
        fh.write(b"".join(line + b"\n" for line in lines))


def left_unparsed(lines, i, labeled):
    """Whether the report leaves ``lines[i]`` unparsed: a non-blank line
    comes before it, it is spelled as the search spells a gene line, and
    the hash it holds is not labeled."""
    text = lines[i].decode()
    return (
        any(line.strip() for line in lines[:i])
        and text.startswith(_GENE_PREFIXES) and _HASH in text
        and text.partition(_HASH)[2].partition('"')[0] not in labeled
    )


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_one_corrupt_line(cli_run, data):
    """For any one corrupt line, the report and the full parse both exit
    0 or 2, and the report prints what the full parse prints, exit code and
    error included, unless the report leaves the line unparsed: then it
    prints what the full parse prints of the history without that line. So
    a report succeeds on a line it parses only where the full parse
    succeeds, and prints the same."""
    lines = cli_run[1].read_bytes().splitlines()
    labeled = replay_history(read_history(str(cli_run[1]))).labeled
    i, new = data.draw(corruptions(lines))
    corrupted = [*lines[:i], *([] if new is None else [new]), *lines[i + 1:]]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "history.jsonl")
        write_lines(path, corrupted)
        fast = report(path)
        full = report(path, full_parse=True)
        assert fast[0] in (EXIT_OK, EXIT_CONFIG)
        assert full[0] in (EXIT_OK, EXIT_CONFIG)
        if new is not None and left_unparsed(corrupted, i, labeled):
            write_lines(path, [*lines[:i], *lines[i + 1:]])
            full = report(path, full_parse=True)
        assert fast == full
