"""`eenas report` reads only the history lines it uses.

The report parses the first line, every ``evaluated`` and
``iteration-summary`` line and the gene lines of the hashes labeled at the
last summary (``search.read_report_events``). These tests pin its output to
the full parse (``read_history``), count what it parses, and check which
corrupt lines still stop it."""

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
import eenas.search
from eenas.arch import SpaceConfig, builtin_backbone, chromosome_hash
from eenas.cli import EXIT_CONFIG, EXIT_OK, main
from eenas.hwcost import AcceleratorSpec
from eenas.search import (
    EvaluationFailure,
    _event_line,
    NasConfig,
    OracleEvaluator,
    audit_history,
    pareto_front,
    read_history,
    replay_history,
    run_search,
)

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

    def flaky(chrom, arch):
        if chromosome_hash(chrom)[0] in "01":
            raise EvaluationFailure("simulated failure")
        return oracle(chrom, arch)

    config = NasConfig(iterations=3, n_select=6, init_population=15, seed=seed)
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
        labeled = set(replay_history(events).labeled)
        used = [
            ev for i, ev in enumerate(events)
            if i == 0
            or ev["event"] in ("evaluated", "iteration-summary")
            or (ev["event"] in ("sampled", "offspring", "filtered-theta")
                and ev["hash"] in labeled)
        ]
        assert eenas.search.read_report_events(path) == used


class TestReportParsesLess:
    def test_no_full_parse_and_bounded_json_loads(
        self, histories, monkeypatch
    ):
        path = histories["mobilenet"]
        events = read_history(str(path))
        seen = [ev["event"] for ev in events]
        labeled = replay_history(events).labeled
        bound = (
            1 + seen.count("evaluated") + seen.count("iteration-summary")
            + len(labeled)
        )
        assert bound < len(events) / 2

        def forbidden(*args, **kwargs):
            raise AssertionError("report called read_history")

        monkeypatch.setattr(eenas.cli, "read_history", forbidden)
        monkeypatch.setattr(eenas.search, "read_history", forbidden)
        calls = []
        loads = json.loads

        def counting(*args, **kwargs):
            calls.append(1)
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        code, out, err = report(path)
        assert code == EXIT_OK, err
        assert 0 < len(calls) <= bound


def rewrite_line(path, dst, pick, text):
    """Copy ``path`` to ``dst`` with the first line for which ``pick``
    holds replaced by ``text(line)``."""
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if pick(line))
    lines[i] = text(lines[i])
    dst.write_text("".join(lines))


def halve(line):
    return line[: len(line) // 2] + "\n"


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

    def test_corrupt_unlabeled_offspring_only_stops_full_readers(
        self, cli_run, tmp_path
    ):
        config, history = cli_run
        labeled = replay_history(read_history(str(history))).labeled

        def unlabeled_offspring(line):
            if not line.startswith('{"event":"offspring"'):
                return False
            return json.loads(line)["hash"] not in labeled

        out = tmp_path / "run"
        out.mkdir()
        bad = out / "history.jsonl"
        rewrite_line(history, bad, unlabeled_offspring, halve)
        assert report(bad) == report(history)
        assert report(bad)[0] == EXIT_OK

        with pytest.raises(json.JSONDecodeError):
            audit_history(str(bad))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(
                ["search", "--config", str(config), "--out", str(out), "--resume"]
            )
        assert code == EXIT_CONFIG

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


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_one_corrupt_line(cli_run, data):
    """For any one corrupt line: no traceback; where the full parse
    succeeds, the report prints the same; where only the report succeeds,
    it prints what the full parse prints with that line removed (a line
    that still parses and is read must keep its effect)."""
    lines = cli_run[1].read_bytes().splitlines()
    i, new = data.draw(corruptions(lines))
    corrupted = [*lines[:i], *([] if new is None else [new]), *lines[i + 1:]]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "history.jsonl")
        write_lines(path, corrupted)
        fast = report(path)
        full = report(path, full_parse=True)
        assert fast[0] in (EXIT_OK, EXIT_CONFIG)
        assert full[0] in (EXIT_OK, EXIT_CONFIG)
        if full[0] == EXIT_OK:
            assert fast == full
        elif fast[0] == EXIT_OK:
            write_lines(path, [*lines[:i], *lines[i + 1:]])
            without = report(path, full_parse=True)
            if without[0] == EXIT_OK:
                assert fast == without
