"""Whole-run properties of ``eenas search`` on drawn small configs.

A drawn run config (smallconv or a random small backbone, subsets of head
depths and exit bits, a θ cap that is off, loose or tight, a μ cap, sizes
2-6 and a seed) is searched with an oracle that faults on some hashes: it
raises, answers with the wrong exit count, or builds a report with a
non-finite accuracy or ratios that do not sum to one. Whatever the draw,
two runs write the same bytes, the audit is clean, a resume from any cut
writes the uninterrupted run's outputs, the front is sound, and no faulted
hash reaches the archive.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import tempfile
from unittest import mock

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import eenas.cli
import eenas.search
from eenas.arch import SpaceConfig
from eenas.cli import EXIT_EVAL, EXIT_OK, main
from eenas.evaluate import EvaluationReport
from eenas.hwcost import AcceleratorSpec
from eenas.search import (
    CostCache,
    EvaluationFailure,
    audit_history,
    read_history,
    replay_history,
)
from test_workload import small_backbones

OUTPUT_FILES = ("history.jsonl", "front.csv", "iterations.csv", "scatter.csv")


def _raise(report):
    raise EvaluationFailure("injected failure")


#: Faults an evaluator may commit; every one must fail only its hash.
FAULTS = (
    _raise,
    lambda r: EvaluationReport(
        (*r.accuracy_per_exit, None), (*r.exit_ratios, 0.0),
        (*r.sample_counts, 0), r.threshold,
    ),
    lambda r: dataclasses.replace(
        r, accuracy_per_exit=(math.nan, *r.accuracy_per_exit[1:])
    ),
    lambda r: dataclasses.replace(
        r, accuracy_per_exit=(*r.accuracy_per_exit[:-1], math.inf)
    ),
    lambda r: dataclasses.replace(
        r, exit_ratios=tuple(x / 2 for x in r.exit_ratios)
    ),
)


class FaultyEvaluator:
    """Wraps an evaluator; the hashes whose value modulo ``period`` indexes
    :data:`FAULTS` get that fault, and are remembered in ``faulted``."""

    def __init__(self, inner, period: int):
        self.inner = inner
        self.period = period
        self.faulted: set[str] = set()

    def __call__(self, key, arch):
        report = self.inner(key, arch)
        fault = int(key, 16) % self.period
        if fault >= len(FAULTS):
            return report
        self.faulted.add(key)
        return FAULTS[fault](report)


def backbone_text(backbone) -> str:
    """The plain-text backbone format of ``backbone``."""
    h, w, c = backbone.input_shape
    lines = [
        f"input {h} {w} {c}",
        f"kernel {backbone.kernel}",
        f"padding {backbone.padding}",
        f"expansion {backbone.expansion}",
    ]
    for b in backbone.blocks:
        mounts = ",".join(b.mounts) or "-"
        lines.append(f"block {b.kind} {b.repetition} {mounts} {b.channels} {b.stride}")
    return "\n".join(lines) + "\n"


def subsets(values):
    return st.lists(
        st.sampled_from(values), min_size=1, max_size=len(values), unique=True
    )


@st.composite
def run_configs(draw):
    """A small run config; a drawn backbone is returned beside it, to be
    written to a file the config names. Heads on a drawn backbone pool to
    1x1, as its mounts may be that small."""
    backbone = draw(st.one_of(st.just("builtin:smallconv"), small_backbones()))
    config = {
        "seed": draw(st.integers(0, 2**16)),
        "space": {
            "head_depths": draw(subsets([1, 2])),
            "exit_bits": draw(subsets([8, 4, 2])),
            **({} if isinstance(backbone, str) else {"pooled_size": 1}),
        },
        "nas": {
            "iterations": draw(st.integers(1, 2)),
            "generations": draw(st.integers(1, 2)),
            "n_select": draw(st.integers(2, 6)),
            "init_population": draw(st.integers(2, 6)),
            "theta": draw(st.sampled_from([None, 1.0, 0.2])),
            "mu": draw(st.sampled_from([1.0, 0.8, 0.6])),
        },
        "evaluator": {"kind": "oracle"},
    }
    return config, backbone


def search(config_path, out, period, faulted, resume=False, caches=None):
    """Run ``eenas search`` in-process with a faulty oracle; returns the
    exit code and the bytes of each output (None where it is missing). The
    cost caches the command builds are appended to ``caches``."""
    build = eenas.cli._build_evaluator

    def cache(*args):
        made = CostCache(*args)
        if caches is not None:
            caches.append(made)
        return made

    def faulty(data, seed):
        evaluator, kind = build(data, seed)
        wrapped = FaultyEvaluator(evaluator, period)
        faulted.append(wrapped.faulted)
        return wrapped, kind

    argv = ["search", "--config", config_path, "--out", out]
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(eenas.cli, "_build_evaluator", faulty))
        stack.enter_context(mock.patch.object(eenas.search, "CostCache", cache))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        code = main(argv + (["--resume"] if resume else []))
    paths = {name: pathlib.Path(out, name) for name in OUTPUT_FILES}
    return code, {
        name: path.read_bytes() if path.exists() else None
        for name, path in paths.items()
    }


def check_front(front_csv: bytes, history) -> None:
    """Every front point is labeled, finite, non-dominated among the
    labeled archive, and within both caps."""
    header = history.header
    theta = header["nas"]["theta"]
    theta = math.inf if theta is None else theta
    mu = header["nas"]["mu"]
    cost = CostCache(
        SpaceConfig.from_json(header["space"]),
        AcceleratorSpec.from_json(header["accelerator"]),
    )
    records = history.labeled_records()
    rows = front_csv.decode().splitlines()[1:]
    assert rows
    for row in rows:
        _, key, acc, et, *_ = row.split(",")
        acc, et = float(acc), float(et)
        assert key in history.labeled
        assert math.isfinite(acc) and math.isfinite(et)
        evaluation = history.by_hash[key]
        assert (acc, et) == (evaluation["acc_avg"], evaluation["et_avg"])
        assert not any(
            r.acc_avg >= acc and r.et_avg <= et and (r.acc_avg > acc or r.et_avg < et)
            for r in records
        )
        assert cost.max_overhead(history.genes_of(key)) <= theta
        assert evaluation["exit_ratios"][-1] <= mu


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(drawn=run_configs(), period=st.integers(12, 40), data=st.data())
def test_faulty_runs_are_reproducible_resumable_and_sound(drawn, period, data):
    config, backbone = drawn
    with tempfile.TemporaryDirectory() as root:
        if not isinstance(backbone, str):
            path = os.path.join(root, "backbone.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(backbone_text(backbone))
            backbone = path
        config_path = os.path.join(root, "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(dict(config, backbone=backbone), fh)

        faulted: list[set[str]] = []
        caches: list[CostCache] = []
        first = search(config_path, os.path.join(root, "a"), period, faulted, caches=caches)
        assert first == search(config_path, os.path.join(root, "b"), period, faulted)
        code, outputs = first
        # A run that labels fewer than two architectures cannot fit its
        # predictors and exits 3; its history is still checked.
        assert code in (EXIT_OK, EXIT_EVAL)
        event(f"exit code {code}, faults: {bool(faulted[0])}")
        events = read_history(os.path.join(root, "a", "history.jsonl"))
        audit = audit_history(events)
        assert audit.ok
        # The run's own cache, which costed in the search's order, audits
        # the same as a fresh one.
        assert audit_history(events, caches[0]) == audit
        history_bytes = outputs["history.jsonl"]
        after_header = history_bytes.index(b"\n") + 1
        cut = data.draw(st.integers(after_header, len(history_bytes)), label="cut")
        resumed = os.path.join(root, "resumed")
        os.mkdir(resumed)
        with open(os.path.join(resumed, "history.jsonl"), "wb") as fh:
            fh.write(history_bytes[:cut])
        assert search(config_path, resumed, period, faulted, resume=True) == first

        history = replay_history(events)
        failed = {e["hash"] for e in events if e["event"] == "eval-failed"}
        evaluated = {e["hash"] for e in events if e["event"] == "evaluated"}
        archived = set().union(*(s["p"] for s in history.summaries))
        for key in faulted[0]:
            assert key in failed
            assert key not in evaluated and key not in archived
        if code == EXIT_OK:
            check_front(outputs["front.csv"], history)
