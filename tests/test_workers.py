"""Toy batches train in forked workers, and nothing of a run depends on it.

A toy search (the ``TOY`` evaluator on ``SMALL_RUN`` of ``test_cli.py``)
writes the same four files whether its batches train in forked workers or
in this process, and a resume continues it to the same bytes. The faults
an evaluator can commit in a worker end as they end in this process: an
``EvaluationFailure`` fails only its hash, any other exception propagates,
and a killed worker ends the search with exit 3. No worker outlives its
batch. Evaluators that do not opt in are called here, in hash order, and
importing the CLI loads no process pool.
"""

import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

import eenas
import eenas.cli
from eenas.cli import EXIT_EVAL, EXIT_OK, main
from eenas.evaluate import TrainingConfig, make_toy_dataset
from eenas.search import (
    EvaluationFailure,
    NasConfig,
    OracleEvaluator,
    ToyEvaluator,
    run_search,
)
from test_cli import SMALL_RUN, TOY, write_json

OUTPUT_FILES = ("history.jsonl", "front.csv", "iterations.csv", "scatter.csv")

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity")
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="forked workers need fork and an affinity mask",
)


class PidToy(ToyEvaluator):
    """Writes the PID that trains each hash to a file named by the hash.
    It cannot be pickled: workers must inherit it."""

    pid_dir = None

    def __reduce__(self):
        raise TypeError("an evaluator reaches its workers by fork")

    def __call__(self, key, arch):
        with open(os.path.join(self.pid_dir, key), "w") as fh:
            fh.write(str(os.getpid()))
        return super().__call__(key, arch)


class FaultyToy(ToyEvaluator):
    """Commits ``fault`` on the hashes in ``faulty``."""

    faulty = frozenset()
    fault = "fail"

    def __call__(self, key, arch):
        if key in self.faulty:
            if self.fault == "fail":
                raise EvaluationFailure(f"injected failure of {key}")
            if self.fault == "raise":
                raise RuntimeError(f"injected error in {key}")
            os.kill(os.getpid(), signal.SIGKILL)
        return super().__call__(key, arch)


class RecordingOracle(OracleEvaluator):
    """Records ``(pid, key)`` for each call."""

    calls = []

    def __call__(self, key, arch):
        self.calls.append((os.getpid(), key))
        return super().__call__(key, arch)


@contextlib.contextmanager
def deadline(seconds):
    """Fail the test, rather than hang it, after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def search(tmp_path, monkeypatch):
    """``search(name, cpus, evaluator_class, resume=False)`` runs ``eenas
    search`` on the toy ``SMALL_RUN`` into ``tmp_path / name`` with ``cpus``
    CPUs in the affinity mask; returns the exit code and the directory."""
    config = write_json(tmp_path / "run.json", dict(SMALL_RUN, evaluator=TOY))

    def run(name, cpus=2, evaluator_class=ToyEvaluator, resume=False):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(eenas.cli, "ToyEvaluator", evaluator_class)
        out = tmp_path / name
        argv = ["search", "--config", config, "--out", str(out)]
        with deadline(120):
            code = main(argv + ["--resume"] * resume)
        assert multiprocessing.active_children() == []
        return code, out

    return run


def outputs(out) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in OUTPUT_FILES}


def events(out) -> list[dict]:
    return [json.loads(line) for line in (out / "history.jsonl").read_text().splitlines()]


def evaluated_hashes(out, k=None) -> list[str]:
    return [
        e["hash"] for e in events(out)
        if e["event"] in ("evaluated", "eval-failed") and k in (None, e["k"])
    ]


def cut_last_iteration(src, dst, where: str) -> None:
    """Copy the history of ``src`` to ``dst``, cut inside its last iteration:
    halfway through it, or just before its summary."""
    lines = (src / "history.jsonl").read_text().splitlines(keepends=True)
    summaries = [i for i, line in enumerate(lines) if '"iteration-summary"' in line]
    prev, last = summaries[-2:]
    cut = prev + 1 + (last - prev) // 2 if where == "middle" else last
    dst.mkdir()
    (dst / "history.jsonl").write_text("".join(lines[:cut]))


class TestSameBytes:
    def test_workers_write_what_one_process_writes(self, search, tmp_path, monkeypatch):
        pids = {}
        for name, cpus in (("forked", 2), ("serial", 1)):
            pid_dir = tmp_path / f"{name}-pids"
            pid_dir.mkdir()
            monkeypatch.setattr(PidToy, "pid_dir", str(pid_dir))
            code, _ = search(name, cpus, PidToy)
            assert code == EXIT_OK
            pids[name] = {int(p.read_text()) for p in pid_dir.iterdir()}
        assert outputs(tmp_path / "forked") == outputs(tmp_path / "serial")
        assert pids["serial"] == {os.getpid()}
        assert os.getpid() not in pids["forked"]

    @pytest.mark.parametrize("where", ["middle", "before-summary"])
    def test_resume_continues_to_the_same_bytes(self, search, tmp_path, where):
        _, whole = search("whole")
        cut_last_iteration(whole, tmp_path / "cut", where)
        code, resumed = search("cut", resume=True)
        assert code == EXIT_OK
        assert outputs(resumed) == outputs(whole)


class TestFaultsInWorkers:
    def test_failures_are_logged_where_one_process_logs_them(
        self, search, monkeypatch
    ):
        _, whole = search("whole")
        first = evaluated_hashes(whole, k=0)
        failing = {first[1], first[4]}
        monkeypatch.setattr(FaultyToy, "faulty", frozenset(failing))
        _, forked = search("forked", 2, FaultyToy)
        _, serial = search("serial", 1, FaultyToy)
        assert outputs(forked) == outputs(serial)
        failed = [e for e in events(forked) if e["event"] == "eval-failed"]
        assert {e["hash"] for e in failed} == failing
        assert all(e["error"].startswith("injected failure") for e in failed)

    def test_another_exception_propagates_out_of_run_search(
        self, small_space, accel, tmp_path, monkeypatch
    ):
        config = NasConfig(iterations=1, n_select=3, init_population=6, mu=1, seed=11)
        evaluator = FaultyToy(make_toy_dataset(n=100), TrainingConfig(seed=11, epochs=2))
        run_search(small_space, accel, evaluator, config, str(tmp_path / "history.jsonl"))
        victim = evaluated_hashes(tmp_path, k=0)[2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(FaultyToy, "faulty", frozenset([victim]))
        monkeypatch.setattr(FaultyToy, "fault", "raise")
        with deadline(120), pytest.raises(RuntimeError, match="injected error"):
            run_search(small_space, accel, evaluator, config, str(tmp_path / "h.jsonl"))
        assert multiprocessing.active_children() == []

    def test_a_killed_worker_exits_3_and_the_history_resumes(
        self, search, monkeypatch, capsys
    ):
        _, whole = search("whole")
        victim = evaluated_hashes(whole, k=1)[0]
        monkeypatch.setattr(FaultyToy, "faulty", frozenset([victim]))
        monkeypatch.setattr(FaultyToy, "fault", "kill")
        capsys.readouterr()
        code, killed = search("killed", 2, FaultyToy)
        assert code == EXIT_EVAL
        assert "evaluation worker died" in capsys.readouterr().err
        assert victim not in evaluated_hashes(killed)
        code, resumed = search("killed", resume=True)
        assert code == EXIT_OK
        assert outputs(resumed) == outputs(whole)


class TestInProcessEvaluators:
    def test_an_evaluator_that_does_not_opt_in_runs_here_in_hash_order(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        monkeypatch.setattr(eenas.cli, "OracleEvaluator", RecordingOracle)
        monkeypatch.setattr(RecordingOracle, "calls", [])
        out = tmp_path / "run"
        config = write_json(tmp_path / "run.json", SMALL_RUN)
        assert main(["search", "--config", config, "--out", str(out)]) == EXIT_OK
        calls = RecordingOracle.calls
        assert {pid for pid, _ in calls} == {os.getpid()}
        assert [key for _, key in calls] == evaluated_hashes(out)
        for k in (0, 1):
            batch = evaluated_hashes(out, k)
            assert batch == sorted(batch) and len(batch) >= 2

    def test_importing_the_cli_loads_no_process_pool(self):
        root = os.path.dirname(os.path.dirname(eenas.__file__))
        code = (
            "import sys, eenas.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} "
            "& set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=root)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        assert done.stdout.strip() == "[]"
