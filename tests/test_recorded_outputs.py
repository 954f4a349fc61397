"""Searches reproduce the outputs the benchmark recorded.

``perfbench/digests.json`` holds the sha256 of the four outputs of
``eenas search`` per benchmark config and seed. Other tests compare two runs
of the current code with each other, so a deterministic change to the output
bytes (the history header, say) would pass them; this test compares one run
per benchmark config with the recorded digests: the README search with the
oracle evaluator, and the toy QAT search on smallconv. It only reads the
benchmark's files.
"""

import hashlib
import importlib.util
import json
import os

import pytest

from eenas.cli import EXIT_OK, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
OUTPUT_FILES = ("history.jsonl", "front.csv", "iterations.csv", "scatter.csv")

#: The README run config at seed 0: the benchmark's ``mobilenet-oracle``.
README_RUN = {
    "seed": 0,
    "backbone": "builtin:mobilenetv2_cifar",
    "accelerator": "default",
    "space": {"head_depths": [1, 2], "exit_bits": [8, 4], "backbone_bits": 8},
    "nas": {"iterations": 6, "n_select": 20, "init_population": 50},
    "evaluator": {"kind": "oracle"},
}


def benchmark_config(name: str) -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_config(name, 0, smoke=False)


def test_readme_run_is_the_oracle_benchmark_config():
    assert README_RUN == benchmark_config("mobilenet-oracle")


@pytest.mark.parametrize("config_name", ["mobilenet-oracle", "smallconv-toy"])
def test_search_matches_the_recorded_digests(config_name, tmp_path, capsys):
    with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)[config_name]["0"]
    config = tmp_path / "run.json"
    config.write_text(json.dumps(benchmark_config(config_name)))
    out = tmp_path / "out"
    assert main(["search", "--config", str(config), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in OUTPUT_FILES
    }
    assert digests == recorded
