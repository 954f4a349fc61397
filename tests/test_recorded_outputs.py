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
from helpers import LINE_HOP_ACCEL, README_RUN, write_accelerator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
OUTPUT_FILES = ("history.jsonl", "front.csv", "iterations.csv", "scatter.csv")

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


#: The README's hand-written architecture for ``eenas cost``.
README_ARCH = {
    "backbone_bits": 8,
    "exits": [
        {"mount": "D", "depth": 1, "bits": 8},
        {"mount": "K", "depth": 1, "bits": 8},
    ],
    "exit_ratios": [0.6, 0.4],
}

#: sha256 of the bytes ``eenas cost`` writes for :data:`README_ARCH`, per
#: accelerator.
COST_DIGESTS = {
    "default": {
        "cost.csv":
            "594c8792dda17024a7fa3330fc72ddbbecda65fd773b1bae13fa5587257a314a",
        "cost_report.json":
            "5792e1bbc564add5d74a41c89a6eb3c589192a2d2b2397e8cf989cefe2120a9c",
        "stdout":
            "88f0dae6a55d1d83f8017b13ddabdc38935e393f8fd4d5dd0909a10ca423872b",
    },
    "line-hop": {
        "cost.csv":
            "b2bc1d508e6a99c070967fecb7bd138612e39e1c889d5c7134073cd318f3b826",
        "cost_report.json":
            "d07abedd0866da0b8aa75d84b7c65184baafaa3a08ae26763f9d943eb63e2ed5",
        "stdout":
            "4a5a15ff5f795f0ea29854db9c0565a1cfcff4f01c95d843d2bc32570d8c3800",
    },
}


@pytest.mark.parametrize("accelerator", sorted(COST_DIGESTS))
def test_cost_matches_the_recorded_digests(accelerator, tmp_path, capsys):
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(README_ARCH))
    accel = "default"
    if accelerator == "line-hop":
        accel = str(tmp_path / "accel.json")
        write_accelerator(LINE_HOP_ACCEL, accel)
    out = tmp_path / "cost"
    capsys.readouterr()
    assert main([
        "cost", "--backbone", "builtin:mobilenetv2_cifar",
        "--accelerator", accel, "--arch", str(arch), "--out", str(out),
    ]) == EXIT_OK
    outputs = {
        name: (out / name).read_bytes() for name in ("cost.csv", "cost_report.json")
    }
    outputs["stdout"] = capsys.readouterr().out.encode()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == COST_DIGESTS[accelerator]
