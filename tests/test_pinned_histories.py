"""Searches that reach the branches the benchmark's digests miss reproduce
recorded outputs.

``perfbench/digests.json`` pins two configs of one shape: no θ cap, the
default accelerator, backbone bits 8 and exit bits (8, 4). Their histories
hold seven event kinds, and neither backbone makes heads contend. The runs
here reach the rest, each at a config fixed before its digests were
recorded:

- the README search at seed 7;
- the README search on smallconv with a θ of 0.5 (``filtered-theta``);
- the README search with a θ of 0.2 and an attempt factor of 1
  (``sampling-shortfall``);
- a chain backbone, as a backbone file, whose heads contend for the cores
  of the line-hop accelerator, with exit bits (8, 4, 2) and backbone bits 4;
- a library ``run_search`` whose evaluator fails every hash divisible by 5
  (``eval-failed``);
- a ``--resume`` of the chain run cut in the middle of an iteration.

Each run pins the sha256 of every file it writes and of the stdout of
``eenas report`` on its history.
"""

import contextlib
import hashlib
import io
import json

import pytest

from eenas.cli import EXIT_OK, main
from eenas.arch import SpaceConfig, builtin_backbone, load_backbone
from eenas.history import EVENTS, read_history
from eenas.hwcost import AcceleratorSpec
from eenas.search import EvaluationFailure, NasConfig, OracleEvaluator, run_search
from helpers import CHAIN_SPACE, LINE_HOP_ACCEL, README_RUN, write_accelerator

OUTPUT_FILES = ("history.jsonl", "front.csv", "iterations.csv", "scatter.csv")

README_SEED_7 = README_RUN | {"seed": 7}

#: The chain backbone of ``CHAIN_SPACE`` as a backbone file.
CHAIN_BACKBONE = "input 8 8 3\nblock conv2d 1 - 16 1\n" + "".join(
    f"block conv2d 1 M{i} 16 1\n" for i in range(6)
)

#: Run configs of the ``eenas search`` runs; ``{backbone}`` and
#: ``{accelerator}`` name files the run writes first.
SEARCH_CONFIGS = {
    "readme": README_SEED_7,
    "smallconv-theta": README_SEED_7 | {
        "backbone": "builtin:smallconv",
        "nas": README_RUN["nas"] | {"theta": 0.5},
    },
    "theta-shortfall": README_SEED_7 | {
        "nas": README_RUN["nas"] | {"theta": 0.2, "attempt_factor": 1},
    },
    "chain": {
        "seed": 7,
        "backbone": "{backbone}",
        "accelerator": "{accelerator}",
        "space": {"head_depths": [1, 2], "exit_bits": [8, 4, 2], "backbone_bits": 4},
        "nas": {"iterations": 3, "n_select": 6, "init_population": 12},
        "evaluator": {"kind": "oracle"},
    },
}

#: The library run: smallconv, an oracle that fails each hash divisible by 5.
FAILING_NAS = NasConfig(iterations=3, n_select=6, init_population=12, seed=7)
FAILING_PERIOD = 5

#: sha256 of each output of each run, recorded at the configs above.
DIGESTS = {
    "readme": {
        "history.jsonl":
            "c5cf67dddabe979ccd95eef75d80af9486cd987327661d2896852d9419305d57",
        "front.csv":
            "bd1dcef2853c971e013f4d8cc33a325f84064193a2cacbb4edc388c08d5117b8",
        "iterations.csv":
            "5b7afd12a8cc3941ceee151a1c51c269589559d84fd841b1b3e43ee4e8df10a1",
        "scatter.csv":
            "23ab4c179fc1a0e4dd40b2b7a5e434968186396b39c27cb9a138b90afaab9d95",
        "report":
            "3f0393c38d991ee7c848854ceed2a9eef2c816fc120765eddc5364e8d8cb3d4e",
    },
    "smallconv-theta": {
        "history.jsonl":
            "d22da3eadc1983c68473482423b5892c5278d59dba7334f4f3fe6f33004422a5",
        "front.csv":
            "206a4b80e87af0fbc9be48e4572e624dad3aca8b3fee71bb8a16d3ec272e093a",
        "iterations.csv":
            "f8aee53a005f20ccbdd414165fc9af603328d00fe16fded7bbe84153f5ece34f",
        "scatter.csv":
            "cb463f12952889e014bb502c963dd4618e47536bd053789ed31ba4b888abadee",
        "report":
            "c809886ad8a1f4770a6a32a20cf1e24ec10df3c2c90439c9ace71e3f43f426f2",
    },
    "theta-shortfall": {
        "history.jsonl":
            "f4d1e42d7af57146cf848343b9d0fb396ddf7c1a609c0799af8186d24992bca0",
        "front.csv":
            "abb7544eaba9f4b91e97dae46c334221e68f9649f8499fcead21efcd8f69a03b",
        "iterations.csv":
            "fea70613e0cfe8bf990f6cb0f8bf3291d59cf5e64c115c8b802f7e74afff892c",
        "scatter.csv":
            "e778341776d7dae8e5fc6045955812878d714f6c4dd580cfcd7059d08d75720f",
        "report":
            "a3473275301fe710b84c7504f291c9e2225331b77f6444e6cb999cc8153bd6f1",
    },
    "chain": {
        "history.jsonl":
            "f81f25c93928fdac1f3bed6dbfbfe725f736e837874782a93e35f02d1b43201e",
        "front.csv":
            "0b5b4773113b35333c86dabc1203fb3ec96abb154198c48e9b61143d6c64e357",
        "iterations.csv":
            "347599bb89e0d1c2ac866f511a69b0ede1eea7396e10867654018f63ca5fc317",
        "scatter.csv":
            "e346235c311a6697663b6d2e9d57dfb029b4423105b3307cf15aaeb7916bbb0f",
        "report":
            "544127ac0af029298617a9565938888970fd43c7f6d9e6ca752afd778c610040",
    },
    "failing": {
        "history.jsonl":
            "360c82c5b6042ef887b9db7195734d015758485910b359cf65f4239be26594ec",
        "report":
            "4ca9711f20147ed55bb4be0127439429fff2b0dadbfb91f8af40cb377397f5bb",
    },
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report(history) -> str:
    """sha256 of the stdout of ``eenas report`` on ``history``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["report", "--history", str(history), "--pick", "best-acc"])
    assert code == EXIT_OK
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def search(name, tmp_path, resume_from=None) -> dict:
    """sha256 of each output of search ``name`` and of the report on its
    history. With ``resume_from``, the history first holds those lines and
    the search resumes it."""
    text = json.dumps(SEARCH_CONFIGS[name])
    if name == "chain":
        backbone = tmp_path / "chain.txt"
        backbone.write_text(CHAIN_BACKBONE)
        assert load_backbone(str(backbone)) == CHAIN_SPACE.backbone
        accel = tmp_path / "accel.json"
        write_accelerator(LINE_HOP_ACCEL, str(accel))
        text = text.replace("{backbone}", str(backbone))
        text = text.replace("{accelerator}", str(accel))
    config = tmp_path / "run.json"
    config.write_text(text)
    out = tmp_path / "out"
    argv = ["search", "--config", str(config), "--out", str(out)]
    if resume_from is not None:
        out.mkdir()
        (out / "history.jsonl").write_text("".join(resume_from))
        argv.append("--resume")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
    digests = {file: sha256(out / file) for file in OUTPUT_FILES}
    digests["report"] = report(out / "history.jsonl")
    return digests


class FailingOracle(OracleEvaluator):
    def __call__(self, key, arch):
        if int(key, 16) % FAILING_PERIOD == 0:
            raise EvaluationFailure(f"{key} fails by rule")
        return super().__call__(key, arch)


def failing_run(tmp_path) -> dict:
    space = SpaceConfig(backbone=builtin_backbone("smallconv"))
    history = tmp_path / "out" / "history.jsonl"
    history.parent.mkdir()
    run_search(space, AcceleratorSpec(), FailingOracle(seed=7), FAILING_NAS,
               history_path=str(history), evaluator_kind="oracle")
    return {"history.jsonl": sha256(history), "report": report(history)}


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """Each run's digests and the path of its history, run once."""
    done = {}
    for name in DIGESTS:
        tmp = tmp_path_factory.mktemp(name)
        digests = failing_run(tmp) if name == "failing" else search(name, tmp)
        done[name] = digests, tmp / "out" / "history.jsonl"
    return done


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_run_matches_the_pinned_digests(name, runs):
    assert runs[name][0] == DIGESTS[name]


def test_resume_from_a_mid_iteration_cut_matches_the_pinned_digests(
    runs, tmp_path
):
    lines = runs["chain"][1].read_text().splitlines(keepends=True)
    cut = lines[: len(lines) // 2]
    assert '"iteration-summary"' in "".join(cut)
    assert '"iteration-summary"' not in lines[len(lines) // 2 - 1]
    assert search("chain", tmp_path, resume_from=cut) == DIGESTS["chain"]


def test_pinned_histories_hold_every_kind_with_its_table_fields(runs):
    """Together the pinned histories hold every kind ``EVENTS`` declares,
    so a change to any writer moves a digest, and each event holds exactly
    the fields its kind's entry lists."""
    seen = set()
    for _, path in runs.values():
        for ev in read_history(str(path)):
            seen.add(ev["event"])
            assert ev.keys() == {"event", *EVENTS[ev["event"]]}, ev
    assert seen == set(EVENTS)
