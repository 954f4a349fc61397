"""Record the reference digests the benchmark checks outputs against.

For each search config and seed, runs ``eenas search`` once in a fresh
child, checks it (exit code 0, no failed evaluation, a clean audit, a
front that is the non-dominated set of the labeled rows) and stores the
sha256 of ``history.jsonl``, ``front.csv``, ``iterations.csv`` and
``scatter.csv`` in ``perfbench/digests.json``. Run it only on a commit
whose outputs are the reference, from the root of a checkout::

    python3 perfbench/record_digests.py 0 63    # seeds 0..63, inclusive
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import run

CONFIGS = ("mobilenet-oracle", "smallconv-toy")
WORKERS = 2
CHILD_TIMEOUT_S = 300


def record(config_name: str, seed: int) -> dict:
    work = os.path.join(run.WORK, "record", f"{config_name}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = os.path.join(work, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(run.make_config(config_name, seed, smoke=False), fh)
    out = os.path.join(work, "out")
    history = os.path.join(out, "history.jsonl")
    result = run.run_child(
        {"mode": "commands", "trace": False, "audit": [history],
         "steps": [{"op": "search", "argv": ["search", "--config", config, "--out", out]}]},
        os.path.join(work, "child"),
        time.monotonic() + CHILD_TIMEOUT_S,
    )
    command = result["commands"][0]
    problems = []
    if command["rc"] != 0:
        problems.append(f"exit code {command['rc']}: {command['stderr']}")
    else:
        if any(e.get("event") == "eval-failed" for e in run.read_events(history)):
            problems.append("eval-failed events")
        if not result["audits"][history]["ok"]:
            problems.append(f"audit: {result['audits'][history]['violations']}")
        problem = run.front_problem(out)
        if problem:
            problems.append(problem)
    if problems:
        raise SystemExit(f"{config_name} seed {seed}: {'; '.join(problems)}")
    digests = {name: run.sha256(os.path.join(out, name)) for name in run.OUTPUT_FILES}
    shutil.rmtree(work)
    return digests


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    jobs = [(c, s) for c in CONFIGS for s in range(first, last + 1)]
    with ThreadPoolExecutor(WORKERS) as pool:
        digests = list(pool.map(lambda job: record(*job), jobs))
    table = run.load_digests()
    for (config_name, seed), files in zip(jobs, digests):
        table.setdefault(config_name, {})[str(seed)] = files
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(jobs)} digests into {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
