"""Benchmark for eenas: end-to-end timings of the ``eenas`` commands, and
per-layer spans from a separate traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oracle-mobilenet --seed 3 \\
        --seconds 30 --trace 0

Every command runs in a fresh child process (``perfbench/child.py``) with
BLAS pinned to one thread. A warm-up on a tiny config comes first and is
never timed; timed processes then continue until ``--seconds`` have
passed, and each metric is the median of its samples. Command times are
calibrated: each is scaled by how fast a fixed loop ran right before and
after it, which removes most of the host's speed swings (``README.md``).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. Every command's output is checked; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--smoke`` swaps in tiny configs so the harness itself can
be tested in seconds."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
WORK = os.path.join(ROOT, ".perfbench-work")

CALIBRATION_REF_S = 0.04  # the calibration loop's time at the reference host speed
SETUP_CHILDREN = 7  # setup_s is the median over this many fresh processes
REPORT_PICKS = 24  # report commands per resume process, cycling over the front
RUN_DEADLINE_S = 170  # every child is killed by then, so a run ends inside 180 s
STOP_STARTING_AFTER_S = 110  # no child starts later than this
OUTPUT_FILES = ("history.jsonl", "front.csv", "iterations.csv", "scatter.csv")
COSTED = ("sampled", "offspring", "filtered-theta")  # the θ cost filter
# Untraced runs alternate their search processes between the seed given and
# this one plus it, so a run's medians cover the seed-dependent work of two
# searches.
SECOND_SEED_OFFSET = 1_000_000

# Every command runs in a fresh process. A search process is followed by
# ``resumes`` resume processes (each: cut, resume, reports) on its history.
# ``main`` is the command whose processes a traced run traces;
# ``trace_overhead_ratio`` compares its traced and untraced times.
WORKLOADS = {
    # The README run. The cost engine does most of the work; the oracle
    # evaluator almost none.
    "oracle-mobilenet": {"config": "mobilenet-oracle", "resumes": 2, "main": "search"},
    # The toy QAT evaluator on the small backbone: training and fake
    # quantization dominate, the cost engine is a few percent.
    "toy-smallconv": {"config": "smallconv-toy", "resumes": 2, "main": "search"},
    # The read side of the README run: each history is resumed cold by four
    # processes: replay, the audit of the admitted members, and reports.
    "resume-mobilenet": {"config": "mobilenet-oracle", "resumes": 4, "main": "resume"},
}

END_TO_END = (
    ("setup_s", "s"),
    ("search_s", "s"),
    ("resume_s", "s"),
    ("report_s", "s"),
    ("archs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

LAYER_CALLS = (
    "hwcost.cost_report", "hwcost.layer_cost", "workload.expand_layers",
    "evaluate.train_toy", "evaluate.synthetic_oracle",
    "quant.fake_quant_forward", "quant.calibrate_clip",
    "predict.fit", "predict.predict", "predict.featurize",
    "arch.decode", "arch.chromosome_hash", "search.read_history",
)
LAYER_SELF = (
    "hwcost.cost_report", "hwcost.allocate", "hwcost.layer_cost",
    "workload.expand_layers", "evaluate.train_toy", "evaluate.synthetic_oracle",
    "quant.fake_quant_forward", "quant.ste_mask", "quant.calibrate_clip",
    "predict.fit", "predict.predict", "arch.decode",
    "search.init_population", "search.ga_generation", "search.select_parents",
    "search.audit_history", "search.read_history",
)
RATIOS = (
    "hwcost.layer_cost_per_report", "hwcost.cache_hit_ratio",
    "search.admit_ratio", "search.theta_pass_ratio", "search.mu_keep_ratio",
)
PER_LAYER = (
    *((f"{n}.calls", "count") for n in LAYER_CALLS),
    *((f"{n}.self_s", "s") for n in LAYER_SELF),
    ("cli.self_s", "s"),
    *((r, "ratio") for r in RATIOS),
    *((f"{r}.base", "count") for r in RATIOS),
    ("search.nas_iterate.p50_s", "s"),
    ("search.nas_iterate.max_s", "s"),
    ("search.nas_iterate.samples", "count"),
    ("evaluate.failed", "count"),
    ("trace_overhead_ratio", "ratio"),
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def make_config(name: str, seed: int, smoke: bool) -> dict:
    space = {"head_depths": [1, 2], "exit_bits": [8, 4], "backbone_bits": 8}
    if name == "mobilenet-oracle":
        nas = (
            {"iterations": 2, "n_select": 4, "init_population": 8} if smoke
            else {"iterations": 6, "n_select": 20, "init_population": 50}
        )
        return {
            "seed": seed, "backbone": "builtin:mobilenetv2_cifar",
            "accelerator": "default", "space": space, "nas": nas,
            "evaluator": {"kind": "oracle"},
        }
    # The tiny config has no μ cap: with 6 barely trained candidates, the
    # cap could reject all but one and stop the search on some seeds.
    nas = (
        {"iterations": 2, "n_select": 4, "init_population": 6, "mu": 1.0} if smoke
        else {"iterations": 1, "n_select": 16, "init_population": 16}
    )
    return {
        "seed": seed, "backbone": "builtin:smallconv", "accelerator": "default",
        "space": space, "nas": nas,
        "evaluator": {
            "kind": "toy",
            "dataset": {"n": 200 if smoke else 400, "seed": seed},
            "training": {"epochs": 10, "learning_rate": 0.03},
        },
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(job: dict, prefix: str, deadline: float) -> dict:
    """Run one child to completion and return its result, with the
    monotonic clock reading taken just before it was spawned. The child is
    killed at ``deadline`` (a ``time.monotonic()`` reading)."""
    job = dict(job, src=SRC, result=f"{prefix}.result.json", spans=f"{prefix}.spans.json")
    job_path = f"{prefix}.job.json"
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, job_path], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=sys.stderr,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child {prefix} timed out") from exc
    if proc.returncode != 0 or not os.path.exists(job["result"]):
        raise HarnessError(f"child {prefix} exited with code {proc.returncode}")
    with open(job["result"], "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["spawned"] = spawned
    return result


def read_events(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def front_problem(out_dir: str) -> str | None:
    """Recompute the non-dominated set of the labeled rows of
    ``iterations.csv`` (max accuracy, min energy-delay) and compare it with
    ``front.csv``, order and values included."""
    rows = [
        (r["hash"], float(r["acc_avg"]), float(r["et_avg"]))
        for r in read_csv(os.path.join(out_dir, "iterations.csv"))
        if r["labeled"] == "yes"
    ]
    front = [
        r for r in rows
        if not any(
            o[1] >= r[1] and o[2] <= r[2] and (o[1] > r[1] or o[2] < r[2])
            for o in rows
        )
    ]
    expected = sorted(front, key=lambda r: (-r[1], r[2], r[0]))
    actual = [
        (r["hash"], float(r["acc_avg"]), float(r["et_avg"]))
        for r in read_csv(os.path.join(out_dir, "front.csv"))
    ]
    if actual != expected:
        return f"front.csv in {out_dir} is not the non-dominated set of iterations.csv"
    return None


def load_digests() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_search(index: int, config: str, traced: bool, deadline: float) -> dict:
    """One ``eenas search`` process; returns the child's result."""
    s_dir = os.path.join(WORK, f"{index:02d}-search")
    history = os.path.join(s_dir, "history.jsonl")
    job = {"mode": "commands", "trace": traced, "audit": [history],
           "steps": [{"op": "search", "argv": ["search", "--config", config, "--out", s_dir]}]}
    return dict(run_child(job, s_dir, deadline), kind="search", config=config,
                s_dir=s_dir, out=s_dir)


def run_resume(index: int, search: dict, traced: bool, picks: int, deadline: float) -> dict:
    """One process that cuts the history of ``search`` halfway through its
    final iteration, resumes the cut copy and reports front points."""
    config, s_dir = search["config"], search["s_dir"]
    r_dir = os.path.join(WORK, f"{index:02d}-resume")
    history = os.path.join(r_dir, "history.jsonl")
    job = {"mode": "commands", "trace": traced, "audit": [history], "steps": [
        {"op": "cut", "src": os.path.join(s_dir, "history.jsonl"), "dst": r_dir},
        {"op": "resume", "argv": ["search", "--config", config, "--out", r_dir, "--resume"]},
        {"op": "report", "history": history, "front": os.path.join(r_dir, "front.csv"),
         "picks": picks},
    ]}
    return dict(run_child(job, r_dir, deadline), kind="resume", config=config,
                s_dir=s_dir, out=r_dir)


def check_child(child: dict, digests: dict | None) -> None:
    """Attach a list of failure reasons to every command of ``child``."""
    for cmd in child["commands"]:
        cmd["failures"] = [] if cmd["rc"] == 0 else [f"exit code {cmd['rc']}: {cmd['stderr'].strip()}"]
    main = child["commands"][0]
    if main["failures"]:
        return
    out = child["out"]
    history = os.path.join(out, "history.jsonl")
    child["events"] = read_events(history)
    if not child["audits"][history]["ok"]:
        main["failures"].append(f"audit of {history}: {child['audits'][history]['violations']}")
    if child["kind"] == "search":
        if any(e.get("event") == "eval-failed" for e in child["events"]):
            main["failures"].append("history has eval-failed events")
        problem = front_problem(out)
        if problem:
            main["failures"].append(problem)
        for name in OUTPUT_FILES if digests is not None else ():
            if sha256(os.path.join(out, name)) != digests[name]:
                main["failures"].append(f"{name} differs from the recorded digest")
        return
    for name in OUTPUT_FILES:
        if sha256(os.path.join(child["s_dir"], name)) != sha256(os.path.join(out, name)):
            main["failures"].append(f"resumed {name} differs from the uninterrupted one")
    front = read_csv(os.path.join(out, "front.csv"))
    for cmd in child["commands"][1:]:
        pick = int(cmd["argv"][4])
        want = [f"architecture: {front[pick]['hash']}", f"front size: {len(front)}"]
        if not cmd["failures"] and not all(w in cmd["stdout"].splitlines() for w in want):
            cmd["failures"].append(f"report pick {pick} does not match front.csv")


def counters(child: dict) -> dict:
    """Deterministic counts that two processes of one kind share within a
    run of one (workload, seed)."""
    kinds = Counter(e.get("event") for e in child.get("events", []))
    out = {
        "events": dict(sorted(kinds.items())),
        "evaluations": kinds["evaluated"] + kinds["eval-failed"],
    }
    if "trace" in child:
        out["cost_report_calls"] = child["trace"]["calls"].get("hwcost.cost_report", 0)
        out["layer_cost_calls"] = child["trace"]["calls"].get("hwcost.layer_cost", 0)
    return out


def ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def trace_values(child: dict) -> dict:
    """Per-layer values of one traced process."""
    trace = child["trace"]
    calls, self_s = trace["calls"], trace["self_s"]
    values = {f"{n}.calls": calls.get(n, 0) for n in LAYER_CALLS}
    values.update({f"{n}.self_s": self_s.get(n, 0.0) for n in LAYER_SELF})
    values["cli.self_s"] = self_s.get("cli.main", 0.0)
    events = child["events"]
    costed = {e["hash"] for e in events if e.get("event") in COSTED}
    passed = {e["hash"] for e in events if e.get("event") in ("sampled", "offspring")}
    evaluated = sum(e.get("event") == "evaluated" for e in events)
    summaries = [e for e in events if e.get("event") == "iteration-summary"]
    labeled = len(summaries[-1]["p"]) if summaries else 0
    bases = {
        "hwcost.layer_cost_per_report": (calls.get("hwcost.layer_cost", 0), calls.get("hwcost.cost_report", 0)),
        "hwcost.cache_hit_ratio": (trace["cache_hits"], trace["cache_lookups"]),
        "search.admit_ratio": (evaluated, len(costed)),
        "search.theta_pass_ratio": (len(passed), len(costed)),
        "search.mu_keep_ratio": (labeled, evaluated),
    }
    for name, (num, base) in bases.items():
        values[name] = ratio(num, base)
        values[f"{name}.base"] = base
    values["evaluate.failed"] = sum(e.get("event") == "eval-failed" for e in events)
    return values


def calibrated(cmd: dict) -> float:
    """Wall time of ``cmd`` scaled to the reference host speed by the
    calibration loop timed right before and after it."""
    return cmd["seconds"] * CALIBRATION_REF_S / cmd["calibration_s"]


def end_to_end(setup: list[float], timed: list[dict], clock) -> dict[str, float]:
    """End-to-end metrics of a run, with ``clock(command)`` giving each
    command's time. ``setup_s`` is always wall time."""
    searches = [c for c in timed if c["kind"] == "search"]
    resumes = [c for c in timed if c["kind"] == "resume"]
    return {
        "setup_s": statistics.median(setup),
        "search_s": statistics.median(clock(c["commands"][0]) for c in searches),
        "resume_s": statistics.median(clock(c["commands"][0]) for c in resumes),
        "report_s": statistics.median(
            sum(clock(cmd) for cmd in c["commands"][1:]) for c in resumes
        ),
        "archs_per_s": statistics.median(
            len({e["hash"] for e in c["events"] if e.get("event") in COSTED})
            / clock(c["commands"][0])
            for c in searches
        ),
        "peak_rss_mb": max(c["maxrss_kb"] for c in timed) / 1024.0,
    }


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_config(path: str, name: str, seed: int, smoke: bool) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(make_config(name, seed, smoke), fh, indent=1)
    return path


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    main_kind = workload["main"]
    picks = 3 if args.smoke else REPORT_PICKS
    trace = bool(args.trace)
    began = time.monotonic()
    deadline = began + RUN_DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    config_name = workload["config"] + ("-smoke" if args.smoke else "")
    configs = [
        write_config(os.path.join(WORK, f"config{i}.json"), workload["config"], seed, args.smoke)
        for i, seed in enumerate((args.seed, args.seed + SECOND_SEED_OFFSET))
    ]
    digests = load_digests().get(config_name, {}).get(str(args.seed))

    # Warm-up on the tiny config, to compile bytecode and fill the page
    # cache. Checked, never timed.
    warmup_config = write_config(
        os.path.join(WORK, "warmup.json"), workload["config"], args.seed, True
    )
    warmup = [run_search(0, warmup_config, False, deadline)]
    warmup.append(run_resume(1, warmup[0], False, 3, deadline))

    setup = []
    if not trace:
        argv = ["search", "--config", configs[0], "--out", os.path.join(WORK, "setup")]
        if main_kind == "resume":
            argv.append("--resume")
        for i in range(1 if args.smoke else SETUP_CHILDREN):
            result = run_child(
                {"mode": "setup", "argv": argv}, os.path.join(WORK, f"setup{i}"), deadline
            )
            setup.append(result["ready"] - result["spawned"])

    # The timed children. A traced run alternates untraced and traced
    # processes of the main command and runs the other kind only where the
    # main command needs its output.
    timed: list[dict] = []
    start = time.monotonic()
    search, since_search, counts = None, 0, Counter()
    while True:
        index = len(warmup) + len(timed)
        mains = [c for c in timed if c["kind"] == main_kind]
        traced = trace and len(mains) % 2 == 1
        if (search is None or since_search >= workload["resumes"]
                or (trace and main_kind == "search")):
            # Traced runs keep one seed, so traced and untraced times compare.
            config = configs[0 if trace else counts["search"] % len(configs)]
            child = run_search(index, config, traced and main_kind == "search", deadline)
            search, since_search = child, 0
        else:
            child = run_resume(index, search, traced and main_kind == "resume", picks, deadline)
            since_search += 1
        timed.append(child)
        counts = Counter(c["kind"] for c in timed)
        enough = (
            counts[main_kind] >= 4 if trace
            else counts["search"] >= 2 and counts["resume"] >= 2
        )
        elapsed = time.monotonic() - start
        # Stop at the child boundary nearest to --seconds.
        if time.monotonic() - began >= STOP_STARTING_AFTER_S or (
            enough and elapsed + elapsed / len(timed) / 2 >= args.seconds
        ):
            break

    for child in warmup:
        check_child(child, None)
    for child in timed:
        check_child(child, digests if child["out"] == child["s_dir"]
                    and child["config"] == configs[0] else None)
    counts = [counters(c) for c in timed]
    for group in {(c["kind"], c["config"]) for c in timed}:
        same = [(c, n) for c, n in zip(timed, counts) if (c["kind"], c["config"]) == group]
        for child, n in same[1:]:
            base = same[0][1]
            if {k: v for k, v in n.items() if k in base} != {k: v for k, v in base.items() if k in n}:
                child["commands"][0]["failures"].append(
                    f"counters differ between {group[0]} processes of one seed: {n} != {base}"
                )
    commands = [cmd for c in warmup + timed for cmd in c["commands"]]
    failed = [cmd for cmd in commands if cmd["failures"]]

    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    if not failed and trace:
        traced = [c for c in timed if "trace" in c]
        plain = [c for c in timed if c["kind"] == main_kind and "trace" not in c]
        layer_values = [trace_values(c) for c in traced]
        for name in layer_values[0]:
            metrics[name] = statistics.median(v[name] for v in layer_values)
        iterate = [s for c in traced for s in c["trace"]["nas_iterate_s"]]
        metrics["search.nas_iterate.p50_s"] = statistics.median(iterate) if iterate else 0.0
        metrics["search.nas_iterate.max_s"] = max(iterate, default=0.0)
        metrics["search.nas_iterate.samples"] = len(iterate)
        # Wall time: the calibration loop after a traced command runs next to
        # its spans in memory, so it would not time the host fairly.
        metrics["trace_overhead_ratio"] = (
            statistics.median(c["commands"][0]["seconds"] for c in traced)
            / statistics.median(c["commands"][0]["seconds"] for c in plain)
            - 1.0
        )
    elif not failed:
        metrics = end_to_end(setup, timed, calibrated)
        raw = end_to_end(setup, timed, lambda cmd: cmd["seconds"])
    if metrics:
        metrics = {name: metrics[name] for name, _ in (PER_LAYER if trace else END_TO_END)}

    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "provenance": {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "config": config_name,
            "digests_recorded": digests is not None,
            "processes": dict(Counter(c["kind"] for c in timed)),
            "setup_samples": len(setup),
            "python": warmup[0]["python"], "numpy": warmup[0]["numpy"],
            "cpu_count": os.cpu_count(), "git_commit": git_commit(),
            "elapsed_s": time.monotonic() - began,
            "missing_traced": next((c["trace"]["missing"] for c in timed if "trace" in c), []),
        },
        "counters": counts,
        "raw": raw,
        "failures": [
            {"op": c["op"], "argv": c["argv"], "failures": c["failures"]} for c in failed
        ],
        "correct": not failed,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configs, for testing the harness")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eenas", "__init__.py")):
        print(f"error: no eenas sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(WORK, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"# provenance: {json.dumps(result['provenance'], sort_keys=True)}")
    print(f"# counters: {json.dumps(result['counters'][-1], sort_keys=True)}")
    for failure in result["failures"]:
        print(f"# FAILED {failure['op']}: {'; '.join(failure['failures'])}")
    print(f"# failed_ratio: {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']}")
    for name, metric in result["metrics"].items():
        print(f"# {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in result["raw"].items():
        print(f"# raw wall-clock {name:<19} {value:>14.6g}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
