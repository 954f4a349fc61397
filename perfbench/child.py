"""Child process of the eenas benchmark.

``run.py`` starts one of these per search or resume so that every timed
command runs in a fresh interpreter, as it would from the shell. The child
reads a job file, runs the listed ``eenas`` commands in-process through
``eenas.cli.main``, and writes a result file. It changes no file of the
package: in traced jobs it rebinds the package's public functions to
span-recording wrappers in memory, and restores them before the output
checks run.

Job modes:

* ``setup`` times process start to ready-to-search. ``eenas.cli.run_search``
  is rebound to a stub that records the clock and aborts the command, so
  the measured span covers interpreter start, importing ``eenas``, argument
  and config parsing, backbone and accelerator resolution, and building the
  evaluator (and the toy dataset).
* ``commands`` runs the job's steps (``search``, ``cut``, ``resume``, ``report``),
  timing each command and running :func:`calibrate` before and after each
  step (and, untraced, at the start of every search iteration), then
  audits every history it was given.

Run directly only by ``run.py``: ``python3 perfbench/child.py JOB.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

#: Functions whose spans feed the per-layer metrics, as ``module.attr`` under
#: ``eenas`` (``module.Class.method`` for methods). A name the package no
#: longer has is skipped and reads as zero calls.
TRACED = (
    "cli.main",
    "search.run_search",
    "search.init_population",
    "search.nas_iterate",
    "search.ga_generation",
    "search.select_parents",
    "search.audit_history",
    "search.read_history",
    "search.CostCache.report",
    "search.CostCache.static_et",
    "hwcost.cost_report",
    "hwcost.allocate",
    "hwcost.layer_cost",
    "workload.expand_layers",
    "evaluate.train_toy",
    "evaluate.synthetic_oracle",
    "quant.fake_quant_forward",
    "quant.ste_mask",
    "quant.calibrate_clip",
    "predict.fit",
    "predict.predict",
    "predict.featurize",
    "arch.decode",
    "arch.chromosome_hash",
)

#: Cache lookups: a lookup with no ``cost_report`` child span is a hit.
CACHE_LOOKUPS = ("search.CostCache.report", "search.CostCache.static_et")


def rebind(old, new) -> None:
    """Point every ``eenas`` module attribute that holds ``old`` at ``new``,
    so ``from .x import f`` copies are covered too."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "eenas" or name.startswith("eenas.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


class Tracer:
    """In-memory span recorder. A span is ``(name id, start ns, end ns,
    parent span index or -1, run id)``; the run id is the index of the
    command that caused it."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack = [-1]
        self.run = 0
        self._undo: list = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, tracer.run)

        return traced

    def install(self) -> None:
        for name in TRACED:
            module_name, *path = name.split(".")
            module = importlib.import_module(f"eenas.{module_name}")
            if len(path) == 2:
                cls = getattr(module, path[0], None)
                orig = vars(cls).get(path[1]) if cls is not None else None
                if not callable(orig):
                    self.missing.append(name)
                    continue
                setattr(cls, path[1], self._wrap(name, orig))
                self._undo.append((cls, path[1], orig))
                continue
            orig = getattr(module, path[0], None)
            if not callable(orig):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig)
            rebind(orig, wrapper)
            self._undo.append((None, wrapper, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if owner is None:
                rebind(key, orig)
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def summary(self) -> dict:
        """Calls and self time per name (span time minus the time of its
        direct children), cache lookups and hits, and every
        ``nas_iterate`` duration."""
        n = len(self.names)
        calls = [0] * n
        self_ns = [0] * n
        child_ns = [0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        costed_parents = set()
        cost_id = (
            self.names.index("hwcost.cost_report")
            if "hwcost.cost_report" in self.names else -1
        )
        for idx, (nid, start, end, parent, _) in enumerate(self.spans):
            calls[nid] += 1
            self_ns[nid] += end - start - child_ns[idx]
            if nid == cost_id:
                costed_parents.add(parent)
        lookup_ids = {i for i, name in enumerate(self.names) if name in CACHE_LOOKUPS}
        lookups = hits = 0
        iterate = []
        for idx, (nid, start, end, _, _) in enumerate(self.spans):
            if nid in lookup_ids:
                lookups += 1
                hits += idx not in costed_parents
            elif self.names[nid] == "search.nas_iterate":
                iterate.append((end - start) / 1e9)
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": {name: ns / 1e9 for name, ns in zip(self.names, self_ns)},
            "cache_lookups": lookups,
            "cache_hits": hits,
            "nas_iterate_s": iterate,
            "missing": self.missing,
        }

    def write(self, path: str) -> None:
        """Write the spans column by column; ``name`` indexes ``names``."""
        fields = ("name", "start_ns", "end_ns", "parent", "run")
        columns = zip(*self.spans) if self.spans else [()] * len(fields)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, **dict(zip(fields, map(list, columns)))},
                fh,
                separators=(",", ":"),
            )


def import_eenas(src: str):
    import eenas
    import eenas.cli

    origin = os.path.realpath(eenas.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"eenas imported from {origin}, not from {src}")
    return eenas


def calibrate(iterations: int = 150_000) -> float:
    """Seconds a fixed interpreter-bound loop takes right now: how fast this
    host runs Python at the moment of a measurement."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(iterations):
        table[i & 255] = acc
        acc = (acc + i * 7 + table.get((i * 13) & 255, 0)) % 1_000_003
    return time.perf_counter() - start


class _Ready(BaseException):
    """Raised by the run_search stub to abort a setup job."""


def run_setup(job: dict) -> dict:
    eenas = import_eenas(job["src"])

    def ready(*args, **kwargs):
        raise _Ready(time.monotonic())

    rebind(eenas.search.run_search, ready)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = eenas.cli.main(job["argv"])
    except _Ready as stop:
        return {"ready": stop.args[0]}
    raise SystemExit(f"setup job never reached run_search (exit code {rc})")


def cut_history(src: str, dst_dir: str) -> None:
    """Copy ``src`` cut in the middle of its final iteration: halfway between
    the last two ``iteration-summary`` lines."""
    os.makedirs(dst_dir, exist_ok=True)
    if not os.path.exists(src):
        return
    with open(src, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    summaries = [
        i for i, line in enumerate(lines)
        if json.loads(line).get("event") == "iteration-summary"
    ]
    if len(summaries) < 2:
        return  # nothing to resume from: the resume command fails and says so
    prev, last = summaries[-2], summaries[-1]
    cut = prev + 1 + (last - prev) // 2
    with open(os.path.join(dst_dir, "history.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(lines[:cut])


def front_size(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return max(sum(1 for line in fh if line.strip()) - 1, 0)
    except FileNotFoundError:
        return 0


def run_commands(job: dict) -> dict:
    eenas = import_eenas(job["src"])
    tracer = Tracer() if job["trace"] else None
    commands: list[dict] = []
    # Calibrations taken inside the running command; their time is taken
    # out of the command's time.
    inner: list[float] = []
    iterate = getattr(eenas.search, "nas_iterate", None)

    def calibrated_iterate(*args, **kwargs):
        inner.append(calibrate())
        return iterate(*args, **kwargs)

    def run_cli(op: str, argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.run = len(commands)
        first_inner = len(inner)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = eenas.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # the program failed; record it and go on
                rc = None
                err.write(traceback.format_exc())
        seconds = time.perf_counter() - start - sum(inner[first_inner:])
        commands.append({
            "op": op, "argv": argv, "seconds": seconds, "rc": rc,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
        })

    # Untraced, a search also calibrates at the start of every iteration, so
    # a long command's calibration follows the host's speed through it.
    if tracer is not None:
        tracer.install()
    elif callable(iterate):
        rebind(iterate, calibrated_iterate)
    try:
        for step in job["steps"]:
            if step["op"] == "cut":
                cut_history(step["src"], step["dst"])
                continue
            first = len(commands)
            inner.clear()
            before = calibrate()
            if step["op"] == "report":
                size = front_size(step["front"])
                for i in range(step["picks"]):
                    pick = str(i % size) if size else "0"
                    run_cli("report", ["report", "--history", step["history"], "--pick", pick])
            else:
                run_cli(step["op"], step["argv"])
            loops = [before, *inner, calibrate()]
            for cmd in commands[first:]:
                cmd["calibration_s"] = sum(loops) / len(loops)
    finally:
        if tracer is not None:
            tracer.uninstall()
        elif callable(iterate):
            rebind(calibrated_iterate, iterate)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    audits = {}
    for path in job["audit"]:
        try:
            result = eenas.audit_history(path)
            audits[path] = {"ok": result.ok, "violations": result.violations}
        except Exception as exc:  # a failed audit is a failed check
            audits[path] = {"ok": False, "violations": [repr(exc)]}

    import numpy

    result = {
        "commands": commands,
        "audits": audits,
        "maxrss_kb": maxrss_kb,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(job["spans"])
    return result


def main() -> None:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        job = json.load(fh)
    result = run_setup(job) if job["mode"] == "setup" else run_commands(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
