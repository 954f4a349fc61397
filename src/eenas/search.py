"""Constrained two-objective genetic search.

The loop alternates true evaluation of a shortlist with surrogate-guided
breeding: sample an initial population under the head-overhead cap, evaluate
it, drop members whose last-exit ratio exceeds the cap, fit weak predictors
on everything labeled so far, then repeatedly shortlist parents (rank by
predicted accuracy, keep 2N, re-rank those by predicted energy-delay, keep
N), breed offspring under the overhead cap, and admit the best N offspring
into the population. Membership and label sets only ever grow; no
architecture is evaluated twice. Every event is appended to a line-delimited
history enabling byte-identical resume and post-hoc constraint audits.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .arch import (
    GENES_PER_MOUNT,
    SpaceConfig,
    canonicalize,
    chromosome_hash,
    decode,
    decode_exits,
    sample_architecture,
)
from .evaluate import (
    EvaluationReport,
    OracleConfig,
    TrainingConfig,
    DatasetError,
    ReportError,
    TrainingDiverged,
    load_external_report,
    synthetic_oracle,
    train_toy,
)
from .files import atomic_write, check_fields, check_fixed, is_int, is_real
from .hwcost import (
    AcceleratorSpec,
    BackboneFold,
    HeadPlacement,
    PlacedExits,
    backbone_fold,
    et_avg,
    exit_costs,
    exit_overheads,
    place_exits,
)
from .predict import LabeledRecord, Predictor, fit, predict


class SearchError(RuntimeError):
    """Search cannot proceed (e.g. too few feasible architectures)."""


class EvaluationFailure(RuntimeError):
    """One architecture could not be evaluated; the search continues."""


class HistoryError(ValueError):
    """A history's events contradict each other or lack a field."""


def _fixed_ranking() -> dict:
    """Shortlist keys every ``run-config`` header carries, at their only
    values: resume compares headers byte for byte, so they stay written."""
    return {"ranking": "lexicographic", "weights": [1.0, 1.0]}


@dataclass(frozen=True)
class NasConfig:
    iterations: int = 6
    n_select: int = 20
    generations: int = 3
    init_population: int = 50
    mutation_rate: float = 0.1
    crossover_rate: float = 0.9
    theta: float = math.inf  # head-overhead cap, inclusive; math.inf: none
    mu: float = 0.5  # last-exit-ratio cap, inclusive
    ridge: float = 1e-3
    seed: int = 0
    attempt_factor: int = 200  # sampling budget per requested member

    def __post_init__(self):
        check_fields(self, ValueError, skip=("theta",))
        if not (self.theta == math.inf or is_real(self.theta)):
            raise ValueError("theta must be finite and numeric, or null")
        if min(self.iterations, self.seed) < 0 or min(self.n_select,
                                                      self.init_population) < 1:
            raise ValueError("iterations >= 0, seed >= 0 and sizes >= 1 required")
        if self.generations < 1 or self.attempt_factor < 1:
            raise ValueError("generations and attempt factor must be >= 1")
        if not 0 <= self.mutation_rate <= 1 or not 0 <= self.crossover_rate <= 1:
            raise ValueError("rates must lie in [0, 1]")
        if not self.theta > 0:
            raise ValueError("overhead cap must be positive")
        if not 0 < self.mu <= 1:
            raise ValueError("last-exit-ratio cap must lie in (0, 1]")
        if self.ridge < 0:
            raise ValueError("ridge penalty must be finite and nonnegative")

    def to_json(self) -> dict:
        theta = self.theta if math.isfinite(self.theta) else None
        fixed = {"theta": theta, **_fixed_ranking()}
        return {f.name: getattr(self, f.name) for f in fields(self)} | fixed

    @classmethod
    def from_json(cls, data: dict) -> "NasConfig":
        fixed = _fixed_ranking()
        check_fixed(data, fixed, ValueError, "search config")
        kwargs = {k: v for k, v in data.items() if k not in fixed}
        if kwargs.get("theta") is None:
            kwargs["theta"] = math.inf
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"bad search config field: {exc}") from exc


class CostCache:
    """Memoized hardware-cost queries for one (space, accelerator) pair.
    Per architecture it keeps only its :data:`PlacedExits`, from which the
    two things the search reads follow: the head overheads, which sum
    nothing, and the per-exit energy-delay products, summed only when read.

    Its head memo, shared by every architecture, is the one
    :func:`place_exits` keys on (mount, head, bits, free cycles): a new
    architecture places a head only if no other architecture placed the
    same head from the same free cycles. Genes are checked as
    :func:`decode` checks them, but no architecture is decoded."""

    def __init__(self, space: SpaceConfig, accel: AcceleratorSpec):
        self.space = space
        self.accel = accel
        self._costs: dict[tuple[int, ...], PlacedExits] = {}
        self._heads: dict[tuple, HeadPlacement] = {}

    @cached_property
    def _fold(self) -> BackboneFold:
        space = self.space
        return backbone_fold(space.backbone, space.backbone_bits, self.accel)

    def _lookup(self, genes: tuple[int, ...]) -> PlacedExits:
        """The placed exits of the architecture of ``genes``."""
        exits = self._costs.get(genes)
        if exits is None:
            exits = self._costs[genes] = place_exits(
                self._fold, decode_exits(genes, self.space),
                self.space.num_classes, self._heads,
            )
        return exits

    def et_per_exit(self, genes: tuple[int, ...]) -> tuple[float, ...]:
        return exit_costs(self._fold, self._lookup(genes))[2]

    def overheads(self, genes: tuple[int, ...]) -> tuple[float, ...]:
        return exit_overheads(self._fold, self._lookup(genes))

    def max_overhead(self, genes: tuple[int, ...]) -> float:
        return max(self.overheads(genes), default=0.0)

    def et_average(
        self, genes: tuple[int, ...], exit_ratios: Sequence[float]
    ) -> float:
        return et_avg(self.et_per_exit(genes), exit_ratios)

    def static_et(self, genes: tuple[int, ...]) -> float:
        """Energy-delay of the backbone with only the final head of
        ``genes``, all samples exiting last: the last exit of the static
        counterpart, whose genes keep only the final pair."""
        list(decode_exits(genes, self.space))  # checks every gene
        return self.et_per_exit((0,) * (len(genes) - 2) + genes[-2:])[-1]


# ---------------------------------------------------------------------------
# Evaluators: ``evaluator(key, arch) -> EvaluationReport``, where ``key`` is
# the candidate's 16-hex chromosome hash and ``arch`` its decoded architecture
# ---------------------------------------------------------------------------

class OracleEvaluator:
    """Synthetic closed-form evaluator; fast enough for full-space sweeps."""

    def __init__(self, config: OracleConfig = OracleConfig(), seed: int = 0):
        if not (is_int(seed) and seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        self.config = config
        self.seed = seed

    def __call__(self, key: str, arch) -> EvaluationReport:
        return synthetic_oracle(arch, self.config, self.seed)


class ToyEvaluator:
    """Trains the dense stand-in network on a fixed dataset per candidate."""

    #: Each call is seeded by the config and shares no state with another,
    #: so a batch may train in forked workers (:func:`_evaluate_all`).
    forks_workers = True

    def __init__(self, dataset, config: TrainingConfig):
        self.dataset = dataset
        self.config = config

    def __call__(self, key: str, arch) -> EvaluationReport:
        try:
            return train_toy(arch, self.dataset, self.config)
        except (TrainingDiverged, DatasetError) as exc:
            raise EvaluationFailure(str(exc)) from exc


class ExternalEvaluator:
    """Pulls per-architecture report files (named by chromosome hash) from
    a directory; missing, unreadable or invalid files fail just that
    architecture."""

    def __init__(self, reports_dir: str):
        self.reports_dir = reports_dir

    def __call__(self, key: str, arch) -> EvaluationReport:
        path = os.path.join(self.reports_dir, f"{key}.json")
        if not os.path.isfile(path):
            raise EvaluationFailure(f"no external report at {path}")
        try:
            _, report = load_external_report(path, expected_hash=key)
        except ReportError as exc:
            raise EvaluationFailure(str(exc)) from exc
        except OSError as exc:
            raise EvaluationFailure(
                f"cannot read external report {path}: {exc.strerror}"
            ) from exc
        return report


#: What an evaluator raises to fail only the architecture it was given.
_FAILURES = (EvaluationFailure, ReportError)


def _outcome(evaluator, key: str, arch):
    """The report of ``arch``, or the failure that fails only it; any other
    exception propagates."""
    try:
        return evaluator(key, arch)
    except _FAILURES as exc:
        return exc


#: The evaluator of a forked worker; set only in workers, by
#: :func:`_start_worker`.
_worker_evaluator = None


def _start_worker(evaluator) -> None:
    global _worker_evaluator
    _worker_evaluator = evaluator


def _worker_outcome(key: str, arch):
    return _outcome(_worker_evaluator, key, arch)


def _evaluate_all(evaluator, keys: Sequence[str], archs: Sequence) -> list:
    """The outcome of each architecture of ``archs`` (hashed ``keys``), in
    order. An evaluator whose class sets ``forks_workers`` runs them in
    forked workers, one per CPU in the affinity mask; any other runs them
    here, in order. A worker that dies raises :class:`SearchError`.

    Workers are forked, so they inherit the evaluator (dataset included):
    only the keys, architectures and outcomes are pickled."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(keys), cpus)
    if workers >= 2 and getattr(evaluator, "forks_workers", False):
        import multiprocessing  # not at module level: it would slow start-up

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures.process import (
                BrokenProcessPool,
                ProcessPoolExecutor,
            )

            pool = ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_start_worker,
                initargs=(evaluator,),
            )
            try:
                return list(pool.map(_worker_outcome, keys, archs))
            except BrokenProcessPool as exc:
                raise SearchError(f"an evaluation worker died: {exc}") from exc
            finally:
                pool.shutdown(cancel_futures=True)
    return [_outcome(evaluator, key, arch) for key, arch in zip(keys, archs)]


# ---------------------------------------------------------------------------
# Pareto front and derived metrics
# ---------------------------------------------------------------------------

def pareto_front(records) -> list[LabeledRecord]:
    """Records not dominated under (maximize accuracy, minimize energy-delay).
    A record dominates another when it is at least as good in both objectives
    and strictly better in one. Sorted by accuracy descending."""
    recs = list(records)
    if not recs:
        raise ValueError("cannot take the front of an empty record set")
    acc = np.array([r.acc_avg for r in recs])
    et = np.array([r.et_avg for r in recs])
    better_eq = (acc[None, :] >= acc[:, None]) & (et[None, :] <= et[:, None])
    strict = (acc[None, :] > acc[:, None]) | (et[None, :] < et[:, None])
    dominated = (better_eq & strict).any(axis=1)
    front = [r for r, d in zip(recs, dominated) if not d]
    return sorted(front, key=lambda r: (-r.acc_avg, r.et_avg, r.key))


def et_reduction_value(et_average: float, static_et: float) -> float:
    """1 - ET_avg over the static baseline's energy-delay (backbone plus
    final head only, everything exiting last)."""
    if static_et == 0:
        raise ValueError("static baseline has zero energy-delay")
    return 1.0 - et_average / static_et


def mac_reduction(
    exit_ratios: Sequence[float],
    cumulative: Sequence[int],
    static_macs: int,
) -> float:
    """1 - (expected executed MACs under the exit ratios) / static MACs."""
    if len(exit_ratios) != len(cumulative):
        raise ValueError("need one cumulative MAC count per exit ratio")
    if static_macs <= 0:
        raise ValueError("static MAC count must be positive")
    expected = math.fsum(r * c for r, c in zip(exit_ratios, cumulative))
    return 1.0 - expected / static_macs


# ---------------------------------------------------------------------------
# Search state and history
# ---------------------------------------------------------------------------

class SearchState:
    """Mutable run state; the history file is its durable form.
    ``labeled`` is the cumulative archive, each record under its hash; a
    record added again under its hash replaces the earlier one. After
    :func:`run_search`, ``log`` is the run's :class:`HistoryLog`: its
    ``events`` are every event of the history, in log order."""

    def __init__(self):
        self.k = -1
        self.members: dict[str, tuple[int, ...]] = {}
        self.labeled: dict[str, LabeledRecord] = {}
        self.rejected: dict[str, str] = {}
        self.log: HistoryLog | None = None

    def front(self) -> list[LabeledRecord]:
        return pareto_front(self.labeled.values())


#: The encoder of every history line. ``json.dumps`` with these arguments
#: builds this same encoder on each call; one shared instance writes the
#: same bytes without that cost.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _event_line(event: dict) -> str:
    """One history line; a non-finite number raises rather than being
    written as a ``NaN`` or ``Infinity`` literal no reader accepts."""
    return _ENCODER.encode(event) + "\n"


class HistoryLog:
    """Append-only JSONL event log; one event per line, no timestamps, so
    identical runs produce identical bytes. Each line is flushed as it is
    written: a resume after a crash reads every committed event, and a
    forked worker inherits no unwritten buffer.

    The file is first replaced, atomically, by ``kept_lines``: none for a
    new history, the kept prefix of the history a resume continues, written
    as it was read. The log keeps every event of its history in log order
    (``events``: ``kept_events``, the parsed prefix, then each event
    appended) and a sha256 of all the text the file should hold, which
    :meth:`check` compares with the file."""

    def __init__(
        self,
        path: str | None,
        kept_lines: Sequence[str] = (),
        kept_events: Sequence[dict] = (),
    ):
        self.path = path
        self.events = list(kept_events)
        text = "".join(kept_lines)
        self._sha = hashlib.sha256(text.encode("utf-8"))
        self._fh = None
        if path is not None:
            atomic_write(path, text)
            # Appending, so text another writer adds stays where
            # :meth:`check` sees it.
            self._fh = open(path, "a", encoding="utf-8")

    def append(self, event: dict) -> None:
        self.events.append(event)
        if self._fh is not None:
            line = _event_line(event)
            self._fh.write(line)
            self._fh.flush()
            self._sha.update(line.encode("utf-8"))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def check(self) -> None:
        """Raise :class:`HistoryError` unless the file holds exactly the
        text this log wrote, so that :attr:`events` describe it."""
        if self.path is None:
            return
        with open(self.path, "rb") as fh:
            on_disk = hashlib.sha256(fh.read()).digest()
        if on_disk != self._sha.digest():
            raise HistoryError(f"{self.path} changed while the search wrote it")


def _committed_lines(path: str) -> list[str]:
    """The committed lines of a history file. :class:`HistoryLog` ends
    every committed event with a newline, so a final chunk without one is a
    write cut short by a crash: it is dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if lines and not lines[-1].endswith("\n"):
        lines.pop()  # only the final chunk can lack one
    return lines


def _parse_line(path: str, number: int, line: str) -> dict:
    """The event of line ``number`` (from 1) of the history at ``path``;
    a line that is not a JSON object raises :class:`HistoryError`."""
    try:
        event = json.loads(line)
    except json.JSONDecodeError as exc:
        raise HistoryError(
            f"{path} line {number} is not valid JSON: {exc.msg} (char {exc.pos})"
        ) from None
    if not isinstance(event, dict):
        raise HistoryError(f"{path} line {number} is not a JSON object")
    return event


def _read_lines(path: str) -> tuple[list[str], list[dict]]:
    """The committed non-blank lines of a history file and their events,
    each line parsed once by :func:`_parse_line`."""
    lines, events = [], []
    for number, line in enumerate(_committed_lines(path), 1):
        if line.strip():
            lines.append(line)
            events.append(_parse_line(path, number, line))
    return lines, events


def read_history(path: str) -> list[dict]:
    """Parse every committed line of a history file; a line that is not a
    JSON object raises :class:`HistoryError`, naming its line."""
    return _read_lines(path)[1]


_GENE_KINDS = ("sampled", "offspring", "filtered-theta")
# ``_event_line`` sorts keys, so a gene line starts with its kind, and fixed
# separators let its hash, and the kind of an ``evaluated`` line, be matched
# as one exact substring.
_GENE_PREFIXES = tuple(f'{{"event":"{kind}"' for kind in _GENE_KINDS)
_HASH = '"hash":"'
# The hash field with the whitespace JSON allows around its colon.
_SPACED_HASH = re.compile(r'"hash"[ \t\n\r]*:[ \t\n\r]*"([^"]*)"')
_EVALUATED = '"event":"evaluated"'
# The kinds a report reads, as any JSON line that holds one spells them.
_REPORT_KINDS = tuple(
    f'"{kind}"' for kind in ("evaluated", "iteration-summary", *_GENE_KINDS)
)


def read_report_events(path: str) -> list[dict]:
    """The events of a history that a report of its last labeled archive
    uses, in log order: the first line, every ``evaluated`` and
    ``iteration-summary`` line, and the gene lines of the hashes labeled at
    the last summary. A line that starts as ``_event_line`` starts a gene
    line is parsed only if the hash it names is labeled (read from the
    exact ``"hash":"`` text, or, where that is missing, from the field as
    spaced however JSON allows); any other line
    only if it names a kind the report reads, however it is spaced or its
    keys ordered. So a corrupt line of another kind does not stop the
    report, and a line kept as written by ``--resume`` is read as
    :func:`read_history` reads it; the rule for a torn last line is
    :func:`read_history`'s."""
    parsed: dict[int, dict] = {}
    gene_lines: list[tuple[int, str, str]] = []
    lines = _committed_lines(path)
    first = next((i for i, line in enumerate(lines) if line.strip()), None)
    for i, line in enumerate(lines):
        if i != first and line.startswith(_GENE_PREFIXES):
            key = line.partition(_HASH)[2].partition('"')[0]
            if not key:  # respelled after its kind, as ``--resume`` may keep it
                match = _SPACED_HASH.search(line)
                key = match[1] if match else ""
            gene_lines.append((i, key, line))
        elif (
            i == first
            or _EVALUATED in line  # most lines a report parses: one scan
            or any(kind in line for kind in _REPORT_KINDS)
        ):
            parsed[i] = _parse_line(path, i + 1, line)
    summaries = [
        ev for ev in parsed.values() if ev.get("event") == "iteration-summary"
    ]
    try:
        labeled = set(summaries[-1].get("p", ())) if summaries else set()
    except TypeError:  # a malformed ``p``, which :func:`replay_history` names
        labeled = set()
    for i, key, line in gene_lines:
        if key in labeled:
            parsed[i] = _parse_line(path, i + 1, line)
    return [parsed[i] for i in sorted(parsed)]


@dataclass
class HistoryReplay:
    """What a history records, read in one walk over its events."""

    header: dict | None  # the ``run-config`` event, if the history has one
    genes: dict[str, tuple[int, ...]] = field(default_factory=dict)
    evaluated: list[dict] = field(default_factory=list)  # in log order
    by_hash: dict[str, dict] = field(default_factory=dict)  # last evaluation
    rejected: dict[str, str] = field(default_factory=dict)  # "mu", "evaluation-failed"
    summaries: list[dict] = field(default_factory=list)
    # Hash -> the genes tuple already checked to hash to it.
    _verified: dict[str, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def labeled(self) -> frozenset[str]:
        """Hashes labeled at the last summary."""
        return frozenset(self.summaries[-1]["p"] if self.summaries else ())

    def genes_of(self, h: str) -> tuple[int, ...] | None:
        """The genes of hash ``h`` from its last gene line, or None if no
        gene line names it. Genes that are not all integers, or do not hash
        to ``h``, raise :class:`HistoryError`: every reader takes genes from
        here, so an altered gene line never enters a state, a front or an
        audit."""
        genes = self.genes.get(h)
        if genes is not None and self._verified.get(h) is not genes:
            # Digit strings hash like the integers they spell. ``sum``
            # refuses a string, a list or null and turns a float into a
            # float, at a fifth of the cost of a check per gene (a report
            # checks every labeled hash); a bool sums to an int, but its
            # text fails the hash check.
            try:
                integral = type(sum(genes)) is int
            except TypeError:
                integral = False
            if not integral:
                raise HistoryError(f"the genes recorded for {h} are not integers")
            if chromosome_hash(genes) != h:
                raise HistoryError(f"the genes recorded for {h} do not hash to it")
            self._verified[h] = genes
        return genes

    def labeled_records(self) -> list[LabeledRecord]:
        """The labeled archive at the last summary, in hash order."""
        records = []
        for h in sorted(self.labeled):
            genes = self.genes_of(h)
            if genes is None or h not in self.by_hash:
                missing = "genes" if genes is None else "evaluation"
                raise HistoryError(f"labeled {h} has no recorded {missing}")
            records.append(
                LabeledRecord(
                    genes=genes,
                    acc_avg=self.by_hash[h]["acc_avg"],
                    et_avg=self.by_hash[h]["et_avg"],
                )
            )
        return records


# The fields of each event kind that the replay and its readers use, with
# the JSON type each must have (``object``: any). A summary's ``s`` and
# ``p`` must also hold strings; a gene line's genes are checked where they
# are read, once per hash, by :meth:`HistoryReplay.genes_of`.
_GENE_FIELDS = {"hash": str, "genes": list}
_REJECTED_FIELDS = {"hash": str}
_EVALUATED_FIELDS = {
    "k": object, "hash": str, "acc_avg": object, "et_avg": object,
    "exit_ratios": list,
}
_SUMMARY_FIELDS = {"k": int, "s": list, "p": list, "stats": object}
_TYPE_NAMES = {str: "a string", list: "a list", int: "an integer"}


def _require(event: dict, fields: dict[str, type]) -> None:
    """A missing field raises :class:`KeyError`, one of the wrong type
    :class:`HistoryError`."""
    for name, kind in fields.items():
        if not isinstance(event[name], kind):
            raise HistoryError(
                f"{event['event']} event field {name} must be {_TYPE_NAMES[kind]}"
            )


def replay_history(events: Sequence[dict]) -> HistoryReplay:
    """Walk a history's events once, all of them. A hash is taken over the
    genes, so sampled, bred and θ-filtered genes share one map."""
    has_header = bool(events) and events[0].get("event") == "run-config"
    history = HistoryReplay(header=events[0] if has_header else None)
    try:
        for ev in events:
            kind = ev.get("event")
            if kind in _GENE_KINDS:
                h, genes = ev["hash"], ev["genes"]
                if not (isinstance(h, str) and isinstance(genes, list)):
                    _require(ev, _GENE_FIELDS)  # raises, naming the field
                history.genes[h] = tuple(genes)
            elif kind == "evaluated":
                _require(ev, _EVALUATED_FIELDS)
                if not (is_real(ev["acc_avg"]) and is_real(ev["et_avg"])):
                    raise HistoryError(f"evaluation of {ev['hash']} is not finite")
                history.evaluated.append(ev)
                history.by_hash[ev["hash"]] = ev
            elif kind == "filtered-mu":
                _require(ev, _REJECTED_FIELDS)
                history.rejected[ev["hash"]] = "mu"
            elif kind == "eval-failed":
                _require(ev, _REJECTED_FIELDS)
                history.rejected[ev["hash"]] = "evaluation-failed"
            elif kind == "iteration-summary":
                _require(ev, _SUMMARY_FIELDS)
                for name in ("s", "p"):
                    if not set(map(type, ev[name])) <= {str}:
                        raise HistoryError(
                            f"{kind} event field {name} must hold strings"
                        )
                history.summaries.append(ev)
    except KeyError as exc:
        raise HistoryError(f"{kind} event lacks {exc.args[0]}") from None
    return history


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _rng_for(seed: int, k: int) -> np.random.Generator:
    # One independent, resume-stable stream per iteration.
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(k + 1,))
    )


# ---------------------------------------------------------------------------
# Search operations
# ---------------------------------------------------------------------------

def _passes_theta(
    key: str,
    genes: tuple[int, ...],
    cost: CostCache,
    theta: float,
    kept: str,
    k: int,
    log: Callable[[dict], None],
) -> bool:
    """Whether ``genes`` meet the inclusive overhead cap; logs them as a
    ``kept`` event (``sampled`` or ``offspring``) if so, else as
    ``filtered-theta``."""
    oh = cost.max_overhead(genes)
    passed = oh <= theta
    log(
        {
            "event": kept if passed else "filtered-theta",
            "k": k,
            "hash": key,
            "genes": list(genes),
            "oh_max": _finite_or_none(oh),
        }
    )
    return passed


def init_population(
    space: SpaceConfig,
    config: NasConfig,
    cost: CostCache,
    rng: np.random.Generator,
    log: Callable[[dict], None] = lambda e: None,
) -> dict[str, tuple[int, ...]]:
    """Sample distinct gene vectors until the requested count passes the
    overhead pre-filter (no training involved) or the attempt budget runs
    out, in which case the shortfall is reported in the log."""
    target = config.init_population
    budget = config.attempt_factor * target
    accepted: dict[str, tuple[int, ...]] = {}
    seen_rejects: set[str] = set()
    attempts = 0
    while len(accepted) < target and attempts < budget:
        attempts += 1
        genes = sample_architecture(space, rng)
        key = chromosome_hash(genes)
        if key in accepted or key in seen_rejects:
            continue
        if _passes_theta(key, genes, cost, config.theta, "sampled", 0, log):
            accepted[key] = genes
        else:
            seen_rejects.add(key)
    if len(accepted) < target:
        log(
            {
                "event": "sampling-shortfall",
                "k": 0,
                "found": len(accepted),
                "target": target,
            }
        )
    return accepted


def filter_exit_ratio(
    evaluated: Sequence[tuple[str, EvaluationReport]], mu: float
) -> tuple[list[tuple[str, EvaluationReport]], list[tuple[str, EvaluationReport]]]:
    """Split an evaluated population into (kept, removed) by the inclusive
    last-exit-ratio cap."""
    kept, removed = [], []
    for key, report in evaluated:
        (kept if report.exit_ratios[-1] <= mu else removed).append((key, report))
    return kept, removed


def select_parents(
    candidates: Sequence[tuple[str, tuple[int, ...]]],
    estimate: Callable[[str, tuple[int, ...]], tuple[float, float]],
    n: int,
) -> list[tuple[str, tuple[int, ...]]]:
    """Two-stage shortlist: rank by estimated accuracy descending and keep
    2N, then rank those by estimated energy-delay ascending and keep N.
    Hash order breaks every tie."""
    rows = [
        (key, genes, *estimate(key, genes)) for key, genes in candidates
    ]
    shortlist = sorted(rows, key=lambda r: (-r[2], r[0]))[: 2 * n]
    final = sorted(shortlist, key=lambda r: (r[3], r[0]))[:n]
    return [(r[0], r[1]) for r in final]


def _crossover(
    g1: tuple[int, ...],
    g2: tuple[int, ...],
    space: SpaceConfig,
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Uniform crossover over whole per-mount gene groups (and the final
    pair), each inherited atomically from one parent."""
    c1: list[int] = []
    c2: list[int] = []
    for j in range(space.n_optional):
        base = GENES_PER_MOUNT * j
        a = g1[base : base + GENES_PER_MOUNT]
        b = g2[base : base + GENES_PER_MOUNT]
        if rng.integers(0, 2):
            a, b = b, a
        c1.extend(a)
        c2.extend(b)
    fa, fb = g1[-2:], g2[-2:]
    if rng.integers(0, 2):
        fa, fb = fb, fa
    c1.extend(fa)
    c2.extend(fb)
    return tuple(c1), tuple(c2)


def _mutate(
    genes: tuple[int, ...],
    space: SpaceConfig,
    rate: float,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Per-gene mutation: flip a presence bit (freshly sampling the options
    of a newly present mount) or resample an option index."""
    out = list(genes)
    p, q = space.n_head_options, space.n_quant_options
    for j in range(space.n_optional):
        base = GENES_PER_MOUNT * j
        if rng.random() < rate:
            if out[base]:
                out[base : base + GENES_PER_MOUNT] = [0] * GENES_PER_MOUNT
            else:
                out[base] = 1
                out[base + 1] = int(rng.integers(0, p))
                out[base + 2] = int(rng.integers(0, q))
            continue
        if out[base]:
            if rng.random() < rate:
                out[base + 1] = int(rng.integers(0, p))
            if rng.random() < rate:
                out[base + 2] = int(rng.integers(0, q))
    if rng.random() < rate:
        out[-2] = int(rng.integers(0, p))
    if rng.random() < rate:
        out[-1] = int(rng.integers(0, q))
    return tuple(out)


#: Upper bound on pairing passes per generation when novelty is scarce.
_BREEDING_PASSES = 8


def ga_generation(
    parents: Sequence[tuple[str, tuple[int, ...]]],
    space: SpaceConfig,
    config: NasConfig,
    rng: np.random.Generator,
    cost: CostCache,
    exclude: set[str],
    log: Callable[[dict], None] = lambda e: None,
    k: int = 0,
) -> dict[str, tuple[int, ...]]:
    """One breeding generation: pair the parents, cross over whole gene
    groups, mutate per gene, keep offspring that are new and satisfy the
    overhead cap. Pairing passes repeat (bounded) until 2N novel offspring
    exist, so selection always has a full pool to rank."""
    plist = sorted(parents, key=lambda t: t[0])
    if not plist:
        return {}
    offspring: dict[str, tuple[int, ...]] = {}

    def consider(raw: tuple[int, ...]) -> None:
        genes = canonicalize(raw, space)
        key = chromosome_hash(genes)
        if key in exclude or key in offspring:
            return
        if _passes_theta(key, genes, cost, config.theta, "offspring", k, log):
            offspring[key] = genes

    for _ in range(_BREEDING_PASSES):
        order = rng.permutation(len(plist))
        for t in range(0, len(order) - 1, 2):
            ga = plist[order[t]][1]
            gb = plist[order[t + 1]][1]
            if rng.random() < config.crossover_rate:
                ca, cb = _crossover(ga, gb, space, rng)
            else:
                ca, cb = ga, gb
            consider(_mutate(ca, space, config.mutation_rate, rng))
            consider(_mutate(cb, space, config.mutation_rate, rng))
        if len(order) % 2:
            consider(_mutate(plist[order[-1]][1], space, config.mutation_rate, rng))
        if len(offspring) >= 2 * config.n_select:
            break
    return offspring


def _evaluate_new(
    state: SearchState,
    keys: Sequence[str],
    space: SpaceConfig,
    config: NasConfig,
    cost: CostCache,
    evaluator,
    log: Callable[[dict], None],
    k: int,
) -> list[LabeledRecord]:
    """Evaluate members without labels, then log them in hash order and
    apply the last-exit cap to the whole batch; failures, invalid reports
    and violators leave the population (and are remembered, so nothing is
    ever evaluated twice).

    The batch is evaluated first, in full, by :func:`_evaluate_all`: in
    forked workers for an evaluator that opts in, else here in hash order.
    Only this process logs, after the whole batch, so the history does not
    depend on where a report was computed."""
    pending = [
        key for key in sorted(keys)
        if key not in state.labeled and key not in state.rejected
    ]
    archs = [decode(state.members[key], space) for key in pending]
    outcomes = _evaluate_all(evaluator, pending, archs)
    evaluated: list[tuple[str, EvaluationReport]] = []
    et_averages: dict[str, float] = {}
    for key, arch, report in zip(pending, archs, outcomes):
        if not isinstance(report, _FAILURES) and report.m != arch.m:
            report = EvaluationFailure(
                f"report has {report.m} exits, architecture has {arch.m}"
            )
        if isinstance(report, _FAILURES):
            log({"event": "eval-failed", "k": k, "hash": key, "error": str(report)})
            state.rejected[key] = "evaluation-failed"
            del state.members[key]
            continue
        et_averages[key] = cost.et_average(state.members[key], report.exit_ratios)
        evaluated.append((key, report))
        log(
            {
                "event": "evaluated",
                "k": k,
                "hash": key,
                "acc_avg": report.acc_avg,
                "et_avg": et_averages[key],
                "exit_ratios": list(report.exit_ratios),
                "accuracy_per_exit": list(report.accuracy_per_exit),
                "sample_counts": list(report.sample_counts),
            }
        )
    kept, removed = filter_exit_ratio(evaluated, config.mu)
    for key, report in removed:
        log(
            {
                "event": "filtered-mu",
                "k": k,
                "hash": key,
                "er_last": report.exit_ratios[-1],
            }
        )
        state.rejected[key] = "mu"
        del state.members[key]
    new_records = [
        LabeledRecord(
            genes=state.members[key],
            acc_avg=report.acc_avg,
            et_avg=et_averages[key],
        )
        for key, report in kept
    ]
    for record in new_records:
        state.labeled[record.key] = record
    return new_records


def _iteration_stats(k: int, records: Sequence[LabeledRecord]) -> dict:
    stats = {"k": k, "evaluated": len(records)}
    if records:
        acc = [r.acc_avg for r in records]
        et = [r.et_avg for r in records]
        stats["acc"] = {
            "min": min(acc),
            "mean": math.fsum(acc) / len(acc),
            "max": max(acc),
        }
        stats["et"] = {
            "min": min(et),
            "mean": math.fsum(et) / len(et),
            "max": max(et),
        }
    return stats


def _close_iteration(
    state: SearchState,
    k: int,
    new_records: Sequence[LabeledRecord],
    log: Callable[[dict], None],
) -> None:
    state.k = k
    log(
        {
            "event": "iteration-summary",
            "k": k,
            "s": sorted(state.members),
            "p": sorted(state.labeled),
            "stats": _iteration_stats(k, new_records),
        }
    )


def _fit_predictors(
    state: SearchState, space: SpaceConfig, config: NasConfig
) -> tuple[Predictor, Predictor]:
    if len(state.labeled) < 2:
        raise SearchError(
            f"only {len(state.labeled)} feasible labeled architectures; "
            "cannot fit predictors"
        )
    return (
        fit(state.labeled.values(), space, target="accuracy", ridge=config.ridge),
        fit(state.labeled.values(), space, target="et", ridge=config.ridge),
    )


def _make_estimator(
    state: SearchState,
    predictors: tuple[Predictor, Predictor] | None,
    space: SpaceConfig,
):
    """Labels for labeled keys, else predictions, each key predicted once:
    neither the predictors nor ``state.labeled`` change while one
    iteration selects."""
    predicted: dict[str, tuple[float, float]] = {}

    def estimate(key: str, genes: tuple[int, ...]) -> tuple[float, float]:
        record = state.labeled.get(key)
        if record is not None:
            return record.acc_avg, record.et_avg
        if key not in predicted:
            if predictors is None:
                raise SearchError("no predictors available for unlabeled candidates")
            predicted[key] = (
                predict(predictors[0], genes, space),
                predict(predictors[1], genes, space),
            )
        return predicted[key]

    return estimate


def nas_iterate(
    state: SearchState,
    space: SpaceConfig,
    config: NasConfig,
    cost: CostCache,
    evaluator,
    predictors: tuple[Predictor, Predictor],
    log: Callable[[dict], None] = lambda e: None,
) -> tuple[Predictor, Predictor]:
    """One search iteration: shortlist parents, breed for the configured
    number of generations, admit the best N unseen offspring, evaluate only
    them, drop last-exit violators, and refit the predictors on the grown
    archive. Returns the refit predictors."""
    k = state.k + 1
    rng = _rng_for(config.seed, k)
    estimate = _make_estimator(state, predictors, space)

    candidates = [(key, state.members[key]) for key in sorted(state.members)]
    parents = select_parents(candidates, estimate, config.n_select)
    log(
        {
            "event": "selected",
            "k": k,
            "parents": sorted(key for key, _ in parents),
            "pool": len(candidates),
        }
    )

    pool: dict[str, tuple[int, ...]] = {}
    breeders = parents
    for _ in range(config.generations):
        exclude = set(state.members) | set(state.rejected) | set(pool)
        children = ga_generation(
            breeders, space, config, rng, cost, exclude, log, k
        )
        pool.update(children)
        if len(children) >= 2:
            breeders = select_parents(
                sorted(children.items()), estimate, config.n_select
            )

    top = select_parents(sorted(pool.items()), estimate, config.n_select)
    for key, genes in top:
        state.members[key] = genes

    new_records = _evaluate_new(
        state, [key for key, _ in top], space, config, cost, evaluator, log, k
    )
    _close_iteration(state, k, new_records, log)
    return _fit_predictors(state, space, config)


#: The one allocation rule (greedy earliest finish). The header records it
#: because it always has: ``--resume`` compares headers byte for byte, and
#: :func:`audit_history` refuses a history that names any other rule.
COST_MODE = "greedy"


def _header_event(
    space: SpaceConfig,
    accel: AcceleratorSpec,
    config: NasConfig,
    evaluator_kind: str,
) -> dict:
    return {
        "event": "run-config",
        "k": -1,
        "nas": config.to_json(),
        "space": space.to_json(),
        "accelerator": accel.to_json(),
        "evaluator": evaluator_kind,
        "cost_mode": COST_MODE,
    }


def _rebuild_state(events: Sequence[dict]) -> tuple[SearchState, int]:
    """Replay events through the last complete iteration; returns the state
    and the cut: the index just past that iteration's summary line, or
    past the header if there is none. Events after the cut belong to an
    interrupted iteration and are ignored, so the continuation behaves
    exactly like an uninterrupted run."""
    summaries = [
        i for i, ev in enumerate(events) if ev.get("event") == "iteration-summary"
    ]
    cut = summaries[-1] + 1 if summaries else 1
    history = replay_history(events[:cut])
    state = SearchState()
    state.rejected = history.rejected
    if history.summaries:
        last = history.summaries[-1]
        state.k = last["k"]
        unrecorded = sorted(set(last["s"]) - history.genes.keys())
        if unrecorded:
            raise HistoryError(f"member {unrecorded[0]} has no recorded genes")
        state.members = {h: history.genes_of(h) for h in last["s"]}
        state.labeled = {r.key: r for r in history.labeled_records()}
    return state, cut


def _cost_cache(
    cost: CostCache | None, space: SpaceConfig, accel: AcceleratorSpec
) -> CostCache:
    """``cost`` if it prices ``space`` on ``accel``, a new cache if it is
    None; a cache of anything else is refused."""
    if cost is None:
        return CostCache(space, accel)
    if cost.space != space or cost.accel != accel:
        raise SearchError("the cost cache prices another space or accelerator")
    return cost


def run_search(
    space: SpaceConfig,
    accel: AcceleratorSpec,
    evaluator,
    config: NasConfig,
    history_path: str | None = None,
    resume: bool = False,
    evaluator_kind: str = "custom",
    cost: CostCache | None = None,
) -> SearchState:
    """Run the full loop: initialization (iteration 0) plus the configured
    number of search iterations, logging every event to a new history at
    ``history_path``, if given. With ``resume``, the existing history is
    replayed to its last complete iteration (trailing partial events are
    discarded), its lines up to there are kept as written, and the run
    continues identically to an uninterrupted one; a history with no
    committed line is started afresh. Costs go through
    ``cost``, a cache of ``space`` and ``accel``, or a new one."""
    cost = _cost_cache(cost, space, accel)
    header = _header_event(space, accel, config, evaluator_kind)

    state = SearchState()
    lines, events = [], []
    if resume:
        if history_path is None or not os.path.exists(history_path):
            raise SearchError("cannot resume without an existing history file")
        # A history with no committed line (a crash before its header was
        # flushed) holds nothing to continue: the run starts afresh.
        lines, events = _read_lines(history_path)
        if events:
            if events[0] != header:
                raise SearchError("history header does not match this run's config")
            state, cut = _rebuild_state(events)
            lines, events = lines[:cut], events[:cut]
    log = state.log = HistoryLog(history_path, lines, events)
    try:
        if not events:
            log.append(header)
        if state.k < 0:
            rng = _rng_for(config.seed, 0)
            accepted = init_population(space, config, cost, rng, log.append)
            state.members.update(accepted)
            new_records = _evaluate_new(
                state, sorted(accepted), space, config, cost, evaluator,
                log.append, 0,
            )
            _close_iteration(state, 0, new_records, log.append)
        predictors = _fit_predictors(state, space, config)
        while state.k < config.iterations:
            predictors = nas_iterate(
                state, space, config, cost, evaluator, predictors, log.append
            )
    finally:
        log.close()
    return state


# ---------------------------------------------------------------------------
# History audit
# ---------------------------------------------------------------------------

@dataclass
class AuditResult:
    ok: bool
    violations: list[str] = field(default_factory=list)
    iterations: int = 0
    members_checked: int = 0
    labels_checked: int = 0


def audit_history(
    history: str | os.PathLike | Sequence[dict] | HistoryReplay,
    cost: CostCache | None = None,
) -> AuditResult:
    """Re-derive every constraint from a persisted history, given its path
    (parsed in full by :func:`read_history`), its events as already read or
    their replay: recompute the overhead of every population member ever
    admitted, re-check every labeled member's last-exit ratio, verify the
    monotone set shapes, and confirm no architecture was evaluated twice.
    Overheads go through ``cost``, a cache of the header's space and
    accelerator (such as the one the run itself used), or a new one."""
    if isinstance(history, (str, os.PathLike)):
        history = read_history(history)
    if not isinstance(history, HistoryReplay):
        history = replay_history(history)
    header = history.header
    if header is None:
        raise SearchError("history lacks a run-config header")
    check_fixed(header, {"cost_mode": COST_MODE}, HistoryError, "history header")
    space = SpaceConfig.from_json(header["space"])
    accel = AcceleratorSpec.from_json(header["accelerator"])
    nas = NasConfig.from_json(header["nas"])
    cost = _cost_cache(cost, space, accel)

    result = AuditResult(ok=True, iterations=len(history.summaries))
    if len(history.by_hash) != len(history.evaluated):
        evaluated = [ev["hash"] for ev in history.evaluated]
        dupes = sorted({h for h in evaluated if evaluated.count(h) > 1})
        result.violations.append(f"architectures evaluated twice: {dupes}")

    checked_oh: set[str] = set()
    prev_s: set[str] = set()
    prev_p: set[str] = set()
    for summary in history.summaries:
        k = summary["k"]
        s_k = set(summary["s"])
        p_k = set(summary["p"])
        if not prev_s <= s_k:
            result.violations.append(f"population shrank at iteration {k}")
        if not prev_p <= p_k:
            result.violations.append(f"labeled set shrank at iteration {k}")
        if not p_k <= history.by_hash.keys():
            result.violations.append(f"unlabeled hash in P at iteration {k}")
        for h in sorted(s_k):
            if h not in history.genes:
                result.violations.append(f"member {h} has no recorded genes")
                continue
            if h not in checked_oh:
                checked_oh.add(h)
                oh = cost.max_overhead(history.genes_of(h))
                if not oh <= nas.theta:
                    result.violations.append(
                        f"member {h} violates the overhead cap: {oh:.4f}"
                    )
        for h in sorted(p_k & history.by_hash.keys()):
            er_last = history.by_hash[h]["exit_ratios"][-1]
            if not er_last <= nas.mu:
                result.violations.append(
                    f"labeled {h} violates the last-exit cap: {er_last:.4f}"
                )
        prev_s, prev_p = s_k, p_k
    result.members_checked = len(checked_oh)
    result.labels_checked = len(prev_p)
    result.ok = not result.violations
    return result
