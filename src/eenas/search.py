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

import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .arch import (
    Chromosome,
    SpaceConfig,
    canonicalize,
    chromosome_hash,
    decode,
    sample_architecture,
    static_counterpart,
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
from .files import atomic_write, check_fields, is_int, is_real
from .hwcost import AcceleratorSpec, cost_report, et_avg, exit_costs
from .predict import LabeledRecord, LabeledSet, Predictor, fit, predict


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
    theta: float = 0.5  # head-overhead cap, inclusive; math.inf disables
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
        kwargs = dict(data)
        if kwargs.get("theta") is None:
            kwargs["theta"] = math.inf
        for key, value in _fixed_ranking().items():
            if kwargs.pop(key, value) != value:
                raise ValueError(f"search config field {key} must be {value!r}")
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"bad search config field: {exc}") from exc


class CostCache:
    """Memoized hardware-cost queries for one (space, accelerator) pair.
    Per architecture it keeps only the per-exit energy-delay products and
    the head overheads, the two things the search reads."""

    def __init__(
        self,
        space: SpaceConfig,
        accel: AcceleratorSpec,
        mode: str = "greedy",
        seed: int = 0,
    ):
        self.space = space
        self.accel = accel
        self.mode = mode
        self.seed = seed
        self._costs: dict[str, tuple[tuple[float, ...], tuple[float, ...]]] = {}
        self._static: dict[tuple[int, int], float] = {}

    def _compute(self, arch) -> tuple[tuple[float, ...], tuple[float, ...]]:
        if self.mode == "greedy":
            return exit_costs(arch, self.accel, num_classes=self.space.num_classes)
        report = cost_report(
            arch,
            self.accel,
            mode=self.mode,
            num_classes=self.space.num_classes,
            seed=self.seed,
        )
        return report.et_per_exit, report.overheads

    def _lookup(
        self, chrom: Chromosome
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """``(et_per_exit, overheads)`` of the chromosome's architecture."""
        key = chromosome_hash(chrom)
        if key not in self._costs:
            self._costs[key] = self._compute(decode(chrom, self.space))
        return self._costs[key]

    def max_overhead(self, chrom: Chromosome) -> float:
        return max(self._lookup(chrom)[1], default=0.0)

    def et_average(self, chrom: Chromosome, exit_ratios: Sequence[float]) -> float:
        return et_avg(self._lookup(chrom)[0], exit_ratios)

    def static_et(self, chrom: Chromosome) -> float:
        """Energy-delay of the backbone with only this chromosome's final
        head, all samples exiting last."""
        key = (chrom.genes[-2], chrom.genes[-1])
        if key not in self._static:
            arch = static_counterpart(decode(chrom, self.space))
            self._static[key] = self._compute(arch)[0][-1]
        return self._static[key]


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------

class OracleEvaluator:
    """Synthetic closed-form evaluator; fast enough for full-space sweeps."""

    def __init__(self, config: OracleConfig = OracleConfig(), seed: int = 0):
        if not (is_int(seed) and seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        self.config = config
        self.seed = seed

    def __call__(self, chrom: Chromosome, arch) -> EvaluationReport:
        return synthetic_oracle(arch, self.config, self.seed)


class ToyEvaluator:
    """Trains the dense stand-in network on a fixed dataset per candidate."""

    def __init__(self, dataset, config: TrainingConfig):
        self.dataset = dataset
        self.config = config

    def __call__(self, chrom: Chromosome, arch) -> EvaluationReport:
        try:
            return train_toy(arch, self.dataset, self.config)
        except (TrainingDiverged, DatasetError) as exc:
            raise EvaluationFailure(str(exc)) from exc


class ExternalEvaluator:
    """Pulls per-architecture report files (named by chromosome hash) from
    a directory; missing or invalid files fail just that architecture."""

    def __init__(self, reports_dir: str):
        self.reports_dir = reports_dir

    def __call__(self, chrom: Chromosome, arch) -> EvaluationReport:
        path = os.path.join(
            self.reports_dir, f"{chromosome_hash(chrom)}.json"
        )
        if not os.path.exists(path):
            raise EvaluationFailure(f"no external report at {path}")
        try:
            _, report = load_external_report(
                path, expected_hash=chromosome_hash(chrom)
            )
        except ReportError as exc:
            raise EvaluationFailure(str(exc)) from exc
        return report


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
    """Mutable run state; the history file is its durable form."""

    def __init__(self):
        self.k = -1
        self.members: dict[str, tuple[int, ...]] = {}
        self.labeled = LabeledSet()
        self.rejected: dict[str, str] = {}

    def front(self) -> list[LabeledRecord]:
        return pareto_front(self.labeled)


def _event_line(event: dict) -> str:
    return json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"


class HistoryLog:
    """Append-only JSONL event log; one event per line, no timestamps, so
    identical runs produce identical bytes."""

    def __init__(self, path: str | None):
        self._fh = None
        if path is not None:
            self._fh = open(path, "a", encoding="utf-8")

    def append(self, event: dict) -> None:
        if self._fh is not None:
            self._fh.write(_event_line(event))
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _committed_lines(path: str) -> list[str]:
    """The committed lines of a history file. :class:`HistoryLog` ends
    every committed event with a newline, so a final chunk without one is a
    write cut short by a crash: it is dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if lines and not lines[-1].endswith("\n"):
        lines.pop()  # only the final chunk can lack one
    return lines


def read_history(path: str) -> list[dict]:
    """Parse every committed line of a history file; an unparsable one
    raises."""
    return [json.loads(line) for line in _committed_lines(path) if line.strip()]


_GENE_KINDS = ("sampled", "offspring", "filtered-theta")
# ``_event_line`` sorts keys, so an event with no key before "event" (a gene
# line, a summary) starts with its kind, and fixed separators let the others
# be matched as one exact substring.
_GENE_PREFIXES = tuple(f'{{"event":"{kind}"' for kind in _GENE_KINDS)
_SUMMARY_PREFIX = '{"event":"iteration-summary"'
_EVALUATED = '"event":"evaluated"'
_HASH = '"hash":"'


def read_report_events(path: str) -> list[dict]:
    """The events of a history that a report of its last labeled archive
    uses, in log order: the first line, every ``evaluated`` and
    ``iteration-summary`` line, and the gene lines of the hashes labeled at
    the last summary. Other lines are not parsed, so a corrupt one does not
    stop the report; the rule for a torn last line is :func:`read_history`'s."""
    parsed: dict[int, dict] = {}
    gene_lines: list[tuple[int, str, str]] = []
    lines = _committed_lines(path)
    first = next((i for i, line in enumerate(lines) if line.strip()), None)
    for i, line in enumerate(lines):
        if i != first and line.startswith(_GENE_PREFIXES):
            key = line.partition(_HASH)[2].partition('"')[0]
            gene_lines.append((i, key, line))
        elif i == first or line.startswith(_SUMMARY_PREFIX) or _EVALUATED in line:
            parsed[i] = json.loads(line)
    summaries = [
        ev for ev in parsed.values() if ev.get("event") == "iteration-summary"
    ]
    labeled = set(summaries[-1].get("p", ())) if summaries else set()
    for i, key, line in gene_lines:
        if key in labeled:
            parsed[i] = json.loads(line)
    return [parsed[i] for i in sorted(parsed)]


@dataclass
class HistoryReplay:
    """What a history records, read in one walk over its events."""

    header: dict | None  # the ``run-config`` event, if the history has one
    end: int  # number of events read
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
        gene line names it. Genes that do not hash to ``h`` raise
        :class:`HistoryError`: every reader takes genes from here, so an
        altered gene line never enters a state, a front or an audit."""
        genes = self.genes.get(h)
        if genes is not None and self._verified.get(h) is not genes:
            if chromosome_hash(Chromosome(genes)) != h:
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


# Fields that the replay's readers take later from the events it keeps;
# the fields it reads itself raise on their own.
_EVALUATED_FIELDS = frozenset({"k", "hash", "acc_avg", "et_avg", "exit_ratios"})
_SUMMARY_FIELDS = frozenset({"k", "s", "p", "stats"})


def _require(event: dict, fields: frozenset) -> None:
    if not event.keys() >= fields:
        raise KeyError(", ".join(sorted(fields - event.keys())))


def replay_history(events: Sequence[dict], complete: bool = False) -> HistoryReplay:
    """Walk a history's events once. With ``complete``, stop after the last
    ``iteration-summary`` (or after the header if there is none): later
    events belong to an interrupted iteration. A hash is taken over the
    genes, so sampled, bred and θ-filtered genes share one map."""
    end = len(events)
    if complete:
        ends = [
            i + 1 for i, ev in enumerate(events)
            if ev.get("event") == "iteration-summary"
        ]
        end = ends[-1] if ends else 1
    has_header = bool(events) and events[0].get("event") == "run-config"
    history = HistoryReplay(header=events[0] if has_header else None, end=end)
    try:
        for ev in events[:end]:
            kind = ev.get("event")
            if kind in _GENE_KINDS:
                history.genes[ev["hash"]] = tuple(ev["genes"])
            elif kind == "evaluated":
                _require(ev, _EVALUATED_FIELDS)
                history.evaluated.append(ev)
                history.by_hash[ev["hash"]] = ev
            elif kind == "filtered-mu":
                history.rejected[ev["hash"]] = "mu"
            elif kind == "eval-failed":
                history.rejected[ev["hash"]] = "evaluation-failed"
            elif kind == "iteration-summary":
                _require(ev, _SUMMARY_FIELDS)
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

def init_population(
    space: SpaceConfig,
    config: NasConfig,
    cost: CostCache,
    rng: np.random.Generator,
    log: Callable[[dict], None] = lambda e: None,
) -> dict[str, tuple[int, ...]]:
    """Sample distinct chromosomes until the requested count passes the
    overhead pre-filter (no training involved) or the attempt budget runs
    out, in which case the shortfall is reported in the log."""
    target = config.init_population
    budget = config.attempt_factor * target
    accepted: dict[str, tuple[int, ...]] = {}
    seen_rejects: set[str] = set()
    attempts = 0
    while len(accepted) < target and attempts < budget:
        attempts += 1
        chrom = sample_architecture(space, rng)
        key = chromosome_hash(chrom)
        if key in accepted or key in seen_rejects:
            continue
        oh = cost.max_overhead(chrom)
        if oh <= config.theta:
            accepted[key] = chrom.genes
            log(
                {
                    "event": "sampled",
                    "k": 0,
                    "hash": key,
                    "genes": list(chrom.genes),
                    "oh_max": _finite_or_none(oh),
                }
            )
        else:
            seen_rejects.add(key)
            log(
                {
                    "event": "filtered-theta",
                    "k": 0,
                    "hash": key,
                    "genes": list(chrom.genes),
                    "oh_max": _finite_or_none(oh),
                }
            )
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
        a, b = g1[3 * j : 3 * j + 3], g2[3 * j : 3 * j + 3]
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
        base = 3 * j
        if rng.random() < rate:
            if out[base]:
                out[base : base + 3] = [0, 0, 0]
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
        chrom = canonicalize(raw, space)
        key = chromosome_hash(chrom)
        if key in exclude or key in offspring:
            return
        oh = cost.max_overhead(chrom)
        event = {
            "k": k,
            "hash": key,
            "genes": list(chrom.genes),
            "oh_max": _finite_or_none(oh),
        }
        if oh <= config.theta:
            offspring[key] = chrom.genes
            log({"event": "offspring", **event})
        else:
            log({"event": "filtered-theta", **event})

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
    """Evaluate members without labels in hash order, then apply the
    last-exit cap to the whole batch; failures and violators leave the
    population (and are remembered, so nothing is ever evaluated twice)."""
    evaluated: list[tuple[str, EvaluationReport]] = []
    et_averages: dict[str, float] = {}
    for key in sorted(keys):
        if key in state.labeled or key in state.rejected:
            continue
        chrom = Chromosome(state.members[key])
        arch = decode(chrom, space)
        try:
            report = evaluator(chrom, arch)
            if report.m != arch.m:
                raise EvaluationFailure(
                    f"report has {report.m} exits, architecture has {arch.m}"
                )
        except EvaluationFailure as exc:
            log({"event": "eval-failed", "k": k, "hash": key, "error": str(exc)})
            state.rejected[key] = "evaluation-failed"
            del state.members[key]
            continue
        et_averages[key] = cost.et_average(chrom, report.exit_ratios)
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
        state.labeled.add(record)
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
            "p": sorted(state.labeled.keys()),
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
        fit(state.labeled, space, target="accuracy", ridge=config.ridge),
        fit(state.labeled, space, target="et", ridge=config.ridge),
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
            chrom = Chromosome(genes)
            predicted[key] = (
                predict(predictors[0], chrom, space),
                predict(predictors[1], chrom, space),
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


def _header_event(
    space: SpaceConfig,
    accel: AcceleratorSpec,
    config: NasConfig,
    evaluator_kind: str,
    cost_mode: str,
) -> dict:
    return {
        "event": "run-config",
        "k": -1,
        "nas": config.to_json(),
        "space": space.to_json(),
        "accelerator": accel.to_json(),
        "evaluator": evaluator_kind,
        "cost_mode": cost_mode,
    }


def _rebuild_state(events: Sequence[dict]) -> tuple[SearchState, int]:
    """Replay events through the last complete iteration; returns the state
    and the index just past that iteration's summary line. Events after the
    last summary belong to an interrupted iteration and are ignored, so the
    continuation behaves exactly like an uninterrupted run."""
    history = replay_history(events, complete=True)
    state = SearchState()
    state.rejected = history.rejected
    if history.summaries:
        last = history.summaries[-1]
        state.k = last["k"]
        unrecorded = sorted(set(last["s"]) - history.genes.keys())
        if unrecorded:
            raise HistoryError(f"member {unrecorded[0]} has no recorded genes")
        state.members = {h: history.genes_of(h) for h in last["s"]}
        state.labeled = LabeledSet(history.labeled_records())
    return state, history.end


def run_search(
    space: SpaceConfig,
    accel: AcceleratorSpec,
    evaluator,
    config: NasConfig,
    history_path: str | None = None,
    resume: bool = False,
    cost_mode: str = "greedy",
    evaluator_kind: str = "custom",
) -> SearchState:
    """Run the full loop: initialization (iteration 0) plus the configured
    number of search iterations, logging every event. With ``resume``, an
    existing history is replayed to its last complete iteration (trailing
    partial events are discarded) and the run continues identically to an
    uninterrupted one."""
    cost = CostCache(space, accel, mode=cost_mode, seed=config.seed)
    header = _header_event(space, accel, config, evaluator_kind, cost_mode)

    state = SearchState()
    if resume:
        if history_path is None or not os.path.exists(history_path):
            raise SearchError("cannot resume without an existing history file")
        events = read_history(history_path)
        if not events or events[0] != header:
            raise SearchError("history header does not match this run's config")
        state, cut = _rebuild_state(events)
        atomic_write(history_path, "".join(_event_line(ev) for ev in events[:cut]))

    log = HistoryLog(history_path)
    try:
        if not resume:
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


def audit_history(history: str | os.PathLike | Sequence[dict]) -> AuditResult:
    """Re-derive every constraint from a persisted history, given its path
    (parsed in full by :func:`read_history`) or its events as already
    read: recompute the overhead of every population member ever admitted,
    re-check every labeled member's last-exit ratio, verify the monotone set
    shapes, and confirm no architecture was evaluated twice."""
    if isinstance(history, (str, os.PathLike)):
        history = read_history(history)
    history = replay_history(history)
    header = history.header
    if header is None:
        raise SearchError("history lacks a run-config header")
    space = SpaceConfig.from_json(header["space"])
    accel = AcceleratorSpec.from_json(header["accelerator"])
    nas = NasConfig.from_json(header["nas"])
    cost = CostCache(
        space, accel, mode=header.get("cost_mode", "greedy"), seed=nas.seed
    )

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
                oh = cost.max_overhead(Chromosome(history.genes_of(h)))
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
