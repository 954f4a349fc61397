"""Constrained two-objective genetic search.

The loop alternates true evaluation of a shortlist with surrogate-guided
breeding: sample an initial population under the head-overhead cap, evaluate
it, drop members whose last-exit ratio exceeds the cap, fit weak predictors
on everything labeled so far, then repeatedly shortlist parents (rank by
predicted accuracy, keep 2N, re-rank those by predicted energy-delay, keep
N), breed offspring under the overhead cap, and admit the best N offspring
into the population. Membership and label sets only ever grow; no
architecture is evaluated twice. Every event is appended to a line-delimited
history enabling byte-identical resume and post-hoc constraint audits. The
history's format, log and replay live in :mod:`eenas.history`; the resume
and the audit, which need this module's types, live here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .arch import (
    SpaceConfig,
    canonicalize,
    chromosome_hash,
    decode,
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
from .files import check_fields, check_fixed, is_int, is_real
from .history import (
    EVAL_FAILED,
    EVALUATED,
    FILTERED_MU,
    FILTERED_THETA,
    ITERATION_SUMMARY,
    OFFSPRING,
    REJECTS,
    RUN_CONFIG,
    SAMPLED,
    SAMPLING_SHORTFALL,
    SELECTED,
    HistoryError,
    HistoryLog,
    HistoryReplay,
    event,
    header_section,
    read_history,
    read_lines,
    read_report_events,  # re-exported for callers
    replay_history,
)
from .hwcost import AcceleratorSpec, CostCache
from .predict import LabeledRecord, Predictor, fit, predict

if TYPE_CHECKING:  # for annotations only: pcg loads at the first draw
    from .pcg import Draws, PCG64Stream


class SearchError(RuntimeError):
    """Search cannot proceed (e.g. too few feasible architectures)."""


class EvaluationFailure(RuntimeError):
    """One architecture could not be evaluated; the search continues."""


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
# Search state
# ---------------------------------------------------------------------------

class SearchState:
    """Mutable run state; the history file is its durable form.
    ``labeled`` is the cumulative archive, each record under its hash; a
    record added again under its hash replaces the earlier one. After
    :func:`run_search`, ``log`` is the run's :class:`HistoryLog`: its
    ``events`` are every event of the history, in log order; and ``cost``
    is the :class:`CostCache` that priced the run."""

    def __init__(self):
        self.k = -1
        self.members: dict[str, tuple[int, ...]] = {}
        self.labeled: dict[str, LabeledRecord] = {}
        self.rejected: dict[str, str] = {}
        self.log: HistoryLog | None = None
        self.cost: CostCache | None = None

    def front(self) -> list[LabeledRecord]:
        return pareto_front(self.labeled.values())


def _rng_for(seed: int, k: int) -> PCG64Stream:
    # One independent, resume-stable stream per iteration: numpy's
    # default_rng(SeedSequence(seed, spawn_key=(k + 1,))), drawn in pcg.
    # Imported here so that a process that never draws (a report, an
    # audit, a run's setup) does not load it.
    from .pcg import PCG64Stream

    return PCG64Stream(seed, (k + 1,))


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
        event(
            kept if passed else FILTERED_THETA,
            k=k,
            hash=key,
            genes=list(genes),
            oh_max=oh if math.isfinite(oh) else None,
        )
    )
    return passed


def init_population(
    space: SpaceConfig,
    config: NasConfig,
    cost: CostCache,
    rng: Draws,
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
        if _passes_theta(key, genes, cost, config.theta, SAMPLED, 0, log):
            accepted[key] = genes
        else:
            seen_rejects.add(key)
    if len(accepted) < target:
        log(event(SAMPLING_SHORTFALL, k=0, found=len(accepted), target=target))
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
    rng: Draws,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Uniform crossover over whole per-mount gene groups, each inherited
    atomically from one parent: one coin per mount, the final mount's last."""
    c1, c2 = list(g1), list(g2)
    for pres, h, q in space.mount_genes:
        if rng.integers(0, 2):
            c1[h], c2[h], c1[q], c2[q] = c2[h], c1[h], c2[q], c1[q]
            if pres is not None:
                c1[pres], c2[pres] = c2[pres], c1[pres]
    return tuple(c1), tuple(c2)


def _mutate(
    genes: tuple[int, ...],
    space: SpaceConfig,
    rate: float,
    rng: Draws,
) -> tuple[int, ...]:
    """Per-gene mutation, mount by mount: flip a presence bit (freshly
    sampling the options of a newly present mount) or else resample each
    option index of a present mount, such as the final one."""
    out = list(genes)
    p, n_quant = space.n_head_options, space.n_quant_options
    for pres, h, q in space.mount_genes:
        if pres is not None:
            if rng.random() < rate:
                if out[pres]:
                    out[pres] = out[h] = out[q] = 0
                else:
                    out[pres] = 1
                    out[h] = int(rng.integers(0, p))
                    out[q] = int(rng.integers(0, n_quant))
                continue
            if not out[pres]:
                continue
        if rng.random() < rate:
            out[h] = int(rng.integers(0, p))
        if rng.random() < rate:
            out[q] = int(rng.integers(0, n_quant))
    return tuple(out)


#: Upper bound on pairing passes per generation when novelty is scarce.
_BREEDING_PASSES = 8


def ga_generation(
    parents: Sequence[tuple[str, tuple[int, ...]]],
    space: SpaceConfig,
    config: NasConfig,
    rng: Draws,
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
        if _passes_theta(key, genes, cost, config.theta, OFFSPRING, k, log):
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
            log(event(EVAL_FAILED, k=k, hash=key, error=str(report)))
            state.rejected[key] = REJECTS[EVAL_FAILED]
            del state.members[key]
            continue
        et_averages[key] = cost.et_average(state.members[key], report.exit_ratios)
        evaluated.append((key, report))
        log(
            event(
                EVALUATED,
                k=k,
                hash=key,
                acc_avg=report.acc_avg,
                et_avg=et_averages[key],
                exit_ratios=list(report.exit_ratios),
                accuracy_per_exit=list(report.accuracy_per_exit),
                sample_counts=list(report.sample_counts),
            )
        )
    kept, removed = filter_exit_ratio(evaluated, config.mu)
    for key, report in removed:
        log(event(FILTERED_MU, k=k, hash=key, er_last=report.exit_ratios[-1]))
        state.rejected[key] = REJECTS[FILTERED_MU]
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
        event(
            ITERATION_SUMMARY,
            k=k,
            s=sorted(state.members),
            p=sorted(state.labeled),
            stats=_iteration_stats(k, new_records),
        )
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
        event(
            SELECTED,
            k=k,
            parents=sorted(key for key, _ in parents),
            pool=len(candidates),
        )
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


def _rebuild_state(events: Sequence[dict]) -> tuple[SearchState, int]:
    """Replay events through the last complete iteration; returns the state
    and the cut: the index just past that iteration's summary line, or
    past the header if there is none. Events after the cut belong to an
    interrupted iteration and are ignored, so the continuation behaves
    exactly like an uninterrupted run."""
    summaries = [
        i for i, ev in enumerate(events) if ev.get("event") == ITERATION_SUMMARY
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


def run_search(
    space: SpaceConfig,
    accel: AcceleratorSpec,
    evaluator,
    config: NasConfig,
    history_path: str | None = None,
    resume: bool = False,
    evaluator_kind: str = "custom",
) -> SearchState:
    """Run the full loop: initialization (iteration 0) plus the configured
    number of search iterations, logging every event to a new history at
    ``history_path``, if given. With ``resume``, the existing history is
    replayed to its last complete iteration (trailing partial events are
    discarded), its lines up to there are kept as written, and the run
    continues identically to an uninterrupted one; a history with no
    committed line is started afresh. Costs go through one new
    :class:`CostCache`, left in the returned state's ``cost``."""
    header = event(
        RUN_CONFIG,
        k=-1,
        nas=config.to_json(),
        space=space.to_json(),
        accelerator=accel.to_json(),
        evaluator=evaluator_kind,
        cost_mode=COST_MODE,
    )

    state = SearchState()
    lines, events = [], []
    if resume:
        if history_path is None or not os.path.exists(history_path):
            raise SearchError("cannot resume without an existing history file")
        # A history with no committed line (a crash before its header was
        # flushed) holds nothing to continue: the run starts afresh.
        lines, events = read_lines(history_path)
        if events:
            if events[0] != header:
                raise SearchError("history header does not match this run's config")
            state, cut = _rebuild_state(events)
            lines, events = lines[:cut], events[:cut]
    log = state.log = HistoryLog(history_path, lines, events)
    cost = state.cost = CostCache(space, accel)
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
    space = header_section(header, "space", SpaceConfig.from_json)
    check_fixed(header, {"cost_mode": COST_MODE}, HistoryError, "history header")
    accel = header_section(header, "accelerator", AcceleratorSpec.from_json)
    nas = header_section(header, "nas", NasConfig.from_json)
    if cost is None:
        cost = CostCache(space, accel)
    elif cost.space != space or cost.accel != accel:
        raise SearchError("the cost cache prices another space or accelerator")

    result = AuditResult(ok=True, iterations=len(history.summaries))
    if len(history.by_hash) != len(history.evaluated):
        evaluated = [ev["hash"] for ev in history.evaluated]
        dupes = sorted({h for h in evaluated if evaluated.count(h) > 1})
        result.violations.append(f"architectures evaluated twice: {dupes}")

    checked_oh: set[str] = set()
    last_ratio: dict[str, float] = {}
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
            if h not in last_ratio:
                last_ratio[h] = history.exit_ratios(h)[-1]
            er_last = last_ratio[h]
            if not er_last <= nas.mu:
                result.violations.append(
                    f"labeled {h} violates the last-exit cap: {er_last:.4f}"
                )
        prev_s, prev_p = s_k, p_k
    result.members_checked = len(checked_oh)
    result.labels_checked = len(prev_p)
    result.ok = not result.violations
    return result
