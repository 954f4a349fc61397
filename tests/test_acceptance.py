"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured runtime (run with ``pytest -s`` to see
them). Expected values are produced by independent oracles computed inline.
"""

import itertools
import time

import numpy as np
import pytest

from eenas.arch import (
    EennArchitecture,
    ExitHeadSpec,
    ExitPlacement,
    QuantScheme,
    decode,
    search_space_size,
    static_counterpart,
)
from eenas.evaluate import (
    DenseEenn,
    EvaluationReport,
    OracleConfig,
    TrainingConfig,
    make_toy_dataset,
    synthetic_oracle,
    train_toy,
)
from eenas.hwcost import _exit_sum, allocate, cost_report, et_avg
from eenas.predict import LabeledRecord
from eenas.quant import QuantParams, quantize
from eenas.search import (
    CostCache,
    NasConfig,
    OracleEvaluator,
    audit_history,
    et_reduction_value,
    pareto_front,
    read_history,
    replay_history,
    run_search,
)
from eenas.workload import exit_macs
from helpers import (
    chain_backbone,
    enumerate_genes,
    enumerate_space,
    reference_schedule,
)

#: Configuration of the seeded reference search run shared by criteria 6-8.
REFERENCE_NAS = NasConfig(
    iterations=5,
    n_select=10,
    init_population=50,
    mutation_rate=0.2,
    theta=0.5,
    mu=0.5,
    seed=11,
)


def report_pass(number, elapsed, limit, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] PASS in {elapsed:.2f}s (limit {limit}s){suffix}")


@pytest.fixture(scope="module")
def reference_run(small_space, accel, tmp_path_factory):
    path = tmp_path_factory.mktemp("reference") / "history.jsonl"
    state = run_search(
        small_space,
        accel,
        OracleEvaluator(seed=0),
        REFERENCE_NAS,
        history_path=str(path),
        evaluator_kind="oracle",
    )
    return state, str(path)


def published_row(accuracies, counts):
    """``acc_avg`` of a report of 10,000 samples with these exit counts."""
    ratios = tuple(c / 10_000 for c in counts)
    return EvaluationReport(accuracies, ratios, counts, 0.9).acc_avg


def test_c01_exit_weighted_accuracy_rows():
    t0 = time.perf_counter()
    int8 = published_row((99.10, 96.86, 95.70, 66.36), (2549, 1531, 3114, 2806))
    fp32 = published_row((98.48, 94.73, 93.80, 63.68), (3421, 1422, 2822, 2335))
    assert int8 == pytest.approx(88.51, abs=0.01)
    assert fp32 == pytest.approx(88.50, abs=0.01)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_pass(1, elapsed, 1, f"{int8:.4f} / {fp32:.4f}")


def test_c02_space_size_matches_exhaustive_enumeration():
    t0 = time.perf_counter()
    checked = 0
    for h in range(7):
        for p in range(1, 4):
            for q in range(1, 4):
                count = sum(1 for _ in enumerate_genes(h, p, q))
                assert count == search_space_size(h, p, q), (h, p, q)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report_pass(2, elapsed, 10, f"{checked} spaces, largest {search_space_size(6, 3, 3)}")


def test_c03_quantization_properties_at_scale():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n = 1_000_000
    for bits in (4, 8):
        for clip in (0.5, 1.0, 6.0):
            params = QuantParams(clip, bits)
            x = rng.uniform(-2 * clip, 2 * clip, n)
            q = quantize(x, params)
            k = np.round(q / params.scale)
            assert np.array_equal(k * params.scale, q)  # grid membership
            assert np.array_equal(quantize(q, params), q)  # idempotence
            order = np.argsort(x, kind="stable")
            assert np.all(np.diff(q[order]) >= 0)  # monotonicity
            inside = np.abs(x) <= clip
            err = np.abs(x[inside] - q[inside])
            assert err.max() < params.scale * (1 + 1e-9)  # error bound
            if bits == 4:
                m = params.levels
                grid = np.array([i * params.scale for i in range(-m, m + 1)])
                clamped = np.clip(x, -clip, clip)
                idx = np.maximum(np.searchsorted(grid, clamped, side="right") - 1, 0)
                assert np.array_equal(grid[idx], q)  # enumeration oracle
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report_pass(3, elapsed, 10, "6 configs x 1e6 samples")


def test_c04_energy_delay_product_matches_double_loop():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    tables = 0
    for _ in range(100):
        # One backbone node and a one-node head per stage; exit i runs
        # stages 1..i and their heads.
        stages = int(rng.integers(1, 6))
        backbone = [
            (float(rng.integers(0, 50)), int(rng.integers(0, 50)))
            for _ in range(stages)
        ]
        heads = [
            (float(rng.integers(0, 50)), int(rng.integers(0, 50)))
            for _ in range(stages)
        ]
        for i in range(1, stages + 1):
            energy = _exit_sum([e for e, _ in backbone], i, [[e] for e, _ in heads[:i]])
            cycles = _exit_sum([t for _, t in backbone], i, [[t] for _, t in heads[:i]])
            needed = backbone[:i] + heads[:i]
            oracle = sum(a[0] * b[1] for a in needed for b in needed)
            assert energy * cycles == oracle
        tables += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report_pass(4, elapsed, 5, f"{tables} random cost tables, exact")


def test_c05_greedy_allocation_vs_exhaustive_enumeration(accel):
    from eenas.workload import LayerGraph, LayerNode

    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_gap = 0.0
    for length in range(1, 7):
        for _ in range(3):
            nodes = tuple(
                LayerNode(
                    name=f"l{i}",
                    kind="conv",
                    input_shape=(4, 4, int(rng.integers(4, 64))),
                    output_shape=(4, 4, int(rng.integers(4, 64))),
                    macs=int(rng.integers(10**3, 10**5)),
                    params=int(rng.integers(10, 1000)),
                    bits=8,
                )
                for i in range(length)
            )
            edges = tuple((i, i + 1) for i in range(length - 1))
            graph = LayerGraph(nodes=nodes, edges=edges)
            greedy = allocate(graph, accel)
            cores = range(accel.compute_cores)
            best_span = None
            best_plan = None
            for assign in itertools.product(cores, repeat=length):
                plan = reference_schedule(graph, accel, assign)
                if best_span is None or plan.makespan < best_span:
                    best_span = plan.makespan
                    best_plan = plan
            # The optimum itself must be dependency-feasible.
            for src, dst in graph.edges:
                assert best_plan.start[dst] >= best_plan.end[src]
            assert best_span <= greedy.makespan
            worst_gap = max(worst_gap, greedy.makespan / best_span)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report_pass(5, elapsed, 30, f"worst greedy/optimal gap {worst_gap:.4f}")


def test_c06_constraint_soundness_audit(reference_run):
    _, history_path = reference_run
    t0 = time.perf_counter()
    result = audit_history(history_path)
    assert result.ok, result.violations
    assert result.violations == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report_pass(
        6, elapsed, 10,
        f"{result.members_checked} members re-checked, 0 violations",
    )


def test_c07_cumulative_set_shapes(reference_run):
    _, history_path = reference_run
    t0 = time.perf_counter()
    summaries = replay_history(read_history(history_path)).summaries
    s_history = [frozenset(ev["s"]) for ev in summaries]
    p_history = [frozenset(ev["p"]) for ev in summaries]
    for earlier, later in zip(s_history, s_history[1:]):
        assert earlier <= later
    for earlier, later in zip(p_history, p_history[1:]):
        assert earlier <= later
    assert p_history[-1] == frozenset().union(*p_history)
    evaluated = [
        e["hash"] for e in read_history(history_path) if e["event"] == "evaluated"
    ]
    assert len(evaluated) == len(set(evaluated))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report_pass(7, elapsed, 5, f"{len(evaluated)} evaluations, all unique")


def test_c08_search_recovers_exhaustive_front(reference_run, small_space, accel):
    state, _ = reference_run
    t0 = time.perf_counter()
    cost = CostCache(small_space, accel)
    oracle_config = OracleConfig()
    feasible = []
    for genes in enumerate_space(small_space):
        if cost.max_overhead(genes) > REFERENCE_NAS.theta:
            continue
        report = synthetic_oracle(decode(genes, small_space), oracle_config, seed=0)
        if report.exit_ratios[-1] > REFERENCE_NAS.mu:
            continue
        feasible.append(
            LabeledRecord(
                genes=genes,
                acc_avg=report.acc_avg,
                et_avg=cost.et_average(genes, report.exit_ratios),
            )
        )
    assert len(feasible) <= 2500
    true_front = {record.key for record in pareto_front(feasible)}
    found = {record.key for record in state.front()}
    coverage = len(found & true_front) / len(true_front)
    assert coverage >= 0.8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report_pass(
        8, elapsed, 60,
        f"coverage {coverage:.0%} of {len(true_front)} true points, "
        f"{len(feasible)} feasible of {search_space_size(4, 2, 2)}",
    )


def test_c09_front_extraction_matches_dominance_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    genes = list(enumerate_genes(4, 2, 2))[:1000]
    records = [
        LabeledRecord(
            genes=g,
            acc_avg=float(rng.uniform(50, 100)),
            et_avg=float(rng.uniform(1, 5000)),
        )
        for g in genes
    ]
    front = {r.key for r in pareto_front(records)}
    oracle = set()
    for a in records:
        dominated = any(
            b.acc_avg >= a.acc_avg
            and b.et_avg <= a.et_avg
            and (b.acc_avg > a.acc_avg or b.et_avg < a.et_avg)
            for b in records
        )
        if not dominated:
            oracle.add(a.key)
    assert front == oracle
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report_pass(9, elapsed, 5, f"{len(records)} records, front {len(front)}, exact")


def test_c10_joint_loss_gradient_check():
    t0 = time.perf_counter()
    backbone = chain_backbone(2)
    head = ExitHeadSpec(depth=1)
    arch = EennArchitecture(
        backbone=backbone,
        exits=(ExitPlacement("M0", head), ExitPlacement("M1", head)),
        quant=QuantScheme(backbone_bits=32, exit_bits=(32, 32)),
    )
    net = DenseEenn(arch, 3, 2, 4, np.random.default_rng(0))
    rng = np.random.default_rng(4)
    X = rng.normal(size=(16, 3))
    y = rng.integers(0, 2, 16)
    _, _, analytic = net.loss_and_grads(X, y)
    step = 1e-4
    worst = 0.0
    for key, value in net.params.items():
        flat = value.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = net.loss_and_grads(X, y)[0]
            flat[i] = orig - step
            down = net.loss_and_grads(X, y)[0]
            flat[i] = orig
            numeric = (up - down) / (2 * step)
            rel = abs(analytic[key].ravel()[i] - numeric) / max(abs(numeric), 1e-6)
            worst = max(worst, rel)
    assert worst < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report_pass(10, elapsed, 10, f"worst relative error {worst:.2e}")


def test_c11_toy_pipeline_is_profitable(smallconv, accel):
    t0 = time.perf_counter()
    head = ExitHeadSpec(depth=1)
    arch = EennArchitecture(
        backbone=smallconv,
        exits=(ExitPlacement("B", head), ExitPlacement("E", head)),
        quant=QuantScheme(backbone_bits=8, exit_bits=(8, 8)),
    )
    dataset = make_toy_dataset(seed=5)
    config = TrainingConfig(epochs=40, learning_rate=0.05, threshold=0.9, seed=3)
    report = train_toy(arch, dataset, config)
    static_report = train_toy(static_counterpart(arch), dataset, config)
    average = et_avg(cost_report(arch, accel).et_per_exit, report.exit_ratios)
    hw_static = cost_report(static_counterpart(arch), accel)
    reduction = et_reduction_value(average, hw_static.et_per_exit[-1])
    assert report.exit_ratios[0] > 0
    assert reduction > 0
    assert abs(report.acc_avg - static_report.acc_avg) <= 5.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report_pass(
        11, elapsed, 120,
        f"ER1 {report.exit_ratios[0]:.2f}, reduction {reduction:.2f}, "
        f"acc gap {abs(report.acc_avg - static_report.acc_avg):.2f}",
    )


def test_c12_mac_model_plausibility(mobilenet):
    t0 = time.perf_counter()
    head = ExitHeadSpec(depth=1)
    arch = EennArchitecture(
        backbone=mobilenet,
        exits=tuple(ExitPlacement(m, head) for m in "DFIK"),
        quant=QuantScheme(backbone_bits=8, exit_bits=(8, 8, 8, 8)),
    )
    total = exit_macs(arch)[-1]
    reference = 195_377_152
    deviation = (total - reference) / reference
    assert abs(deviation) < 0.10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    # The residual gap stems from stem/head internals the block table does
    # not pin down; the inverted-residual reading lands ~3% below.
    report_pass(
        12, elapsed, 1,
        f"{total} vs {reference} ({deviation:+.2%})",
    )
