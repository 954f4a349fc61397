import functools
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.arch import (
    EennArchitecture,
    ExitHeadSpec,
    ExitPlacement,
    QuantScheme,
    SpaceConfig,
    decode,
    sample_architecture,
)
from eenas.hwcost import (
    AcceleratorSpec,
    AllocationPlan,
    MAX_COMPUTE_CORES,
    CostModelError,
    TensorSource,
    _exit_sums,
    allocate,
    array_utilization,
    cost_report,
    et_avg,
    exit_costs,
    layer_cost,
    schedule,
)
from eenas.workload import LayerGraph, LayerNode, expand_layers
from helpers import (
    enumerate_space,
    exit_runs,
    graph_fields,
    reference_exit_products,
    write_accelerator,
)


def conv_node(cin, cout, h=4, w=4, k=1, bits=8, macs=None, name="n"):
    macs = macs if macs is not None else k * k * cin * cout * h * w
    return LayerNode(
        name=name,
        kind="conv",
        input_shape=(h, w, cin),
        output_shape=(h, w, cout),
        macs=macs,
        params=k * k * cin * cout + cout,
        bits=bits,
    )


def chain_graph(nodes):
    edges = tuple((i, i + 1) for i in range(len(nodes) - 1))
    return LayerGraph(nodes=tuple(nodes), edges=edges)


class TestLayerCost:
    def test_zero_macs_resident_layer_is_free(self, accel):
        pool = LayerNode(
            name="p",
            kind="pool",
            input_shape=(8, 8, 16),
            output_shape=(4, 4, 16),
            macs=0,
            params=0,
            bits=8,
        )
        pool_core = accel.compute_cores
        cost = layer_cost(
            pool, pool_core, accel, [TensorSource(bits=8 * 8 * 16 * 8, core=pool_core)]
        )
        assert cost.energy_pj == 0.0
        assert cost.cycles == 0

    def test_perfectly_tiled_array(self, accel):
        n = 37
        node = conv_node(cin=32, cout=16, macs=512 * n)
        cost = layer_cost(node, 0, accel, [TensorSource(bits=128, core=0)])
        assert cost.utilization == 1.0
        assert cost.compute_cycles == n

    def test_ragged_output_channels(self, accel):
        node = conv_node(cin=32, cout=17, macs=10_000)
        cost = layer_cost(node, 0, accel, [TensorSource(bits=128, core=0)])
        assert cost.utilization == pytest.approx(17 / 32)
        assert cost.compute_cycles == math.ceil(10_000 / (512 * 17 / 32))

    def test_depthwise_leaves_columns_idle(self, accel):
        node = LayerNode(
            name="dw",
            kind="depthwise-conv",
            input_shape=(8, 8, 32),
            output_shape=(8, 8, 32),
            macs=9 * 32 * 64,
            params=9 * 32 + 32,
            bits=8,
        )
        assert array_utilization(node, accel) == pytest.approx((32 / 32) * (1 / 32))

    def test_doubling_macs_doubles_compute_exactly(self, accel):
        small = conv_node(cin=32, cout=16, macs=512 * 10)
        big = conv_node(cin=32, cout=16, macs=512 * 20)
        inputs = [TensorSource(bits=64, core=0)]
        c_small = layer_cost(small, 0, accel, inputs)
        c_big = layer_cost(big, 0, accel, inputs)
        assert c_big.compute_cycles == 2 * c_small.compute_cycles
        assert c_big.compute_energy_pj == 2 * c_small.compute_energy_pj

    def test_compute_cycles_lower_bound(self, accel):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cin = int(rng.integers(1, 100))
            cout = int(rng.integers(1, 100))
            macs = int(rng.integers(1, 10**6))
            node = conv_node(cin=cin, cout=cout, macs=macs)
            cost = layer_cost(node, 0, accel, [TensorSource(bits=8, core=0)])
            assert cost.compute_cycles >= math.ceil(macs / accel.macs_per_cycle)
            assert 0 < cost.utilization <= 1

    def test_halving_bits_quarters_mac_energy_and_halves_offchip(self, accel):
        node8 = conv_node(cin=32, cout=32, bits=8)
        node4 = conv_node(cin=32, cout=32, bits=4)
        inputs = [TensorSource(bits=1024, core=0)]
        c8 = layer_cost(node8, 0, accel, inputs)
        c4 = layer_cost(node4, 0, accel, inputs)
        assert c8.compute_energy_pj == pytest.approx(4 * c4.compute_energy_pj)
        assert c8.dram_energy_pj == pytest.approx(2 * c4.dram_energy_pj)

    def test_energy_is_sum_of_breakdown(self, accel):
        node = conv_node(cin=48, cout=24, bits=8)
        cost = layer_cost(node, 1, accel, [TensorSource(bits=4096, core=0)])
        total = (
            cost.compute_energy_pj
            + cost.sram_energy_pj
            + cost.dram_energy_pj
            + cost.noc_energy_pj
        )
        assert cost.energy_pj == pytest.approx(total)
        assert cost.noc_energy_pj > 0  # input crossed cores

    def test_incompatible_core_rejected(self, accel):
        node = conv_node(cin=8, cout=8)
        with pytest.raises(CostModelError):
            layer_cost(node, accel.compute_cores, accel, [])

    def test_sram_overflow_streams_offchip(self):
        tiny = AcceleratorSpec(sram_bytes_per_core=256)
        node = conv_node(cin=32, cout=32, h=16, w=16)
        cost = layer_cost(node, 0, tiny, [TensorSource(bits=16 * 16 * 32 * 8, core=0)])
        assert cost.spilled
        assert cost.dram_energy_pj > 0


class TestAllocation:
    def test_single_layer_lands_on_core_zero(self, accel):
        graph = chain_graph([conv_node(cin=8, cout=8)])
        plan = allocate(graph, accel)
        assert plan.assignment == (0,)

    def test_independent_equal_layers_run_in_parallel(self, accel):
        a = conv_node(cin=16, cout=16, name="a")
        b = conv_node(cin=16, cout=16, name="b")
        graph = LayerGraph(nodes=(a, b), edges=())
        plan = allocate(graph, accel)
        assert set(plan.assignment) == {0, 1}
        assert plan.makespan == plan.layer_costs[0].cycles

    def test_greedy_matches_exhaustive_on_chains(self, accel):
        rng = np.random.default_rng(1)
        for length in range(1, 7):
            nodes = [
                conv_node(
                    cin=int(rng.integers(4, 64)),
                    cout=int(rng.integers(4, 64)),
                    macs=int(rng.integers(10**3, 10**5)),
                    name=f"l{i}",
                )
                for i in range(length)
            ]
            graph = chain_graph(nodes)
            greedy = allocate(graph, accel)
            cores = range(accel.compute_cores)
            best = min(
                schedule(graph, accel, assign).makespan
                for assign in itertools.product(cores, repeat=length)
            )
            assert best <= greedy.makespan
            assert greedy.makespan == best  # chains gain nothing from splitting

    def test_genetic_never_worse_than_greedy(self, accel):
        rng = np.random.default_rng(2)
        nodes = [
            conv_node(
                cin=int(rng.integers(4, 64)),
                cout=int(rng.integers(4, 64)),
                macs=int(rng.integers(10**3, 10**5)),
                name=f"l{i}",
            )
            for i in range(5)
        ]
        # Diamond: 0 -> {1, 2, 3} -> 4
        edges = ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))
        graph = LayerGraph(nodes=tuple(nodes), edges=edges)
        greedy = allocate(graph, accel, mode="greedy")
        genetic = allocate(graph, accel, mode="genetic", seed=3)
        assert genetic.makespan <= greedy.makespan
        again = allocate(graph, accel, mode="genetic", seed=3)
        assert again.assignment == genetic.assignment

    def test_schedule_respects_dependencies(self, accel):
        nodes = [conv_node(cin=8, cout=8, name=f"l{i}") for i in range(4)]
        graph = chain_graph(nodes)
        plan = allocate(graph, accel)
        for src, dst in graph.edges:
            assert plan.start[dst] >= plan.end[src]

    def test_cross_core_edges_pay_noc_transfers(self, accel):
        a = conv_node(cin=16, cout=16, name="a")
        b = conv_node(cin=16, cout=16, name="b")
        add = LayerNode(
            name="add",
            kind="elementwise-add",
            input_shape=(4, 4, 16),
            output_shape=(4, 4, 16),
            macs=0,
            params=0,
            bits=8,
        )
        graph = LayerGraph(nodes=(a, b, add), edges=((0, 2), (1, 2)))
        plan = allocate(graph, accel)
        crossing = [
            (s, d) for s, d in graph.edges
            if plan.assignment[s] != plan.assignment[d]
        ]
        # The add runs on the SIMD core, so both of its inputs cross the NoC
        # and its cost carries them.
        assert crossing == [(0, 2), (1, 2)]
        core = plan.assignment[2]
        sources = tuple(
            TensorSource(bits=graph.nodes[s].output_bits, core=plan.assignment[s])
            for s, _ in crossing
        )
        assert plan.layer_costs[2] == layer_cost(add, core, accel, sources)
        bit_hops = sum(
            src.bits * accel.hops(src.core, core) for src in sources
        )
        assert plan.layer_costs[2].noc_energy_pj == bit_hops * accel.e_noc_pj_bit_hop
        assert plan.layer_costs[2].transfer_cycles > 0

    def test_pool_layer_requires_pool_core(self):
        spec = AcceleratorSpec(pool_core=False)
        pool = LayerNode(
            name="p",
            kind="pool",
            input_shape=(8, 8, 4),
            output_shape=(4, 4, 4),
            macs=0,
            params=0,
            bits=8,
        )
        graph = LayerGraph(nodes=(pool,), edges=())
        with pytest.raises(CostModelError):
            allocate(graph, spec)


def exit_products(energies, cycles, ends, heads):
    """Per-exit energy-delay products and overheads of :func:`_exit_sums`."""
    exit_e, exit_t, overheads = _exit_sums(energies, cycles, ends, heads)
    return [e * t for e, t in zip(exit_e, exit_t)], overheads


def one_node_stages(backbone, heads):
    """:func:`_exit_sums` inputs for stages of one backbone node each, with
    a one-node head mounted after each stage. ``backbone`` and ``heads``
    hold one (energy, cycles) pair per stage."""
    return (
        [e for e, _ in backbone],
        [t for _, t in backbone],
        list(range(1, len(backbone) + 1)),
        [([e], [t]) for e, t in heads],
    )


class TestEnergyDelayAggregation:
    def test_single_layer_product(self):
        et, _ = exit_products(*one_node_stages([(2.0, 3)], [(0.0, 0)]))
        assert et == [6.0]

    def test_two_stage_hand_example(self):
        et, _ = exit_products(
            *one_node_stages([(1.0, 2), (1.0, 2)], [(0.0, 0), (0.0, 0)])
        )
        assert et == [2.0, (1 + 1) * (2 + 2)]

    def test_matches_double_loop_oracle(self):
        """Exit i runs the backbone terms before ``ends[i]`` and the heads of
        exits 1..i; its product is the double sum of E_a * T_b over them."""
        rng = np.random.default_rng(4)
        for _ in range(100):
            stages = int(rng.integers(1, 5))
            n = int(rng.integers(stages, 3 * stages + 1))
            energies = [float(rng.integers(0, 20)) for _ in range(n)]
            cycles = [int(rng.integers(0, 20)) for _ in range(n)]
            ends = sorted(int(v) for v in rng.choice(n, stages, replace=False) + 1)
            heads = []
            for _ in range(stages):
                size = int(rng.integers(1, 4))
                heads.append((
                    [float(rng.integers(0, 20)) for _ in range(size)],
                    [int(rng.integers(0, 20)) for _ in range(size)],
                ))
            et, _ = exit_products(energies, cycles, ends, heads)
            for i in range(stages):
                run_e = energies[: ends[i]] + [e for h in heads[: i + 1] for e in h[0]]
                run_t = cycles[: ends[i]] + [t for h in heads[: i + 1] for t in h[1]]
                oracle = 0.0
                for e in run_e:
                    for t in run_t:
                        oracle += e * t
                assert et[i] == pytest.approx(oracle)

    def test_strictly_increasing_with_positive_costs(self):
        et, _ = exit_products(*one_node_stages([(1.0, 1)] * 3, [(1.0, 1)] * 3))
        assert et[0] < et[1] < et[2]

    def test_et_avg_one_hot(self):
        assert et_avg((100.0, 250.0), (1.0, 0.0)) == 100.0

    def test_et_avg_uniform(self):
        assert et_avg((100, 200, 300, 400), (0.25, 0.25, 0.25, 0.25)) == 250.0

    def test_et_avg_weighted_dot_product(self):
        et = (10.0, 50.0, 120.0, 400.0)
        er = (0.2549, 0.1531, 0.3114, 0.2806)
        expected = sum(a * b for a, b in zip(et, er))
        assert expected == pytest.approx(159.812, abs=1e-9)
        assert et_avg(et, er) == pytest.approx(expected)

    def test_et_avg_validation(self):
        with pytest.raises(CostModelError):
            et_avg((1.0, 2.0), (1.0,))
        with pytest.raises(CostModelError):
            et_avg((1.0, 2.0), (0.5, 0.4))

    @pytest.mark.parametrize(
        "ratios", [(math.nan, math.nan), (math.inf, 0.0), (1.0, math.nan)]
    )
    def test_et_avg_rejects_non_finite_ratios(self, ratios):
        with pytest.raises(CostModelError):
            et_avg([1.0, 2.0], ratios)


class TestOverheadRatio:
    """A head's energy-delay over that of the backbone segment between its
    mount and the next one."""

    def test_hand_ratio(self):
        _, oh = exit_products(
            *one_node_stages([(4.0, 2), (4.0, 5)], [(5.0, 1), (0.0, 0)])
        )
        # head 1: 5 * 1 = 5; segment 2: 4 * 5 = 20
        assert oh == [pytest.approx(0.25)]

    def test_zero_cost_head(self):
        _, oh = exit_products(
            *one_node_stages([(1.0, 1), (1.0, 1)], [(0.0, 0), (0.0, 0)])
        )
        assert oh == [0.0]

    def test_zero_cost_segment_is_infinite(self):
        _, oh = exit_products(
            *one_node_stages([(1.0, 1), (0.0, 0)], [(1.0, 1), (0.0, 0)])
        )
        assert oh == [math.inf]

    def test_threshold_semantics(self):
        _, (oh,) = exit_products(
            *one_node_stages([(4.0, 2), (4.0, 5)], [(5.0, 3), (0.0, 0)])
        )
        assert oh == pytest.approx(0.75)  # 15 / 20
        assert not oh <= 0.5

    def test_only_intermediate_exits_have_overhead(self):
        for m in range(1, 5):
            _, oh = exit_products(*one_node_stages([(1.0, 1)] * m, [(1.0, 1)] * m))
            assert len(oh) == m - 1


class TestCostReport:
    def arch(self, smallconv, mounts=("B", "E"), bits=(8, 8)):
        head = ExitHeadSpec(depth=1)
        return EennArchitecture(
            backbone=smallconv,
            exits=tuple(ExitPlacement(m, head) for m in mounts),
            quant=QuantScheme(backbone_bits=8, exit_bits=bits),
        )

    def test_composition_matches_manual_pipeline(self, smallconv, accel):
        arch = self.arch(smallconv)
        graph = expand_layers(arch, num_classes=10)
        for mode in ("greedy", "genetic"):
            report = cost_report(arch, accel, mode=mode, seed=3)
            plan = allocate(graph, accel, mode=mode, seed=3)
            assert report.graph == graph
            assert report.plan == plan
            costs = plan.layer_costs
            et_values, overheads = reference_exit_products(graph, costs)
            assert report.et_per_exit == et_values
            assert report.overheads == overheads
            for i, (energy, cycles) in enumerate(
                zip(report.energy_per_exit, report.cycles_per_exit), start=1
            ):
                runs = exit_runs(graph)[i - 1]
                assert energy == sum(costs[k].energy_pj for k in runs)
                assert cycles == sum(costs[k].cycles for k in runs)
                assert energy * cycles == report.et_per_exit[i - 1]
        greedy = cost_report(arch, accel)
        assert (greedy.et_per_exit, greedy.overheads) == exit_costs(arch, accel)

    def test_deterministic(self, smallconv, accel):
        arch = self.arch(smallconv)
        assert cost_report(arch, accel) == cost_report(arch, accel)

    def test_one_hot_last_gives_final_et(self, smallconv, accel):
        arch = self.arch(smallconv)
        report = cost_report(arch, accel, exit_ratios=(0.0, 1.0))
        assert report.et_avg == report.et_per_exit[-1]

    def test_et_strictly_increasing(self, smallconv, accel):
        arch = self.arch(smallconv, mounts=("A", "C", "E"), bits=(8, 8, 8))
        report = cost_report(arch, accel)
        values = report.et_per_exit
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(o >= 0 for o in report.overheads)


class TestAcceleratorSpec:
    def test_defaults(self, accel):
        assert accel.n_cores == 6
        assert accel.macs_per_cycle == 512
        assert accel.array_rows * accel.array_cols == 512
        assert accel.sram_bits == 2 * 1024 * 1024 * 8
        assert accel.e_mac_pj(8) == pytest.approx(0.2)
        assert accel.e_mac_pj(4) == pytest.approx(0.05)

    def test_json_roundtrip(self, tmp_path, accel):
        path = tmp_path / "accel.json"
        write_accelerator(accel, str(path))
        assert AcceleratorSpec.load(str(path)) == accel

    def test_geometry_validation(self):
        with pytest.raises(CostModelError):
            AcceleratorSpec(array_rows=10, array_cols=10, macs_per_cycle=512)
        with pytest.raises(CostModelError):
            AcceleratorSpec(e_dram_pj_bit=0.0)

    def test_hop_table_validation(self):
        with pytest.raises(CostModelError):
            AcceleratorSpec(hop_table=((0,),))
        table = tuple(
            tuple(0 if i == j else 2 for j in range(6)) for i in range(6)
        )
        spec = AcceleratorSpec(hop_table=table)
        assert spec.hops(0, 5) == 2
        assert spec.hops(3, 3) == 0

    def test_core_kinds(self, accel):
        assert accel.core_kind(0) == "compute"
        assert accel.core_kind(4) == "pool"
        assert accel.core_kind(5) == "simd"
        with pytest.raises(CostModelError):
            accel.core_kind(6)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("compute_cores", 2.5),
            ("compute_cores", True),
            ("pool_core", 1),
            ("e_dram_pj_bit", math.inf),
            ("e_mac8_pj", 10**400),
            ("hop_table", [[0, 1.5], [1, 0]]),
        ],
    )
    def test_field_types_checked(self, field, value):
        with pytest.raises(CostModelError):
            AcceleratorSpec.from_json(AcceleratorSpec().to_json() | {field: value})

    def test_compute_cores_capped(self):
        assert AcceleratorSpec(compute_cores=MAX_COMPUTE_CORES).n_cores == 258
        with pytest.raises(CostModelError, match="at most 256"):
            AcceleratorSpec(compute_cores=MAX_COMPUTE_CORES + 1)

    def test_hash_kept_and_equality_by_fields(self, accel):
        spec = AcceleratorSpec()
        assert "_field_hash" not in spec.__dict__
        assert hash(spec) == hash(accel) and spec == accel
        assert spec.__dict__["_field_hash"] == hash(spec)
        assert AcceleratorSpec(compute_cores=2) != accel

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_from_json_gives_a_valid_spec_or_its_error(self, data):
        """Any JSON value gives a usable spec or a CostModelError; no
        other exception, and no non-finite or non-integer number, gets
        past the check."""
        numbers = st.integers(-3, 10**400) | st.floats() | st.booleans()
        values = st.one_of(
            numbers,
            st.none(),
            st.text(max_size=3),
            st.lists(st.lists(numbers, max_size=7), max_size=7),
            st.lists(numbers, max_size=7),
            st.dictionaries(st.text(max_size=3), numbers, max_size=2),
        )
        fields = [*AcceleratorSpec().to_json(), "hop_table", "unknown"]
        payload = data.draw(
            st.one_of(
                values,
                st.dictionaries(st.sampled_from(fields), values, max_size=4).map(
                    lambda changes: AcceleratorSpec().to_json() | changes
                ),
            )
        )
        try:
            spec = AcceleratorSpec.from_json(payload)
        except CostModelError:
            return
        for name, value in spec.to_json().items():
            if name == "hop_table":
                assert all(type(h) is int for row in value for h in row)
            elif name in ("pool_core", "simd_core"):
                assert type(value) is bool
            elif name.startswith("e_"):
                assert math.isfinite(value) and value > 0
            else:
                assert type(value) is int and value >= 1
        hash(spec)
        assert AcceleratorSpec.from_json(spec.to_json()) == spec


# ---------------------------------------------------------------------------
# Differential test: the greedy allocation and the schedule as plain loops
# over the full graph, and the per-exit sums over the nodes each exit reaches
# through the graph's edges (``helpers.reference_exit_products``).
# ---------------------------------------------------------------------------

#: ``layer_cost`` is pure, so the reference memoizes it: the exhaustive pass
#: then costs each distinct (layer, core, inputs) once, while the greedy and
#: schedule loops under comparison stay as they were.
reference_layer_cost = functools.lru_cache(maxsize=1 << 16)(layer_cost)


def reference_sources(graph, idx, cores):
    producers = graph.producers(idx)
    if not producers:
        node = graph.nodes[idx]
        return (TensorSource(bits=math.prod(node.input_shape) * node.bits, core=None),)
    return tuple(
        TensorSource(bits=graph.nodes[p].output_bits, core=cores[p]) for p in producers
    )


def reference_greedy_assignment(graph, spec):
    cores = [-1] * len(graph.nodes)
    free = [0] * spec.n_cores
    end = [0] * len(graph.nodes)
    for idx, node in enumerate(graph.nodes):
        best_core = -1
        best_finish = None
        ready = max((end[p] for p in graph.producers(idx)), default=0)
        sources = reference_sources(graph, idx, cores)
        for core in spec.compatible_cores(node.kind):
            cost = reference_layer_cost(node, core, spec, sources)
            finish = max(free[core], ready) + cost.cycles
            if best_finish is None or finish < best_finish:
                best_finish = finish
                best_core = core
        cores[idx] = best_core
        end[idx] = best_finish
        free[best_core] = best_finish
    return cores


def reference_schedule(graph, spec, assignment):
    cores = list(assignment)
    free = [0] * spec.n_cores
    start = [0] * len(graph.nodes)
    end = [0] * len(graph.nodes)
    costs = []
    for idx, node in enumerate(graph.nodes):
        core = cores[idx]
        cost = reference_layer_cost(
            node, core, spec, reference_sources(graph, idx, cores)
        )
        ready = max((end[p] for p in graph.producers(idx)), default=0)
        start[idx] = max(free[core], ready)
        end[idx] = start[idx] + cost.cycles
        free[core] = end[idx]
        costs.append(cost)
    return AllocationPlan(
        assignment=tuple(cores),
        start=tuple(start),
        end=tuple(end),
        makespan=max(end, default=0),
        layer_costs=tuple(costs),
    )


def assert_matches_reference(arch, spec, num_classes=10):
    """``exit_costs`` equals the edge-traced sums over the reference greedy
    plan of the full graph, and ``allocate`` equals that plan."""
    graph = expand_layers(arch, num_classes=num_classes)
    plan = reference_schedule(graph, spec, reference_greedy_assignment(graph, spec))
    assert allocate(graph, spec) == plan
    assert exit_costs(arch, spec, num_classes) == reference_exit_products(
        graph, plan.layer_costs
    )
    return graph, plan


#: Non-uniform NoC distances (a line of cores) and a 16 KiB scratchpad, so
#: transfers cost more than one hop and large layers spill.
SPILLING_ACCEL = AcceleratorSpec(
    sram_bytes_per_core=16 * 1024,
    hop_table=tuple(tuple(abs(i - j) for j in range(6)) for i in range(6)),
)


class TestBackbonePrefixMatchesReference:
    """``exit_costs``, which places cached head templates on the cached
    backbone fold, reproduces the full-graph greedy path bit for bit. Each
    architecture is costed on both backbone bit widths and both
    accelerators in turn, so consecutive calls never share a prefix key and
    a leak across keys would show."""

    SPECS = (AcceleratorSpec(), SPILLING_ACCEL)

    def check_space(self, backbone, chromosomes):
        spaces = [SpaceConfig(backbone=backbone, backbone_bits=b) for b in (8, 4)]
        spilled = hopped = False
        for chrom in chromosomes:
            for space in spaces:
                arch = decode(chrom, space)
                for spec in self.SPECS:
                    graph, plan = assert_matches_reference(arch, spec)
                    spilled |= any(c.spilled for c in plan.layer_costs)
                    cores = plan.assignment
                    hopped |= any(
                        spec.hops(cores[src], cores[dst]) > 1
                        for src, dst in graph.edges
                    )
        assert spilled and hopped

    def test_exhaustive_smallconv(self, smallconv):
        space = SpaceConfig(backbone=smallconv)
        self.check_space(smallconv, enumerate_space(space))

    def test_sampled_mobilenet(self, mobilenet):
        space = SpaceConfig(backbone=mobilenet)
        rng = np.random.default_rng(20)
        self.check_space(
            mobilenet, [sample_architecture(space, rng) for _ in range(200)]
        )

    def test_genetic_mode_unchanged(self, smallconv):
        """Genetic allocation still starts from the greedy fold of the whole
        graph. The digest covers every field of the report and of its plan,
        the graph as :func:`helpers.graph_fields`. It was recorded on the
        code before layer nodes lost their exit tags, which then passed the
        earlier digest of the whole report, tags included; that one chains
        back to code before the backbone prefix was cached. The plan has
        since lost its transfer records, which no output read. ``repr``
        prints every float exactly."""
        space = SpaceConfig(backbone=smallconv)
        rng = np.random.default_rng(7)
        digest = hashlib.sha256()
        for _ in range(4):
            arch = decode(sample_architecture(space, rng), space)
            for spec in self.SPECS:
                report = cost_report(arch, spec, mode="genetic", seed=3)
                plan = report.plan
                fields = (
                    graph_fields(report.graph), report.layer_costs,
                    report.et_per_exit, report.et_avg, report.overheads,
                    plan.assignment, plan.start, plan.end, plan.makespan,
                    plan.layer_costs,
                )
                digest.update(repr(fields).encode())
        assert digest.hexdigest() == (
            "c9a3a07354d77909cacdf306ed3309cc70f73e5de11f316ad566e6038ddc632a"
        )

    def test_schedule_matches_reference_on_random_assignments(self, smallconv):
        rng = np.random.default_rng(5)
        space = SpaceConfig(backbone=smallconv)
        for _ in range(50):
            graph = expand_layers(decode(sample_architecture(space, rng), space))
            for spec in self.SPECS:
                assignment = [
                    int(rng.choice(spec.compatible_cores(n.kind))) for n in graph.nodes
                ]
                assert schedule(graph, spec, assignment) == reference_schedule(
                    graph, spec, assignment
                )
