import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.arch import (
    ArchitectureError,
    EennArchitecture,
    ExitHeadSpec,
    ExitPlacement,
    SpaceConfig,
    builtin_backbone,
    decode,
    encode,
    sample_architecture,
)
from eenas.hwcost import (
    AcceleratorSpec,
    MAX_COMPUTE_CORES,
    CostCache,
    CostModelError,
    TensorSource,
    _exit_sum,
    _overhead,
    allocate,
    backbone_fold,
    cost_report,
    et_avg,
    layer_cost,
    left_sum,
)
from eenas.workload import LayerGraph, LayerNode, expand_layers
from cost_digest import cost_digest
from helpers import (
    CHAIN_SPACE,
    LINE_HOP_ACCEL,
    enumerate_space,
    exit_runs,
    plain_sum,
    reference_exit_products,
    reference_greedy_assignment,
    reference_schedule,
    running_sums,
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
        cost = layer_cost(node, 0, accel, [TensorSource(bits=128, core=0)])
        assert cost.utilization == pytest.approx((32 / 32) * (1 / 32))

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
                reference_schedule(graph, accel, assign).makespan
                for assign in itertools.product(cores, repeat=length)
            )
            assert best <= greedy.makespan
            assert greedy.makespan == best  # chains gain nothing from splitting

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


def exit_products(energies, cycles, ends, heads):
    """Per-exit energy-delay products and head overheads, one exit at a
    time. Exit i runs the backbone nodes before ``ends[i]`` (``energies``
    and ``cycles`` in node order), then the heads of exits 1..i, each
    head's ``(energies, cycles)`` in node order: its product is
    :func:`_exit_sum` of the energies times that of the cycles. Each
    intermediate head's overhead is :func:`_overhead` of its energy-delay
    and that of the backbone segment up to the next end."""
    et = []
    for i, stop in enumerate(ends):
        head_e = [e for e, _ in heads[: i + 1]]
        head_t = [t for _, t in heads[: i + 1]]
        et.append(
            _exit_sum(running_sums(energies), stop, head_e)
            * _exit_sum(running_sums(cycles), stop, head_t)
        )
    overheads = [
        _overhead(sum(e) * sum(t), sum(energies[stop:nxt]) * sum(cycles[stop:nxt]))
        for (e, t), stop, nxt in zip(heads, ends, ends[1:])
    ]
    return et, overheads


def one_node_stages(backbone, heads):
    """:func:`exit_products` inputs for stages of one backbone node each, with
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


#: Up to Python 3.11 the builtin ``sum`` of floats adds from the left; from
#: 3.12 it compensates rounding, and only ``left_sum`` keeps the old bits.
LEFT_BUILTIN_SUM = sys.version_info < (3, 12)

#: Finite floats of mixed magnitude, so that the order of additions shows.
float_terms = st.lists(
    st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.integers(0, 10**6).map(float),
    ),
    max_size=40,
)


class TestLeftToRightSums:
    """Every float sum on the cost path adds from the left, so an exit's
    energy may start from a running sum of the backbone's energies."""

    @settings(max_examples=300, deadline=None)
    @given(float_terms, st.one_of(st.just(0), st.floats(-1e6, 1e6)))
    def test_left_sum_is_a_plain_loop(self, terms, start):
        assert left_sum(terms, start) == plain_sum(terms, start)
        assert repr(left_sum(terms)) == repr(plain_sum(terms))
        if LEFT_BUILTIN_SUM:
            assert repr(left_sum(terms)) == repr(sum(terms))

    @settings(max_examples=300, deadline=None)
    @given(float_terms, st.lists(float_terms, max_size=5), st.data())
    def test_an_exit_sum_from_running_sums_is_the_fresh_sum(self, backbone, heads, data):
        stop = data.draw(st.integers(0, len(backbone)))
        fresh = list(backbone[:stop])
        for head in heads:
            fresh += head
        got = _exit_sum(running_sums(backbone), stop, heads)
        assert repr(got) == repr(plain_sum(fresh))
        if LEFT_BUILTIN_SUM:
            assert repr(got) == repr(sum(fresh))

    @pytest.mark.parametrize("spec", [AcceleratorSpec(), LINE_HOP_ACCEL])
    @pytest.mark.parametrize("space", [
        SpaceConfig(backbone=builtin_backbone("mobilenetv2_cifar"), backbone_bits=4),
        CHAIN_SPACE,
    ])
    def test_a_fold_keeps_the_running_sums_of_its_backbone(self, space, spec):
        fold = backbone_fold(space.backbone, space.backbone_bits, spec)
        costs = fold.state.layer_costs
        energies = [c.energy_pj for c in costs]
        cycles = [c.cycles for c in costs]
        assert list(fold.energy_sums) == running_sums(energies)
        assert list(fold.cycle_sums) == running_sums(cycles)
        if LEFT_BUILTIN_SUM:
            assert [repr(e) for e in fold.energy_sums] == [
                repr(sum(energies[:k])) for k in range(len(energies) + 1)
            ]


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
            exits=tuple(
                ExitPlacement(m, head, b) for m, b in zip(mounts, bits, strict=True)
            ),
            backbone_bits=8,
        )

    def test_composition_matches_manual_pipeline(self, smallconv, accel):
        arch = self.arch(smallconv)
        graph = expand_layers(arch, num_classes=10)
        report = cost_report(arch, accel)
        plan = allocate(graph, accel)
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
        space = SpaceConfig(backbone=smallconv)
        cache = CostCache(space, accel)
        genes = encode(arch, space)
        assert cache.et_per_exit(genes) == report.et_per_exit
        assert cache.overheads(genes) == report.overheads

    def test_deterministic(self, smallconv, accel):
        arch = self.arch(smallconv)
        assert cost_report(arch, accel) == cost_report(arch, accel)

    def test_one_hot_last_gives_final_et(self, smallconv, accel):
        arch = self.arch(smallconv)
        report = cost_report(arch, accel)
        assert et_avg(report.et_per_exit, (0.0, 1.0)) == report.et_per_exit[-1]

    def test_et_strictly_increasing(self, smallconv, accel):
        arch = self.arch(smallconv, mounts=("A", "C", "E"), bits=(8, 8, 8))
        report = cost_report(arch, accel)
        values = report.et_per_exit
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(o >= 0 for o in report.overheads)

    def test_needs_two_classes_as_every_space_does(self, smallconv, accel):
        with pytest.raises(ArchitectureError, match="at least two classes"):
            cost_report(self.arch(smallconv), accel, num_classes=1)

    def test_costs_through_a_cost_cache(self, smallconv, accel, monkeypatch):
        """Its exits are the ``_lookup`` of a cache of the space of the
        architecture's own distinct heads and bit widths, in exit order."""
        head = ExitHeadSpec(depth=2)
        arch = EennArchitecture(smallconv, (
            ExitPlacement("A", head, 4), ExitPlacement("C", ExitHeadSpec(), 8),
            ExitPlacement("E", head, 4),
        ))
        looked_up = []
        lookup = CostCache._lookup

        def recording(cache, genes):
            looked_up.append((cache.space, genes))
            return lookup(cache, genes)

        monkeypatch.setattr(CostCache, "_lookup", recording)
        cost_report(arch, accel)
        space = SpaceConfig(smallconv, (head, ExitHeadSpec()), (4, 8))
        assert looked_up == [(space, encode(arch, space))]


def test_the_cost_engine_loads_no_numpy():
    """``arch``, ``files``, ``workload`` and ``hwcost`` import no numpy:
    a fresh process loads the cost engine under a bare ``eenas`` package,
    costs fixed architectures through ``CostCache`` and ``cost_report``
    without loading numpy, and gets the digest this process gets."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cost_digest.py")
    run = subprocess.run(
        [sys.executable, script, "100"], capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert run.stdout.split() == [cost_digest(100), "False"]


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
        geometry = {"array_rows": 10, "array_cols": 10, "macs_per_cycle": 512}
        with pytest.raises(CostModelError, match="macs_per_cycle must be 100$"):
            AcceleratorSpec.from_json(geometry)
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

    def test_compatible_cores(self, accel):
        """Compute cores come first, then the pooling and the SIMD core."""
        assert accel.compatible_cores("conv") == (0, 1, 2, 3)
        assert accel.compatible_cores("pool") == (4,)
        assert accel.compatible_cores("softmax") == (5,)
        assert accel.compatible_cores("elementwise-add") == (5,)
        with pytest.raises(CostModelError):
            accel.compatible_cores("gather")

    def test_retired_keys_written_at_their_one_value(self):
        spec = AcceleratorSpec(array_rows=8, array_cols=8)
        data = spec.to_json()
        assert (data["pool_core"], data["simd_core"], data["macs_per_cycle"]) == (
            True, True, 64
        )
        assert AcceleratorSpec.from_json(data) == spec
        assert AcceleratorSpec.from_json({"array_rows": 8, "array_cols": 8}) == spec
        with pytest.raises(CostModelError, match="pool_core must be true$"):
            AcceleratorSpec.from_json({"pool_core": False})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("compute_cores", 2.5),
            ("compute_cores", True),
            ("pool_core", 1),
            ("e_dram_pj_bit", math.inf),
            ("e_mac8_pj", 10**400),
            ("hop_table", [[0, 1.5], [1, 0]]),
            ("pool_core", False),
            ("simd_core", False),
            ("simd_core", "true"),
            ("macs_per_cycle", 511),
            ("macs_per_cycle", 512.0),
            ("macs_per_cycle", True),
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
# over the full graph (``helpers.reference_greedy_assignment`` and
# ``helpers.reference_schedule``), and the per-exit sums over the nodes each
# exit reaches through the graph's edges (``helpers.reference_exit_products``).
# ---------------------------------------------------------------------------

def assert_matches_reference(cache, genes):
    """``cache``'s costs of ``genes`` equal the edge-traced sums over the
    reference greedy plan of the full graph, and ``allocate`` equals that
    plan."""
    spec = cache.accel
    graph = expand_layers(decode(genes, cache.space), cache.space.num_classes)
    plan = reference_schedule(graph, spec, reference_greedy_assignment(graph, spec))
    assert allocate(graph, spec) == plan
    assert (cache.et_per_exit(genes), cache.overheads(genes)) == (
        reference_exit_products(graph, plan.layer_costs)
    )
    return graph, plan


class TestBackbonePrefixMatchesReference:
    """``CostCache``, which places cached head templates on the cached
    backbone fold and keeps the state after each head prefix, reproduces
    the full-graph greedy path bit for bit. One cache per backbone bit
    width and accelerator costs every architecture, so later architectures
    reuse the prefixes of earlier ones; each architecture is costed by all
    four caches in turn, so a leak across caches would show."""

    SPECS = (AcceleratorSpec(), LINE_HOP_ACCEL)

    def check_space(self, backbone, chromosomes):
        caches = [
            CostCache(SpaceConfig(backbone=backbone, backbone_bits=b), spec)
            for b in (8, 4)
            for spec in self.SPECS
        ]
        spilled = hopped = False
        for chrom in chromosomes:
            for cache in caches:
                spec = cache.accel
                graph, plan = assert_matches_reference(cache, chrom)
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

    def test_sampled_contending_chain(self):
        """Heads on the chain contend for cores, so a head placed as if the
        heads before it were absent would land elsewhere."""
        cache = CostCache(CHAIN_SPACE, LINE_HOP_ACCEL)
        rng = np.random.default_rng(21)
        for _ in range(300):
            assert_matches_reference(cache, sample_architecture(CHAIN_SPACE, rng))
