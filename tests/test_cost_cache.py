"""The search's cost cache keeps only per-exit energy-delay products and head
overheads, computed from the heads over the cached backbone. Whatever it
answers must equal what the full cost report says, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.arch import (
    Chromosome,
    SpaceConfig,
    builtin_backbone,
    decode,
    sample_architecture,
    static_counterpart,
)
from eenas.hwcost import AcceleratorSpec, cost_report, et_avg
from eenas.search import CostCache
from eenas import evaluate, hwcost, workload
from helpers import reference_exit_products

#: The accelerators of the differential test in ``test_hwcost.py``: the
#: default one, and one with a line of NoC hops and a 16 KiB scratchpad, so
#: transfers cross several hops and large layers spill.
ACCELERATORS = (
    AcceleratorSpec(),
    AcceleratorSpec(
        sram_bytes_per_core=16 * 1024,
        hop_table=tuple(tuple(abs(i - j) for j in range(6)) for i in range(6)),
    ),
)

SPACES = tuple(
    SpaceConfig(backbone=builtin_backbone(name), backbone_bits=bits)
    for name in ("smallconv", "mobilenetv2_cifar")
    for bits in (8, 4)
)


@st.composite
def costed_chromosomes(draw):
    """A space, an accelerator, a chromosome of that space and exit ratios
    for its architecture."""
    space = draw(st.sampled_from(SPACES))
    accel = draw(st.sampled_from(ACCELERATORS))
    head = st.integers(0, space.n_head_options - 1)
    quant = st.integers(0, space.n_quant_options - 1)
    genes = []
    for _ in range(space.n_optional):
        genes += [draw(st.integers(0, 1)), draw(head), draw(quant)]
    genes += [draw(head), draw(quant)]
    chrom = Chromosome(tuple(genes))
    m = decode(chrom, space).m
    weights = draw(
        st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m).filter(
            lambda w: math.fsum(w) > 0
        )
    )
    total = math.fsum(weights)
    return space, accel, chrom, tuple(w / total for w in weights)


class TestCostCacheMatchesCostReport:
    @settings(max_examples=80, deadline=None)
    @given(costed_chromosomes())
    def test_greedy_answers_equal_the_report(self, case):
        space, accel, chrom, ratios = case
        arch = decode(chrom, space)
        cache = CostCache(space, accel)
        report = cost_report(arch, accel, exit_ratios=ratios)
        static = cost_report(static_counterpart(arch), accel)
        assert cache.max_overhead(chrom) == report.max_overhead
        assert cache.et_average(chrom, ratios) == report.et_avg
        assert cache.static_et(chrom) == static.et_per_exit[-1]
        # Reports and the cache sum per exit through the same function; the
        # sums over the nodes each exit reaches through the full graph's
        # edges are the independent check.
        et_values, overheads = reference_exit_products(
            report.graph, report.layer_costs
        )
        assert cache.max_overhead(chrom) == max(overheads, default=0.0)
        assert cache.et_average(chrom, ratios) == et_avg(et_values, ratios)
        static_et, _ = reference_exit_products(static.graph, static.layer_costs)
        assert cache.static_et(chrom) == static_et[0]

    def test_genetic_answers_equal_the_report(self):
        space = SPACES[0]
        rng = np.random.default_rng(9)
        for _ in range(3):
            chrom = sample_architecture(space, rng)
            arch = decode(chrom, space)
            m = arch.m
            ratios = (1.0 / m,) * m
            for accel in ACCELERATORS:
                cache = CostCache(space, accel, mode="genetic", seed=3)
                report = cost_report(
                    arch, accel, exit_ratios=ratios, mode="genetic", seed=3
                )
                static = cost_report(
                    static_counterpart(arch), accel, mode="genetic", seed=3
                )
                assert cache.max_overhead(chrom) == report.max_overhead
                assert cache.et_average(chrom, ratios) == report.et_avg
                assert cache.static_et(chrom) == static.et_per_exit[-1]


class TestExitCostsTouchOnlyHeads:
    """``exit_costs`` places cached head templates on the cached backbone
    state: per candidate it builds no layer graph and no backbone copy."""

    @pytest.fixture
    def forbid_graphs(self, monkeypatch):
        built = []
        init = workload.LayerGraph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("exit_costs expanded a whole graph")

        monkeypatch.setattr(workload.LayerGraph, "__init__", counting_init)
        monkeypatch.setattr(workload, "expand_layers", forbidden)
        monkeypatch.setattr(hwcost, "expand_layers", forbidden)
        return built

    @pytest.mark.parametrize("space", SPACES)
    def test_no_graph_per_candidate(self, space, forbid_graphs):
        rng = np.random.default_rng(31)
        archs = [decode(sample_architecture(space, rng), space) for _ in range(60)]
        for accel in ACCELERATORS:
            # The first call may expand and fold the backbone, once.
            hwcost.exit_costs(archs[0], accel, space.num_classes)
            forbid_graphs.clear()
            for arch in archs:
                hwcost.exit_costs(arch, accel, space.num_classes)
            assert forbid_graphs == []

    def test_architectures_share_head_templates(self):
        space = SPACES[2]
        rng = np.random.default_rng(32)
        shared = 0
        for _ in range(40):
            a = decode(sample_architecture(space, rng), space)
            b = decode(sample_architecture(space, rng), space)
            for i, (ta, tb) in enumerate(
                zip(workload.head_templates(a), workload.head_templates(b))
            ):
                same = (a.exits[i], a.quant.exit_bits[i]) == (
                    b.exits[i], b.quant.exit_bits[i]
                )
                assert (ta is tb) == same
                shared += same
        assert shared > 0

    def test_every_new_cache_is_bounded(self, mobilenet):
        caches = (
            workload._head_builder,
            workload._head_builder(mobilenet, 8),
            evaluate._difficulty_grid,
            evaluate._accuracy_sum,
        )
        for cache in caches:
            assert cache.cache_info().maxsize is not None
