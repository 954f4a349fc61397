"""The search's cost cache keeps only per-exit energy-delay products and head
overheads, computed from the heads over the cached backbone. Whatever it
answers must equal what the full cost report says, bit for bit."""

import math

import numpy as np
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
from eenas.hwcost import (
    AcceleratorSpec,
    cost_report,
    et_avg,
    et_subnetwork,
    overhead_ratio,
)
from eenas.search import CostCache

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
        # Greedy reports take their per-exit numbers from the same head
        # fold as the cache; the per-node sums over the full graph are the
        # independent check.
        costs, graph = report.layer_costs, report.graph
        et_values = [et_subnetwork(costs, graph, i) for i in range(1, arch.m + 1)]
        overheads = [overhead_ratio(costs, graph, i) for i in range(1, arch.m)]
        assert cache.max_overhead(chrom) == max(overheads, default=0.0)
        assert cache.et_average(chrom, ratios) == et_avg(et_values, ratios)
        static_costs, static_graph = static.layer_costs, static.graph
        assert cache.static_et(chrom) == et_subnetwork(static_costs, static_graph, 1)

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
