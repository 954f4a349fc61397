"""The search's cost cache keeps, per architecture, only the flat tuple of
its placed exits: each exit's backbone stop and its head as placed on the
cached backbone. It places each head once per (mount position, head
index, quant index, free cycles). Whatever it answers must equal what the
full cost report says, and what the path before its head memo was keyed
on option indices said, bit for bit, and it must refuse every gene vector that ``decode`` refuses,
with the same error."""

import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.arch import (
    ChromosomeError,
    SpaceConfig,
    builtin_backbone,
    decode,
    sample_architecture,
    static_counterpart,
)
from eenas.hwcost import AcceleratorSpec, cost_report, et_avg
from eenas.search import CostCache
from eenas import arch, evaluate, hwcost, search, workload
from helpers import (
    CHAIN_SPACE,
    LINE_HOP_ACCEL,
    ReferenceCostCache,
    reference_exit_products,
)

#: The accelerators of the differential test in ``test_hwcost.py``.
ACCELERATORS = (AcceleratorSpec(), LINE_HOP_ACCEL)

SPACES = tuple(
    SpaceConfig(backbone=builtin_backbone(name), backbone_bits=bits)
    for name in ("smallconv", "mobilenetv2_cifar")
    for bits in (8, 4)
)


@st.composite
def costed_chromosomes(draw):
    """A space, an accelerator, a gene vector of that space and exit ratios
    for its architecture."""
    space = draw(st.sampled_from(SPACES))
    accel = draw(st.sampled_from(ACCELERATORS))
    head = st.integers(0, space.n_head_options - 1)
    quant = st.integers(0, space.n_quant_options - 1)
    genes = []
    for _ in range(space.n_optional):
        genes += [draw(st.integers(0, 1)), draw(head), draw(quant)]
    genes += [draw(head), draw(quant)]
    genes = tuple(genes)
    m = decode(genes, space).m
    weights = draw(
        st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m).filter(
            lambda w: math.fsum(w) > 0
        )
    )
    total = math.fsum(weights)
    return space, accel, genes, tuple(w / total for w in weights)


class TestCostCacheMatchesCostReport:
    @settings(max_examples=80, deadline=None)
    @given(costed_chromosomes())
    def test_greedy_answers_equal_the_report(self, case):
        space, accel, genes, ratios = case
        arch = decode(genes, space)
        cache = CostCache(space, accel)
        report = cost_report(arch, accel)
        static = cost_report(static_counterpart(arch), accel)
        assert cache.max_overhead(genes) == max(report.overheads, default=0.0)
        assert cache.et_average(genes, ratios) == et_avg(report.et_per_exit, ratios)
        assert cache.static_et(genes) == static.et_per_exit[-1]
        # Reports and the cache sum per exit through the same function; the
        # sums over the nodes each exit reaches through the full graph's
        # edges are the independent check.
        et_values, overheads = reference_exit_products(
            report.graph, report.plan.layer_costs
        )
        assert cache.max_overhead(genes) == max(overheads, default=0.0)
        assert cache.et_average(genes, ratios) == et_avg(et_values, ratios)
        static_et, _ = reference_exit_products(
            static.graph, static.plan.layer_costs
        )
        assert cache.static_et(genes) == static_et[0]


class TestExitCostsTouchOnlyHeads:
    """The cost cache places cached head templates on the cached backbone
    state: per candidate it builds no layer graph and no backbone copy."""

    @pytest.fixture
    def forbid_graphs(self, monkeypatch):
        built = []
        init = workload.LayerGraph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the cost cache expanded a whole graph")

        monkeypatch.setattr(workload.LayerGraph, "__init__", counting_init)
        monkeypatch.setattr(workload, "expand_layers", forbidden)
        monkeypatch.setattr(hwcost, "expand_layers", forbidden)
        return built

    @pytest.mark.parametrize("space", SPACES)
    def test_no_graph_per_candidate(self, space, forbid_graphs):
        rng = np.random.default_rng(31)
        genes = [sample_architecture(space, rng) for _ in range(60)]
        for accel in ACCELERATORS:
            cache = CostCache(space, accel)
            # The first lookup may expand and fold the backbone, once.
            cache.max_overhead(genes[0])
            forbid_graphs.clear()
            for g in genes:
                cache.max_overhead(g)
                cache.static_et(g)
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
                same = a.exits[i] == b.exits[i]
                assert (ta is tb) == same
                shared += same
        assert shared > 0

    def test_every_new_cache_is_bounded(self, mobilenet, monkeypatch):
        """The function caches have a maximum size, and the accuracy tables
        a maximum number of samples. A cost cache keeps at
        most one ``HeadCosts`` per (mount, head, bits) triple, each node's
        option memo at most one entry per core, and at most
        ``_HEAD_MEMO_SIZE`` placements."""
        caches = (
            workload.head_builder,
            workload.head_builder(mobilenet, 8),
            evaluate._difficulty_grid,
            evaluate._accuracy_sum,
        )
        for cache in caches:
            assert cache.cache_info().maxsize is not None
        rng = np.random.default_rng(41)
        space = SpaceConfig(backbone=mobilenet)
        config = evaluate.OracleConfig(grid=5000)
        for _ in range(100):
            evaluate.synthetic_oracle(decode(sample_architecture(space, rng), space), config)
        assert sum(map(len, evaluate._tables.values())) <= evaluate._TABLE_SAMPLES
        monkeypatch.setattr(hwcost, "_HEAD_MEMO_SIZE", 50)
        for space in (SpaceConfig(backbone=mobilenet), CHAIN_SPACE):
            triples = (
                len(space.mount_genes) * space.n_head_options * space.n_quant_options
            )
            for accel in ACCELERATORS:
                cache = CostCache(space, accel)
                for _ in range(300):
                    cache.max_overhead(sample_architecture(space, rng))
                assert 0 < len(cache._heads) <= triples
                assert all(
                    len(memo) <= accel.n_cores
                    for head in cache._heads.values() for memo in head.options
                )
                assert len(cache.placements) <= 50


#: The spaces of the head-memo test: smallconv, MobileNetV2 at a 4-bit
#: backbone, and the chain whose heads contend for cores.
PREFIX_SPACES = (
    SpaceConfig(backbone=builtin_backbone("smallconv")),
    SpaceConfig(backbone=builtin_backbone("mobilenetv2_cifar"), backbone_bits=4),
    CHAIN_SPACE,
)


@st.composite
def any_chromosomes(draw):
    """A space of ``PREFIX_SPACES``, an accelerator and a gene vector of
    that space, malformed in one gene or in its length one time in three."""
    space = draw(st.sampled_from(PREFIX_SPACES))
    accel = draw(st.sampled_from(ACCELERATORS))
    head = st.integers(0, space.n_head_options - 1)
    quant = st.integers(0, space.n_quant_options - 1)
    genes = []
    for _ in range(space.n_optional):
        genes += [draw(st.integers(0, 1)), draw(head), draw(quant)]
    genes += [draw(head), draw(quant)]
    flaw = draw(st.sampled_from(["none", "none", "gene", "length"]))
    if flaw == "gene":
        genes[draw(st.integers(0, len(genes) - 1))] = draw(st.integers(-2, 4))
    elif flaw == "length":
        genes = genes[:-1] if draw(st.booleans()) else genes + [0]
    return space, accel, tuple(genes)


class TestCostCacheMatchesThePathBefore:
    """``CostCache`` gives the answers, and raises the errors, of the path
    it took before its head memo was keyed on option indices
    (``helpers.ReferenceCostCache``). One
    pair of caches per space and accelerator serves every example, so
    later examples hit memos that earlier ones filled."""

    CACHES: dict = {}

    @settings(max_examples=300, deadline=None)
    @given(any_chromosomes())
    def test_answers_and_errors_equal(self, case):
        space, accel, genes = case
        pair = self.CACHES.get((space, accel))
        if pair is None:
            pair = self.CACHES[space, accel] = (
                CostCache(space, accel), ReferenceCostCache(space, accel)
            )
        cache, reference = pair
        for query in ("et_per_exit", "overheads", "static_et"):
            try:
                expected = getattr(reference, query)(genes)
            except ChromosomeError as exc:
                with pytest.raises(ChromosomeError) as got:
                    getattr(cache, query)(genes)
                assert str(got.value) == str(exc)
            else:
                assert getattr(cache, query)(genes) == expected


def counted_placements(monkeypatch) -> list:
    """Every head placed from here on."""
    placed = []
    place_head = hwcost.place_head

    def counting(fold, free, head):
        placed.append(head)
        return place_head(fold, free, head)

    monkeypatch.setattr(hwcost, "place_head", counting)
    return placed


class TestHeadMemoMatchesCostReport:
    """The cost cache's answers equal the full cost report's for hundreds
    of architectures per space, whatever the order they come in and
    however often the head memo starts over. Both place their exits with
    ``place_exits``, so each answer is also checked against the sums over
    the full graph's edges and its allocation, which do not go through
    it."""

    N_GENES = 300

    def check(self, space, accel, genes, references):
        cache = CostCache(space, accel)
        for g in genes:
            report, static, (et_values, overheads), static_et = references[g]
            assert cache.et_per_exit(g) == report.et_per_exit == et_values
            assert cache.overheads(g) == report.overheads == overheads
            assert cache.static_et(g) == static.et_per_exit[-1] == static_et
        return cache

    @staticmethod
    def references(space, accel, genes):
        """Per gene vector, its cost report, its static counterpart's, and
        the sums over each one's full graph."""
        out = {}
        for g in genes:
            report, static = (
                cost_report(a, accel, num_classes=space.num_classes)
                for a in (decode(g, space), static_counterpart(decode(g, space)))
            )
            out[g] = (
                report, static,
                reference_exit_products(report.graph, report.plan.layer_costs),
                reference_exit_products(static.graph, static.plan.layer_costs)[0][0],
            )
        return out

    @pytest.mark.parametrize("space", PREFIX_SPACES)
    def test_every_order_and_bound(self, space, monkeypatch):
        rng = np.random.default_rng(19)
        genes = set()
        while len(genes) < self.N_GENES:
            genes.add(sample_architecture(space, rng))
        genes = sorted(genes)
        shuffled = genes[:]
        random.Random(19).shuffle(shuffled)
        exits = sum(decode(g, space).m for g in genes)
        for accel in ACCELERATORS:
            references = self.references(space, accel, genes)
            self.check(space, accel, shuffled, references)
            placed = counted_placements(monkeypatch)
            self.check(space, accel, genes, references)
            # Sorted, neighbours share their leading exits: far fewer heads
            # are placed than the architectures hold.
            assert len(placed) < exits
            for bound in (1, 2, 3):
                monkeypatch.setattr(hwcost, "_HEAD_MEMO_SIZE", bound)
                for order in (shuffled, genes):
                    cache = self.check(space, accel, order, references)
                    assert len(cache.placements) <= bound
            monkeypatch.undo()


def test_static_baseline_places_each_final_pair_once(monkeypatch):
    """``static_et`` places one head per distinct final (head, bits) pair,
    however many architectures share it, and none on a repeat."""
    space = PREFIX_SPACES[1]
    rng = np.random.default_rng(23)
    genes = [sample_architecture(space, rng) for _ in range(200)]
    finals = {g[-2:] for g in genes}
    assert 1 < len(finals) < len(genes)
    cache = CostCache(space, AcceleratorSpec())
    placed = counted_placements(monkeypatch)
    for g in genes:
        cache.static_et(g)
    assert len(placed) == len(finals)
    for g in genes:
        cache.static_et(g)
    assert len(placed) == len(finals)


class TestGenesCheckedAsDecodeChecks:
    """Every gene vector ``decode`` refuses, the cost cache refuses with the
    same error, even when its memo holds the valid neighbours of the bad
    gene; and it never decodes."""

    @pytest.fixture
    def space(self, mobile_space):
        return mobile_space

    @staticmethod
    def with_gene(genes, index, value):
        out = list(genes)
        out[index] = value
        return tuple(out)

    def assert_refused(self, cache, bad):
        with pytest.raises(ChromosomeError) as expected:
            decode(bad, cache.space)
        for query in (cache.max_overhead, cache.static_et):
            with pytest.raises(ChromosomeError) as got:
                query(bad)
            assert str(got.value) == str(expected.value)

    def warm_cache(self, space, accel):
        """A cache that has costed every single-gene variant of an
        all-present vector that is still valid, and its static baseline."""
        base = tuple([1, 1, 1] * space.n_optional + [1, 1])
        cache = CostCache(space, accel)
        cache.max_overhead(base)
        for i in range(len(base)):
            for value in range(2):
                genes = self.with_gene(base, i, value)
                cache.max_overhead(genes)
                cache.static_et(genes)
        return base, cache

    def test_bad_genes_raise_after_their_siblings(self, space, accel):
        base, cache = self.warm_cache(space, accel)
        assert len(cache._costs) > space.n_optional
        bad = [base[:-1], base + (0,), ()]
        for j in range(space.n_optional):
            mount = 3 * j
            bad.append(self.with_gene(base, mount, 2))
            bad.append(self.with_gene(base, mount + 1, space.n_head_options))
            bad.append(self.with_gene(base, mount + 1, -1))
            bad.append(self.with_gene(base, mount + 2, space.n_quant_options))
        bad.append(self.with_gene(base, -2, space.n_head_options))
        bad.append(self.with_gene(base, -1, space.n_quant_options))
        bad.append(self.with_gene(base, -1, -1))
        for genes in bad:
            self.assert_refused(cache, genes)

    def test_absent_mount_options_are_ignored(self, space, accel):
        base, cache = self.warm_cache(space, accel)
        for j in range(space.n_optional):
            absent = self.with_gene(base, 3 * j, 0)
            expected = cache.et_per_exit(absent), cache.overheads(absent)
            for options in ((0, 0), (7, -3)):
                genes = absent[: 3 * j + 1] + options + absent[3 * j + 3 :]
                fresh = CostCache(space, accel)
                assert (fresh.et_per_exit(genes), fresh.overheads(genes)) == expected
                assert (cache.et_per_exit(genes), cache.overheads(genes)) == expected

    def test_no_lookup_decodes(self, space, accel, monkeypatch):
        _, cache = self.warm_cache(space, accel)

        def forbidden(*args, **kwargs):
            raise AssertionError("the cost cache decoded an architecture")

        for module in (arch, search):
            monkeypatch.setattr(module, "decode", forbidden)
        monkeypatch.setattr(arch, "static_counterpart", forbidden)
        rng = np.random.default_rng(5)
        for _ in range(50):
            genes = sample_architecture(space, rng)
            cache.max_overhead(genes)
            cache.static_et(genes)


def test_the_search_and_the_cli_price_through_the_one_cost_cache():
    """``CostCache`` is defined once, in ``hwcost``; the search uses that
    class, and the command line prices through the search's cache, so a
    patch of one of its methods reaches every caller."""
    assert search.CostCache is hwcost.CostCache
    package = pathlib.Path(hwcost.__file__).parent
    defined = [
        path.name for path in sorted(package.glob("*.py"))
        if "class CostCache" in path.read_text(encoding="utf-8")
    ]
    assert defined == ["hwcost.py"]
