"""The synthetic oracle finds each exit's samples by bisection over its
ascending difficulty grid and adds their accuracies in memoized range sums,
which read each sample's accuracy from a lazily filled table per exit
quality. It must report exactly what the per-sample sweep it replaced
reports; that sweep is kept here as the reference, and so is the range sum
as it was before the tables."""

from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.arch import SpaceConfig, builtin_backbone, decode
from eenas import evaluate
from eenas.evaluate import (
    EvaluationReport,
    OracleConfig,
    _accuracy_sum,
    _accuracy_table,
    _hash_unit,
    synthetic_oracle,
)
from eenas.workload import backbone_mac_fractions
from helpers import reference_accuracy_sum


def reference_oracle(arch, config, seed):
    """Capabilities as in the oracle, then one pass over every grid sample:
    its exit is the first of exits 1..m-1 whose capability covers its
    difficulty, else the last; its accuracy is added to that exit's sum."""
    fractions = backbone_mac_fractions(arch.backbone)
    quality = []
    capability = []
    for mount, head, bits in arch.exits:
        f = fractions[mount]
        if f <= config.capability_floor:
            quality.append(0.02)
            capability.append(0.0)
            continue
        rel = (f - config.capability_floor) / (1.0 - config.capability_floor)
        q = (rel ** config.mac_exponent) * (1.0 - config.bits_penalty / bits)
        q += config.depth_gain * (head.depth - 1)
        q = min(max(q, 0.02), 0.98)
        quality.append(q)
        wiggle = 1.0 + config.jitter * _hash_unit(seed, mount)
        capability.append(min(max(q * wiggle, 0.02), 0.98))

    m = arch.m
    grid = config.grid
    n_easy = min(max(round(grid * config.easy_mass), 1), grid - 1)
    difficulty = [
        config.easy_max * (j + 0.5) / n_easy for j in range(n_easy)
    ] + [
        config.hard_min
        + (1.0 - config.hard_min) * (j + 0.5) / (grid - n_easy)
        for j in range(grid - n_easy)
    ]
    decisions = []
    for d in difficulty:
        exit_at = m
        for i in range(m - 1):
            if capability[i] >= d:
                exit_at = i + 1
                break
        decisions.append(exit_at)

    span = config.top_accuracy - config.floor_accuracy
    supervision = config.exit_count_gain * (m - 1)
    counts = [0] * m
    acc_sums = [0.0] * m
    for d, dec in zip(difficulty, decisions):
        counts[dec - 1] += 1
        ease = (1.0 - d) ** (
            1.0 / (0.35 + config.hardness_gain * quality[dec - 1])
        )
        acc_sums[dec - 1] += min(
            max(config.floor_accuracy + span * ease + supervision, 0.0), 100.0
        )
    accs = [(acc_sums[i] / counts[i]) if counts[i] else None for i in range(m)]
    return EvaluationReport(
        accuracy_per_exit=tuple(accs),
        exit_ratios=tuple(c / grid for c in counts),
        sample_counts=tuple(counts),
        threshold=config.threshold,
    )


SPACES = tuple(
    SpaceConfig(backbone=builtin_backbone(name))
    for name in ("smallconv", "mobilenetv2_cifar")
)


@st.composite
def oracle_configs(draw):
    """Valid configs, edge cases included: a two-point grid, touching
    difficulty modes, no capability floor, and supervision gains that push
    accuracies onto the 0 and 100 clamps."""
    floor = draw(st.floats(0.0, 100.0))
    easy_max = draw(st.floats(0.01, 1.0))
    return OracleConfig(
        top_accuracy=draw(st.floats(floor, 100.0)),
        floor_accuracy=floor,
        mac_exponent=draw(st.floats(0.1, 3.0)),
        bits_penalty=draw(st.floats(0.0, 2.0)),
        depth_gain=draw(st.floats(0.0, 0.3)),
        hardness_gain=draw(st.floats(0.0, 2.0)),
        exit_count_gain=draw(
            st.one_of(st.floats(-150.0, 150.0), st.sampled_from([-150.0, 150.0]))
        ),
        capability_floor=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.95))),
        easy_mass=draw(st.floats(0.01, 0.99)),
        easy_max=easy_max,
        hard_min=draw(st.one_of(st.just(easy_max), st.floats(easy_max, 1.0))),
        jitter=draw(st.floats(0.0, 0.3)),
        grid=draw(st.one_of(st.just(2), st.integers(2, 300), st.just(1000))),
        threshold=draw(st.floats(0.05, 0.95)),
    )


@st.composite
def architectures(draw):
    space = draw(st.sampled_from(SPACES))
    head = st.integers(0, space.n_head_options - 1)
    quant = st.integers(0, space.n_quant_options - 1)
    genes = []
    for _ in range(space.n_optional):
        genes += [draw(st.integers(0, 1)), draw(head), draw(quant)]
    genes += [draw(head), draw(quant)]
    return decode(tuple(genes), space)


class TestOracleMatchesSweep:
    @settings(max_examples=300, deadline=None)
    @given(oracle_configs(), architectures(), st.integers(0, 10**6))
    def test_reports_equal(self, config, arch, seed):
        assert synthetic_oracle(arch, config, seed) == reference_oracle(
            arch, config, seed
        )

    @settings(max_examples=100, deadline=None)
    @given(architectures(), st.integers(0, 10**6))
    def test_default_config_reports_equal(self, arch, seed):
        config = OracleConfig()
        assert synthetic_oracle(arch, config, seed) == reference_oracle(
            arch, config, seed
        )


@st.composite
def range_sums(draw):
    """A config, one exit quality, and range sums at that quality under
    two supervision gains, one of them negative enough that the 0 clamp
    binds, in drawn order: ranges overlap, so a later sum reads table
    entries that an earlier one filled."""
    config = draw(oracle_configs())
    quality = draw(st.floats(0.02, 0.98))
    gains = (draw(st.floats(-150.0, 150.0)), draw(st.floats(-150.0, -50.0)))
    bound = st.integers(0, config.grid)
    sums = []
    for _ in range(draw(st.integers(1, 6))):
        lo, hi = sorted((draw(bound), draw(bound)))
        sums.append((draw(st.sampled_from(gains)), lo, hi))
    return config, quality, sums


class TestAccuracyTable:
    @settings(max_examples=300, deadline=None)
    @given(range_sums())
    def test_range_sums_equal_the_fresh_sums(self, case):
        config, quality, sums = case
        for supervision, lo, hi in sums:
            got = _accuracy_sum(config, quality, supervision, lo, hi)
            want = reference_accuracy_sum(config, quality, supervision, lo, hi)
            assert got.hex() == want.hex()

    def test_a_table_is_filled_only_where_a_range_needs_it(self):
        config = OracleConfig(grid=100)
        evaluate._tables.clear()
        _accuracy_sum.cache_clear()
        assert _accuracy_sum(config, 0.5, -100.0, 10, 20) == 0.0
        _accuracy_sum(config, 0.5, -100.0, 15, 30)
        table = _accuracy_table(config, 0.5, -100.0)
        assert table == [None] * 10 + [0.0] * 20 + [None] * 70
        assert _accuracy_table(config, 0.5, 0.0) == [None] * 100


    def test_the_tables_hold_a_bounded_number_of_samples(self, monkeypatch):
        """A new table drops the oldest ones until all fit in
        ``_TABLE_SAMPLES`` samples; a grid larger than that gets no table
        and leaves the others be. Sums stay right whatever was dropped."""
        monkeypatch.setattr(evaluate, "_TABLE_SAMPLES", 250)
        monkeypatch.setattr(evaluate, "_tables", {})
        _accuracy_sum.cache_clear()
        config = OracleConfig(grid=100)
        qualities = [0.1 * k for k in range(1, 8)]
        for q in qualities * 2:
            for lo, hi in ((0, 40), (30, 100)):
                got = _accuracy_sum(config, q, 0.0, lo, hi)
                assert got == reference_accuracy_sum(config, q, 0.0, lo, hi)
                assert sum(map(len, evaluate._tables.values())) <= 250
            _accuracy_sum.cache_clear()
        assert list(evaluate._tables) == [(config, q, 0.0) for q in qualities[-2:]]
        big = OracleConfig(grid=300)
        for lo, hi in ((0, 300), (40, 260)):
            got = _accuracy_sum(big, 0.5, 0.0, lo, hi)
            assert got.hex() == reference_accuracy_sum(big, 0.5, 0.0, lo, hi).hex()
        assert list(evaluate._tables) == [(config, q, 0.0) for q in qualities[-2:]]


def test_hash_unit_memo_keeps_int_and_float_seeds_apart():
    """The memo must return what hashing returns: 3 and 3.0 print, and so
    hash, differently."""
    for parts in ((3, "A"), (3.0, "A"), (True, "A"), (1, "A")):
        assert _hash_unit(*parts) == _hash_unit.__wrapped__(*parts)
    assert _hash_unit(3, "A") != _hash_unit(3.0, "A")
