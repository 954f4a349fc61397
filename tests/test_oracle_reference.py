"""The synthetic oracle finds each exit's samples by bisection over its
ascending difficulty grid and adds their accuracies in memoized range sums.
It must report exactly what the per-sample sweep it replaced reports; that
sweep is kept here as the reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.arch import SpaceConfig, builtin_backbone, decode
from eenas.evaluate import (
    EvaluationReport,
    OracleConfig,
    _hash_unit,
    synthetic_oracle,
)
from eenas.workload import backbone_mac_fractions


def reference_oracle(arch, config, seed):
    """Capabilities as in the oracle, then one pass over every grid sample:
    its exit is the first of exits 1..m-1 whose capability covers its
    difficulty, else the last; its accuracy is added to that exit's sum."""
    fractions = backbone_mac_fractions(arch.backbone)
    quality = []
    capability = []
    for i, placement in enumerate(arch.exits):
        f = fractions[placement.mount]
        bits = arch.quant.exit_bits[i]
        if f <= config.capability_floor:
            quality.append(0.02)
            capability.append(0.0)
            continue
        rel = (f - config.capability_floor) / (1.0 - config.capability_floor)
        q = (rel ** config.mac_exponent) * (1.0 - config.bits_penalty / bits)
        q += config.depth_gain * (placement.head.depth - 1)
        q = min(max(q, 0.02), 0.98)
        quality.append(q)
        wiggle = 1.0 + config.jitter * _hash_unit(seed, placement.mount)
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


def test_hash_unit_memo_keeps_int_and_float_seeds_apart():
    """The memo must return what hashing returns: 3 and 3.0 print, and so
    hash, differently."""
    for parts in ((3, "A"), (3.0, "A"), (True, "A"), (1, "A")):
        assert _hash_unit(*parts) == _hash_unit.__wrapped__(*parts)
    assert _hash_unit(3, "A") != _hash_unit(3.0, "A")
