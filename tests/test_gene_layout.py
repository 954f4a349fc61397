"""Every reader of the gene layout goes through ``SpaceConfig.mount_genes``,
where the final exit is one more mount whose presence is implicit. The
functions equal the trailing-pair code they replaced (kept in ``helpers``)
output for output and, where they draw, rng draw for rng draw: a history
written before and after the change is the same byte for byte."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.arch import (
    ExitHeadSpec,
    SpaceConfig,
    canonicalize,
    decode,
    encode,
    sample_architecture,
    static_counterpart,
    static_genes,
)
from eenas.predict import featurize
from eenas.search import _crossover, _mutate
from helpers import (
    chain_backbone,
    reference_crossover,
    reference_encode,
    reference_featurize,
    reference_mutate,
    reference_sample_architecture,
)

HEADS = (
    ExitHeadSpec(depth=1),
    ExitHeadSpec(depth=2),
    ExitHeadSpec(pooled_size=2, depth=2, hidden_width=64),
)
BACKBONES = tuple(chain_backbone(n) for n in range(1, 7))
RATES = (0.0, 0.1, 0.5, 1.0)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def spaces(draw):
    """A chain of 1-6 mounts (0-5 optional) with 1-3 head and bit options."""
    heads = draw(st.lists(st.sampled_from(HEADS), min_size=1, max_size=3, unique=True))
    bits = draw(st.lists(st.sampled_from((8, 4, 2)), min_size=1, max_size=3, unique=True))
    return SpaceConfig(
        backbone=draw(st.sampled_from(BACKBONES)),
        head_options=tuple(heads),
        exit_bit_options=tuple(bits),
    )


@st.composite
def gene_vectors(draw, space, canonical=True):
    """A gene vector of ``space``; unless ``canonical``, absent mounts keep
    drawn option genes."""
    head = st.integers(0, space.n_head_options - 1)
    quant = st.integers(0, space.n_quant_options - 1)
    genes = []
    for _ in range(space.n_optional):
        present = draw(st.integers(0, 1))
        options = [draw(head), draw(quant)]
        genes += [present, *options] if present or not canonical else [0, 0, 0]
    return tuple(genes + [draw(head), draw(quant)])


def assert_same_draws(ours, reference, seed, calls=1):
    """``ours`` and ``reference``, each called ``calls`` times on its own
    generator of ``seed``, return the same values and leave both generators
    in the same state after every call."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(calls):
        assert ours(rng) == reference(ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(space=spaces(), seed=SEEDS)
def test_sampling_matches_the_reference(space, seed):
    assert_same_draws(
        lambda rng: sample_architecture(space, rng),
        lambda rng: reference_sample_architecture(space, rng),
        seed,
        calls=4,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), space=spaces(), seed=SEEDS)
def test_crossover_matches_the_reference(data, space, seed):
    g1, g2 = data.draw(gene_vectors(space)), data.draw(gene_vectors(space))
    assert_same_draws(
        lambda rng: _crossover(g1, g2, space, rng),
        lambda rng: reference_crossover(g1, g2, space, rng),
        seed,
        calls=3,
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), space=spaces(), rate=st.sampled_from(RATES), seed=SEEDS)
def test_mutation_matches_the_reference(data, space, rate, seed):
    genes = data.draw(gene_vectors(space))
    assert_same_draws(
        lambda rng: _mutate(genes, space, rate, rng),
        lambda rng: reference_mutate(genes, space, rate, rng),
        seed,
        calls=3,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), space=spaces())
def test_codec_and_features_match_the_reference(data, space):
    genes = data.draw(gene_vectors(space))
    arch = decode(genes, space)
    assert encode(arch, space) == reference_encode(arch, space) == genes
    got, want = featurize(genes, space), reference_featurize(genes, space)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), space=spaces())
def test_canonical_and_static_genes_encode_their_architectures(data, space):
    """``canonicalize`` keeps the architecture and zeroes what it ignores;
    ``static_genes`` are the genes of the static counterpart."""
    genes = data.draw(gene_vectors(space, canonical=False))
    arch = decode(genes, space)
    assert canonicalize(genes, space) == encode(arch, space)
    assert static_genes(genes, space) == encode(static_counterpart(arch), space)


def test_mount_genes_cover_the_vector_once(mobile_space):
    """One group per mount, in mount order, together covering every gene
    once; only the final mount lacks a presence gene."""
    table = mobile_space.mount_genes
    assert len(table) == len(mobile_space.backbone.mount_labels)
    assert [g[0] is None for g in table] == [False] * (len(table) - 1) + [True]
    indices = [i for group in table for i in group if i is not None]
    assert indices == list(range(mobile_space.gene_length))
    assert mobile_space.mount_genes is table
