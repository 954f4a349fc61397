import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.arch import (
    ArchitectureError,
    BackboneError,
    BackboneSpec,
    BlockSpec,
    Chromosome,
    ChromosomeError,
    EennArchitecture,
    ExitHeadSpec,
    ExitPlacement,
    QuantScheme,
    SpaceConfig,
    canonicalize,
    chromosome_hash,
    decode,
    encode,
    parse_backbone,
    sample_architecture,
    search_space_size,
    search_space_size_binomial,
    static_counterpart,
)
from helpers import chain_backbone, enumerate_genes, enumerate_space


def binomial_count(h, p, q):
    # Independent oracle: sum over exit-count choices.
    return sum(math.comb(h, k) * (p * q) ** (k + 1) for k in range(h + 1))


class TestSpaceSize:
    def test_examples(self):
        assert binomial_count(0, 1, 1) == 1
        assert search_space_size(0, 1, 1) == 1
        assert binomial_count(2, 1, 1) == 4
        assert search_space_size(2, 1, 1) == 4
        assert binomial_count(10, 2, 2) == 39_062_500
        assert search_space_size(10, 2, 2) == 4 * 5**10 == 39_062_500

    def test_matches_binomial_oracle_on_grid(self):
        for h in range(7):
            for p in range(1, 4):
                for q in range(1, 4):
                    assert search_space_size(h, p, q) == binomial_count(h, p, q)
                    assert search_space_size_binomial(h, p, q) == binomial_count(
                        h, p, q
                    )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            search_space_size(-1, 1, 1)
        with pytest.raises(ValueError):
            search_space_size(3, 0, 1)
        with pytest.raises(ValueError):
            search_space_size_binomial(3, 1, 0)

    def test_degenerate_no_optional_mounts(self):
        assert search_space_size(0, 3, 2) == 6

    def test_enumeration_counts_distinct_architectures(self):
        # Decoded architectures are hashable; enumerate small spaces fully.
        heads = (
            ExitHeadSpec(depth=1),
            ExitHeadSpec(depth=2),
            ExitHeadSpec(depth=2, hidden_width=64),
        )
        for h in range(5):
            for p in range(1, 4):
                for q in range(1, 4):
                    space = SpaceConfig(
                        backbone=chain_backbone(h + 1),
                        head_options=heads[:p],
                        exit_bit_options=tuple([8, 4, 32][:q]),
                    )
                    archs = {decode(c, space) for c in enumerate_space(space)}
                    assert len(archs) == search_space_size(h, p, q)


class TestChromosomeCodec:
    def test_roundtrip_on_samples(self, small_space, mobile_space):
        rng = np.random.default_rng(7)
        for space in (small_space, mobile_space):
            for _ in range(200):
                chrom = sample_architecture(space, rng)
                arch = decode(chrom, space)
                assert encode(arch, space) == chrom
                assert decode(encode(arch, space), space) == arch

    def test_single_mount_difference_is_local(self, small_space):
        base = Chromosome((0, 0, 0) * 4 + (0, 0))
        flipped = Chromosome((1, 1, 0) + (0, 0, 0) * 3 + (0, 0))
        a, b = decode(base, small_space), decode(flipped, small_space)
        ca, cb = encode(a, small_space), encode(b, small_space)
        diff_groups = [
            j
            for j in range(4)
            if ca.genes[3 * j : 3 * j + 3] != cb.genes[3 * j : 3 * j + 3]
        ]
        assert diff_groups == [0]
        assert ca.genes[-2:] == cb.genes[-2:]

    def test_all_mounts_present_sets_all_bits(self, small_space):
        genes = (1, 1, 1) * 4 + (1, 1)
        arch = decode(Chromosome(genes), small_space)
        assert arch.m == 5
        assert all(encode(arch, small_space).genes[3 * j] == 1 for j in range(4))

    def test_decode_masks_absent_genes(self, small_space):
        noisy = (0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 1, 0)
        clean = canonicalize(noisy, small_space)
        assert decode(Chromosome(noisy), small_space) == decode(clean, small_space)
        assert clean.genes[:6] == (0, 0, 0, 0, 0, 0)

    def test_decode_is_deterministic(self, small_space):
        chrom = Chromosome((1, 0, 1) + (0, 0, 0) * 3 + (1, 0))
        assert decode(chrom, small_space) == decode(chrom, small_space)

    def test_malformed_length_rejected(self, small_space):
        with pytest.raises(ChromosomeError):
            decode(Chromosome((0, 0, 0)), small_space)

    def test_out_of_range_used_gene_rejected(self, small_space):
        genes = (1, 5, 0) + (0, 0, 0) * 3 + (0, 0)
        with pytest.raises(ChromosomeError):
            decode(Chromosome(genes), small_space)

    def test_hash_is_stable_and_distinct(self, small_space):
        a = Chromosome((0, 0, 0) * 4 + (0, 0))
        b = Chromosome((0, 0, 0) * 4 + (0, 1))
        assert chromosome_hash(a) == chromosome_hash(a)
        assert chromosome_hash(a) != chromosome_hash(b)
        assert len(chromosome_hash(a)) == 16


class TestSampling:
    def test_seeded_sampling_is_reproducible(self, mobile_space):
        a = sample_architecture(mobile_space, np.random.default_rng(123))
        b = sample_architecture(mobile_space, np.random.default_rng(123))
        assert a == b

    def test_presence_bit_frequencies(self, mobile_space):
        rng = np.random.default_rng(0)
        n = 10_000
        counts = np.zeros(mobile_space.n_optional)
        for _ in range(n):
            genes = sample_architecture(mobile_space, rng).genes
            counts += [genes[3 * j] for j in range(mobile_space.n_optional)]
        freqs = counts / n
        assert np.all(freqs >= 0.45) and np.all(freqs <= 0.55)

    def test_single_config_space_sampling(self):
        space = SpaceConfig(
            backbone=chain_backbone(1),
            head_options=(ExitHeadSpec(depth=1),),
            exit_bit_options=(8,),
        )
        rng = np.random.default_rng(5)
        chroms = {sample_architecture(space, rng) for _ in range(20)}
        assert chroms == {Chromosome((0, 0))}

    def test_sampled_architectures_are_valid(self, small_space):
        rng = np.random.default_rng(9)
        labels = small_space.backbone.mount_labels
        order = {m: i for i, m in enumerate(labels)}
        for _ in range(100):
            arch = decode(sample_architecture(small_space, rng), small_space)
            depths = [order[e.mount] for e in arch.exits]
            assert depths == sorted(set(depths))
            assert arch.exits[-1].mount == small_space.backbone.final_mount


class TestEnumeration:
    def test_gene_enumeration_count(self):
        n = sum(1 for _ in enumerate_genes(3, 2, 2))
        assert n == search_space_size(3, 2, 2)

    def test_enumerated_genes_are_canonical_and_unique(self, small_space):
        seen = set()
        for genes in enumerate_genes(4, 2, 2):
            assert genes not in seen
            seen.add(genes)
            assert canonicalize(genes, small_space).genes == genes


class TestArchitectureInvariants:
    def test_duplicate_mounts_rejected(self, smallconv):
        head = ExitHeadSpec()
        with pytest.raises(ArchitectureError):
            EennArchitecture(
                backbone=smallconv,
                exits=(
                    ExitPlacement("B", head),
                    ExitPlacement("B", head),
                    ExitPlacement("E", head),
                ),
                quant=QuantScheme(exit_bits=(8, 8, 8)),
            )

    def test_missing_final_exit_rejected(self, smallconv):
        with pytest.raises(ArchitectureError):
            EennArchitecture(
                backbone=smallconv,
                exits=(ExitPlacement("B", ExitHeadSpec()),),
                quant=QuantScheme(exit_bits=(8,)),
            )

    def test_unordered_exits_rejected(self, smallconv):
        head = ExitHeadSpec()
        with pytest.raises(ArchitectureError):
            EennArchitecture(
                backbone=smallconv,
                exits=(
                    ExitPlacement("C", head),
                    ExitPlacement("A", head),
                    ExitPlacement("E", head),
                ),
                quant=QuantScheme(exit_bits=(8, 8, 8)),
            )

    def test_unknown_mount_rejected(self, smallconv):
        with pytest.raises(ArchitectureError):
            EennArchitecture(
                backbone=smallconv,
                exits=(ExitPlacement("Z", ExitHeadSpec()),),
                quant=QuantScheme(exit_bits=(8,)),
            )

    def test_bits_length_must_match(self, smallconv):
        with pytest.raises(ArchitectureError):
            EennArchitecture(
                backbone=smallconv,
                exits=(ExitPlacement("E", ExitHeadSpec()),),
                quant=QuantScheme(exit_bits=(8, 8)),
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("backbone_bits", 1),
            ("backbone_bits", 33),
            ("exit_bit_options", (8, 0)),
            ("exit_bit_options", (64,)),
        ],
    )
    def test_space_bit_widths_must_lie_in_range(self, smallconv, field, value):
        with pytest.raises(ArchitectureError, match=r"out of range \[2, 32\]"):
            SpaceConfig(backbone=smallconv, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("backbone_bits", "8"),
            ("backbone_bits", 8.0),
            ("num_classes", True),
            ("exit_bit_options", (8.5, 4)),
            ("exit_bit_options", 8),
        ],
    )
    def test_space_fields_must_be_integers(self, smallconv, field, value):
        with pytest.raises(ArchitectureError, match=f"^{field} must be"):
            SpaceConfig(backbone=smallconv, **{field: value})

    @pytest.mark.parametrize("field", ["pooled_size", "depth", "hidden_width"])
    @pytest.mark.parametrize("value", ["1", 1.0, True, None])
    def test_head_fields_must_be_integers(self, field, value):
        with pytest.raises(ArchitectureError, match=f"^{field} must be an integer$"):
            ExitHeadSpec(**{field: value})

    def test_static_counterpart_keeps_final_exit(self, small_space):
        rng = np.random.default_rng(3)
        arch = decode(sample_architecture(small_space, rng), small_space)
        static = static_counterpart(arch)
        assert static.m == 1
        assert static.exits[0] == arch.exits[-1]
        assert static.quant.exit_bits == (arch.quant.exit_bits[-1],)


class TestBackboneParsing:
    def test_bundled_backbone_shape(self, mobilenet):
        assert mobilenet.mount_labels == tuple("ABCDEFGHIJK")
        assert mobilenet.n_optional == 10
        assert mobilenet.input_shape == (32, 32, 3)
        assert mobilenet.kernel == 3
        assert mobilenet.expansion == 6
        assert len(mobilenet.instances) == 13

    def test_parse_rejects_duplicate_labels(self):
        text = "input 8 8 3\nblock conv2d 1 A 8 1\nblock conv2d 1 A 8 1\n"
        with pytest.raises(BackboneError):
            parse_backbone(text)

    def test_parse_rejects_bad_stride(self):
        with pytest.raises(BackboneError):
            parse_backbone("input 8 8 3\nblock conv2d 1 A 8 3\n")

    def test_parse_rejects_missing_final_label(self):
        text = "input 8 8 3\nblock conv2d 1 A 8 1\nblock conv2d 1 - 8 1\n"
        with pytest.raises(BackboneError):
            parse_backbone(text)

    def test_mount_count_must_match_repetition(self):
        with pytest.raises(BackboneError):
            BlockSpec("conv2d", 2, 8, 1, ("A",))

    def test_parse_rejects_garbage(self):
        with pytest.raises(BackboneError):
            parse_backbone("input 8 8 3\nblock conv2d one A 8 1\n")
        with pytest.raises(BackboneError):
            parse_backbone("frobnicate 1 2 3\n")
        with pytest.raises(BackboneError):
            parse_backbone("block conv2d 1 A 8 1\n")  # no input line

    def test_json_roundtrip(self, mobilenet):
        assert BackboneSpec.from_json(mobilenet.to_json()) == mobilenet

    def test_space_json_roundtrip(self, small_space):
        assert SpaceConfig.from_json(small_space.to_json()) == small_space

    def test_space_json_keeps_the_activation_key(self, small_space):
        """Every head uses relu6. The key stays in the JSON, which resume
        compares byte for byte, and any other value is refused."""
        data = small_space.to_json()
        assert [h["activation"] for h in data["head_options"]] == ["relu6"] * 2
        data["head_options"][1]["activation"] = "relu"
        with pytest.raises(ArchitectureError, match="activation must be 'relu6'"):
            SpaceConfig.from_json(data)

    @pytest.mark.parametrize(
        "path, value",
        [(("kernel",), "3"), (("input_shape",), [32.0, 32, 3]),
         (("blocks", 0, "channels"), True), (("blocks", 0, "stride"), 1.0)],
    )
    def test_backbone_json_fields_must_be_integers(self, mobilenet, path, value):
        data = mobilenet.to_json()
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(BackboneError, match=f"^{path[-1]} must be"):
            BackboneSpec.from_json(data)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.text(max_size=30),
                st.builds(
                    " ".join,
                    st.lists(
                        st.one_of(
                            st.sampled_from(
                                ["input", "kernel", "padding", "expansion", "block",
                                 "conv2d", "bottleneck", "-", "A", "A,B", "#"]
                            ),
                            st.integers(-3, 40).map(str),
                            st.text(max_size=4),
                        ),
                        max_size=7,
                    ),
                ),
            ),
            max_size=8,
        ).map("\n".join)
    )
    def test_parse_gives_a_spec_or_its_error(self, text):
        try:
            spec = parse_backbone(text)
        except BackboneError:
            return
        assert isinstance(spec, BackboneSpec)
        assert spec.final_mount == spec.mount_labels[-1]

    def test_hash_once_keeps_field_hash_and_equality(self, mobilenet):
        """Specs hash their fields once; an equal copy hashes equal, and
        the kept hash is not part of the pickled state."""
        copy = BackboneSpec.from_json(mobilenet.to_json())
        space = SpaceConfig(backbone=copy)
        assert "_field_hash" not in copy.__dict__
        fields = (copy.blocks, copy.input_shape, copy.kernel, copy.padding,
                  copy.expansion)
        assert hash(copy) == hash(fields) == hash(mobilenet)
        assert copy.__dict__["_field_hash"] == hash(fields)
        assert hash(space) == hash(SpaceConfig(backbone=mobilenet))
        assert {copy: 1}[mobilenet] == 1
        assert replace(copy, kernel=1, padding=0) != copy
        restored = pickle.loads(pickle.dumps(copy))
        assert "_field_hash" not in restored.__dict__
        assert restored == copy and hash(restored) == hash(copy)

    def test_repeated_row_stride_applies_once(self, smallconv):
        strided = [i for i in smallconv.instances if i.stride == 2]
        assert len(strided) == 1  # one stride-2 row, only its first instance
        assert smallconv.instances[3].stride == 2
        assert smallconv.instances[4].stride == 1
