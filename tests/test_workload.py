import hashlib
from dataclasses import replace

import numpy as np
import pytest

from eenas.arch import (
    BackboneSpec,
    BlockSpec,
    EennArchitecture,
    ExitHeadSpec,
    ExitPlacement,
    QuantScheme,
    SpaceConfig,
    decode,
    sample_architecture,
    static_counterpart,
)
from eenas.workload import (
    LayerGraph,
    LayerNode,
    WorkloadError,
    backbone_mac_fractions,
    backbone_mount_macs,
    exit_macs,
    expand_backbone,
    expand_layers,
)
from helpers import (
    conv_macs_elementwise,
    depthwise_macs_elementwise,
    enumerate_space,
    linear_macs_elementwise,
    validate_graph,
)


def single_exit(backbone, head=None, bits=8):
    head = head or ExitHeadSpec(depth=1)
    return EennArchitecture(
        backbone=backbone,
        exits=(ExitPlacement(backbone.final_mount, head),),
        quant=QuantScheme(backbone_bits=bits, exit_bits=(bits,)),
    )


class TestMacCounting:
    def test_stem_conv_macs(self, mobilenet):
        arch = single_exit(mobilenet)
        graph = expand_layers(arch)
        stem = graph.nodes[0]
        assert stem.kind == "conv"
        assert stem.macs == 3 * 3 * 3 * 32 * 32 * 32 == 884_736

    def test_node_macs_match_elementwise_oracle(self):
        # Tiny two-block backbone keeps the graph under 10 nodes.
        backbone = BackboneSpec(
            blocks=(
                BlockSpec("conv2d", 1, 4, 1),
                BlockSpec("bottleneck", 1, 6, 2, ("M0",)),
            ),
            input_shape=(4, 4, 3),
            kernel=3,
            padding=1,
            expansion=2,
        )
        arch = single_exit(backbone, head=ExitHeadSpec(pooled_size=2, depth=1))
        graph = expand_layers(arch, num_classes=3)
        assert len(graph.nodes) <= 10
        for node in graph.nodes:
            h, w = (node.input_shape + (1, 1))[:2]
            if node.kind == "conv":
                cin = node.input_shape[2]
                cout = node.output_shape[2]
                # Expand/project convs are 1x1; the stem conv is 3x3.
                k = 3 if node.name.endswith(".conv") else 1
                stride = 1 if node.output_shape[0] == h else 2
                pad = 1 if k == 3 else 0
                assert node.macs == conv_macs_elementwise(h, w, cin, cout, k, stride, pad)
            elif node.kind == "depthwise-conv":
                ch = node.input_shape[2]
                stride = 2 if node.output_shape[0] < h else 1
                assert node.macs == depthwise_macs_elementwise(h, w, ch, 3, stride, 1)
            elif node.kind == "linear":
                assert node.macs == linear_macs_elementwise(
                    node.input_shape[0], node.output_shape[0]
                )
            else:
                assert node.macs == 0

    def test_cumulative_macs_near_published_total(self, mobilenet):
        head = ExitHeadSpec(depth=1)
        arch = EennArchitecture(
            backbone=mobilenet,
            exits=tuple(ExitPlacement(m, head) for m in "DFIK"),
            quant=QuantScheme(backbone_bits=8, exit_bits=(8, 8, 8, 8)),
        )
        total = exit_macs(arch)[-1]
        reference = 195_377_152
        assert abs(total - reference) / reference < 0.10

    def test_fractions_monotone_and_normalized(self, mobilenet, smallconv):
        for backbone in (mobilenet, smallconv):
            fr = backbone_mac_fractions(backbone)
            values = [fr[m] for m in backbone.mount_labels]
            assert values == sorted(values)
            assert values[-1] == 1.0
            assert all(0 < v <= 1 for v in values)


class TestGraphStructure:
    def test_single_exit_graph_contents(self, smallconv):
        graph = expand_layers(single_exit(smallconv))
        owners = {n.owner for n in graph.nodes}
        assert owners == {("backbone", 1), ("exit", 1)}
        kinds = [n.kind for n in graph.nodes if n.owner == ("exit", 1)]
        assert kinds == ["pool", "linear", "softmax"]

    def test_two_layer_head_adds_hidden_linear(self, smallconv):
        arch = single_exit(smallconv, head=ExitHeadSpec(depth=2, hidden_width=32))
        graph = expand_layers(arch)
        head_kinds = [n.kind for n in graph.nodes if n.owner == ("exit", 1)]
        assert head_kinds == ["pool", "linear", "linear", "softmax"]
        hidden = [n for n in graph.nodes if n.name.endswith(".fc1")][0]
        assert hidden.output_shape == (32,)

    def test_residual_add_only_when_spatially_compatible(self, smallconv):
        graph = expand_layers(single_exit(smallconv))
        adds = [n.name for n in graph.nodes if n.kind == "elementwise-add"]
        # Second instance of each repeated row keeps channels and stride 1.
        assert adds == ["b2.add", "b4.add"]

    def test_expansion_is_pure(self, small_space):
        rng = np.random.default_rng(11)
        for _ in range(10):
            arch = decode(sample_architecture(small_space, rng), small_space)
            assert expand_layers(arch) == expand_layers(arch)

    def test_exit_nodes_tagged_with_exit_index(self, smallconv):
        head = ExitHeadSpec(depth=1)
        arch = EennArchitecture(
            backbone=smallconv,
            exits=(ExitPlacement("B", head), ExitPlacement("E", head)),
            quant=QuantScheme(backbone_bits=8, exit_bits=(4, 8)),
        )
        graph = expand_layers(arch)
        assert {n.owner for n in graph.nodes if n.owner[0] == "exit"} == {
            ("exit", 1), ("exit", 2)
        }
        exit1 = [n for n in graph.nodes if n.owner == ("exit", 1)]
        assert all(n.bits == 4 for n in exit1)
        exit2 = [n for n in graph.nodes if n.owner == ("exit", 2)]
        assert all(n.bits == 8 for n in exit2)
        validate_graph(graph)

    def test_pooling_to_impossible_size_rejected(self):
        backbone = BackboneSpec(
            blocks=(
                BlockSpec("conv2d", 1, 4, 2),
                BlockSpec("conv2d", 1, 4, 2, ("M0",)),
            ),
            input_shape=(8, 8, 3),
        )
        arch = single_exit(backbone, head=ExitHeadSpec(pooled_size=4))
        with pytest.raises(WorkloadError):
            expand_layers(arch)  # 2x2 activation cannot pool to 4x4

    def test_indivisible_pooling_rejected(self):
        backbone = BackboneSpec(
            blocks=(BlockSpec("conv2d", 1, 4, 1, ("M0",)),),
            input_shape=(6, 6, 3),
        )
        arch = single_exit(backbone, head=ExitHeadSpec(pooled_size=4))
        with pytest.raises(WorkloadError):
            expand_layers(arch)

    def test_validate_graph_rejects_backward_edge(self):
        node = LayerNode(
            name="n",
            kind="conv",
            input_shape=(4, 4, 3),
            output_shape=(4, 4, 3),
            macs=1,
            params=1,
            bits=8,
            owner=("backbone", 1),
        )
        bad = LayerGraph(nodes=(node, node), edges=((1, 0),))
        with pytest.raises(WorkloadError):
            validate_graph(bad)

    def test_validate_graph_rejects_exit_ahead_of_mount(self):
        trunk1 = LayerNode("a", "conv", (4, 4, 3), (4, 4, 3), 1, 1, 8, ("backbone", 1))
        trunk2 = LayerNode("b", "conv", (4, 4, 3), (4, 4, 3), 1, 1, 8, ("backbone", 2))
        head1 = LayerNode("x1", "linear", (48,), (10,), 480, 490, 8, ("exit", 1))
        bad = LayerGraph(nodes=(trunk1, trunk2, head1), edges=((0, 1), (1, 2)))
        with pytest.raises(WorkloadError):
            validate_graph(bad)


class TestCumulativeMacs:
    """``exit_macs``: per exit, the backbone MACs at its mount plus the MACs
    of the heads of exits 1..i."""

    def test_single_exit_equals_total(self, smallconv):
        arch = single_exit(smallconv)
        assert exit_macs(arch) == (sum(n.macs for n in expand_layers(arch).nodes),)

    def test_strictly_increasing_in_exit_index(self, small_space):
        rng = np.random.default_rng(2)
        for _ in range(20):
            arch = decode(sample_architecture(small_space, rng), small_space)
            values = exit_macs(arch)
            assert len(values) == arch.m
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_owner_tag_sums(self, small_space):
        """Against the full graph: exit i runs every node tagged with an
        index up to i. Covers every smallconv architecture and its static
        counterpart."""
        for chrom in enumerate_space(small_space):
            arch = decode(chrom, small_space)
            for a in (arch, static_counterpart(arch)):
                graph = expand_layers(a, num_classes=7)
                expected = tuple(
                    sum(n.macs for n in graph.nodes if n.owner[1] <= i)
                    for i in range(1, a.m + 1)
                )
                assert exit_macs(a, num_classes=7) == expected


class TestSharedBackbone:
    def test_every_graph_starts_with_the_backbone_expansion(self, small_space):
        base = expand_backbone(small_space.backbone, small_space.backbone_bits)
        n = len(base.nodes)
        rng = np.random.default_rng(4)
        for _ in range(20):
            arch = decode(sample_architecture(small_space, rng), small_space)
            graph = expand_layers(arch)
            untagged = [
                replace(g, owner=b.owner) for b, g in zip(base.nodes, graph.nodes)
            ]
            assert untagged == list(base.nodes)
            assert graph.edges[: len(base.edges)] == base.edges
            assert all(e[1] >= n for e in graph.edges[len(base.edges):])
            assert all(g.owner[0] == "exit" for g in graph.nodes[n:])

    def test_groups_end_at_their_mounts(self, mobilenet):
        base = expand_backbone(mobilenet, 8)
        for j, label in enumerate(mobilenet.mount_labels, start=1):
            inst = mobilenet.instances[mobilenet.mount_position(label)]
            last = base.nodes[base.backbone_segment(j)[-1]]
            assert last.output_shape == (*inst.out_size, inst.out_channels)
            assert last.name.startswith(f"b{mobilenet.mount_position(label)}.")

    def test_expansion_unchanged(self, smallconv, mobilenet):
        """Pins the layer graphs and the mount MACs; the digest was recorded
        before the backbone expansion was shared. ``repr`` prints every
        field, owner tags included."""
        heads = (
            ExitHeadSpec(depth=1),
            ExitHeadSpec(depth=2),
            ExitHeadSpec(pooled_size=1, depth=2, hidden_width=64),
        )
        digest = hashlib.sha256()
        for bits in (8, 4):
            space = SpaceConfig(
                backbone=smallconv, head_options=heads, backbone_bits=bits,
                num_classes=7,
            )
            for chrom in enumerate_space(space):
                graph = expand_layers(decode(chrom, space), num_classes=7)
                digest.update(repr(graph).encode())
        space = SpaceConfig(backbone=mobilenet)
        rng = np.random.default_rng(5)
        for _ in range(500):
            arch = decode(sample_architecture(space, rng), space)
            digest.update(repr(expand_layers(arch)).encode())
        for backbone in (smallconv, mobilenet):
            digest.update(repr(backbone_mount_macs(backbone)).encode())
        assert digest.hexdigest() == (
            "eeb8b66e76659e4b1c7b9a8f894b1d90e321f74adda834107aab973b4579582d"
        )
