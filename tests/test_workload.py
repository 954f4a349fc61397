import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    exit_runs,
    graph_fields,
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
        n = len(expand_backbone(smallconv, 8).nodes)
        assert graph.mounts[-1] == n - 1
        assert [node.kind for node in graph.nodes[n:]] == ["pool", "linear", "softmax"]
        assert graph.producers(n) == (n - 1,)

    def test_two_layer_head_adds_hidden_linear(self, smallconv):
        arch = single_exit(smallconv, head=ExitHeadSpec(depth=2, hidden_width=32))
        graph = expand_layers(arch)
        head_kinds = [n.kind for n in graph.nodes[graph.mounts[-1] + 1:]]
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
        """Head nodes carry their exit's index in their names and its bits,
        and each pool consumes its mount's node."""
        head = ExitHeadSpec(depth=1)
        arch = EennArchitecture(
            backbone=smallconv,
            exits=(ExitPlacement("B", head), ExitPlacement("E", head)),
            quant=QuantScheme(backbone_bits=8, exit_bits=(4, 8)),
        )
        graph = expand_layers(arch)
        n = graph.mounts[-1] + 1
        heads = graph.nodes[n:]
        assert [node.name.split(".")[0] for node in heads] == ["x1"] * 3 + ["x2"] * 3
        assert [node.bits for node in heads] == [4] * 3 + [8] * 3
        labels = smallconv.mount_labels
        assert graph.producers(n) == (graph.mounts[labels.index("B")],)
        assert graph.producers(n + 3) == (graph.mounts[labels.index("E")],)
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
        )
        bad = LayerGraph(nodes=(node, node), edges=((1, 0),))
        with pytest.raises(WorkloadError):
            validate_graph(bad)

    def test_validate_graph_rejects_exit_ahead_of_mount(self):
        trunk1 = LayerNode("a", "conv", (4, 4, 3), (4, 4, 3), 1, 1, 8)
        trunk2 = LayerNode("b", "conv", (4, 4, 3), (4, 4, 3), 1, 1, 8)
        pool = LayerNode("x1.pool", "pool", (4, 4, 3), (1, 1, 3), 0, 0, 8)
        nodes = (trunk1, trunk2, pool)
        validate_graph(LayerGraph(nodes, ((0, 1), (0, 2)), mounts=(0, 1)))
        bad = LayerGraph(nodes, ((0, 1), (1, 2)), mounts=(0,))
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

    def test_matches_ancestor_sums(self, small_space):
        """Against the full graph's edges: exit i runs every ancestor of the
        softmax nodes of exits 1..i. Covers every smallconv architecture and
        its static counterpart."""
        for chrom in enumerate_space(small_space):
            arch = decode(chrom, small_space)
            for a in (arch, static_counterpart(arch)):
                graph = expand_layers(a, num_classes=7)
                expected = tuple(
                    sum(graph.nodes[k].macs for k in run) for run in exit_runs(graph)
                )
                assert exit_macs(a, num_classes=7) == expected


@st.composite
def small_backbones(draw):
    """Backbones of one to four conv2d or bottleneck rows, strides 1 and 2,
    each row labeling every instance or none, the last row always."""
    n_rows = draw(st.integers(1, 4))
    blocks = []
    labels = itertools.count()
    for row in range(n_rows):
        repetition = draw(st.integers(1, 3))
        labeled = row == n_rows - 1 or draw(st.booleans())
        mounts = tuple(f"M{next(labels)}" for _ in range(repetition)) if labeled else ()
        blocks.append(
            BlockSpec(
                draw(st.sampled_from(("conv2d", "bottleneck"))),
                repetition,
                draw(st.integers(1, 6)),
                draw(st.sampled_from((1, 2))),
                mounts,
            )
        )
    size = draw(st.sampled_from((2, 4, 8)))
    return BackboneSpec(
        blocks=tuple(blocks),
        input_shape=(size, size, draw(st.integers(1, 3))),
        expansion=draw(st.integers(1, 3)),
    )


class TestSharedBackbone:
    def test_every_graph_starts_with_the_backbone_expansion(self, small_space):
        base = expand_backbone(small_space.backbone, small_space.backbone_bits)
        n = len(base.nodes)
        rng = np.random.default_rng(4)
        for _ in range(20):
            arch = decode(sample_architecture(small_space, rng), small_space)
            graph = expand_layers(arch)
            assert all(g is b for g, b in zip(graph.nodes[:n], base.nodes))
            assert graph.mounts == base.mounts
            assert graph.edges[: len(base.edges)] == base.edges
            assert all(e[1] >= n for e in graph.edges[len(base.edges):])

    @settings(max_examples=60, deadline=None)
    @given(backbone=small_backbones(), bits=st.sampled_from((8, 4)))
    def test_mounts_locate_each_mount_activation(self, backbone, bits):
        """On random backbones, ``mounts`` names the last node of each
        labeled block, the mount MACs are prefix sums up to those nodes, and
        a full graph with an exit at every mount shares the backbone's node
        objects and hangs each head off its mount's node."""
        base = expand_backbone(backbone, bits)
        labels = backbone.mount_labels
        assert len(base.mounts) == len(labels)
        assert base.mounts[-1] == len(base.nodes) - 1
        for label, k in zip(labels, base.mounts):
            pos = backbone.mount_position(label)
            inst = backbone.instances[pos]
            assert base.nodes[k].output_shape == (*inst.out_size, inst.out_channels)
            assert base.nodes[k].name.startswith(f"b{pos}.")
            assert k + 1 == len(base.nodes) or base.nodes[k + 1].name.startswith(
                f"b{pos + 1}."
            )
        prefix = list(itertools.accumulate(node.macs for node in base.nodes))
        assert backbone_mount_macs(backbone) == tuple(
            (label, prefix[k]) for label, k in zip(labels, base.mounts)
        )
        head = ExitHeadSpec(pooled_size=1)
        arch = EennArchitecture(
            backbone=backbone,
            exits=tuple(ExitPlacement(label, head) for label in labels),
            quant=QuantScheme(backbone_bits=bits, exit_bits=(bits,) * len(labels)),
        )
        graph = expand_layers(arch)
        n = len(base.nodes)
        assert all(g is b for g, b in zip(graph.nodes[:n], base.nodes))
        pools = [k for k in range(n, len(graph.nodes)) if graph.nodes[k].kind == "pool"]
        assert [graph.producers(k) for k in pools] == [(k,) for k in base.mounts]
        validate_graph(graph)

    def test_expansion_unchanged(self, smallconv, mobilenet):
        """Pins the layer graphs, each as :func:`helpers.graph_fields`, and
        the mount MACs. The digest was recorded on the code before layer
        nodes lost their exit tags, which then passed the earlier digest of
        the whole graphs, tags included, recorded before the backbone
        expansion was shared."""
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
                digest.update(repr(graph_fields(graph)).encode())
        space = SpaceConfig(backbone=mobilenet)
        rng = np.random.default_rng(5)
        for _ in range(500):
            arch = decode(sample_architecture(space, rng), space)
            digest.update(repr(graph_fields(expand_layers(arch))).encode())
        for backbone in (smallconv, mobilenet):
            digest.update(repr(backbone_mount_macs(backbone)).encode())
        assert digest.hexdigest() == (
            "5a2323c4f98ed90ffd33c785a62a31db0c0d6006d51fa0a9402bfc960062b7f3"
        )
