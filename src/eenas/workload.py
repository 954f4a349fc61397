"""Per-layer workload expansion.

Turns an architecture into a flat producer/consumer graph of layer nodes with
resolved tensor shapes, MAC and parameter counts, and precision bits. The
allocation of a whole architecture works on this graph. The backbone part
is expanded once per (backbone, bits) by ``expand_backbone``, which records
the node producing each mount's activation, and every architecture over it
shares those node objects. Each exit's head is built once per (backbone,
bits, mount, head, exit bits, exit index, classes) by ``head_templates`` and
hangs off its mount's node; ``expand_layers`` composes the two; the cost
engine places the cached head nodes onto its cached backbone schedule
without building a graph, and ``exit_macs`` adds the heads' MACs to the
backbone's MACs at each mount.

Bottleneck blocks expand to the inverted-residual sequence (1x1 expansion,
kxk depthwise at the expanded width, 1x1 projection, residual add when the
stride is 1 and channel counts match).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

from .arch import BackboneSpec, EennArchitecture, ExitHeadSpec

MATRIX_KINDS = ("conv", "depthwise-conv", "linear")


class WorkloadError(ValueError):
    """Architecture cannot be expanded into a layer graph."""


@dataclass(frozen=True)
class LayerNode:
    """One executable layer."""

    name: str
    kind: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    macs: int
    params: int
    bits: int

    @property
    def output_elems(self) -> int:
        n = 1
        for d in self.output_shape:
            n *= d
        return n

    @property
    def output_bits(self) -> int:
        return self.output_elems * self.bits


@dataclass(frozen=True)
class LayerGraph:
    """Immutable layer DAG; node order is topological by construction.
    ``mounts`` holds, per mount label in order, the index of the backbone
    node producing that mount's activation."""

    nodes: tuple[LayerNode, ...]
    edges: tuple[tuple[int, int], ...]
    mounts: tuple[int, ...] = ()

    @cached_property
    def _producers(self) -> tuple[tuple[int, ...], ...]:
        prod: list[list[int]] = [[] for _ in self.nodes]
        for src, dst in self.edges:
            prod[dst].append(src)
        return tuple(tuple(p) for p in prod)

    def producers(self, idx: int) -> tuple[int, ...]:
        return self._producers[idx]


def _add_node(
    nodes: list[LayerNode],
    edges: list[tuple[int, int]],
    node: LayerNode,
    *producers: int,
) -> int:
    nodes.append(node)
    idx = len(nodes) - 1
    for p in producers:
        edges.append((p, idx))
    return idx


@lru_cache(maxsize=64)
def expand_backbone(backbone: BackboneSpec, bits: int) -> LayerGraph:
    """Expand the backbone alone into its layer nodes.

    Convolution MACs are Kh*Kw*Cin*Cout*Hout*Wout (depthwise drops the Cin
    factor); residual adds contribute zero MACs. ``mounts`` records the
    last node of each labeled block; the final mount follows the last
    block, so its node is the last one. Every architecture's graph over
    ``backbone`` starts with exactly these node objects and edges.
    """
    k = backbone.kernel
    t = backbone.expansion
    nodes: list[LayerNode] = []
    edges: list[tuple[int, int]] = []
    mounts: list[int] = []
    add = partial(_add_node, nodes, edges)
    last = -1  # index of the node producing the current trunk activation
    for pos, inst in enumerate(backbone.instances):
        h, w = inst.in_size
        ho, wo = inst.out_size
        cin, cout = inst.in_channels, inst.out_channels
        block_in = () if last < 0 else (last,)
        if inst.kind == "conv2d":
            last = add(
                LayerNode(
                    name=f"b{pos}.conv",
                    kind="conv",
                    input_shape=(h, w, cin),
                    output_shape=(ho, wo, cout),
                    macs=k * k * cin * cout * ho * wo,
                    params=k * k * cin * cout + cout,
                    bits=bits,
                ),
                *block_in,
            )
        else:
            hidden = cin * t
            expand = add(
                LayerNode(
                    name=f"b{pos}.expand",
                    kind="conv",
                    input_shape=(h, w, cin),
                    output_shape=(h, w, hidden),
                    macs=cin * hidden * h * w,
                    params=cin * hidden + hidden,
                    bits=bits,
                ),
                *block_in,
            )
            dw = add(
                LayerNode(
                    name=f"b{pos}.dw",
                    kind="depthwise-conv",
                    input_shape=(h, w, hidden),
                    output_shape=(ho, wo, hidden),
                    macs=k * k * hidden * ho * wo,
                    params=k * k * hidden + hidden,
                    bits=bits,
                ),
                expand,
            )
            last = add(
                LayerNode(
                    name=f"b{pos}.project",
                    kind="conv",
                    input_shape=(ho, wo, hidden),
                    output_shape=(ho, wo, cout),
                    macs=hidden * cout * ho * wo,
                    params=hidden * cout + cout,
                    bits=bits,
                ),
                dw,
            )
            if inst.stride == 1 and cin == cout and block_in:
                last = add(
                    LayerNode(
                        name=f"b{pos}.add",
                        kind="elementwise-add",
                        input_shape=(ho, wo, cout),
                        output_shape=(ho, wo, cout),
                        macs=0,
                        params=0,
                        bits=bits,
                    ),
                    *block_in,
                    last,
                )
        if inst.mount is not None:
            mounts.append(last)
    return LayerGraph(nodes=tuple(nodes), edges=tuple(edges), mounts=tuple(mounts))


class HeadTemplate(NamedTuple):
    """The layer nodes of one exit's head, in order: pooling, an optional
    hidden linear layer, the classifier and softmax. The pool consumes
    backbone node ``src``, the one producing the exit's mount activation;
    every later node consumes the one before it. ``in_bits`` holds each
    node's input activation bits."""

    src: int
    nodes: tuple[LayerNode, ...]
    in_bits: tuple[int, ...]


@lru_cache(maxsize=16)
def head_builder(backbone: BackboneSpec, bits: int):
    """The cached builder of :func:`head_templates` over one (backbone,
    backbone bits): it hashes the backbone once per architecture, not once
    per exit. The cost engine's ``hwcost.CostCache`` builds each exit's
    head from its (mount, head, bits), without an architecture."""
    base = expand_backbone(backbone, bits)
    mount_node = dict(zip(backbone.mount_labels, base.mounts))

    @lru_cache(maxsize=1024)
    def build(
        mount: str,
        head: ExitHeadSpec,
        exit_bits: int,
        exit_index: int,
        num_classes: int,
    ) -> HeadTemplate:
        src = mount_node[mount]
        h, w, ch = base.nodes[src].output_shape
        g = head.pooled_size
        if h < g or w < g or h % g or w % g:
            raise WorkloadError(
                f"cannot pool {h}x{w} activation to {g}x{g} at mount {mount!r}"
            )
        nodes = [
            LayerNode(
                name=f"x{exit_index}.pool",
                kind="pool",
                input_shape=(h, w, ch),
                output_shape=(g, g, ch),
                macs=0,
                params=0,
                bits=exit_bits,
            )
        ]
        feats = g * g * ch
        if head.depth == 2:
            nodes.append(
                LayerNode(
                    name=f"x{exit_index}.fc1",
                    kind="linear",
                    input_shape=(feats,),
                    output_shape=(head.hidden_width,),
                    macs=feats * head.hidden_width,
                    params=feats * head.hidden_width + head.hidden_width,
                    bits=exit_bits,
                )
            )
            feats = head.hidden_width
        nodes.append(
            LayerNode(
                name=f"x{exit_index}.fc",
                kind="linear",
                input_shape=(feats,),
                output_shape=(num_classes,),
                macs=feats * num_classes,
                params=feats * num_classes + num_classes,
                bits=exit_bits,
            )
        )
        nodes.append(
            LayerNode(
                name=f"x{exit_index}.softmax",
                kind="softmax",
                input_shape=(num_classes,),
                output_shape=(num_classes,),
                macs=0,
                params=0,
                bits=exit_bits,
            )
        )
        in_bits = (
            base.nodes[src].output_bits,
            *(node.output_bits for node in nodes[:-1]),
        )
        return HeadTemplate(src, tuple(nodes), in_bits)

    return build


def head_templates(
    arch: EennArchitecture, num_classes: int = 10
) -> tuple[HeadTemplate, ...]:
    """Every exit's head, in exit order, from a cache keyed on backbone,
    backbone bits, mount, head spec, exit bits, exit index and class count.
    Linear MACs are in*out; pooling and softmax move data but contribute
    zero MACs."""
    build = head_builder(arch.backbone, arch.backbone_bits)
    return tuple(
        build(mount, head, bits, i, num_classes)
        for i, (mount, head, bits) in enumerate(arch.exits, start=1)
    )


def expand_layers(arch: EennArchitecture, num_classes: int = 10) -> LayerGraph:
    """Expand an architecture into its layer graph: the nodes, edges and
    mounts of :func:`expand_backbone`, followed by every exit's
    :func:`head_templates` nodes. Deterministic: equal architectures yield
    identical graphs, node order included.
    """
    base = expand_backbone(arch.backbone, arch.backbone_bits)
    nodes = list(base.nodes)
    edges = list(base.edges)
    for template in head_templates(arch, num_classes):
        first = len(nodes)
        nodes += template.nodes
        edges.append((template.src, first))
        edges += [(k, k + 1) for k in range(first, len(nodes) - 1)]
    return LayerGraph(nodes=tuple(nodes), edges=tuple(edges), mounts=base.mounts)


@lru_cache(maxsize=64)
def backbone_mount_macs(backbone: BackboneSpec) -> tuple[tuple[str, int], ...]:
    """Cumulative backbone-only MACs at each mount label, in mount order.
    Bit width does not change MACs."""
    graph = expand_backbone(backbone, 8)
    return tuple(
        (label, sum(node.macs for node in graph.nodes[: end + 1]))
        for label, end in zip(backbone.mount_labels, graph.mounts)
    )


def exit_macs(arch: EennArchitecture, num_classes: int = 10) -> tuple[int, ...]:
    """MACs executed before a sample can leave at each exit: the backbone
    up to its mount plus the heads of exits 1..i (earlier heads always
    run)."""
    mount_macs = dict(backbone_mount_macs(arch.backbone))
    heads = 0
    out = []
    for placement, template in zip(arch.exits, head_templates(arch, num_classes)):
        heads += sum(node.macs for node in template.nodes)
        out.append(mount_macs[placement.mount] + heads)
    return tuple(out)


def backbone_mac_fractions(backbone: BackboneSpec) -> dict[str, float]:
    """Cumulative backbone MAC fraction at each mount, relative to the full
    backbone (the final mount maps to 1.0)."""
    cum = backbone_mount_macs(backbone)
    total = cum[-1][1]
    return {label: macs / total for label, macs in cum}
