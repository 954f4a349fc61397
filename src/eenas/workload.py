"""Per-layer workload expansion.

Turns an architecture into a flat producer/consumer graph of layer nodes with
resolved tensor shapes, MAC and parameter counts, and precision bits. Each
node is tagged with the exit it belongs to: backbone nodes carry the index of
the first exit at or after them, head nodes carry their exit's index. The
cost engine and MAC accounting work purely on this graph. The backbone part
is expanded once per (backbone, bits) by ``expand_backbone`` and shared by
every architecture over it; ``attach_heads`` appends an architecture's
heads to it without retagging, which is all a cost needs.

Bottleneck blocks expand to the inverted-residual sequence (1x1 expansion,
kxk depthwise at the expanded width, 1x1 projection, residual add when the
stride is 1 and channel counts match).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

from .arch import BackboneSpec, EennArchitecture

MATRIX_KINDS = ("conv", "depthwise-conv", "linear")


class WorkloadError(ValueError):
    """Architecture cannot be expanded into a layer graph."""


@dataclass(frozen=True)
class LayerNode:
    """One executable layer. ``owner`` is ("backbone", i) for nodes in the
    segment feeding exit i, or ("exit", i) for head nodes of exit i."""

    name: str
    kind: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    macs: int
    params: int
    bits: int
    owner: tuple[str, int]

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
    """Immutable layer DAG; node order is topological by construction."""

    nodes: tuple[LayerNode, ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def _producers(self) -> tuple[tuple[int, ...], ...]:
        prod: list[list[int]] = [[] for _ in self.nodes]
        for src, dst in self.edges:
            prod[dst].append(src)
        return tuple(tuple(p) for p in prod)

    def producers(self, idx: int) -> tuple[int, ...]:
        return self._producers[idx]

    @cached_property
    def exit_count(self) -> int:
        return max(i for kind, i in (n.owner for n in self.nodes) if kind == "exit")

    @cached_property
    def _by_owner(self) -> dict[tuple[str, int], tuple[int, ...]]:
        groups: dict[tuple[str, int], list[int]] = {}
        for i, n in enumerate(self.nodes):
            groups.setdefault(n.owner, []).append(i)
        return {owner: tuple(idx) for owner, idx in groups.items()}

    def nodes_for_exit(self, exit_index: int) -> tuple[int, ...]:
        """Everything executed before a sample can leave at ``exit_index``:
        backbone segments up to its mount plus the heads of exits 1..i, in
        node order."""
        if not 1 <= exit_index <= self.exit_count:
            raise WorkloadError(f"exit index {exit_index} out of range")
        return tuple(
            sorted(
                i
                for (_, level), idx in self._by_owner.items()
                if level <= exit_index
                for i in idx
            )
        )

    def head_nodes(self, exit_index: int) -> tuple[int, ...]:
        return self._by_owner.get(("exit", exit_index), ())

    def backbone_segment(self, exit_index: int) -> tuple[int, ...]:
        """Backbone nodes strictly between mount ``exit_index - 1`` and mount
        ``exit_index``."""
        return self._by_owner.get(("backbone", exit_index), ())

    @property
    def total_macs(self) -> int:
        return sum(n.macs for n in self.nodes)


def validate_graph(graph: LayerGraph) -> None:
    """Check structural invariants: topological edge order (hence acyclic),
    nonnegative MACs, and exits depending only on backbone at or before
    their mount."""
    for src, dst in graph.edges:
        if not (0 <= src < dst < len(graph.nodes)):
            raise WorkloadError(f"edge ({src}, {dst}) breaks topological order")
    for node in graph.nodes:
        if node.macs < 0:
            raise WorkloadError(f"negative MACs on {node.name}")
    for src, dst in graph.edges:
        consumer = graph.nodes[dst]
        producer = graph.nodes[src]
        if consumer.owner[0] == "exit":
            i = consumer.owner[1]
            if producer.owner[1] > i:
                raise WorkloadError(
                    f"{consumer.name} depends on {producer.name} past its mount"
                )


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
    factor); residual adds contribute zero MACs. A node is owned by
    ("backbone", j), j being the 1-based index of the first mount label at
    or after its block, so the last node of group j produces the activation
    at mount j. Every architecture over ``backbone`` starts with exactly
    these nodes and edges; only their owner tags differ.
    """
    k = backbone.kernel
    t = backbone.expansion
    nodes: list[LayerNode] = []
    edges: list[tuple[int, int]] = []
    add = partial(_add_node, nodes, edges)
    group = 1
    last = -1  # index of the node producing the current trunk activation
    for pos, inst in enumerate(backbone.instances):
        owner = ("backbone", group)
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
                    owner=owner,
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
                    owner=owner,
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
                    owner=owner,
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
                    owner=owner,
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
                        owner=owner,
                    ),
                    *block_in,
                    last,
                )
        if inst.mount is not None:
            group += 1
    return LayerGraph(nodes=tuple(nodes), edges=tuple(edges))


def attach_heads(
    arch: EennArchitecture, num_classes: int = 10
) -> tuple[LayerGraph, tuple[int, ...]]:
    """The nodes and edges of :func:`expand_backbone`, still owned by
    their groups, followed by every exit's head, and per exit the group it
    is mounted on. Linear MACs are in*out; pooling and softmax move data
    but contribute zero MACs."""
    base = expand_backbone(arch.backbone, arch.quant.backbone_bits)
    group_of = {label: j for j, label in enumerate(arch.backbone.mount_labels, 1)}
    exit_groups = tuple(group_of[placement.mount] for placement in arch.exits)
    nodes = list(base.nodes)
    edges = list(base.edges)
    add = partial(_add_node, nodes, edges)

    for i, placement in enumerate(arch.exits, start=1):
        head = placement.head
        bits = arch.quant.exit_bits[i - 1]
        owner = ("exit", i)
        src = base.backbone_segment(exit_groups[i - 1])[-1]
        h, w, ch = base.nodes[src].output_shape
        g = head.pooled_size
        if h < g or w < g or h % g or w % g:
            raise WorkloadError(
                f"cannot pool {h}x{w} activation to {g}x{g} at mount "
                f"{placement.mount!r}"
            )
        pool = add(
            LayerNode(
                name=f"x{i}.pool",
                kind="pool",
                input_shape=(h, w, ch),
                output_shape=(g, g, ch),
                macs=0,
                params=0,
                bits=bits,
                owner=owner,
            ),
            src,
        )
        feats = g * g * ch
        if head.depth == 2:
            fc1 = add(
                LayerNode(
                    name=f"x{i}.fc1",
                    kind="linear",
                    input_shape=(feats,),
                    output_shape=(head.hidden_width,),
                    macs=feats * head.hidden_width,
                    params=feats * head.hidden_width + head.hidden_width,
                    bits=bits,
                    owner=owner,
                ),
                pool,
            )
            feats = head.hidden_width
            prev = fc1
        else:
            prev = pool
        fc = add(
            LayerNode(
                name=f"x{i}.fc",
                kind="linear",
                input_shape=(feats,),
                output_shape=(num_classes,),
                macs=feats * num_classes,
                params=feats * num_classes + num_classes,
                bits=bits,
                owner=owner,
            ),
            prev,
        )
        add(
            LayerNode(
                name=f"x{i}.softmax",
                kind="softmax",
                input_shape=(num_classes,),
                output_shape=(num_classes,),
                macs=0,
                params=0,
                bits=bits,
                owner=owner,
            ),
            fc,
        )

    return LayerGraph(nodes=tuple(nodes), edges=tuple(edges)), exit_groups


def expand_layers(arch: EennArchitecture, num_classes: int = 10) -> LayerGraph:
    """Expand an architecture into its layer graph: :func:`attach_heads`,
    with each backbone node retagged with the first exit at or after it.
    Deterministic: equal architectures yield identical graphs, node order
    included.
    """
    graph, exit_groups = attach_heads(arch, num_classes)
    # EennArchitecture keeps exits on known mounts in depth order, the last
    # one at the final mount, so every group has an exit at or after it.
    owners = [
        ("backbone", bisect_left(exit_groups, j) + 1)
        for j in range(1, len(arch.backbone.mount_labels) + 1)
    ]
    nodes = tuple(
        LayerNode(
            n.name, n.kind, n.input_shape, n.output_shape, n.macs, n.params,
            n.bits, owners[n.owner[1] - 1],
        )
        if n.owner[0] == "backbone"
        else n
        for n in graph.nodes
    )
    return LayerGraph(nodes=nodes, edges=graph.edges)


def cumulative_macs(graph: LayerGraph, exit_index: int) -> int:
    """MACs executed before a sample can leave at ``exit_index``: the
    backbone up to its mount plus every earlier head (those always run)."""
    return sum(graph.nodes[i].macs for i in graph.nodes_for_exit(exit_index))


@lru_cache(maxsize=64)
def backbone_mount_macs(backbone: BackboneSpec) -> tuple[tuple[str, int], ...]:
    """Cumulative backbone-only MACs at each mount label, in mount order.
    Bit width does not change MACs."""
    graph = expand_backbone(backbone, 8)
    running = 0
    out = []
    for j, label in enumerate(backbone.mount_labels, start=1):
        running += sum(graph.nodes[i].macs for i in graph.backbone_segment(j))
        out.append((label, running))
    return tuple(out)


def backbone_mac_fractions(backbone: BackboneSpec) -> dict[str, float]:
    """Cumulative backbone MAC fraction at each mount, relative to the full
    backbone (the final mount maps to 1.0)."""
    cum = backbone_mount_macs(backbone)
    total = cum[-1][1]
    return {label: macs / total for label, macs in cum}
