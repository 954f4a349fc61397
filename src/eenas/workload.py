"""Per-layer workload expansion.

Turns an architecture into a flat producer/consumer graph of layer nodes with
resolved tensor shapes, MAC and parameter counts, and precision bits. Each
node is tagged with the exit it belongs to: backbone nodes carry the index of
the first exit at or after them, head nodes carry their exit's index. The
cost engine and MAC accounting work purely on this graph.

Bottleneck blocks expand to the inverted-residual sequence (1x1 expansion,
kxk depthwise at the expanded width, 1x1 projection, residual add when the
stride is 1 and channel counts match).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, cached_property

from .arch import BackboneSpec, EennArchitecture

MATRIX_KINDS = ("conv", "depthwise-conv", "linear")
DATAFLOW_KINDS = ("pool", "elementwise-add", "softmax")


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


def _conv_out(size: int, kernel: int, padding: int, stride: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def expand_layers(arch: EennArchitecture, num_classes: int = 10) -> LayerGraph:
    """Expand an architecture into its layer graph.

    Convolution MACs are Kh*Kw*Cin*Cout*Hout*Wout (depthwise drops the Cin
    factor), linear MACs are in*out; pooling, residual adds and softmax move
    data but contribute zero MACs. Deterministic: equal architectures yield
    identical graphs, node order included.
    """
    backbone = arch.backbone
    instances = backbone.instances
    k = backbone.kernel
    t = backbone.expansion

    mount_pos = {}
    for idx, inst in enumerate(instances):
        if inst.mount is not None:
            mount_pos[inst.mount] = idx
    exit_positions = []
    for placement in arch.exits:
        if placement.mount not in mount_pos:
            raise WorkloadError(f"mount label {placement.mount!r} not in backbone")
        exit_positions.append(mount_pos[placement.mount])

    # Exit segment of each block instance: first exit at or after it.
    segment_of = {}
    for pos in range(len(instances)):
        for i, mount in enumerate(exit_positions, start=1):
            if mount >= pos:
                segment_of[pos] = i
                break
        else:
            segment_of[pos] = None  # past the last mount; unreachable layers

    nodes: list[LayerNode] = []
    edges: list[tuple[int, int]] = []
    bits_bb = arch.quant.backbone_bits

    def add_node(node: LayerNode, *producers: int) -> int:
        nodes.append(node)
        idx = len(nodes) - 1
        for p in producers:
            edges.append((p, idx))
        return idx

    last = -1  # index of the node producing the current trunk activation
    producer_at: list[int] = []  # trunk producer index after each instance
    for pos, inst in enumerate(instances):
        seg = segment_of[pos]
        if seg is None:
            break  # layers past the final exit are never executed
        owner = ("backbone", seg)
        h, w = inst.in_size
        ho, wo = inst.out_size
        cin, cout = inst.in_channels, inst.out_channels
        if inst.kind == "conv2d":
            macs = k * k * cin * cout * ho * wo
            last = add_node(
                LayerNode(
                    name=f"b{pos}.conv",
                    kind="conv",
                    input_shape=(h, w, cin),
                    output_shape=(ho, wo, cout),
                    macs=macs,
                    params=k * k * cin * cout + cout,
                    bits=bits_bb,
                    owner=owner,
                ),
                *([last] if last >= 0 else []),
            )
        else:
            hidden = cin * t
            block_in = last
            expand = add_node(
                LayerNode(
                    name=f"b{pos}.expand",
                    kind="conv",
                    input_shape=(h, w, cin),
                    output_shape=(h, w, hidden),
                    macs=cin * hidden * h * w,
                    params=cin * hidden + hidden,
                    bits=bits_bb,
                    owner=owner,
                ),
                *([block_in] if block_in >= 0 else []),
            )
            dw = add_node(
                LayerNode(
                    name=f"b{pos}.dw",
                    kind="depthwise-conv",
                    input_shape=(h, w, hidden),
                    output_shape=(ho, wo, hidden),
                    macs=k * k * hidden * ho * wo,
                    params=k * k * hidden + hidden,
                    bits=bits_bb,
                    owner=owner,
                ),
                expand,
            )
            project = add_node(
                LayerNode(
                    name=f"b{pos}.project",
                    kind="conv",
                    input_shape=(ho, wo, hidden),
                    output_shape=(ho, wo, cout),
                    macs=hidden * cout * ho * wo,
                    params=hidden * cout + cout,
                    bits=bits_bb,
                    owner=owner,
                ),
                dw,
            )
            if inst.stride == 1 and cin == cout and block_in >= 0:
                last = add_node(
                    LayerNode(
                        name=f"b{pos}.add",
                        kind="elementwise-add",
                        input_shape=(ho, wo, cout),
                        output_shape=(ho, wo, cout),
                        macs=0,
                        params=0,
                        bits=bits_bb,
                        owner=owner,
                    ),
                    block_in,
                    project,
                )
            else:
                last = project
        producer_at.append(last)

    for i, placement in enumerate(arch.exits, start=1):
        head = placement.head
        bits = arch.quant.exit_bits[i - 1]
        owner = ("exit", i)
        pos = exit_positions[i - 1]
        src = producer_at[pos]
        h, w = instances[pos].out_size
        ch = instances[pos].out_channels
        g = head.pooled_size
        if h < g or w < g or h % g or w % g:
            raise WorkloadError(
                f"cannot pool {h}x{w} activation to {g}x{g} at mount "
                f"{placement.mount!r}"
            )
        pool = add_node(
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
            fc1 = add_node(
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
        fc = add_node(
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
        add_node(
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

    return LayerGraph(nodes=tuple(nodes), edges=tuple(edges))


def cumulative_macs(graph: LayerGraph, exit_index: int) -> int:
    """MACs executed before a sample can leave at ``exit_index``: the
    backbone up to its mount plus every earlier head (those always run)."""
    if not 1 <= exit_index <= graph.exit_count:
        raise WorkloadError(f"exit index {exit_index} out of range")
    return sum(n.macs for n in graph.nodes if n.owner[1] <= exit_index)


@lru_cache(maxsize=64)
def backbone_mount_macs(backbone: BackboneSpec) -> tuple[tuple[str, int], ...]:
    """Cumulative backbone-only MACs at each mount label, in mount order."""
    k = backbone.kernel
    t = backbone.expansion
    running = 0
    out = []
    for inst in backbone.instances:
        h, w = inst.in_size
        ho, wo = inst.out_size
        cin, cout = inst.in_channels, inst.out_channels
        if inst.kind == "conv2d":
            running += k * k * cin * cout * ho * wo
        else:
            hidden = cin * t
            running += cin * hidden * h * w
            running += k * k * hidden * ho * wo
            running += hidden * cout * ho * wo
        if inst.mount is not None:
            out.append((inst.mount, running))
    return tuple(out)


def backbone_mac_fractions(backbone: BackboneSpec) -> dict[str, float]:
    """Cumulative backbone MAC fraction at each mount, relative to the full
    backbone (the final mount maps to 1.0)."""
    cum = backbone_mount_macs(backbone)
    total = cum[-1][1]
    return {label: macs / total for label, macs in cum}
