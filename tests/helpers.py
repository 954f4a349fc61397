"""Shared builders and independent oracles for the test suite."""

import itertools
import json
import math

import numpy as np

from eenas.arch import BackboneSpec, BlockSpec, Chromosome
from eenas.files import atomic_write
from eenas.workload import WorkloadError


def chain_backbone(n_mounts: int, channels: int = 8, size: int = 8) -> BackboneSpec:
    """A plain conv chain with one mounting point after each labeled block;
    n_mounts - 1 optional mounts plus the final one."""
    blocks = [BlockSpec("conv2d", 1, channels, 1)]
    blocks += [
        BlockSpec("conv2d", 1, channels, 1, (f"M{i}",)) for i in range(n_mounts)
    ]
    return BackboneSpec(
        blocks=tuple(blocks), input_shape=(size, size, 3), kernel=3, padding=1
    )


def write_accelerator(spec, path) -> None:
    """Write an accelerator file that ``AcceleratorSpec.load`` reads back."""
    atomic_write(path, json.dumps(spec.to_json(), indent=2, sort_keys=True) + "\n")


def save_external_report(report, architecture_hash: str, path) -> None:
    """Write the one-file-per-architecture report, bound to a chromosome
    hash, that ``load_external_report`` reads back."""
    report.validate()
    payload = {
        "architecture": architecture_hash,
        "threshold": report.threshold,
        "accuracy_per_exit": list(report.accuracy_per_exit),
        "exit_ratios": list(report.exit_ratios),
        "sample_counts": list(report.sample_counts),
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def enumerate_genes(n_optional: int, n_heads: int, n_quants: int):
    """Yield every canonical gene vector of a space exactly once: the
    brute-force reference for ``search_space_size``."""
    mount_options = [(0, 0, 0)] + [
        (1, h, q) for h in range(n_heads) for q in range(n_quants)
    ]
    final_options = [(h, q) for h in range(n_heads) for q in range(n_quants)]
    for combo in itertools.product(mount_options, repeat=n_optional):
        prefix = tuple(itertools.chain.from_iterable(combo))
        for final in final_options:
            yield prefix + final


def enumerate_space(space):
    """Every chromosome of a space, in :func:`enumerate_genes` order."""
    for genes in enumerate_genes(
        space.n_optional, space.n_head_options, space.n_quant_options
    ):
        yield Chromosome(genes)


def validate_graph(graph) -> None:
    """Check structural invariants of a layer graph: topological edge order
    (hence acyclic), nonnegative MACs, and each head's pool consuming a
    node listed in ``mounts``."""
    for src, dst in graph.edges:
        if not (0 <= src < dst < len(graph.nodes)):
            raise WorkloadError(f"edge ({src}, {dst}) breaks topological order")
    for node in graph.nodes:
        if node.macs < 0:
            raise WorkloadError(f"negative MACs on {node.name}")
    for src, dst in graph.edges:
        if graph.nodes[dst].kind == "pool" and src not in graph.mounts:
            raise WorkloadError(
                f"{graph.nodes[dst].name} consumes {graph.nodes[src].name}, "
                "which produces no mount activation"
            )


def ancestors(graph, idx) -> set[int]:
    """Node ``idx`` and every node it reaches through producer edges."""
    seen = set()
    stack = [idx]
    while stack:
        k = stack.pop()
        if k not in seen:
            seen.add(k)
            stack += graph.producers(k)
    return seen


def exit_runs(graph) -> list[list[int]]:
    """Per exit, the nodes a sample leaving there has run, in node order:
    the ancestors of the softmax nodes of exits 1..i. Heads follow the
    backbone in exit order, so the softmax nodes come in exit order."""
    runs = []
    ran = set()
    for k, node in enumerate(graph.nodes):
        if node.kind == "softmax":
            ran |= ancestors(graph, k)
            runs.append(sorted(ran))
    return runs


def graph_fields(graph):
    """A layer graph as plain values for the digests that pin it: each
    node's name, kind, shapes, MACs, parameters and bits, then the edges."""
    nodes = tuple(
        (n.name, n.kind, n.input_shape, n.output_shape, n.macs, n.params, n.bits)
        for n in graph.nodes
    )
    return nodes, graph.edges


def spearman(a, b) -> float:
    ra = np.argsort(np.argsort(np.asarray(a)))
    rb = np.argsort(np.argsort(np.asarray(b)))
    return float(np.corrcoef(ra, rb)[0, 1])


def reference_exit_products(graph, costs):
    """Per-exit energy-delay products and head overheads of a full layer
    graph, read from its edges alone and each summed in node order: exit i
    runs :func:`exit_runs`. Its head is what its softmax reaches beyond
    the node its pool consumes (its mount node), and the backbone segment
    after it is what the next exit's mount node reaches beyond this one."""

    def energy_delay(idx):
        idx = sorted(idx)
        return sum(costs[i].energy_pj for i in idx) * sum(costs[i].cycles for i in idx)

    softmaxes = [k for k, n in enumerate(graph.nodes) if n.kind == "softmax"]
    reach = [ancestors(graph, k) for k in softmaxes]
    pools = [next(k for k in r if graph.nodes[k].kind == "pool") for r in reach]
    below = [ancestors(graph, graph.producers(pool)[0]) for pool in pools]
    et_values = tuple(energy_delay(run) for run in exit_runs(graph))
    overheads = []
    for i in range(len(softmaxes) - 1):
        head = energy_delay(reach[i] - below[i])
        segment = energy_delay(below[i + 1] - below[i])
        overheads.append(math.inf if segment == 0 else head / segment)
    return et_values, tuple(overheads)


def conv_macs_elementwise(h, w, cin, cout, kernel, stride, padding) -> int:
    """Count MACs one kernel tap at a time (padding taps included, as in
    standard MAC accounting)."""
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    total = 0
    for _y in range(ho):
        for _x in range(wo):
            for _co in range(cout):
                for _ky in range(kernel):
                    for _kx in range(kernel):
                        for _ci in range(cin):
                            total += 1
    return total


def depthwise_macs_elementwise(h, w, channels, kernel, stride, padding) -> int:
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    total = 0
    for _y in range(ho):
        for _x in range(wo):
            for _c in range(channels):
                for _ky in range(kernel):
                    for _kx in range(kernel):
                        total += 1
    return total


def linear_macs_elementwise(n_in, n_out) -> int:
    total = 0
    for _o in range(n_out):
        for _i in range(n_in):
            total += 1
    return total
