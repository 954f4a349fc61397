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
    (hence acyclic), nonnegative MACs, and exits depending only on backbone
    at or before their mount."""
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


def spearman(a, b) -> float:
    ra = np.argsort(np.argsort(np.asarray(a)))
    rb = np.argsort(np.argsort(np.asarray(b)))
    return float(np.corrcoef(ra, rb)[0, 1])


def reference_exit_products(graph, costs):
    """Per-exit energy-delay products and head overheads of a full layer
    graph, each summed over its own scan of the node list by owner tag:
    exit i runs every node tagged with an index up to i."""

    def energy_delay(selects):
        idx = [i for i, n in enumerate(graph.nodes) if selects(n.owner)]
        return sum(costs[i].energy_pj for i in idx) * sum(costs[i].cycles for i in idx)

    m = max(i for kind, i in (n.owner for n in graph.nodes) if kind == "exit")
    et_values = tuple(energy_delay(lambda o: o[1] <= i) for i in range(1, m + 1))
    overheads = []
    for i in range(1, m):
        head = energy_delay(lambda o: o == ("exit", i))
        segment = energy_delay(lambda o: o == ("backbone", i + 1))
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
