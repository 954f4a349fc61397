"""Shared builders and independent oracles for the test suite."""

import functools
import itertools
import json
import math

import numpy as np

from eenas.arch import BackboneSpec, BlockSpec, ExitHeadSpec, SpaceConfig
from eenas.files import atomic_write
from eenas.hwcost import AcceleratorSpec, AllocationPlan, TensorSource, layer_cost
from eenas.workload import WorkloadError, backbone_mac_fractions


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


#: The README's run config, at seed 0: the benchmark's ``mobilenet-oracle``.
README_RUN = {
    "seed": 0,
    "backbone": "builtin:mobilenetv2_cifar",
    "accelerator": "default",
    "space": {"head_depths": [1, 2], "exit_bits": [8, 4], "backbone_bits": 8},
    "nas": {"iterations": 6, "n_select": 20, "init_population": 50},
    "evaluator": {"kind": "oracle"},
}


#: Non-uniform NoC distances (a line of cores) and a 16 KiB scratchpad, so
#: transfers cross several hops and large layers spill.
LINE_HOP_ACCEL = AcceleratorSpec(
    sram_bytes_per_core=16 * 1024,
    hop_table=tuple(tuple(abs(i - j) for j in range(6)) for i in range(6)),
)

#: A chain of small convolutions with three head and three exit-bit
#: options. Its mounts are so close that heads run at the same time and
#: contend for cores, so where an exit's head goes depends on the heads
#: placed before it; on the two builtin backbones it never does.
CHAIN_SPACE = SpaceConfig(
    backbone=chain_backbone(6, channels=16),
    head_options=(
        ExitHeadSpec(depth=1),
        ExitHeadSpec(depth=2),
        ExitHeadSpec(pooled_size=2, depth=2, hidden_width=64),
    ),
    exit_bit_options=(8, 4, 2),
)


def write_accelerator(spec, path) -> None:
    """Write an accelerator file that ``AcceleratorSpec.load`` reads back."""
    atomic_write(path, json.dumps(spec.to_json(), indent=2, sort_keys=True) + "\n")


def save_external_report(report, architecture_hash: str, path) -> None:
    """Write the one-file-per-architecture report, bound to a chromosome
    hash, that ``load_external_report`` reads back."""
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
    """Every gene vector of a space, in :func:`enumerate_genes` order."""
    return enumerate_genes(
        space.n_optional, space.n_head_options, space.n_quant_options
    )


# The genotype functions as they were while the final exit's two genes were
# read as a pair trailing the per-mount triples, kept as fixed references:
# the functions that read every mount through ``SpaceConfig.mount_genes``
# must equal them output for output and rng draw for rng draw.


def reference_sample_architecture(space, rng):
    genes = []
    for _ in range(space.n_optional):
        present = int(rng.integers(0, 2))
        head = int(rng.integers(0, space.n_head_options))
        quant = int(rng.integers(0, space.n_quant_options))
        if present:
            genes.extend((1, head, quant))
        else:
            genes.extend((0, 0, 0))
    genes.append(int(rng.integers(0, space.n_head_options)))
    genes.append(int(rng.integers(0, space.n_quant_options)))
    return tuple(genes)


def reference_crossover(g1, g2, space, rng):
    c1 = []
    c2 = []
    for j in range(space.n_optional):
        a = g1[3 * j : 3 * j + 3]
        b = g2[3 * j : 3 * j + 3]
        if rng.integers(0, 2):
            a, b = b, a
        c1.extend(a)
        c2.extend(b)
    fa, fb = g1[-2:], g2[-2:]
    if rng.integers(0, 2):
        fa, fb = fb, fa
    c1.extend(fa)
    c2.extend(fb)
    return tuple(c1), tuple(c2)


def reference_mutate(genes, space, rate, rng):
    out = list(genes)
    p, q = space.n_head_options, space.n_quant_options
    for j in range(space.n_optional):
        base = 3 * j
        if rng.random() < rate:
            if out[base]:
                out[base : base + 3] = [0] * 3
            else:
                out[base] = 1
                out[base + 1] = int(rng.integers(0, p))
                out[base + 2] = int(rng.integers(0, q))
            continue
        if out[base]:
            if rng.random() < rate:
                out[base + 1] = int(rng.integers(0, p))
            if rng.random() < rate:
                out[base + 2] = int(rng.integers(0, q))
    if rng.random() < rate:
        out[-2] = int(rng.integers(0, p))
    if rng.random() < rate:
        out[-1] = int(rng.integers(0, q))
    return tuple(out)


def reference_encode(arch, space):
    """``encode`` of an in-space architecture."""
    by_mount = {e.mount: e for e in arch.exits}
    genes = []
    for label in space.backbone.optional_mounts:
        if label in by_mount:
            e = by_mount[label]
            genes.extend((1, space.head_options.index(e.head),
                          space.exit_bit_options.index(e.bits)))
        else:
            genes.extend((0, 0, 0))
    final = arch.exits[-1]
    genes.append(space.head_options.index(final.head))
    genes.append(space.exit_bit_options.index(final.bits))
    return tuple(genes)


def reference_featurize(genes, space):
    """``featurize``, reading the space's tables afresh on every call."""
    if len(genes) != space.gene_length:
        raise ValueError(f"expected {space.gene_length} genes, got {len(genes)}")
    fractions = backbone_mac_fractions(space.backbone)
    labels = space.backbone.optional_mounts
    occupancy = []
    frac = []
    depth = []
    bits = []
    for j, label in enumerate(labels):
        present, head_idx, quant_idx = genes[3 * j : 3 * j + 3]
        occupancy.append(float(present))
        frac.append(fractions[label] if present else 0.0)
        depth.append(float(space.head_options[head_idx].depth) if present else 0.0)
        bits.append(float(space.exit_bit_options[quant_idx]) if present else 0.0)
    fh, fq = genes[-2], genes[-1]
    depth.append(float(space.head_options[fh].depth))
    bits.append(float(space.exit_bit_options[fq]))
    n_exits = sum(occupancy) + 1.0
    return np.array(
        [n_exits, *occupancy, *frac, *depth, *bits, float(space.backbone_bits)]
    )


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


#: ``layer_cost`` is pure, so the reference memoizes it: the exhaustive pass
#: then costs each distinct (layer, core, inputs) once, while the greedy and
#: schedule loops under comparison stay as they were.
reference_layer_cost = functools.lru_cache(maxsize=1 << 16)(layer_cost)


def reference_sources(graph, idx, cores):
    """Where each input of node ``idx`` lives, given the cores of the nodes
    before it: a graph input streams from off-chip."""
    producers = graph.producers(idx)
    if not producers:
        node = graph.nodes[idx]
        return (TensorSource(bits=math.prod(node.input_shape) * node.bits, core=None),)
    return tuple(
        TensorSource(bits=graph.nodes[p].output_bits, core=cores[p]) for p in producers
    )


def reference_greedy_assignment(graph, spec):
    """Greedy earliest-finish cores of every node, in node order, ties to
    the lowest core id."""
    cores = [-1] * len(graph.nodes)
    free = [0] * spec.n_cores
    end = [0] * len(graph.nodes)
    for idx, node in enumerate(graph.nodes):
        best_core = -1
        best_finish = None
        ready = max((end[p] for p in graph.producers(idx)), default=0)
        sources = reference_sources(graph, idx, cores)
        for core in spec.compatible_cores(node.kind):
            cost = reference_layer_cost(node, core, spec, sources)
            finish = max(free[core], ready) + cost.cycles
            if best_finish is None or finish < best_finish:
                best_finish = finish
                best_core = core
        cores[idx] = best_core
        end[idx] = best_finish
        free[best_core] = best_finish
    return cores


def reference_schedule(graph, spec, assignment):
    """The plan of a fixed assignment: each node starts once its core is
    free and its producers have finished."""
    cores = list(assignment)
    free = [0] * spec.n_cores
    start = [0] * len(graph.nodes)
    end = [0] * len(graph.nodes)
    costs = []
    for idx, node in enumerate(graph.nodes):
        core = cores[idx]
        cost = reference_layer_cost(
            node, core, spec, reference_sources(graph, idx, cores)
        )
        ready = max((end[p] for p in graph.producers(idx)), default=0)
        start[idx] = max(free[core], ready)
        end[idx] = start[idx] + cost.cycles
        free[core] = end[idx]
        costs.append(cost)
    return AllocationPlan(
        assignment=tuple(cores),
        start=tuple(start),
        end=tuple(end),
        free=tuple(free),
        layer_costs=tuple(costs),
    )


#: The floor-and-correct grid step as it was before it estimated k by a
#: reciprocal and skipped corrections that select nothing, kept verbatim as
#: the fixed reference for ``quant.grid_points``.
def reference_grid_points(x, scale, levels, lower, out, work):
    """Write into ``out`` the greatest grid point ``k * scale`` not above
    ``x``, with k clipped to [``lower``, ``levels``]; ``x`` is already
    clamped, and ``out`` may be ``x`` itself.

    The quotient ``x / scale`` can land one step off the true grid after
    rounding, so the floor is corrected once each way against the actual
    floating-point products. The corrections write through ``where=``,
    which leaves unselected entries untouched exactly as ``np.where`` would,
    so no sign of zero changes. ``scale``, ``levels`` and ``lower``
    (normally ``-levels``) are scalars or arrays broadcasting against
    ``x``; ``lower`` is None where ``x`` holds no negative value, so that
    it could not bind. ``work`` holds the steps k, their products and the
    comparison hits: two float arrays and one bool array shaped like ``x``.
    """
    k, prod, hit = work
    np.divide(x, scale, out=k)
    np.floor(k, out=k)
    np.multiply(k, scale, out=prod)
    np.greater(prod, x, out=hit)
    np.subtract(k, 1.0, out=k, where=hit)
    np.add(k, 1.0, out=prod)
    np.multiply(prod, scale, out=prod)
    np.less_equal(prod, x, out=hit)
    np.add(k, 1.0, out=k, where=hit)
    # Clamping from above, then below, equals np.clip for bounds that are
    # not zero, NaN included.
    np.minimum(k, levels, out=k)
    if lower is not None:
        np.maximum(k, lower, out=k)
    return np.multiply(k, scale, out=out)


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
