"""Analytical cost engine for a heterogeneous multi-core edge accelerator.

The modeled device has identical systolic compute cores (a rows x cols MAC
array mapping output x input channels), an optional pooling core, an optional
SIMD core for elementwise work, a per-core SRAM scratchpad, one off-chip link
shared at a fixed bits/cycle rate, and a hop-counted NoC.

Per layer: array utilization follows from how the channel dimensions tile
the array; compute cycles are MACs over the effective throughput; off-chip
streaming (weights always, activations when not locally resident) stalls the
layer; compute and streaming overlap under double buffering while NoC
transfers serialize. Energy sums MAC work (quadratic in bit width), SRAM
staging of incoming data, off-chip traffic, and per-hop NoC traffic.

Energy-latency products over a set of layers always take the form
(sum of energies) * (sum of cycles) over exactly that set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .arch import BackboneSpec, EennArchitecture, hash_once
from .files import check_exit_ratios, check_fields, is_int, is_object, load_json
from .workload import (
    MATRIX_KINDS,
    LayerGraph,
    LayerNode,
    expand_backbone,
    expand_layers,
    head_templates,
)


class CostModelError(ValueError):
    """Invalid accelerator description or cost query."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


#: Most compute cores an accelerator may have. Costing places every matrix
#: layer on every compute core, so its time grows faster than linearly
#: with the count (``eenas cost`` took 0.16 s at 256 cores, 1.66 s at 1,024).
MAX_COMPUTE_CORES = 256


@hash_once
@dataclass(frozen=True)
class AcceleratorSpec:
    """Accelerator description. Defaults model a quad-core edge tensor
    accelerator: 4 x 512 MACs/cycle (16x32 arrays), pooling and SIMD cores,
    2 MiB SRAM per core, a 64 bits/cycle off-chip link. Energy constants are
    literature-scaled placeholders, fully configurable. At most
    ``MAX_COMPUTE_CORES`` compute cores."""

    compute_cores: int = 4
    macs_per_cycle: int = 512
    array_rows: int = 16
    array_cols: int = 32
    pool_core: bool = True
    simd_core: bool = True
    sram_bytes_per_core: int = 2 * 1024 * 1024
    offchip_bits_per_cycle: int = 64
    noc_bits_per_cycle: int = 64
    e_mac8_pj: float = 0.2
    e_sram_pj_bit: float = 0.05
    e_dram_pj_bit: float = 3.0
    e_noc_pj_bit_hop: float = 0.1
    hop_table: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        check_fields(self, CostModelError)
        counts = (self.compute_cores, self.macs_per_cycle, self.array_rows,
                  self.array_cols, self.sram_bytes_per_core,
                  self.offchip_bits_per_cycle, self.noc_bits_per_cycle)
        if any(v < 1 for v in counts):
            raise CostModelError("counts and bandwidths must be positive")
        if self.compute_cores > MAX_COMPUTE_CORES:
            raise CostModelError(
                f"compute_cores must be at most {MAX_COMPUTE_CORES}"
            )
        if not all(isinstance(v, bool) for v in (self.pool_core, self.simd_core)):
            raise CostModelError("pool_core and simd_core must be true or false")
        energies = (self.e_mac8_pj, self.e_sram_pj_bit, self.e_dram_pj_bit,
                    self.e_noc_pj_bit_hop)
        if any(v <= 0 for v in energies):
            raise CostModelError("energy constants must be positive")
        if self.array_rows * self.array_cols != self.macs_per_cycle:
            raise CostModelError("array rows*cols must equal MACs per cycle")
        if self.hop_table is not None:
            n = self.n_cores
            if len(self.hop_table) != n or any(len(r) != n for r in self.hop_table):
                raise CostModelError("hop table must be n_cores x n_cores")
            if not all(is_int(h) for r in self.hop_table for h in r):
                raise CostModelError("hop counts must be integers")
            for i in range(n):
                if self.hop_table[i][i] != 0:
                    raise CostModelError("hop table diagonal must be zero")
                if any(h < 1 for j, h in enumerate(self.hop_table[i]) if j != i):
                    raise CostModelError("off-diagonal hop counts must be >= 1")

    @property
    def n_cores(self) -> int:
        return self.compute_cores + int(self.pool_core) + int(self.simd_core)

    @property
    def sram_bits(self) -> int:
        return self.sram_bytes_per_core * 8

    def core_kind(self, core: int) -> str:
        if 0 <= core < self.compute_cores:
            return "compute"
        pool_id = self.compute_cores
        if self.pool_core and core == pool_id:
            return "pool"
        simd_id = self.compute_cores + int(self.pool_core)
        if self.simd_core and core == simd_id:
            return "simd"
        raise CostModelError(f"no core with id {core}")

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        if self.hop_table is not None:
            return self.hop_table[src][dst]
        return 1

    def compatible_cores(self, layer_kind: str) -> tuple[int, ...]:
        if layer_kind in MATRIX_KINDS:
            return tuple(range(self.compute_cores))
        if layer_kind == "pool":
            if not self.pool_core:
                raise CostModelError("no pooling core for a pool layer")
            return (self.compute_cores,)
        if layer_kind in ("elementwise-add", "softmax"):
            if not self.simd_core:
                raise CostModelError(f"no SIMD core for a {layer_kind} layer")
            return (self.compute_cores + int(self.pool_core),)
        raise CostModelError(f"unknown layer kind {layer_kind!r}")

    def e_mac_pj(self, bits: int) -> float:
        return self.e_mac8_pj * (bits / 8.0) ** 2

    def to_json(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        del data["hop_table"]
        if self.hop_table is not None:
            data["hop_table"] = [list(r) for r in self.hop_table]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "AcceleratorSpec":
        if not is_object(data):
            raise CostModelError("accelerator must be a JSON object")
        kwargs = dict(data)
        try:
            if kwargs.get("hop_table") is not None:
                kwargs["hop_table"] = tuple(map(tuple, kwargs["hop_table"]))
            return cls(**kwargs)
        except TypeError as exc:
            raise CostModelError(f"bad accelerator field: {exc}") from exc

    @classmethod
    def load(cls, path: str) -> "AcceleratorSpec":
        return cls.from_json(load_json(path, CostModelError, "accelerator"))


class TensorSource(NamedTuple):
    """Where one of a layer's input tensors lives: a producing core, or
    off-chip when ``core`` is None."""

    bits: int
    core: int | None


@dataclass(frozen=True)
class LayerCost:
    """Energy/latency of one layer on one core, with the full breakdown."""

    energy_pj: float
    cycles: int
    compute_energy_pj: float
    sram_energy_pj: float
    dram_energy_pj: float
    noc_energy_pj: float
    compute_cycles: int
    stall_cycles: int
    transfer_cycles: int
    utilization: float
    spilled: bool = False


def array_utilization(layer: LayerNode, spec: AcceleratorSpec) -> float:
    """Fraction of the MAC array doing useful work. Output channels map to
    rows, input channels to columns; depthwise layers feed a single input
    channel per output, leaving the columns idle. Non-matrix layers use
    their core fully."""
    if layer.kind not in MATRIX_KINDS:
        return 1.0
    cin, cout = _matrix_dims(layer)
    r = _ceil_div(cout, spec.array_rows)
    c = _ceil_div(cin, spec.array_cols)
    return (cout / (spec.array_rows * r)) * (cin / (spec.array_cols * c))


def _matrix_dims(layer: LayerNode) -> tuple[int, int]:
    """(input, output) channels; a linear layer's shapes are its widths."""
    if layer.kind not in MATRIX_KINDS:
        raise CostModelError(f"{layer.kind} has no matrix mapping")
    if layer.kind == "depthwise-conv":
        return 1, layer.output_shape[-1]
    return layer.input_shape[-1], layer.output_shape[-1]


def layer_cost(
    layer: LayerNode,
    core: int,
    spec: AcceleratorSpec,
    inputs: Sequence[TensorSource],
) -> LayerCost:
    """Cost of running ``layer`` on ``core`` given where its inputs live.

    Weights always stream from off-chip. Inputs resident on the same core
    are free; inputs from another core cross the NoC and are staged into
    SRAM; off-chip inputs stream over the shared link. If the working set
    exceeds the scratchpad, activations fall back to full off-chip
    streaming (flagged, never an error).
    """
    kind = spec.core_kind(core)
    needed = spec.compatible_cores(layer.kind)
    if core not in needed:
        raise CostModelError(
            f"layer kind {layer.kind!r} cannot run on a {kind} core"
        )

    if layer.macs:
        cin, cout = _matrix_dims(layer)
        r = _ceil_div(cout, spec.array_rows)
        c = _ceil_div(cin, spec.array_cols)
        # ceil(MACs / (macs_per_cycle * utilization)), kept in integers.
        compute_cycles = _ceil_div(layer.macs * r * c, cout * cin)
    else:
        compute_cycles = 0

    weight_bits = layer.params * layer.bits
    dram_bits = weight_bits
    sram_bits = weight_bits
    noc_bit_hops = 0
    act_in_bits = 0
    for src in inputs:
        act_in_bits += src.bits
        if src.core is None:
            dram_bits += src.bits
            sram_bits += src.bits
        elif src.core != core:
            noc_bit_hops += src.bits * spec.hops(src.core, core)
            sram_bits += src.bits
    out_bits = layer.output_bits

    spilled = act_in_bits + out_bits + weight_bits > spec.sram_bits
    if spilled:
        # Working set exceeds the scratchpad: stream all activations
        # through off-chip memory instead of holding them locally.
        dram_bits = weight_bits + act_in_bits + out_bits
        sram_bits = dram_bits
        noc_bit_hops = 0

    stall_cycles = _ceil_div(dram_bits, spec.offchip_bits_per_cycle) if dram_bits else 0
    transfer_cycles = (
        _ceil_div(noc_bit_hops, spec.noc_bits_per_cycle) if noc_bit_hops else 0
    )

    compute_energy = layer.macs * spec.e_mac_pj(layer.bits)
    sram_energy = sram_bits * spec.e_sram_pj_bit
    dram_energy = dram_bits * spec.e_dram_pj_bit
    noc_energy = noc_bit_hops * spec.e_noc_pj_bit_hop

    return LayerCost(
        energy_pj=compute_energy + sram_energy + dram_energy + noc_energy,
        cycles=max(compute_cycles, stall_cycles) + transfer_cycles,
        compute_energy_pj=compute_energy,
        sram_energy_pj=sram_energy,
        dram_energy_pj=dram_energy,
        noc_energy_pj=noc_energy,
        compute_cycles=compute_cycles,
        stall_cycles=stall_cycles,
        transfer_cycles=transfer_cycles,
        utilization=array_utilization(layer, spec),
        spilled=spilled,
    )


#: Keys the layer-cost memo keeps per accelerator before it starts over.
_MEMO_SIZE = 4096

_CostOptions = tuple[tuple[int, LayerCost], ...]


@lru_cache(maxsize=16)
def _layer_cost_memo(spec: AcceleratorSpec) -> dict[tuple, _CostOptions]:
    """:func:`layer_cost` results on ``spec`` so far: keyed once on the
    layer's content (every field but its name, which no cost reads) and
    its input sources, the ``(core, cost)`` of every compatible core."""
    return {}


@dataclass(frozen=True)
class AllocationPlan:
    """Layer-to-core assignment with a dependency-respecting schedule."""

    assignment: tuple[int, ...]
    start: tuple[int, ...]
    end: tuple[int, ...]
    makespan: int
    layer_costs: tuple[LayerCost, ...]


def _input_sources(
    graph: LayerGraph, idx: int, cores: Sequence[int]
) -> tuple[TensorSource, ...]:
    producers = graph.producers(idx)
    if not producers:
        node = graph.nodes[idx]
        elems = 1
        for d in node.input_shape:
            elems *= d
        return (TensorSource(bits=elems * node.bits, core=None),)
    return tuple(
        TensorSource(bits=graph.nodes[p].output_bits, core=cores[p])
        for p in producers
    )


def _place(
    memo: dict[tuple, _CostOptions],
    spec: AcceleratorSpec,
    node: LayerNode,
    inputs: tuple[TensorSource, ...],
    ready: int,
    free: list[int],
    assigned: int | None = None,
) -> tuple[int, int, LayerCost]:
    """One placement decision: put ``node`` on core ``assigned`` or, without
    one, on the compatible core finishing it earliest (ties to the lowest
    core id), starting once that core is free and ``ready`` has passed.
    Marks the core busy until then; returns ``(finish, core, cost)``."""
    key = (
        node.kind, node.input_shape, node.output_shape, node.macs,
        node.params, node.bits, inputs,
    )
    options = memo.get(key)
    if options is None:
        if len(memo) >= _MEMO_SIZE:
            memo.clear()
        # Looked up in this module on every miss, so a wrapper bound here
        # sees each cost that is computed.
        options = memo[key] = tuple(
            (core, layer_cost(node, core, spec, inputs))
            for core in spec.compatible_cores(node.kind)
        )
    best = None
    for core, cost in options:
        if assigned is not None and core != assigned:
            continue
        finish = max(free[core], ready) + cost.cycles
        if best is None or finish < best[0]:
            best = (finish, core, cost)
    if best is None:
        # An incompatible assigned core: layer_cost raises, naming it.
        layer_cost(node, assigned, spec, inputs)
    free[best[1]] = best[0]
    return best


@dataclass(frozen=True)
class _FoldState:
    """Allocation after a prefix of a graph's nodes: per node its core,
    start, end, and chosen cost; and per core the cycle it is next free.
    Immutable, so the backbone's state can seed the head placements of
    every architecture over it."""

    cores: tuple[int, ...]
    start: tuple[int, ...]
    end: tuple[int, ...]
    free: tuple[int, ...]
    costs: tuple[LayerCost, ...]

    def plan(self) -> AllocationPlan:
        return AllocationPlan(
            assignment=self.cores,
            start=self.start,
            end=self.end,
            makespan=max(self.end, default=0),
            layer_costs=self.costs,
        )


def _fold(
    graph: LayerGraph,
    spec: AcceleratorSpec,
    assignment: Sequence[int] | None = None,
) -> _FoldState:
    """Place and schedule every node, one :func:`_place` at a time in
    topological order. A node starts when its core is free and its
    producers have finished. A decision reads only the nodes before it, so
    the state after a prefix of the nodes is the fold of that prefix."""
    cores: list[int] = []
    start: list[int] = []
    end: list[int] = []
    free = [0] * spec.n_cores
    costs: list[LayerCost] = []
    memo = _layer_cost_memo(spec)
    for idx, node in enumerate(graph.nodes):
        ready = max((end[p] for p in graph.producers(idx)), default=0)
        finish, core, cost = _place(
            memo,
            spec,
            node,
            _input_sources(graph, idx, cores),
            ready,
            free,
            None if assignment is None else assignment[idx],
        )
        cores.append(core)
        start.append(finish - cost.cycles)
        end.append(finish)
        costs.append(cost)
    return _FoldState(
        cores=tuple(cores),
        start=tuple(start),
        end=tuple(end),
        free=tuple(free),
        costs=tuple(costs),
    )


def schedule(
    graph: LayerGraph, spec: AcceleratorSpec, assignment: Sequence[int]
) -> AllocationPlan:
    """Schedule a fixed assignment: each layer starts when its core is free
    and its producers have finished."""
    if len(assignment) != len(graph.nodes):
        raise CostModelError("assignment length must match the node count")
    return _fold(graph, spec, assignment).plan()


@dataclass(frozen=True)
class _BackboneFold:
    """Greedy fold state after the backbone nodes, and each node's energy
    and cycles, in node order."""

    state: _FoldState
    energies: tuple[float, ...]
    cycles: tuple[int, ...]


@lru_cache(maxsize=16)
def _backbone_fold(
    backbone: BackboneSpec, bits: int, spec: AcceleratorSpec
) -> _BackboneFold:
    """The greedy backbone fold shared by every architecture over
    ``backbone`` at ``bits``: each architecture's graph starts with the
    same nodes as :func:`expand_backbone`."""
    state = _fold(expand_backbone(backbone, bits), spec)
    return _BackboneFold(
        state=state,
        energies=tuple(c.energy_pj for c in state.costs),
        cycles=tuple(c.cycles for c in state.costs),
    )


#: Generations and population of the genetic allocator.
_GA_GENERATIONS = 24
_GA_POPULATION = 16


def allocate(
    graph: LayerGraph,
    spec: AcceleratorSpec,
    mode: str = "greedy",
    seed: int = 0,
) -> AllocationPlan:
    """Assign layers to cores and schedule them.

    Greedy mode places each layer on the compatible core finishing it
    earliest (ties to the lowest core id). Genetic mode refines whole
    assignment vectors against the schedule makespan with a seeded GA whose
    initial population contains the greedy solution, so it never does worse.
    Both modes are deterministic.
    """
    if not graph.nodes:
        raise CostModelError("cannot allocate an empty graph")
    greedy = _fold(graph, spec)
    if mode == "greedy":
        return greedy.plan()
    if mode != "genetic":
        raise CostModelError(f"unknown allocation mode {mode!r}")

    choices = [spec.compatible_cores(n.kind) for n in graph.nodes]
    if all(len(c) == 1 for c in choices):
        return greedy.plan()
    rng = np.random.default_rng(seed)

    def random_assignment() -> list[int]:
        return [c[int(rng.integers(0, len(c)))] for c in choices]

    def fitness(assign: list[int]) -> int:
        return schedule(graph, spec, assign).makespan

    pool = [list(greedy.cores)]
    pool += [random_assignment() for _ in range(_GA_POPULATION - 1)]
    scores = [fitness(a) for a in pool]
    mutation = 1.0 / len(graph.nodes)
    for _ in range(_GA_GENERATIONS):
        order = sorted(range(len(pool)), key=lambda i: (scores[i], i))
        elite = [pool[order[0]], pool[order[1]]]
        children = list(elite)
        while len(children) < _GA_POPULATION:
            picks = rng.integers(0, len(pool), size=3)
            pa = pool[min(picks, key=lambda i: (scores[i], i))]
            picks = rng.integers(0, len(pool), size=3)
            pb = pool[min(picks, key=lambda i: (scores[i], i))]
            child = [
                pa[g] if rng.random() < 0.5 else pb[g] for g in range(len(pa))
            ]
            for g, opts in enumerate(choices):
                if len(opts) > 1 and rng.random() < mutation:
                    child[g] = opts[int(rng.integers(0, len(opts)))]
            children.append(child)
        pool = children
        scores = [fitness(a) for a in pool]
    best = min(range(len(pool)), key=lambda i: (scores[i], i))
    return schedule(graph, spec, pool[best])


def et_avg(et_per_exit: Sequence[float], exit_ratios: Sequence[float]) -> float:
    """Exit-ratio-weighted mean energy-delay product."""
    if len(et_per_exit) != len(exit_ratios):
        raise CostModelError("need one exit ratio per exit")
    check_exit_ratios(exit_ratios, CostModelError)
    return math.fsum(e * r for e, r in zip(et_per_exit, exit_ratios))


def _exit_sums(
    energies: Sequence[float],
    cycles: Sequence[int],
    ends: Sequence[int],
    heads: Sequence[tuple[Sequence[float], Sequence[int]]],
) -> tuple[list[float], list[int], list[float]]:
    """The exit rule. Exit i runs the backbone nodes before ``ends[i]``
    (``energies`` and ``cycles`` in node order), then the heads of exits
    1..i, each head's ``(energies, cycles)`` in node order. Returns per exit
    its energy E_i and cycles T_i, each the builtin ``sum`` over those terms
    in that order, and per intermediate exit the energy-delay of its head
    over that of the backbone segment up to the next mount (infinite for a
    zero-cost segment, which can never satisfy a finite cap).

    The sums always run over one list in node order, never over cached
    partial sums: from Python 3.12 ``sum`` of floats is compensated, and a
    compensated sum does not split into partial sums."""
    exit_e: list[float] = []
    exit_t: list[int] = []
    overheads: list[float] = []
    run_e: list[float] = []
    run_t: list[int] = []
    for i, (head_e, head_t) in enumerate(heads):
        run_e += head_e
        run_t += head_t
        stop = ends[i]
        exit_e.append(sum([*energies[:stop], *run_e]))
        exit_t.append(sum([*cycles[:stop], *run_t]))
        if i + 1 < len(ends):
            seg = slice(stop, ends[i + 1])
            seg_et = sum(energies[seg]) * sum(cycles[seg])
            head_et = sum(head_e) * sum(head_t)
            overheads.append(math.inf if seg_et == 0 else head_et / seg_et)
    return exit_e, exit_t, overheads


def exit_costs(
    arch: EennArchitecture, spec: AcceleratorSpec, num_classes: int = 10
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``(et_per_exit, overheads)`` under greedy allocation, equal to those
    of :func:`cost_report`, with no layer graph: the cached
    :func:`head_templates` nodes are placed straight onto the backbone's
    cached greedy state, exit by exit, each node after its producer, and
    :func:`_exit_sums` folds their costs over the cached backbone terms."""
    backbone = _backbone_fold(arch.backbone, arch.quant.backbone_bits, spec)
    memo = _layer_cost_memo(spec)
    cores, finish = backbone.state.cores, backbone.state.end
    free = list(backbone.state.free)
    templates = head_templates(arch, num_classes)
    heads = []
    for template in templates:
        core, ready = cores[template.src], finish[template.src]
        head_e: list[float] = []
        head_t: list[int] = []
        for node, bits in zip(template.nodes, template.in_bits):
            ready, core, cost = _place(
                memo, spec, node, (TensorSource(bits, core),), ready, free
            )
            head_e.append(cost.energy_pj)
            head_t.append(cost.cycles)
        heads.append((head_e, head_t))
    exit_e, exit_t, overheads = _exit_sums(
        backbone.energies,
        backbone.cycles,
        [template.src + 1 for template in templates],
        heads,
    )
    return tuple(e * t for e, t in zip(exit_e, exit_t)), tuple(overheads)


@dataclass(frozen=True)
class HwCostReport:
    """Full cost picture of one architecture on one accelerator."""

    graph: LayerGraph
    layer_costs: tuple[LayerCost, ...]
    energy_per_exit: tuple[float, ...]
    cycles_per_exit: tuple[int, ...]
    et_per_exit: tuple[float, ...]
    et_avg: float | None
    overheads: tuple[float, ...]
    plan: AllocationPlan

    @property
    def max_overhead(self) -> float:
        return max(self.overheads, default=0.0)


def cost_report(
    arch: EennArchitecture,
    spec: AcceleratorSpec,
    exit_ratios: Sequence[float] | None = None,
    mode: str = "greedy",
    num_classes: int = 10,
    seed: int = 0,
) -> HwCostReport:
    """Expand, allocate, and aggregate: per-layer costs, per-exit energy,
    cycles and energy-delay products, head overheads, and (given exit
    ratios) the weighted average. The full graph holds the backbone nodes,
    then each exit's head nodes in exit order: :func:`_exit_sums` reads
    the backbone terms from the front of the plan's costs and each head's
    terms from its slice."""
    graph = expand_layers(arch, num_classes=num_classes)
    plan = allocate(graph, spec, mode=mode, seed=seed)
    energies = [c.energy_pj for c in plan.layer_costs]
    cycles = [c.cycles for c in plan.layer_costs]
    templates = head_templates(arch, num_classes)
    stop = graph.mounts[-1] + 1  # the final mount follows the last block
    heads = []
    for template in templates:
        head = slice(stop, stop + len(template.nodes))
        heads.append((energies[head], cycles[head]))
        stop = head.stop
    exit_e, exit_t, overheads = _exit_sums(
        energies, cycles, [template.src + 1 for template in templates], heads
    )
    et_values = tuple(e * t for e, t in zip(exit_e, exit_t))
    avg = et_avg(et_values, exit_ratios) if exit_ratios is not None else None
    return HwCostReport(
        graph=graph,
        layer_costs=plan.layer_costs,
        energy_per_exit=tuple(exit_e),
        cycles_per_exit=tuple(exit_t),
        et_per_exit=et_values,
        et_avg=avg,
        overheads=tuple(overheads),
        plan=plan,
    )
