"""Analytical cost engine for a heterogeneous multi-core edge accelerator.

The modeled device has identical systolic compute cores (a rows x cols MAC
array mapping output x input channels), one pooling core, one SIMD core for
elementwise work and softmax, a per-core SRAM scratchpad, one off-chip link
shared at a fixed bits/cycle rate, and a hop-counted NoC. Every exit head
pools and ends in a softmax, so both of the last two are always present.

Per layer: array utilization follows from how the channel dimensions tile
the array; compute cycles are MACs over the effective throughput; off-chip
streaming (weights always, activations when not locally resident) stalls the
layer; compute and streaming overlap under double buffering while NoC
transfers serialize. Energy sums MAC work (quadratic in bit width), SRAM
staging of incoming data, off-chip traffic, and per-hop NoC traffic.

Layers go to cores by one rule, greedy earliest finish: in topological
order, each layer takes the compatible core that finishes it first.

Energy-latency products over a set of layers always take the form
(sum of energies) * (sum of cycles) over exactly that set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Sequence

from .arch import BackboneSpec, EennArchitecture, hash_once
from .files import (
    check_exit_ratios, check_fields, check_fixed, is_int, is_object, load_json,
)
from .workload import (
    MATRIX_KINDS,
    HeadTemplate,
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
    accelerator: 4 x 512 MACs/cycle (16x32 arrays), 2 MiB SRAM per core, a
    64 bits/cycle off-chip link. Energy constants are literature-scaled
    placeholders, fully configurable. At most ``MAX_COMPUTE_CORES`` compute
    cores; the pooling core has id ``compute_cores`` and the SIMD core the
    next one."""

    compute_cores: int = 4
    array_rows: int = 16
    array_cols: int = 32
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
        counts = (self.compute_cores, self.array_rows, self.array_cols,
                  self.sram_bytes_per_core,
                  self.offchip_bits_per_cycle, self.noc_bits_per_cycle)
        if any(v < 1 for v in counts):
            raise CostModelError("counts and bandwidths must be positive")
        if self.compute_cores > MAX_COMPUTE_CORES:
            raise CostModelError(
                f"compute_cores must be at most {MAX_COMPUTE_CORES}"
            )
        energies = (self.e_mac8_pj, self.e_sram_pj_bit, self.e_dram_pj_bit,
                    self.e_noc_pj_bit_hop)
        if any(v <= 0 for v in energies):
            raise CostModelError("energy constants must be positive")
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
    def macs_per_cycle(self) -> int:
        return self.array_rows * self.array_cols

    @property
    def n_cores(self) -> int:
        return self.compute_cores + 2

    @property
    def sram_bits(self) -> int:
        return self.sram_bytes_per_core * 8

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
            return (self.compute_cores,)
        if layer_kind in ("elementwise-add", "softmax"):
            return (self.compute_cores + 1,)
        raise CostModelError(f"unknown layer kind {layer_kind!r}")

    def e_mac_pj(self, bits: int) -> float:
        return self.e_mac8_pj * (bits / 8.0) ** 2

    def to_json(self) -> dict:
        """The fields, and the retired keys ``pool_core``, ``simd_core`` and
        ``macs_per_cycle`` at their one value: the history header records
        them, and resume compares headers byte for byte."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        del data["hop_table"]
        data |= {"pool_core": True, "simd_core": True,
                 "macs_per_cycle": self.macs_per_cycle}
        if self.hop_table is not None:
            data["hop_table"] = [list(r) for r in self.hop_table]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "AcceleratorSpec":
        """The spec ``data`` describes. A retired key may be given only at
        the value :meth:`to_json` writes for it (:func:`check_fixed`)."""
        if not is_object(data):
            raise CostModelError("accelerator must be a JSON object")
        kwargs = dict(data)
        retired = {
            k: kwargs.pop(k)
            for k in ("pool_core", "simd_core", "macs_per_cycle")
            if k in kwargs
        }
        try:
            if kwargs.get("hop_table") is not None:
                kwargs["hop_table"] = tuple(map(tuple, kwargs["hop_table"]))
            spec = cls(**kwargs)
        except TypeError as exc:
            raise CostModelError(f"bad accelerator field: {exc}") from exc
        check_fixed(retired, spec.to_json(), CostModelError, "accelerator")
        return spec

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

    Utilization is the fraction of the MAC array doing useful work. Output
    channels map to rows and input channels to columns (a linear layer's
    shapes are its widths); a depthwise layer feeds one input channel per
    output, leaving the columns idle. Other layers use their core fully.
    """
    if core not in spec.compatible_cores(layer.kind):
        raise CostModelError(f"layer kind {layer.kind!r} cannot run on core {core}")

    if layer.kind in MATRIX_KINDS:
        cout = layer.output_shape[-1]
        cin = 1 if layer.kind == "depthwise-conv" else layer.input_shape[-1]
        r = _ceil_div(cout, spec.array_rows)
        c = _ceil_div(cin, spec.array_cols)
        utilization = (cout / (spec.array_rows * r)) * (cin / (spec.array_cols * c))
        # ceil(MACs / (macs_per_cycle * utilization)), kept in integers.
        compute_cycles = _ceil_div(layer.macs * r * c, cout * cin)
    elif layer.macs:
        raise CostModelError(f"{layer.kind} has no matrix mapping")
    else:
        utilization, compute_cycles = 1.0, 0

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
        utilization=utilization,
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
    """Layer-to-core assignment with a dependency-respecting schedule: per
    node its core, start, end and chosen cost, and per core the cycle it is
    next free. Immutable, so the backbone's plan can seed the head
    placements of every architecture over it."""

    assignment: tuple[int, ...]
    start: tuple[int, ...]
    end: tuple[int, ...]
    free: tuple[int, ...]
    layer_costs: tuple[LayerCost, ...]

    @property
    def makespan(self) -> int:
        return max(self.end, default=0)


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
) -> tuple[int, int, LayerCost]:
    """One placement decision: put ``node`` on the compatible core finishing
    it earliest (ties to the lowest core id), starting once that core is
    free and ``ready`` has passed. Marks the core busy until then; returns
    ``(finish, core, cost)``."""
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
        finish = max(free[core], ready) + cost.cycles
        if best is None or finish < best[0]:
            best = (finish, core, cost)
    free[best[1]] = best[0]
    return best


def _fold(graph: LayerGraph, spec: AcceleratorSpec) -> AllocationPlan:
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
        inputs = _input_sources(graph, idx, cores)
        finish, core, cost = _place(memo, spec, node, inputs, ready, free)
        cores.append(core)
        start.append(finish - cost.cycles)
        end.append(finish)
        costs.append(cost)
    return AllocationPlan(
        assignment=tuple(cores),
        start=tuple(start),
        end=tuple(end),
        free=tuple(free),
        layer_costs=tuple(costs),
    )


@dataclass(frozen=True)
class BackboneFold:
    """Greedy plan of the backbone nodes on ``spec``, each node's
    energy and cycles in node order, per mount label its stop (the index
    just past the mount's node), and the energy-delay of the backbone
    segment between every two mounts, keyed on ``(stop, next stop)``."""

    spec: AcceleratorSpec
    state: AllocationPlan
    energies: tuple[float, ...]
    cycles: tuple[int, ...]
    stops: dict[str, int]
    segment_et: dict[tuple[int, int], float]


@lru_cache(maxsize=16)
def backbone_fold(
    backbone: BackboneSpec, bits: int, spec: AcceleratorSpec
) -> BackboneFold:
    """The greedy backbone fold shared by every architecture over
    ``backbone`` at ``bits``: each architecture's graph starts with the
    same nodes as :func:`expand_backbone`."""
    graph = expand_backbone(backbone, bits)
    state = _fold(graph, spec)
    energies = tuple(c.energy_pj for c in state.layer_costs)
    cycles = tuple(c.cycles for c in state.layer_costs)
    stops = {label: m + 1 for label, m in zip(backbone.mount_labels, graph.mounts)}
    return BackboneFold(
        spec=spec,
        state=state,
        energies=energies,
        cycles=cycles,
        stops=stops,
        segment_et={
            (stop, nxt): _energy_delay(energies[stop:nxt], cycles[stop:nxt])
            for stop, nxt in combinations(stops.values(), 2)
        },
    )


def allocate(graph: LayerGraph, spec: AcceleratorSpec) -> AllocationPlan:
    """Assign layers to cores and schedule them: each layer, in topological
    order, goes to the compatible core finishing it earliest (ties to the
    lowest core id), and starts once that core is free and its producers
    have finished. Deterministic."""
    if not graph.nodes:
        raise CostModelError("cannot allocate an empty graph")
    return _fold(graph, spec)


def et_avg(et_per_exit: Sequence[float], exit_ratios: Sequence[float]) -> float:
    """Exit-ratio-weighted mean energy-delay product."""
    if len(et_per_exit) != len(exit_ratios):
        raise CostModelError("need one exit ratio per exit")
    check_exit_ratios(exit_ratios, CostModelError)
    return math.fsum(e * r for e, r in zip(et_per_exit, exit_ratios))


def _energy_delay(energies: Sequence[float], cycles: Sequence[int]) -> float:
    """Energy-delay of a set of layers: the sum of their energies times the
    sum of their cycles."""
    return sum(energies) * sum(cycles)


def _exit_sum(backbone: Sequence, stop: int, heads: Sequence[Sequence]):
    """Exit i's energy (or cycles), by the exit rule: exit i runs the
    ``backbone`` nodes before ``stop`` and then the heads of exits 1..i.
    The builtin ``sum`` runs over one list of their terms in node order,
    never over cached partial sums: from Python 3.12 ``sum`` of floats is
    compensated, and a compensated sum does not split into partial sums."""
    terms = list(backbone[:stop])
    for head in heads:
        terms += head
    return sum(terms)


def _overhead(head_et: float, segment_et: float) -> float:
    """An intermediate exit's head energy-delay over that of the backbone
    segment up to the next mount; infinite for a zero-cost segment, which
    can never satisfy a finite cap."""
    return math.inf if segment_et == 0 else head_et / segment_et


class HeadPlacement(NamedTuple):
    """One exit head placed by :func:`place_head`: its nodes' energies and
    cycles in node order, the cycle each core is next free after it, where
    the next exit's head is placed from, and its energy-delay."""

    energies: tuple[float, ...]
    cycles: tuple[int, ...]
    free: tuple[int, ...]
    et: float


def place_head(
    fold: BackboneFold, free: tuple[int, ...], template: HeadTemplate
) -> HeadPlacement:
    """``template``'s nodes placed on the backbone ``fold`` when each core
    is next free at ``free``, each node after its producer, with the same
    one-node placement step that allocates whole graphs, so each lands
    where :func:`allocate` puts it in the full graph. A function of its
    arguments alone, and of no node name: names are all that the exit
    index changes in a template."""
    spec = fold.spec
    memo = _layer_cost_memo(spec)
    core, ready = fold.state.assignment[template.src], fold.state.end[template.src]
    free = list(free)
    energies: list[float] = []
    cycles: list[int] = []
    for node, bits in zip(template.nodes, template.in_bits):
        ready, core, cost = _place(
            memo, spec, node, (TensorSource(bits, core),), ready, free
        )
        energies.append(cost.energy_pj)
        cycles.append(cost.cycles)
    return HeadPlacement(
        tuple(energies), tuple(cycles), tuple(free),
        _energy_delay(energies, cycles),
    )


#: One architecture's costed exits in exit order: per exit, where its
#: backbone part ends (``fold.stops[mount]``) and its head placed by
#: :func:`place_head` from the previous head's ``free`` (the first head
#: from the backbone fold's). The search and :func:`cost_report` both cost
#: an exit this way.
PlacedExits = tuple[tuple[int, HeadPlacement], ...]


def exit_overheads(fold: BackboneFold, exits: PlacedExits) -> tuple[float, ...]:
    """Per intermediate exit of ``exits``, its head's energy-delay over
    that of the backbone segment up to the next mount (:func:`_overhead`).
    It sums nothing."""
    return tuple(
        _overhead(head.et, fold.segment_et[stop, nxt])
        for (stop, head), (nxt, _) in zip(exits, exits[1:])
    )


def exit_costs(
    fold: BackboneFold, exits: PlacedExits
) -> tuple[tuple[float, ...], tuple[int, ...], tuple[float, ...]]:
    """``(energy_per_exit, cycles_per_exit, et_per_exit)`` of ``exits``:
    E_i and T_i by :func:`_exit_sum` over the backbone nodes before exit
    i's stop and the heads of exits 1..i, and E_i * T_i."""
    energies: list[float] = []
    cycles: list[int] = []
    heads_e: list[tuple[float, ...]] = []
    heads_t: list[tuple[int, ...]] = []
    for stop, head in exits:
        heads_e.append(head.energies)
        heads_t.append(head.cycles)
        energies.append(_exit_sum(fold.energies, stop, heads_e))
        cycles.append(_exit_sum(fold.cycles, stop, heads_t))
    return (
        tuple(energies),
        tuple(cycles),
        tuple(e * t for e, t in zip(energies, cycles)),
    )


@dataclass(frozen=True)
class HwCostReport:
    """Full cost picture of one architecture on one accelerator; the
    per-layer costs are the plan's."""

    graph: LayerGraph
    energy_per_exit: tuple[float, ...]
    cycles_per_exit: tuple[int, ...]
    et_per_exit: tuple[float, ...]
    overheads: tuple[float, ...]
    plan: AllocationPlan


def cost_report(
    arch: EennArchitecture,
    spec: AcceleratorSpec,
    num_classes: int = 10,
) -> HwCostReport:
    """Per-exit energy, cycles and energy-delay products and head
    overheads, costed as the search costs them: the :data:`PlacedExits` of
    ``arch``, each head placed by :func:`place_head` from the free cycles
    after the one before it on the backbone fold, then E_i, T_i and their
    products from :func:`exit_costs` and the overheads from
    :func:`exit_overheads`. The plan, for the per-layer view, is the full
    graph's :func:`allocate`; a greedy decision reads only the nodes before
    it, so it places every node where the exits were costed."""
    fold = backbone_fold(arch.backbone, arch.quant.backbone_bits, spec)
    exits = []
    free = fold.state.free
    for placement, template in zip(arch.exits, head_templates(arch, num_classes)):
        head = place_head(fold, free, template)
        exits.append((fold.stops[placement.mount], head))
        free = head.free
    exits = tuple(exits)
    energies, cycles, et_values = exit_costs(fold, exits)
    graph = expand_layers(arch, num_classes=num_classes)
    return HwCostReport(
        graph=graph,
        energy_per_exit=energies,
        cycles_per_exit=cycles,
        et_per_exit=et_values,
        overheads=exit_overheads(fold, exits),
        plan=allocate(graph, spec),
    )
