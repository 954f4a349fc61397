"""Command-line front end.

Subcommands: ``space`` (size of the configured design space with a
cross-check), ``cost`` (per-exit energy-delay table for one architecture),
``search`` (the full loop with persisted history and plot-ready CSV
exports), and ``report`` (summary of a chosen front point, including its
MAC reduction against the static baseline).

Every command validates its inputs before touching the filesystem; derived
output files are written to a temp file and renamed into place. Exit codes:
0 success, 2 configuration/input problems, 3 evaluation/search failures,
4 constraint-audit or self-check failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from functools import lru_cache

from .arch import (
    ArchitectureError,
    BackboneError,
    BackboneSpec,
    Chromosome,
    ChromosomeError,
    EennArchitecture,
    ExitHeadSpec,
    ExitPlacement,
    QuantScheme,
    SpaceConfig,
    builtin_backbone,
    decode,
    load_backbone,
    search_space_size,
    search_space_size_binomial,
    static_counterpart,
)
from .evaluate import (
    OracleConfig,
    TrainingConfig,
    make_toy_dataset,
)
from .files import (atomic_write, is_int, is_int_list, is_object, is_real_list,
                    load_json, require)
from .hwcost import AcceleratorSpec, CostModelError, cost_report
from .search import (
    CostCache,
    EvaluationFailure,
    ExternalEvaluator,
    HistoryError,
    NasConfig,
    OracleEvaluator,
    SearchError,
    ToyEvaluator,
    audit_history,
    et_reduction_value,
    mac_reduction,
    pareto_front,
    read_history,
    read_report_events,
    replay_history,
    run_search,
)
from .workload import WorkloadError, exit_macs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVAL = 3
EXIT_AUDIT = 4


class ConfigError(ValueError):
    pass


def _require_file(path: str, what: str) -> None:
    """``path`` must name a regular file: a missing path or a directory
    exits 2 here rather than failing when it is opened."""
    if not os.path.isfile(path):
        raise ConfigError(f"{what} file not found: {path}")


def _make_out_dir(path: str) -> None:
    """Create the ``--out`` directory; a path that exists and is not a
    directory exits 2 before anything is written."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {path}: {exc.strerror}"
        ) from exc


def _resolve_backbone(ref: str) -> BackboneSpec:
    if ref.startswith("builtin:"):
        return builtin_backbone(ref.split(":", 1)[1])
    _require_file(ref, "backbone")
    return load_backbone(ref)


def _resolve_accelerator(ref: str) -> AcceleratorSpec:
    if ref == "default":
        return AcceleratorSpec()
    _require_file(ref, "accelerator")
    return AcceleratorSpec.load(ref)


#: Keys of a run config, and of its ``space`` section.
_RUN_KEYS = ("seed", "backbone", "accelerator", "space", "nas", "evaluator",
             "cost_mode")
_SPACE_KEYS = ("head_depths", "pooled_size", "hidden_width", "exit_bits",
               "backbone_bits", "num_classes")


def _check_object(data, name: str, keys=None) -> None:
    """``data`` must be an object, with no key outside ``keys`` if given."""
    if not is_object(data):
        raise ConfigError(f"{name} must be an object")
    unknown = sorted(set(data) - set(keys or data))
    if unknown:
        raise ConfigError(f"{name} has an unknown key {unknown[0]!r}")


@contextmanager
def _section(name: str):
    """Name the run-config section in an error raised while reading it."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _space_from_dict(backbone: BackboneSpec, data: dict) -> SpaceConfig:
    depths = data.get("head_depths", [1, 2])
    bits = data.get("exit_bits", [8, 4])
    require(ConfigError, is_int_list, head_depths=depths, exit_bits=bits)
    pooled, hidden = data.get("pooled_size", 4), data.get("hidden_width", 128)
    heads = tuple(ExitHeadSpec(pooled, d, hidden) for d in depths)
    return SpaceConfig(
        backbone=backbone,
        head_options=heads,
        exit_bit_options=tuple(bits),
        backbone_bits=data.get("backbone_bits", 8),
        num_classes=data.get("num_classes", 10),
    )


def _load_run_config(path: str):
    _require_file(path, "config")
    data = load_json(path, ConfigError, "config")
    _check_object(data, "config", _RUN_KEYS)
    seed = data.get("seed", 0)
    if not (is_int(seed) and seed >= 0):
        raise ConfigError("seed must be a non-negative integer")
    backbone = data.get("backbone", "builtin:mobilenetv2_cifar")
    accelerator = data.get("accelerator", "default")
    if not (isinstance(backbone, str) and isinstance(accelerator, str)):
        raise ConfigError("backbone and accelerator must be strings")
    cost_mode = data.get("cost_mode", "greedy")
    if cost_mode not in ("greedy", "genetic"):
        raise ConfigError("cost_mode must be 'greedy' or 'genetic'")
    _check_object(data.get("space", {}), "space", _SPACE_KEYS)
    _check_object(data.get("nas", {}), "nas")
    if "seed" in data.get("nas", {}):
        raise ConfigError("nas: seed is set by the top-level seed key")
    with _section("backbone"):
        backbone = _resolve_backbone(backbone)
    with _section("accelerator"):
        accel = _resolve_accelerator(accelerator)
    with _section("space"):
        space = _space_from_dict(backbone, data.get("space", {}))
    with _section("nas"):
        nas = NasConfig.from_json(data.get("nas", {}) | {"seed": seed})
    evaluator, kind = _build_evaluator(data.get("evaluator", {"kind": "oracle"}), seed)
    return space, accel, nas, evaluator, kind, cost_mode


def _build_evaluator(data, seed: int):
    _check_object(data, "evaluator")
    kind = data.get("kind", "oracle")
    if kind == "oracle":
        params = {k: v for k, v in data.items() if k not in ("kind", "seed")}
        with _section("evaluator"):
            return OracleEvaluator(OracleConfig(**params), data.get("seed", seed)), kind
    if kind == "toy":
        _check_object(data, "evaluator", ("kind", "dataset", "training"))
        _check_object(data.get("dataset", {}), "evaluator.dataset")
        _check_object(data.get("training", {}), "evaluator.training",
                      [f.name for f in fields(TrainingConfig)])
        with _section("evaluator.dataset"):
            dataset = make_toy_dataset(**data.get("dataset", {}))
        with _section("evaluator.training"):
            training = {"seed": seed, "epochs": 40} | data.get("training", {})
            return ToyEvaluator(dataset, TrainingConfig(**training)), kind
    if kind == "external":
        _check_object(data, "evaluator", ("kind", "reports_dir"))
        reports_dir = data.get("reports_dir")
        if not isinstance(reports_dir, str) or not os.path.isdir(reports_dir):
            raise ConfigError(f"external reports directory not found: {reports_dir}")
        return ExternalEvaluator(reports_dir), kind
    raise ConfigError(f"unknown evaluator kind {kind!r}")


def _load_architecture(path: str, backbone: BackboneSpec):
    _require_file(path, "architecture")
    data = load_json(path, ConfigError, "architecture")
    _check_object(data, "architecture")
    exits = data.get("exits")
    if not (isinstance(exits, list) and all(map(is_object, exits))):
        raise ConfigError("exits must be a list of objects")
    bits = tuple(e.get("bits", 8) for e in exits)
    require(ConfigError, is_int_list, bits=bits)
    require(ConfigError, is_int, backbone_bits=data.get("backbone_bits", 8))
    try:
        placements = tuple(
            ExitPlacement(e["mount"], ExitHeadSpec(
                e.get("pooled_size", 4), e.get("depth", 1), e.get("hidden_width", 128)))
            for e in exits
        )
        quant = QuantScheme(data.get("backbone_bits", 8), bits)
        arch = EennArchitecture(backbone=backbone, exits=placements, quant=quant)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed architecture file: {exc}") from exc
    ratios = data.get("exit_ratios")
    if ratios is not None:
        if not is_real_list(ratios):
            raise ConfigError("exit_ratios must be a list of numbers")
        ratios = tuple(ratios)
    return arch, ratios


def cmd_space(args) -> int:
    space = _space_from_dict(
        _resolve_backbone(args.backbone),
        {
            "head_depths": [int(d) for d in args.head_depths.split(",")],
            "exit_bits": [int(b) for b in args.exit_bits.split(",")],
        },
    )
    h = space.n_optional
    p = space.n_head_options
    q = space.n_quant_options
    closed = search_space_size(h, p, q)
    binomial = search_space_size_binomial(h, p, q)
    print(f"optional mounts (H): {h}")
    print(f"head options (p):    {p}")
    print(f"quant options (q):   {q}")
    print(f"closed form pq(1+pq)^H: {closed}")
    print(f"binomial-sum cross-check: {binomial}")
    if closed != binomial:
        print("check: FAILED")
        return EXIT_AUDIT
    print("check: OK")
    return EXIT_OK


def cmd_cost(args) -> int:
    if args.classes < 2:
        raise ConfigError("--classes must be at least 2")
    backbone = _resolve_backbone(args.backbone)
    accel = _resolve_accelerator(args.accelerator)
    arch, ratios = _load_architecture(args.arch, backbone)
    _make_out_dir(args.out)

    ratio_source = "given"
    if ratios is None:
        ratio_source = "uniform"
        ratios = tuple(1.0 / arch.m for _ in range(arch.m))
    report = cost_report(
        arch,
        accel,
        exit_ratios=ratios,
        mode=args.mode,
        num_classes=args.classes,
        seed=args.seed,
    )

    rows = ["exit,mount,energy_pj,cycles,et,overhead"]
    print(f"{'exit':>4} {'mount':>6} {'energy_pj':>16} {'cycles':>12} {'et':>20}")
    per_exit = zip(report.energy_per_exit, report.cycles_per_exit, report.et_per_exit)
    for i, (energy, cycles, et) in enumerate(per_exit, start=1):
        overhead = (
            f"{report.overheads[i - 1]:.6f}" if i < arch.m else ""
        )
        mount = arch.exits[i - 1].mount
        rows.append(f"{i},{mount},{energy!r},{cycles},{et!r},{overhead}")
        print(f"{i:>4} {mount:>6} {energy:>16.1f} {cycles:>12} {et:>20.6g}")
    rows.append(f"avg,{ratio_source},,,{report.et_avg!r},")
    print(f"avg ({ratio_source} exit ratios): et_avg = {report.et_avg:.6g}")
    atomic_write(os.path.join(args.out, "cost.csv"), "\n".join(rows) + "\n")

    detail = {
        "et_per_exit": list(report.et_per_exit),
        "et_avg": report.et_avg,
        "exit_ratio_source": ratio_source,
        "overheads": [
            o if math.isfinite(o) else None for o in report.overheads
        ],
        "makespan_cycles": report.plan.makespan,
        "layers": [
            {
                "name": node.name,
                "kind": node.kind,
                "core": report.plan.assignment[j],
                "start": report.plan.start[j],
                "end": report.plan.end[j],
                "macs": node.macs,
                "energy_pj": report.layer_costs[j].energy_pj,
                "cycles": report.layer_costs[j].cycles,
                "utilization": report.layer_costs[j].utilization,
                "spilled": report.layer_costs[j].spilled,
            }
            for j, node in enumerate(report.graph.nodes)
        ],
    }
    atomic_write(
        os.path.join(args.out, "cost_report.json"),
        json.dumps(detail, indent=2, sort_keys=True) + "\n",
    )
    return EXIT_OK


def cmd_search(args) -> int:
    space, accel, nas, evaluator, kind, cost_mode = _load_run_config(args.config)
    _make_out_dir(args.out)
    history_path = os.path.join(args.out, "history.jsonl")
    if not args.resume and os.path.exists(history_path):
        os.remove(history_path)

    state = run_search(
        space,
        accel,
        evaluator,
        nas,
        history_path=history_path,
        resume=args.resume,
        cost_mode=cost_mode,
        evaluator_kind=kind,
    )

    events = read_history(history_path)
    audit = audit_history(events)
    if not audit.ok:
        for violation in audit.violations:
            print(f"audit violation: {violation}", file=sys.stderr)
        return EXIT_AUDIT

    cost = CostCache(space, accel, mode=cost_mode, seed=nas.seed)
    history = replay_history(events)
    final_p = history.labeled

    front = state.front()
    front_lines = ["rank,hash,acc_avg,et_avg,n_exits,mounts,exit_bits,backbone_bits"]
    for rank, rec in enumerate(front, start=1):
        chrom = Chromosome(rec.genes)
        arch = decode(chrom, space)
        mounts = "|".join(e.mount for e in arch.exits)
        bits = "|".join(str(b) for b in arch.quant.exit_bits)
        front_lines.append(
            f"{rank},{rec.key},{rec.acc_avg!r},{rec.et_avg!r},{arch.m},"
            f"{mounts},{bits},{arch.quant.backbone_bits}"
        )
    atomic_write(
        os.path.join(args.out, "front.csv"), "\n".join(front_lines) + "\n"
    )

    iter_lines = ["k,hash,acc_avg,et_avg,labeled"]
    for ev in history.evaluated:
        labeled = "yes" if ev["hash"] in final_p else "no"
        iter_lines.append(
            f"{ev['k']},{ev['hash']},{ev['acc_avg']!r},{ev['et_avg']!r},{labeled}"
        )
    atomic_write(
        os.path.join(args.out, "iterations.csv"), "\n".join(iter_lines) + "\n"
    )

    scatter_lines = ["k,hash,acc_avg,et_reduction"]
    for ev in history.evaluated:
        if ev["hash"] not in final_p:
            continue
        chrom = Chromosome(history.genes[ev["hash"]])
        reduction = et_reduction_value(ev["et_avg"], cost.static_et(chrom))
        scatter_lines.append(
            f"{ev['k']},{ev['hash']},{ev['acc_avg']!r},{reduction!r}"
        )
    atomic_write(
        os.path.join(args.out, "scatter.csv"), "\n".join(scatter_lines) + "\n"
    )

    print(f"iterations: {state.k}")
    print(f"population: {len(state.members)}  labeled: {len(state.labeled)}")
    print(f"front size: {len(front)}")
    if front:
        best = front[0]
        print(
            f"best accuracy: {best.acc_avg:.2f} at et_avg {best.et_avg:.4g} "
            f"({best.key})"
        )
    return EXIT_OK


def cmd_report(args) -> int:
    _require_file(args.history, "history")
    history = replay_history(read_report_events(args.history))
    if history.header is None:
        raise ConfigError("history lacks a run-config header")
    try:
        space = SpaceConfig.from_json(history.header["space"])
    except (KeyError, TypeError) as exc:
        raise HistoryError(f"malformed run-config header: {exc!r}") from exc
    if not history.labeled:
        raise ConfigError("history contains no labeled architectures")
    front = pareto_front(history.labeled_records())
    if args.pick == "best-acc":
        choice = front[0]
    elif args.pick == "best-et":
        choice = min(front, key=lambda r: (r.et_avg, r.key))
    else:
        idx = int(args.pick)
        if not 0 <= idx < len(front):
            raise ConfigError(
                f"front index {idx} out of range (front has {len(front)} points)"
            )
        choice = front[idx]

    arch = decode(Chromosome(choice.genes), space)
    cum = exit_macs(arch, space.num_classes)
    static_macs = exit_macs(static_counterpart(arch), space.num_classes)[-1]
    ratios = history.by_hash[choice.key]["exit_ratios"]
    reduction = mac_reduction(ratios, cum, static_macs)

    print(f"architecture: {choice.key}")
    print(f"acc_avg: {choice.acc_avg:.4f}")
    print(f"et_avg:  {choice.et_avg:.6g}")
    print(f"exits ({arch.m}):")
    for i, placement in enumerate(arch.exits):
        print(
            f"  {i + 1}: mount {placement.mount} depth {placement.head.depth} "
            f"bits {arch.quant.exit_bits[i]} er {ratios[i]:.4f} "
            f"cum_macs {cum[i]}"
        )
    print(f"static MACs: {static_macs}")
    print(f"MAC reduction: {100.0 * reduction:.2f}%")
    print(f"front size: {len(front)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eenas",
        description="Search early-exit architectures for a modeled edge accelerator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("space", help="report the design-space size")
    sp.add_argument("--backbone", default="builtin:mobilenetv2_cifar")
    sp.add_argument("--head-depths", default="1,2")
    sp.add_argument("--exit-bits", default="8,4")
    sp.set_defaults(func=cmd_space)

    co = sub.add_parser("cost", help="cost one architecture")
    co.add_argument("--backbone", default="builtin:mobilenetv2_cifar")
    co.add_argument("--accelerator", default="default")
    co.add_argument("--arch", required=True)
    co.add_argument("--out", required=True)
    co.add_argument("--mode", choices=("greedy", "genetic"), default="greedy")
    co.add_argument("--classes", type=int, default=10)
    co.add_argument("--seed", type=int, default=0)
    co.set_defaults(func=cmd_cost)

    se = sub.add_parser("search", help="run the search loop")
    se.add_argument("--config", required=True)
    se.add_argument("--out", required=True)
    se.add_argument("--resume", action="store_true")
    se.set_defaults(func=cmd_search)

    re = sub.add_parser("report", help="summarize a front point")
    re.add_argument("--history", required=True)
    re.add_argument("--pick", default="best-acc")
    re.set_defaults(func=cmd_report)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; every ``parse_args`` call returns a
    fresh namespace, so one parser serves every ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        BackboneError,
        ArchitectureError,
        ChromosomeError,
        CostModelError,
        WorkloadError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SearchError, EvaluationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
