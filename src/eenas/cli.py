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
from .files import atomic_write, load_json
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


def _resolve_backbone(ref: str) -> BackboneSpec:
    if ref.startswith("builtin:"):
        return builtin_backbone(ref.split(":", 1)[1])
    if not os.path.exists(ref):
        raise ConfigError(f"backbone file not found: {ref}")
    return load_backbone(ref)


def _resolve_accelerator(ref: str) -> AcceleratorSpec:
    if ref == "default":
        return AcceleratorSpec()
    if not os.path.exists(ref):
        raise ConfigError(f"accelerator file not found: {ref}")
    return AcceleratorSpec.load(ref)


def _space_from_dict(backbone: BackboneSpec, data: dict) -> SpaceConfig:
    depths = data.get("head_depths", [1, 2])
    pooled = int(data.get("pooled_size", 4))
    hidden = int(data.get("hidden_width", 128))
    heads = tuple(
        ExitHeadSpec(pooled_size=pooled, depth=int(d), hidden_width=hidden)
        for d in depths
    )
    return SpaceConfig(
        backbone=backbone,
        head_options=heads,
        exit_bit_options=tuple(int(b) for b in data.get("exit_bits", [8, 4])),
        backbone_bits=int(data.get("backbone_bits", 8)),
        num_classes=int(data.get("num_classes", 10)),
    )


def _load_run_config(path: str, seed_override: int | None, evaluator_override):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    data = load_json(path, ConfigError, "config")
    seed = int(data.get("seed", 0)) if seed_override is None else seed_override
    backbone = _resolve_backbone(data.get("backbone", "builtin:mobilenetv2_cifar"))
    accel = _resolve_accelerator(data.get("accelerator", "default"))
    space = _space_from_dict(backbone, data.get("space", {}))
    nas_dict = dict(data.get("nas", {}))
    nas_dict["seed"] = seed
    nas = NasConfig.from_json(nas_dict)
    ev_dict = dict(data.get("evaluator", {"kind": "oracle"}))
    if evaluator_override and evaluator_override != ev_dict.get("kind"):
        # Carry over only what the new kind can use.
        kept = {"reports_dir"} if evaluator_override == "external" else set()
        ev_dict = {"kind": evaluator_override} | {
            k: v for k, v in ev_dict.items() if k in kept
        }
    evaluator, kind = _build_evaluator(ev_dict, seed)
    cost_mode = data.get("cost_mode", "greedy")
    return space, accel, nas, evaluator, kind, cost_mode


def _build_evaluator(data: dict, seed: int):
    kind = data.get("kind", "oracle")
    if kind == "oracle":
        params = {
            k: v for k, v in data.items() if k not in ("kind", "seed")
        }
        try:
            config = OracleConfig(**params)
        except TypeError as exc:
            raise ConfigError(f"bad oracle parameter: {exc}") from exc
        return OracleEvaluator(config, seed=int(data.get("seed", seed))), kind
    if kind == "toy":
        ds = data.get("dataset", {})
        tr = dict(data.get("training", {}))
        tr.setdefault("seed", seed)
        tr.setdefault("epochs", 40)
        try:
            dataset = make_toy_dataset(**ds)
            config = TrainingConfig(**{
                k: tuple(v) if k == "loss_weights" and v is not None else v
                for k, v in tr.items()
            })
        except TypeError as exc:
            raise ConfigError(f"bad toy-evaluator parameter: {exc}") from exc
        return ToyEvaluator(dataset, config), kind
    if kind == "external":
        reports_dir = data.get("reports_dir")
        if not reports_dir or not os.path.isdir(reports_dir):
            raise ConfigError(f"external reports directory not found: {reports_dir}")
        return ExternalEvaluator(reports_dir), kind
    raise ConfigError(f"unknown evaluator kind {kind!r}")


def _load_architecture(path: str, backbone: BackboneSpec):
    if not os.path.exists(path):
        raise ConfigError(f"architecture file not found: {path}")
    data = load_json(path, ConfigError, "architecture")
    try:
        exits = tuple(
            ExitPlacement(
                mount=e["mount"],
                head=ExitHeadSpec(
                    pooled_size=int(e.get("pooled_size", 4)),
                    depth=int(e.get("depth", 1)),
                    hidden_width=int(e.get("hidden_width", 128)),
                ),
            )
            for e in data["exits"]
        )
        bits = tuple(int(e.get("bits", 8)) for e in data["exits"])
        arch = EennArchitecture(
            backbone=backbone,
            exits=exits,
            quant=QuantScheme(
                backbone_bits=int(data.get("backbone_bits", 8)), exit_bits=bits
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed architecture file: {exc}") from exc
    ratios = data.get("exit_ratios")
    if ratios is not None:
        if not isinstance(ratios, list) or not all(
            isinstance(r, (int, float)) and not isinstance(r, bool) for r in ratios
        ):
            raise ConfigError("exit_ratios must be a list of numbers")
        ratios = tuple(float(r) for r in ratios)
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
    os.makedirs(args.out, exist_ok=True)

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
    space, accel, nas, evaluator, kind, cost_mode = _load_run_config(
        args.config, args.seed, args.evaluator
    )
    os.makedirs(args.out, exist_ok=True)
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
    if not os.path.exists(args.history):
        raise ConfigError(f"history file not found: {args.history}")
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
    se.add_argument("--seed", type=int, default=None)
    se.add_argument(
        "--evaluator", choices=("toy", "oracle", "external"), default=None
    )
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
