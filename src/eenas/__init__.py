"""Hardware-aware search for early-exit networks on a modeled edge accelerator.

The names below are exported lazily (PEP 562): ``from eenas import X``
imports X's module on first use, so importing one module of the package,
``eenas.history`` say, loads only that module and what it imports.
"""

import importlib

# ``predict`` names both a module and one of its functions. Loading the
# module sets the package attribute ``predict`` to the module, and a lazy
# ``__getattr__`` runs only for a missing attribute, so the function is
# bound here, once, after its module has loaded.
from .predict import predict

#: Per module, the names the package exports from it.
_EXPORTS = {
    "arch": (
        "BackboneSpec",
        "BlockSpec",
        "EennArchitecture",
        "ExitHeadSpec",
        "ExitPlacement",
        "SpaceConfig",
        "builtin_backbone",
        "chromosome_hash",
        "decode",
        "encode",
        "load_backbone",
        "parse_backbone",
        "sample_architecture",
        "search_space_size",
        "static_counterpart",
    ),
    "evaluate": (
        "EvaluationReport",
        "OracleConfig",
        "TrainingConfig",
        "load_external_report",
        "make_toy_dataset",
        "synthetic_oracle",
        "train_toy",
    ),
    "hwcost": (
        "AcceleratorSpec",
        "AllocationPlan",
        "HwCostReport",
        "LayerCost",
        "allocate",
        "cost_report",
        "et_avg",
        "layer_cost",
    ),
    "predict": ("LabeledRecord", "Predictor", "featurize", "fit", "predict"),
    "quant": ("QuantParams", "calibrate_clip", "quantize"),
    "search": (
        "NasConfig",
        "OracleEvaluator",
        "SearchState",
        "ToyEvaluator",
        "audit_history",
        "mac_reduction",
        "pareto_front",
        "run_search",
    ),
    "workload": ("LayerGraph", "LayerNode", "exit_macs", "expand_layers"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
