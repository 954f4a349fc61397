"""Hardware-aware search for early-exit networks on a modeled edge accelerator."""

from .arch import (
    BackboneSpec,
    BlockSpec,
    Chromosome,
    EennArchitecture,
    ExitHeadSpec,
    ExitPlacement,
    QuantScheme,
    SpaceConfig,
    builtin_backbone,
    chromosome_hash,
    decode,
    encode,
    load_backbone,
    parse_backbone,
    sample_architecture,
    search_space_size,
    static_counterpart,
)
from .evaluate import (
    EvaluationReport,
    OracleConfig,
    TrainingConfig,
    acc_avg,
    load_external_report,
    make_toy_dataset,
    synthetic_oracle,
    train_toy,
)
from .hwcost import (
    AcceleratorSpec,
    AllocationPlan,
    HwCostReport,
    LayerCost,
    allocate,
    cost_report,
    et_avg,
    layer_cost,
)
from .predict import LabeledRecord, LabeledSet, Predictor, featurize, fit, predict
from .quant import QuantParams, calibrate_clip, quantize
from .search import (
    NasConfig,
    OracleEvaluator,
    SearchState,
    ToyEvaluator,
    audit_history,
    mac_reduction,
    pareto_front,
    run_search,
)
from .workload import LayerGraph, LayerNode, exit_macs, expand_layers

__version__ = "0.1.0"
