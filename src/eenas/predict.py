"""Weak surrogate predictors.

Ridge regressions over hand-crafted chromosome features rank candidates
between true evaluations. Accuracy is fit directly and clamped to [0, 100];
the energy-delay product is fit in log space so predictions stay positive
across its wide dynamic range. Predictors are refit from scratch on the
cumulative labeled archive each search iteration.

Each distinct chromosome is featurized once per space: ``feature_row``
keeps the read-only rows, and both ``fit`` and ``predict`` read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .arch import GENES_PER_MOUNT, SpaceConfig, chromosome_hash
from .workload import backbone_mac_fractions


@dataclass(frozen=True)
class LabeledRecord:
    """One truly evaluated search point."""

    genes: tuple[int, ...]
    acc_avg: float
    et_avg: float

    @cached_property
    def key(self) -> str:
        return chromosome_hash(self.genes)


#: Most feature rows ``feature_row`` keeps, least recently used dropped
#: first. A README search featurizes about 1,000 distinct chromosomes.
FEATURE_ROWS = 4096


class _SpaceTables(NamedTuple):
    """Per-space lookups of ``featurize``, as floats: the cumulative MAC
    fraction of each optional mount, and the depth and bit width of each
    head and quantization option."""

    fractions: tuple[float, ...]
    depths: tuple[float, ...]
    bits: tuple[float, ...]


@lru_cache(maxsize=16)
def _space_tables(space: SpaceConfig) -> _SpaceTables:
    fractions = backbone_mac_fractions(space.backbone)
    return _SpaceTables(
        fractions=tuple(fractions[label] for label in space.backbone.optional_mounts),
        depths=tuple(float(h.depth) for h in space.head_options),
        bits=tuple(float(b) for b in space.exit_bit_options),
    )


def featurize(genes: tuple[int, ...], space: SpaceConfig) -> np.ndarray:
    """Fixed-length feature vector: exit count, per-mount occupancy bits,
    per-mount cumulative MAC fraction (zero when vacant), per-exit head
    depth and bit width over all mount slots (final slot last), and the
    backbone bit width. Injective over a space because occupancy, head and
    quant genes each get their own coordinates."""
    if len(genes) != space.gene_length:
        raise ValueError(f"expected {space.gene_length} genes, got {len(genes)}")
    tables = _space_tables(space)
    occupancy = []
    frac = []
    depth = []
    bits = []
    for j, fraction in enumerate(tables.fractions):
        base = GENES_PER_MOUNT * j
        present, head_idx, quant_idx = genes[base : base + GENES_PER_MOUNT]
        occupancy.append(float(present))
        frac.append(fraction if present else 0.0)
        depth.append(tables.depths[head_idx] if present else 0.0)
        bits.append(tables.bits[quant_idx] if present else 0.0)
    fh, fq = genes[-2], genes[-1]
    depth.append(tables.depths[fh])
    bits.append(tables.bits[fq])
    n_exits = sum(occupancy) + 1.0
    return np.array(
        [n_exits, *occupancy, *frac, *depth, *bits, float(space.backbone_bits)]
    )


@lru_cache(maxsize=FEATURE_ROWS)
def feature_row(genes: tuple[int, ...], space: SpaceConfig) -> np.ndarray:
    """``featurize`` of ``genes``, computed once per (genes, space) while
    cached. The row is shared, so it is read-only."""
    row = featurize(genes, space)
    row.flags.writeable = False
    return row


@dataclass(frozen=True)
class Predictor:
    """Deterministic linear model on standardized features."""

    target: str  # "accuracy" or "et"
    feature_mean: tuple[float, ...]
    feature_std: tuple[float, ...]
    coefficients: tuple[float, ...]
    intercept: float
    train_mse: float

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean, std and coefficients as arrays, built once per predictor."""
        return (
            np.array(self.feature_mean),
            np.array(self.feature_std),
            np.array(self.coefficients),
        )


def fit(
    labeled: Iterable[LabeledRecord],
    space: SpaceConfig,
    target: str = "accuracy",
    ridge: float = 1e-3,
) -> Predictor:
    """Closed-form ridge fit on the records, taken in hash order, so a fit
    does not depend on the order of its input.

    Features are z-scored (constant features neutralized); the intercept is
    the target mean, so the model can never do worse than the mean
    predictor on its own training set. ``target="et"`` fits log values.
    """
    if target not in ("accuracy", "et"):
        raise ValueError("target must be 'accuracy' or 'et'")
    if ridge < 0:
        raise ValueError("ridge strength must be >= 0")
    records = sorted(labeled, key=lambda r: r.key)
    if len(records) < 2:
        raise ValueError("need at least two labeled records to fit")
    X = np.stack([feature_row(tuple(r.genes), space) for r in records])
    if target == "accuracy":
        y = np.array([r.acc_avg for r in records])
    else:
        if any(r.et_avg <= 0 for r in records):
            raise ValueError("energy-delay labels must be positive")
        y = np.log(np.array([r.et_avg for r in records]))

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    Z = (X - mean) / std
    yc = y - y.mean()
    if ridge > 0:
        gram = Z.T @ Z + ridge * np.eye(Z.shape[1])
        coef = np.linalg.solve(gram, Z.T @ yc)
    else:
        coef = np.linalg.lstsq(Z, yc, rcond=None)[0]
    residual = yc - Z @ coef
    return Predictor(
        target=target,
        feature_mean=tuple(mean),
        feature_std=tuple(std),
        coefficients=tuple(coef),
        intercept=float(y.mean()),
        train_mse=float(np.mean(residual**2)),
    )


def predict(pred: Predictor, genes: tuple[int, ...], space: SpaceConfig) -> float:
    """Deterministic estimate; accuracy clamps to [0, 100], energy-delay
    maps back out of log space so it stays positive."""
    feats = feature_row(tuple(genes), space)
    mean, std, coef = pred._arrays
    if len(feats) != len(mean):
        raise ValueError("feature length does not match the fitted predictor")
    z = (feats - mean) / std
    value = pred.intercept + float(z @ coef)
    if pred.target == "accuracy":
        return min(max(value, 0.0), 100.0)
    return math.exp(value)
