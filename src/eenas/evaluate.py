"""Early-exit evaluation.

Covers the inference-time exit rule (first exit whose max-softmax confidence
clears the threshold, with the last exit accepting everything), report
aggregation (per-exit accuracy, exit ratios, their weighted mean), the
jointly-weighted training loss, a desk-scale quantization-aware trainer over
dense stand-in networks, a deterministic synthetic evaluator for search
experiments, and the one-file-per-architecture external report protocol.
"""

from __future__ import annotations

import json
import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arch import EennArchitecture
from .files import atomic_write, load_json
from .quant import (
    QuantParams,
    calibrate_clip,
    fake_quant_forward,
    percentile_clip_candidates,
    ste_mask,
)
from .workload import backbone_mac_fractions


class ReportError(ValueError):
    """Report violating the aggregation invariants or file schema."""


class DatasetError(ValueError):
    """Dataset unusable for the requested training run."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class EvaluationReport:
    """Per-exit accuracy (percent, None where no sample exited), exit
    ratios summing to one, raw sample counts, and the threshold used."""

    accuracy_per_exit: tuple[float | None, ...]
    exit_ratios: tuple[float, ...]
    sample_counts: tuple[int, ...]
    threshold: float

    @property
    def m(self) -> int:
        return len(self.exit_ratios)

    @property
    def acc_avg(self) -> float:
        return _weighted_accuracy(self.accuracy_per_exit, self.exit_ratios)

    def validate(self) -> None:
        if self.m < 1:
            raise ReportError("report needs at least one exit")
        if not (
            len(self.accuracy_per_exit) == self.m == len(self.sample_counts)
        ):
            raise ReportError("per-exit fields must have equal lengths")
        if not 0 < self.threshold < 1:
            raise ReportError("threshold must lie strictly inside (0, 1)")
        if not all(math.isfinite(r) and 0 <= r <= 1 for r in self.exit_ratios):
            raise ReportError("exit ratios must be finite and lie in [0, 1]")
        if abs(math.fsum(self.exit_ratios) - 1.0) > 1e-9:
            raise ReportError("exit ratios must sum to 1")
        total = sum(self.sample_counts)
        for i, (acc, ratio, count) in enumerate(
            zip(self.accuracy_per_exit, self.exit_ratios, self.sample_counts),
            start=1,
        ):
            if count < 0:
                raise ReportError(f"negative sample count at exit {i}")
            if total > 0 and abs(ratio - count / total) > 1e-9:
                raise ReportError(f"exit ratio {i} inconsistent with its count")
            if count == 0:
                if acc is not None:
                    raise ReportError(f"exit {i} has no samples but an accuracy")
                if ratio != 0:
                    raise ReportError(f"exit {i} has no samples but a ratio")
            else:
                if acc is None or not 0 <= acc <= 100:
                    raise ReportError(f"accuracy at exit {i} must be in [0, 100]")


def exit_decision(confidences: Sequence[float], threshold: float) -> int:
    """First exit (1-based) whose confidence reaches the threshold; the
    last exit accepts whatever remains."""
    if len(confidences) == 0:
        raise ReportError("empty confidence list")
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie strictly inside (0, 1)")
    for i, conf in enumerate(confidences, start=1):
        if not 0 <= conf <= 1:
            raise ValueError("confidences must lie in [0, 1]")
        if conf >= threshold:
            return i
    return len(confidences)


def first_exit_decisions(conf_matrix: np.ndarray, threshold: float) -> np.ndarray:
    """Vectorized :func:`exit_decision` over a (samples, exits) matrix;
    returns 1-based indices."""
    hits = conf_matrix >= threshold
    hits[:, -1] = True
    return np.argmax(hits, axis=1) + 1


def exit_ratios(decisions: Sequence[int], m: int) -> tuple[float, ...]:
    """Fraction of samples terminating at each of the m exits."""
    dec = np.asarray(decisions, dtype=int)
    if dec.size == 0:
        raise ReportError("empty decision list")
    if dec.min() < 1 or dec.max() > m:
        raise ReportError("exit decisions out of range")
    counts = np.bincount(dec, minlength=m + 1)[1:]
    return tuple(counts / dec.size)


def acc_avg(
    accuracies: Sequence[float | None], ratios: Sequence[float]
) -> float:
    """Exit-ratio-weighted mean accuracy; exits with zero ratio are skipped
    so their undefined accuracy never contributes."""
    if len(accuracies) != len(ratios):
        raise ReportError("need one accuracy per exit ratio")
    if not all(math.isfinite(r) and r >= 0 for r in ratios):
        raise ReportError("exit ratios must be finite and nonnegative")
    if abs(math.fsum(ratios) - 1.0) > 1e-9:
        raise ReportError("exit ratios must sum to 1")
    if any(a is None for a, r in zip(accuracies, ratios) if r > 0):
        raise ReportError("exit with nonzero ratio lacks an accuracy")
    return _weighted_accuracy(accuracies, ratios)


def _weighted_accuracy(
    accuracies: Sequence[float | None], ratios: Sequence[float]
) -> float:
    return math.fsum(r * a for r, a in zip(ratios, accuracies) if r > 0)


def scalarized_loss(
    losses: Sequence[float], weights: Sequence[float]
) -> float:
    """Linearly weighted sum of the per-exit losses."""
    if len(losses) != len(weights):
        raise ValueError("need one preference weight per exit loss")
    if any(w <= 0 for w in weights):
        raise ValueError("preference weights must be positive")
    return math.fsum(w * l for w, l in zip(weights, losses))


def report_from_outcomes(
    decisions: np.ndarray,
    correct: np.ndarray,
    m: int,
    threshold: float,
) -> EvaluationReport:
    """Aggregate per-sample (exit index, correctness-at-that-exit) pairs."""
    decisions = np.asarray(decisions, dtype=int)
    correct = np.asarray(correct, dtype=bool)
    counts = []
    accs: list[float | None] = []
    for i in range(1, m + 1):
        mask = decisions == i
        n = int(mask.sum())
        counts.append(n)
        accs.append(100.0 * float(correct[mask].mean()) if n else None)
    ratios = tuple(c / decisions.size for c in counts)
    report = EvaluationReport(
        accuracy_per_exit=tuple(accs),
        exit_ratios=ratios,
        sample_counts=tuple(counts),
        threshold=threshold,
    )
    report.validate()
    return report


# ---------------------------------------------------------------------------
# Toy quantization-aware trainer
# ---------------------------------------------------------------------------

def _check_finite(config) -> None:
    """Reject a non-finite float in any field of a config dataclass,
    elements of tuple fields included."""
    for f in fields(config):
        value = getattr(config, f.name)
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 128
    threshold: float = 0.9
    loss_weights: tuple[float, ...] | None = None  # None means all ones
    seed: int = 0
    warmup_epochs: int = 1  # full-precision epochs before clip calibration
    hidden_width: int = 16  # width of every dense stand-in block
    holdout_fraction: float = 0.2

    def __post_init__(self):
        _check_finite(self)
        if self.epochs < 1 or self.batch_size < 1 or self.hidden_width < 1:
            raise ValueError("epochs, batch size and width must be >= 1")
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must lie strictly inside (0, 1)")
        if not 0 < self.holdout_fraction < 1:
            raise ValueError("holdout fraction must lie in (0, 1)")
        if self.loss_weights is not None and any(
            w <= 0 for w in self.loss_weights
        ):
            raise ValueError("preference weights must be positive")


def make_toy_dataset(
    n: int = 600,
    features: int = 8,
    classes: int = 3,
    easy_fraction: float = 0.6,
    noise_easy: float = 0.35,
    noise_hard: float = 1.8,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian class blobs with an easy/hard difficulty mixture, so that a
    shallow classifier resolves most samples while the rest need depth."""
    if n < classes or classes < 2 or features < 1:
        raise DatasetError("need n >= classes >= 2 and at least one feature")
    if not 0 <= easy_fraction <= 1:
        raise DatasetError("easy fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(classes, features))
    centers *= 3.0 / np.linalg.norm(centers, axis=1, keepdims=True)
    y = np.arange(n) % classes
    easy = rng.random(n) < easy_fraction
    scale = np.where(easy, noise_easy, noise_hard)[:, None]
    X = centers[y] + rng.normal(size=(n, features)) * scale
    return X, y.astype(int)


def _relu6(z: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(z, 0.0), 6.0)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class DenseEenn:
    """Dense stand-in network: one block (linear + relu6) per backbone block
    instance, with the architecture's exits attached at their mounts.

    Weights and post-activation tensors are fake-quantized once clip values
    have been assigned; gradients use the straight-through rule. Biases stay
    unquantized.
    """

    def __init__(
        self,
        arch: EennArchitecture,
        in_features: int,
        num_classes: int,
        width: int,
        rng: np.random.Generator,
    ):
        self.arch = arch
        self.num_classes = num_classes
        self.n_blocks = len(arch.backbone.instances)
        self.positions = [
            arch.backbone.mount_position(e.mount) for e in arch.exits
        ]
        self.params: dict[str, np.ndarray] = {}
        self.weight_q: dict[str, QuantParams | None] = {}
        self.act_q: dict[str, QuantParams | None] = {}
        fan_in = in_features
        for j in range(self.n_blocks):
            self._add_linear(f"block{j}", fan_in, width, rng)
            self.act_q[f"block{j}"] = None
            fan_in = width
        for i, placement in enumerate(arch.exits, start=1):
            feat = width
            if placement.head.depth == 2:
                self._add_linear(f"exit{i}.hidden", feat, placement.head.hidden_width, rng)
                self.act_q[f"exit{i}.hidden"] = None
                feat = placement.head.hidden_width
            self._add_linear(f"exit{i}.out", feat, num_classes, rng)
        self._velocity = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _add_linear(self, name: str, fan_in: int, fan_out: int, rng) -> None:
        scale = math.sqrt(2.0 / fan_in)
        self.params[f"{name}.w"] = rng.normal(size=(fan_in, fan_out)) * scale
        # Slightly positive biases keep narrow relu6 trunks from going dead.
        self.params[f"{name}.b"] = np.full(fan_out, 0.01)
        self.weight_q[f"{name}.w"] = None

    def _weight(self, name: str) -> np.ndarray:
        w = self.params[f"{name}.w"]
        q = self.weight_q[f"{name}.w"]
        return fake_quant_forward(w, q) if q is not None else w

    def _activation(self, site: str, h: np.ndarray) -> np.ndarray:
        q = self.act_q.get(site)
        return fake_quant_forward(h, q) if q is not None else h

    def forward(self, X: np.ndarray) -> list[np.ndarray]:
        """Per-exit logits."""
        return self._forward(X)[0]

    def _forward(self, X: np.ndarray):
        trunk = []
        caches = []
        a = X
        for j in range(self.n_blocks):
            wq = self._weight(f"block{j}")
            z = a @ wq + self.params[f"block{j}.b"]
            h = _relu6(z)
            out = self._activation(f"block{j}", h)
            caches.append({"a_in": a, "z": z, "h": h, "wq": wq})
            trunk.append(out)
            a = out
        logits = []
        head_caches = []
        for i, placement in enumerate(self.arch.exits, start=1):
            a_mount = trunk[self.positions[i - 1]]
            cache = {"a_mount": a_mount}
            feat = a_mount
            if placement.head.depth == 2:
                wq = self._weight(f"exit{i}.hidden")
                z1 = feat @ wq + self.params[f"exit{i}.hidden.b"]
                h1 = _relu6(z1)
                hq = self._activation(f"exit{i}.hidden", h1)
                cache.update({"z1": z1, "h1": h1, "hq": hq, "w1q": wq})
                feat = hq
            wq = self._weight(f"exit{i}.out")
            cache["w2q"] = wq
            cache["feat"] = feat
            logits.append(feat @ wq + self.params[f"exit{i}.out.b"])
            head_caches.append(cache)
        return logits, trunk, caches, head_caches

    def losses(self, X: np.ndarray, y: np.ndarray) -> list[float]:
        """Per-exit mean cross-entropy."""
        out = []
        for logits in self.forward(X):
            p = _softmax(logits)
            out.append(float(-np.mean(np.log(p[np.arange(len(y)), y] + 1e-300))))
        return out

    def loss_and_grads(
        self, X: np.ndarray, y: np.ndarray, weights: Sequence[float]
    ):
        """Scalarized loss, per-exit losses, and analytic gradients of the
        scalarized loss for every parameter."""
        logits, trunk, caches, head_caches = self._forward(X)
        n = len(y)
        onehot = np.zeros((n, self.num_classes))
        onehot[np.arange(n), y] = 1.0
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        d_trunk = [np.zeros_like(t) for t in trunk]
        per_exit = []
        for i, placement in enumerate(self.arch.exits, start=1):
            p = _softmax(logits[i - 1])
            loss_i = float(-np.mean(np.log(p[np.arange(n), y] + 1e-300)))
            per_exit.append(loss_i)
            dlogits = weights[i - 1] * (p - onehot) / n
            cache = head_caches[i - 1]
            name = f"exit{i}.out"
            dwq = cache["feat"].T @ dlogits
            grads[f"{name}.w"] += dwq * self._wmask(name)
            grads[f"{name}.b"] += dlogits.sum(axis=0)
            dfeat = dlogits @ cache["w2q"].T
            if placement.head.depth == 2:
                site = f"exit{i}.hidden"
                dh1 = dfeat * self._amask(site, cache["h1"])
                dz1 = dh1 * ((cache["z1"] > 0) & (cache["z1"] < 6))
                grads[f"{site}.w"] += (cache["a_mount"].T @ dz1) * self._wmask(site)
                grads[f"{site}.b"] += dz1.sum(axis=0)
                dfeat = dz1 @ cache["w1q"].T
            d_trunk[self.positions[i - 1]] += dfeat
        da = d_trunk[self.n_blocks - 1]
        for j in range(self.n_blocks - 1, -1, -1):
            cache = caches[j]
            dh = da * self._amask(f"block{j}", cache["h"])
            dz = dh * ((cache["z"] > 0) & (cache["z"] < 6))
            grads[f"block{j}.w"] += (cache["a_in"].T @ dz) * self._wmask(f"block{j}")
            grads[f"block{j}.b"] += dz.sum(axis=0)
            da = dz @ cache["wq"].T
            if j > 0:
                da = da + d_trunk[j - 1]
        total = scalarized_loss(per_exit, weights)
        return total, per_exit, grads

    def _wmask(self, name: str) -> np.ndarray | float:
        q = self.weight_q[f"{name}.w"]
        if q is None:
            return 1.0
        return ste_mask(self.params[f"{name}.w"], q)

    def _amask(self, site: str, h: np.ndarray) -> np.ndarray | float:
        q = self.act_q.get(site)
        if q is None:
            return 1.0
        return ste_mask(h, q)

    def sgd_step(self, grads: dict, lr: float, momentum: float, wd: float) -> None:
        for key, g in grads.items():
            if wd and key.endswith(".w"):
                g = g + wd * self.params[key]
            self._velocity[key] = momentum * self._velocity[key] + g
            self.params[key] -= lr * self._velocity[key]

    def calibrate(self, X: np.ndarray) -> None:
        """Assign per-tensor clips by KL-minimal choice over percentile
        candidates; weight clips come from the weights themselves,
        activation clips from a forward pass over the calibration batch."""
        bits_bb = self.arch.quant.backbone_bits
        _, trunk, caches, head_caches = self._forward(X)
        for j in range(self.n_blocks):
            self._set_weight_clip(f"block{j}", bits_bb)
            self._set_act_clip(f"block{j}", caches[j]["h"], bits_bb)
        for i, placement in enumerate(self.arch.exits, start=1):
            bits = self.arch.quant.exit_bits[i - 1]
            if placement.head.depth == 2:
                self._set_weight_clip(f"exit{i}.hidden", bits)
                self._set_act_clip(
                    f"exit{i}.hidden", head_caches[i - 1]["h1"], bits
                )
            self._set_weight_clip(f"exit{i}.out", bits)

    def _set_weight_clip(self, name: str, bits: int) -> None:
        if bits >= 32:
            return
        values = self.params[f"{name}.w"]
        cands = percentile_clip_candidates(values) or (1.0,)
        picked = calibrate_clip(values, bits, cands)
        self.weight_q[f"{name}.w"] = QuantParams(clip=picked.clip, bits=bits)

    def _set_act_clip(self, site: str, values: np.ndarray, bits: int) -> None:
        if bits >= 32:
            return
        cands = percentile_clip_candidates(values) or (1.0,)
        picked = calibrate_clip(values, bits, cands)
        self.act_q[site] = QuantParams(clip=picked.clip, bits=bits)


def build_toy_net(
    arch: EennArchitecture,
    in_features: int,
    num_classes: int,
    width: int = 16,
    seed: int = 0,
) -> DenseEenn:
    return DenseEenn(
        arch, in_features, num_classes, width, np.random.default_rng(seed)
    )


def _stratified_split(
    y: np.ndarray, holdout: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    train_idx = []
    val_idx = []
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(len(idx))]
        n_val = max(1, int(round(len(idx) * holdout)))
        if n_val >= len(idx):
            raise DatasetError(f"class {cls} too small for the holdout split")
        val_idx.append(idx[:n_val])
        train_idx.append(idx[n_val:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(val_idx))


def train_toy(
    arch: EennArchitecture,
    dataset: tuple[np.ndarray, np.ndarray],
    config: TrainingConfig,
) -> EvaluationReport:
    """Train all exits jointly on the dense stand-in under fake quantization,
    then evaluate the exit rule on a stratified holdout.

    Fully reproducible given the config seed. Raises
    :class:`TrainingDiverged` on a non-finite loss and
    :class:`DatasetError` when the dataset cannot support the split.
    """
    X, y = dataset
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or len(X) != len(y):
        raise DatasetError("dataset must be a (features matrix, label vector) pair")
    if len(X) < 10:
        raise DatasetError("dataset too small to train on")
    num_classes = int(y.max()) + 1
    weights = config.loss_weights or tuple(1.0 for _ in range(arch.m))
    if len(weights) != arch.m:
        raise ValueError("need one preference weight per exit")

    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = _stratified_split(y, config.holdout_fraction, rng)
    net = DenseEenn(arch, X.shape[1], num_classes, config.hidden_width, rng)

    quantized = arch.quant.backbone_bits < 32 or any(
        b < 32 for b in arch.quant.exit_bits
    )
    calib = X[train_idx[: 4 * config.batch_size]]
    X_train, y_train = X[train_idx], y[train_idx]
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            if quantized and epoch == config.warmup_epochs:
                net.calibrate(calib)
            order = rng.permutation(len(X_train))
            for lo in range(0, len(order), config.batch_size):
                batch = order[lo : lo + config.batch_size]
                loss, _, grads = net.loss_and_grads(
                    X_train[batch], y_train[batch], weights
                )
                if not math.isfinite(loss):
                    raise TrainingDiverged(epoch)
                net.sgd_step(
                    grads,
                    config.learning_rate,
                    config.momentum,
                    config.weight_decay,
                )
        logits = net.forward(X[val_idx])
    conf = np.stack([_softmax(l).max(axis=1) for l in logits], axis=1)
    decisions = first_exit_decisions(conf, config.threshold)
    predicted = np.stack([l.argmax(axis=1) for l in logits], axis=1)
    correct = predicted[np.arange(len(val_idx)), decisions - 1] == y[val_idx]
    return report_from_outcomes(decisions, correct, arch.m, config.threshold)


# ---------------------------------------------------------------------------
# Synthetic evaluator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleConfig:
    """Closed-form stand-in evaluator.

    Each exit gets a capability score growing with its cumulative backbone
    MAC fraction (exponent ``mac_exponent``), its bit width (penalty
    ``bits_penalty``/bits), and its head depth (``depth_gain`` per extra
    layer). A fixed two-mode difficulty mixture plays the dataset
    (``easy_mass`` of the ``grid`` quantiles spread uniformly over
    [0, easy_max], the rest over [hard_min, 1]): a sample exits at the
    first exit whose capability covers its difficulty, the last exit takes
    the rest. A sample's accuracy decays with difficulty, more slowly at
    more capable exits (coupling strength ``hardness_gain``), and every
    exit beyond the first adds ``exit_count_gain`` accuracy points (the
    deep-supervision effect of training many heads jointly; negative
    values model gradient dispersion instead). A deterministic per-mount
    jitter keyed on the seed perturbs capabilities only, so modeled
    accuracy stays monotone in head depth.
    """

    top_accuracy: float = 97.0
    floor_accuracy: float = 50.0
    mac_exponent: float = 0.65
    bits_penalty: float = 0.8
    depth_gain: float = 0.03
    hardness_gain: float = 0.3
    exit_count_gain: float = 0.0
    capability_floor: float = 0.16  # exits mounted earlier never clear the threshold
    easy_mass: float = 0.55
    easy_max: float = 0.35
    hard_min: float = 0.75
    jitter: float = 0.04
    grid: int = 1000
    threshold: float = 0.9

    def __post_init__(self):
        _check_finite(self)
        if not 0 <= self.floor_accuracy <= self.top_accuracy <= 100:
            raise ValueError("accuracy bounds must satisfy 0 <= floor <= top <= 100")
        if not 0 < self.easy_mass < 1:
            raise ValueError("easy mass must lie strictly inside (0, 1)")
        if not 0 < self.easy_max <= self.hard_min <= 1:
            raise ValueError("difficulty modes must satisfy 0 < easy_max <= hard_min <= 1")
        if not 0 <= self.capability_floor < 1:
            raise ValueError("capability floor must lie in [0, 1)")
        if self.grid < 2:
            raise ValueError("difficulty grid needs at least two points")
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must lie strictly inside (0, 1)")


def _hash_unit(*parts) -> float:
    """Deterministic value in [-1, 1) derived from the parts."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**63 - 1.0


@lru_cache(maxsize=16)
def _difficulty_grid(config: OracleConfig) -> tuple[float, ...]:
    """The ``config.grid`` sample difficulties, ascending: the easy
    quantiles over [0, easy_max], then the hard ones over [hard_min, 1]."""
    grid = config.grid
    n_easy = min(max(round(grid * config.easy_mass), 1), grid - 1)
    return tuple(
        [config.easy_max * (j + 0.5) / n_easy for j in range(n_easy)]
        + [
            config.hard_min
            + (1.0 - config.hard_min) * (j + 0.5) / (grid - n_easy)
            for j in range(grid - n_easy)
        ]
    )


@lru_cache(maxsize=4096)
def _accuracy_sum(
    config: OracleConfig, quality: float, supervision: float, lo: int, hi: int
) -> float:
    """Sum of the accuracies of grid samples ``lo..hi-1`` at an exit of
    ``quality``, added one sample at a time in grid order."""
    span = config.top_accuracy - config.floor_accuracy
    power = 1.0 / (0.35 + config.hardness_gain * quality)
    total = 0.0
    for d in _difficulty_grid(config)[lo:hi]:
        ease = (1.0 - d) ** power
        total += min(
            max(config.floor_accuracy + span * ease + supervision, 0.0), 100.0
        )
    return total


def synthetic_oracle(
    arch: EennArchitecture,
    config: OracleConfig = OracleConfig(),
    seed: int = 0,
) -> EvaluationReport:
    """Deterministic evaluation report computed from architecture features
    alone; see :class:`OracleConfig` for the closed form."""
    fractions = backbone_mac_fractions(arch.backbone)
    quality = []
    capability = []
    for i, placement in enumerate(arch.exits):
        f = fractions[placement.mount]
        bits = arch.quant.exit_bits[i]
        if f <= config.capability_floor:
            # Mounted too early: the head never reaches the confidence
            # threshold, so it contributes cost but no exits.
            quality.append(0.02)
            capability.append(0.0)
            continue
        rel = (f - config.capability_floor) / (1.0 - config.capability_floor)
        q = (rel ** config.mac_exponent) * (1.0 - config.bits_penalty / bits)
        q += config.depth_gain * (placement.head.depth - 1)
        q = min(max(q, 0.02), 0.98)
        quality.append(q)
        wiggle = 1.0 + config.jitter * _hash_unit(seed, placement.mount)
        capability.append(min(max(q * wiggle, 0.02), 0.98))

    m = arch.m
    grid = _difficulty_grid(config)
    supervision = config.exit_count_gain * (m - 1)
    counts = []
    accs: list[float | None] = []
    lo = 0
    reach = -math.inf  # the most capable of the exits so far
    for i in range(m):
        if i < m - 1:
            reach = max(reach, capability[i])
            hi = bisect_right(grid, reach, lo)
        else:
            hi = len(grid)
        counts.append(hi - lo)
        accs.append(
            _accuracy_sum(config, quality[i], supervision, lo, hi) / (hi - lo)
            if hi > lo
            else None
        )
        lo = hi
    report = EvaluationReport(
        accuracy_per_exit=tuple(accs),
        exit_ratios=tuple(c / config.grid for c in counts),
        sample_counts=tuple(counts),
        threshold=config.threshold,
    )
    report.validate()
    return report


# ---------------------------------------------------------------------------
# External evaluator protocol
# ---------------------------------------------------------------------------

_REPORT_KEYS = {
    "architecture",
    "threshold",
    "accuracy_per_exit",
    "exit_ratios",
    "sample_counts",
}


def save_external_report(
    report: EvaluationReport, architecture_hash: str, path: str
) -> None:
    """Write the one-file-per-architecture report bound to a chromosome hash."""
    report.validate()
    payload = {
        "architecture": architecture_hash,
        "threshold": report.threshold,
        "accuracy_per_exit": list(report.accuracy_per_exit),
        "exit_ratios": list(report.exit_ratios),
        "sample_counts": list(report.sample_counts),
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_external_report(
    path: str, expected_hash: str | None = None
) -> tuple[str, EvaluationReport]:
    """Load and validate an external report; returns (architecture hash,
    report). Schema violations, invariant violations, and hash mismatches
    all raise :class:`ReportError`."""
    data = load_json(path, ReportError, "report")
    if not isinstance(data, dict) or set(data) != _REPORT_KEYS:
        raise ReportError(
            f"report must contain exactly the keys {sorted(_REPORT_KEYS)}"
        )
    if not isinstance(data["architecture"], str):
        raise ReportError("architecture hash must be a string")
    try:
        report = EvaluationReport(
            accuracy_per_exit=tuple(
                None if a is None else float(a) for a in data["accuracy_per_exit"]
            ),
            exit_ratios=tuple(float(r) for r in data["exit_ratios"]),
            sample_counts=tuple(int(c) for c in data["sample_counts"]),
            threshold=float(data["threshold"]),
        )
    except (TypeError, ValueError) as exc:
        raise ReportError(f"malformed report fields: {exc}") from exc
    report.validate()
    if expected_hash is not None and data["architecture"] != expected_hash:
        raise ReportError(
            f"report bound to architecture {data['architecture']}, "
            f"expected {expected_hash}"
        )
    return data["architecture"], report
