"""Early-exit evaluation.

Covers the inference-time exit rule (first exit whose max-softmax confidence
clears the threshold, with the last exit accepting everything), report
aggregation (per-exit accuracy, exit ratios, their weighted mean), the
jointly-weighted training loss, a desk-scale quantization-aware trainer over
dense stand-in networks, a deterministic synthetic evaluator for search
experiments, and the one-file-per-architecture external report protocol.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arch import UNQUANTIZED_BITS, EennArchitecture
from .files import load_json
from .quant import (
    QuantParams,
    calibrate_clip,
    fake_quant_with_mask,
    percentile_clip_candidates,
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


def first_exit_decisions(conf_matrix: np.ndarray, threshold: float) -> np.ndarray:
    """Per row of a (samples, exits) confidence matrix, the first exit
    (1-based) whose confidence reaches the threshold; the last exit accepts
    whatever remains."""
    hits = conf_matrix >= threshold
    hits[:, -1] = True
    return np.argmax(hits, axis=1) + 1


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


class _FlatViews(dict):
    """Named, parameter-shaped views into one flat float64 array."""

    def __init__(self, flat: np.ndarray, layout):
        super().__init__(
            (key, flat[lo:hi].reshape(shape)) for key, lo, hi, shape in layout
        )
        self.flat = flat


class DenseEenn:
    """Dense stand-in network: one block (linear + relu6) per backbone block
    instance, with the architecture's exits attached at their mounts.

    Parameters live in one flat float64 buffer: first the weights of the
    layers below 32 bits, then the other weights, then all biases.
    ``params[name]`` is a view into it, and so is each entry of the
    gradients, which share one fresh flat array per call; ``sgd_step`` is
    one vectorized update of the whole buffer.

    Weights and post-activation tensors are fake-quantized once clip values
    have been assigned; biases stay unquantized. Each forward quantizes all
    quantized weights in one pass over their region of the buffer, with
    per-element clip, scale and level arrays. Gradients use the
    straight-through rule, with masks made in the same pass as the forward
    values.
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
        # Linear layers in forward order: (name, fan_in, fan_out, bits).
        layers = []
        fan_in = in_features
        for j in range(self.n_blocks):
            layers.append((f"block{j}", fan_in, width, arch.quant.backbone_bits))
            fan_in = width
        # Per exit, the layer index of its hidden layer (None at depth 1)
        # and of its output layer.
        self._heads: list[tuple[int | None, int]] = []
        for i, (placement, bits) in enumerate(
            zip(arch.exits, arch.quant.exit_bits), start=1
        ):
            feat = width
            hidden = None
            if placement.head.depth == 2:
                hidden = len(layers)
                layers.append(
                    (f"exit{i}.hidden", feat, placement.head.hidden_width, bits)
                )
                feat = placement.head.hidden_width
            self._heads.append((hidden, len(layers)))
            layers.append((f"exit{i}.out", feat, num_classes, bits))
        self._bits = [bits for *_, bits in layers]
        self._keys = [(f"{name}.w", f"{name}.b") for name, *_ in layers]

        # Weights of the layers below 32 bits first, so that they form one
        # region of the buffer, then the other weights, then the biases.
        self._layout = []
        offset = 0
        for quantized in (True, False):
            for (_, fi, fo, bits), (wkey, _) in zip(layers, self._keys):
                if (bits < UNQUANTIZED_BITS) is quantized:
                    self._layout.append((wkey, offset, offset + fi * fo, (fi, fo)))
                    offset += fi * fo
            if quantized:
                self._n_quantized = offset
        self._n_weights = offset
        for (_, _, fo, _), (_, bkey) in zip(layers, self._keys):
            self._layout.append((bkey, offset, offset + fo, (fo,)))
            offset += fo
        spans = {key: (lo, hi, shape) for key, lo, hi, shape in self._layout}
        self._spans = [spans[wkey] for wkey, _ in self._keys]
        self.params = _FlatViews(np.empty(offset), self._layout)
        self._velocity = np.zeros(offset)
        for (_, fi, fo, _), (wkey, bkey) in zip(layers, self._keys):
            self.params[wkey][...] = rng.normal(size=(fi, fo)) * math.sqrt(2.0 / fi)
            # Slightly positive biases keep narrow relu6 trunks from going dead.
            self.params[bkey][...] = 0.01
        self._w = [self.params[wkey] for wkey, _ in self._keys]
        self._b = [self.params[bkey] for _, bkey in self._keys]
        # Set by calibrate: per layer, the quantizers of its weights and of
        # its activation (None: unquantized), and per element of the
        # quantized weight region its (clip, scale, levels).
        self._weight_q: list[QuantParams | None] = [None] * len(layers)
        self._act_q: list[QuantParams | None] = [None] * len(layers)
        self._weight_grid: tuple[np.ndarray, ...] | None = None

    def forward(self, X: np.ndarray) -> list[np.ndarray]:
        """Per-exit logits."""
        return self._forward(X)[0]

    def _forward(self, X: np.ndarray):
        """Per-exit logits, the weights used, the straight-through mask of
        the quantized weight region (None before calibration), and per
        layer its input, the mask carrying its output gradient back through
        relu6 and activation quantization, and its relu6 output (None for
        exit output layers)."""
        weights, weight_mask = self._forward_weights()
        inputs = [None] * len(self._bits)
        masks = [None] * len(self._bits)
        acts = [None] * len(self._bits)
        trunk = []
        a = X
        for j in range(self.n_blocks):
            inputs[j] = a
            a, masks[j], acts[j] = self._activate(j, a @ weights[j] + self._b[j])
            trunk.append(a)
        logits = []
        for (hidden, out), pos in zip(self._heads, self.positions):
            feat = trunk[pos]
            if hidden is not None:
                inputs[hidden] = feat
                feat, masks[hidden], acts[hidden] = self._activate(
                    hidden, feat @ weights[hidden] + self._b[hidden]
                )
            inputs[out] = feat
            logits.append(feat @ weights[out] + self._b[out])
        return logits, weights, weight_mask, inputs, masks, acts

    def _forward_weights(self):
        if self._weight_grid is None:
            return self._w, None
        nq = self._n_quantized
        wq, mask = fake_quant_with_mask(self.params.flat[:nq], *self._weight_grid)
        weights = [
            wq[lo:hi].reshape(shape) if hi <= nq else w
            for (lo, hi, shape), w in zip(self._spans, self._w)
        ]
        return weights, mask

    def _activate(self, layer: int, z: np.ndarray):
        """The layer's output, the mask carrying a gradient back through
        its fake quantization and relu6 (their product as 0/1 values gives
        the same bits as applying them one after the other), and the
        relu6 output."""
        h = _relu6(z)
        through = (z > 0) & (z < 6)
        q = self._act_q[layer]
        if q is None:
            return h, through, h
        out, inside = fake_quant_with_mask(h, q.clip, q.scale, q.levels)
        return out, through & inside, h

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
        scalarized loss for every parameter, as named views into one fresh
        flat array (its ``flat`` attribute)."""
        logits, wq, weight_mask, inputs, masks, _ = self._forward(X)
        n = len(y)
        rows = np.arange(n)
        onehot = np.zeros((n, self.num_classes))
        onehot[rows, y] = 1.0
        grads = _FlatViews(np.zeros(self.params.flat.size), self._layout)
        # Gradients reaching each trunk output from the heads; the zero
        # start keeps the sums, signed zeros included, as zeros_like would.
        d_trunk = [0.0] * self.n_blocks
        per_exit = []
        for e, (hidden, out) in enumerate(self._heads):
            p = _softmax(logits[e])
            per_exit.append(float(-np.mean(np.log(p[rows, y] + 1e-300))))
            dlogits = weights[e] * (p - onehot) / n
            dfeat = self._linear_backward(grads, out, inputs[out], dlogits, wq)
            if hidden is not None:
                dfeat = self._linear_backward(
                    grads, hidden, inputs[hidden], dfeat * masks[hidden], wq
                )
            pos = self.positions[e]
            d_trunk[pos] = d_trunk[pos] + dfeat
        da = d_trunk[-1]
        for j in range(self.n_blocks - 1, -1, -1):
            da = self._linear_backward(grads, j, inputs[j], da * masks[j], wq)
            if j > 0:
                da = da + d_trunk[j - 1]
        if weight_mask is not None:
            # Mask the quantized weights' gradients in one pass:
            # (0 + g) * mask + 0 equals 0 + g * mask bit for bit for a 0/1
            # mask, signed zeros and NaN included.
            gq = grads.flat[: self._n_quantized]
            gq *= weight_mask
            gq += 0.0
        total = scalarized_loss(per_exit, weights)
        return total, per_exit, grads

    def _linear_backward(self, grads, layer, x, dz, wq):
        """Add a linear layer's gradients, given its input ``x``, the
        gradient ``dz`` of its output and the weights ``wq`` the forward
        used; return the gradient of its input. The weight mask is applied
        later, to the whole quantized region at once."""
        wkey, bkey = self._keys[layer]
        grads[wkey] += x.T @ dz
        grads[bkey] += dz.sum(axis=0)
        return dz @ wq[layer].T

    def sgd_step(
        self, grads: _FlatViews, lr: float, momentum: float, wd: float
    ) -> None:
        """Momentum SGD over the flat buffer, weight decay on the weight
        region only."""
        g = grads.flat
        v = self._velocity
        v *= momentum
        if wd:
            nw = self._n_weights
            v[:nw] += g[:nw] + wd * self.params.flat[:nw]
            v[nw:] += g[nw:]
        else:
            v += g
        self.params.flat -= lr * v

    def calibrate(self, X: np.ndarray) -> bool:
        """Assign per-tensor clips by KL-minimal choice over percentile
        candidates; weight clips come from the weights themselves,
        activation clips from a forward pass over the calibration batch.
        Returns False, assigning nothing, when a tensor to calibrate is not
        finite: training has diverged."""
        acts = self._forward(X)[-1]
        chosen = []
        for layer, bits in enumerate(self._bits):
            if bits >= UNQUANTIZED_BITS:
                continue
            for table, values in (
                (self._weight_q, self._w[layer]),
                (self._act_q, acts[layer]),
            ):
                if values is None:
                    continue
                clip = _calibrated_clip(values, bits)
                if clip is None:
                    return False
                chosen.append((table, layer, QuantParams(clip=clip, bits=bits)))
        for table, layer, q in chosen:
            table[layer] = q
        # The quantized weight region holds its layers in layer order.
        layers = [
            layer for layer, bits in enumerate(self._bits)
            if bits < UNQUANTIZED_BITS
        ]
        if layers:
            sizes = [self._w[layer].size for layer in layers]
            self._weight_grid = tuple(
                np.repeat(
                    np.array([getattr(self._weight_q[l], f) for l in layers], dtype=float),
                    sizes,
                )
                for f in ("clip", "scale", "levels")
            )
        return True


def _calibrated_clip(values: np.ndarray, bits: int) -> float | None:
    """KL-calibrated clip of a tensor over its percentile candidates, from
    one sort of its values; None when they are not finite."""
    ordered = np.sort(values, axis=None)
    if not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
        return None
    cands = percentile_clip_candidates(ordered) or (1.0,)
    return calibrate_clip(ordered, bits, cands).clip


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
                if not net.calibrate(calib):
                    raise TrainingDiverged(epoch)
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


@lru_cache(maxsize=4096, typed=True)
def _hash_unit(*parts) -> float:
    """Deterministic value in [-1, 1) derived from the parts. Typed
    memoization: 3 and 3.0 print, and so hash, differently."""
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
