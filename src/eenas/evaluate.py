"""Early-exit evaluation.

Covers the inference-time exit rule (first exit whose max-softmax confidence
clears the threshold, with the last exit accepting everything), report
aggregation (per-exit accuracy, exit ratios, their weighted mean), a
desk-scale quantization-aware trainer over dense stand-in networks (its
loss is the plain sum of the per-exit losses), a deterministic synthetic
evaluator for search experiments, and the one-file-per-architecture
external report protocol.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arch import UNQUANTIZED_BITS, EennArchitecture
from .files import (check_exit_ratios, check_fields, is_int, is_object, is_real,
                    is_real_list, load_json, require)
from .quant import (
    FakeQuantizer,
    QuantParams,
    calibrate_sorted,
    grid_points,
    grid_work,
    reciprocal,
    sorted_clip_candidates,
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
    ratios summing to one, raw sample counts, and the threshold used. A
    report checks its fields' types and invariants where it is built, so
    an invalid one never exists."""

    accuracy_per_exit: tuple[float | None, ...]
    exit_ratios: tuple[float, ...]
    sample_counts: tuple[int, ...]
    threshold: float

    @property
    def m(self) -> int:
        return len(self.exit_ratios)

    @property
    def acc_avg(self) -> float:
        """Exit-ratio-weighted mean accuracy; exits with zero ratio are
        skipped, so their undefined accuracy never contributes."""
        return math.fsum(
            r * a for r, a in zip(self.exit_ratios, self.accuracy_per_exit) if r > 0
        )

    def __post_init__(self):
        accuracies = self.accuracy_per_exit
        if not (isinstance(accuracies, (list, tuple))
                and is_real_list([a for a in accuracies if a is not None])):
            raise ReportError("accuracy_per_exit must be a list of numbers or nulls")
        check_fields(self, ReportError)
        if self.m < 1:
            raise ReportError("report needs at least one exit")
        if not (
            len(self.accuracy_per_exit) == self.m == len(self.sample_counts)
        ):
            raise ReportError("per-exit fields must have equal lengths")
        if not 0 < self.threshold < 1:
            raise ReportError("threshold must lie strictly inside (0, 1)")
        check_exit_ratios(self.exit_ratios, ReportError)
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
    return EvaluationReport(
        accuracy_per_exit=tuple(accs),
        exit_ratios=ratios,
        sample_counts=tuple(counts),
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# Toy quantization-aware trainer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 128
    threshold: float = 0.9
    seed: int = 0
    warmup_epochs: int = 1  # full-precision epochs before clip calibration
    hidden_width: int = 16  # width of every dense stand-in block
    holdout_fraction: float = 0.2

    def __post_init__(self):
        check_fields(self, ValueError)
        if self.epochs < 1 or self.batch_size < 1 or self.hidden_width < 1:
            raise ValueError("epochs, batch size and width must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # Calibration, and with it quantization-aware training, starts at
        # the epoch numbered warmup_epochs; any other value would train a
        # quantized candidate in full precision throughout.
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError("warmup epochs must lie in [0, epochs)")
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must lie strictly inside (0, 1)")
        if not 0 < self.holdout_fraction < 1:
            raise ValueError("holdout fraction must lie in (0, 1)")


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
    require(DatasetError, is_int, n=n, features=features, classes=classes, seed=seed)
    require(DatasetError, is_real, easy_fraction=easy_fraction,
            noise_easy=noise_easy, noise_hard=noise_hard)
    if seed < 0:
        raise DatasetError("seed must be non-negative")
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


#: Bounds of relu6 as 0-d arrays: numpy takes an array operand with less
#: work per call than a Python float, which it converts on every call.
_ZERO, _SIX = np.array(0.0), np.array(6.0)


def _activation_consts(q: QuantParams):
    """What :func:`_activate` uses of an activation quantizer, made once:
    the comparison and bound of its straight-through mask, its clamp
    min(clip, 6), and the scale, reciprocal and levels for
    :func:`quant.grid_points`, whose k needs no clamp where the reciprocal
    is finite. The numbers are 0-d arrays, as ``_ZERO`` is."""
    inv = reciprocal(q.scale)
    levels = float(q.levels) if inv is None else None
    below, bound = (np.less, 6.0) if q.clip >= 6.0 else (np.less_equal, q.clip)
    return below, *(
        None if v is None else np.array(v)
        for v in (bound, min(q.clip, 6.0), q.scale, inv, levels)
    )


def _activate(z: np.ndarray, mask: np.ndarray, consts, work) -> None:
    """Turn the pre-activation ``z`` in place into the layer output: relu6,
    then, when ``consts`` holds the activation quantizer's
    :func:`_activation_consts`, its fake quantization. ``mask`` receives
    the straight-through mask carrying a gradient back through both;
    ``work`` is scratch for :func:`quant.grid_points` shaped like ``z``.

    The result equals relu6, ``np.clip`` and :func:`quant.quantize`
    applied one after the other, bit for bit, signed zeros and NaN
    included: the clamp can drop its lower bound, since relu6 leaves
    nothing below zero, and its upper bound joins relu6's as one clamp to
    the smaller of the clip and 6. The grid step then needs no clamp of
    its own where the scale has a finite reciprocal (see
    :func:`quant.grid_points`): its input lies in [0, clip].
    """
    # relu6 passes a gradient where 0 < z < 6 and the quantizer where
    # relu6(z) <= clip; on 0 < z < 6 relu6(z) is z, so the product is one
    # comparison against the lower bound. NaN fails every comparison.
    hit = work[2]
    np.greater(z, _ZERO, out=mask)
    if consts is None:
        np.less(z, _SIX, out=hit)
    else:
        below, bound, top, scale, inv, levels = consts
        below(z, bound, out=hit)
    np.logical_and(mask, hit, out=mask)
    np.maximum(z, _ZERO, out=z)
    if consts is None:
        np.minimum(z, _SIX, out=z)
        return
    np.minimum(z, top, out=z)
    grid_points(z, scale, inv, levels, None, z, work)


class _FlatViews(Mapping):
    """Named, parameter-shaped views into one flat float64 array, ``flat``,
    also listed in layout order as ``views``. The views are made when first
    read, so a training step, which reads only ``flat``, makes none."""

    def __init__(self, flat: np.ndarray, layout):
        self.flat = flat
        self._layout = layout

    @cached_property
    def views(self) -> list[np.ndarray]:
        return [self.flat[lo:hi].reshape(shape) for _, lo, hi, shape in self._layout]

    @cached_property
    def _named(self) -> dict[str, np.ndarray]:
        return dict(zip((key for key, *_ in self._layout), self.views))

    def __getitem__(self, key: str) -> np.ndarray:
        return self._named[key]

    def __iter__(self):
        return iter(self._named)

    def __len__(self) -> int:
        return len(self._layout)


class DenseEenn:
    """Dense stand-in network: one block (linear + relu6) per backbone block
    instance, with the architecture's exits attached at their mounts.

    Parameters live in one flat float64 buffer: first the weights of the
    layers below 32 bits, then the other weights, then all biases.
    ``params[name]`` is a view into it, and so is each entry of the
    gradients, which share one fresh flat array per call; ``sgd_step`` is
    one vectorized update of the whole buffer.

    Weights and post-activation tensors are fake-quantized once clip values
    have been assigned; biases stay unquantized. Gradients use the
    straight-through rule, with masks made in the forward pass next to the
    values they gate.

    Each step follows a plan made once. ``calibrate`` fixes every
    activation quantizer's constants (:func:`_activation_consts`) and one
    :class:`quant.FakeQuantizer`, with its own buffers, that quantizes all
    quantized weights in one pass with per-element clip, scale and level
    arrays. Per batch size, the first forward pass allocates each layer's
    output and mask buffers and the scratch of the fused relu6 and fake
    quantization (:func:`_activate`), or takes the leading rows of a set
    for a larger batch; later passes of that size write into them.
    ``calibrate`` uses buffers of its own and frees them. The backward pass
    writes each layer's gradients into views of one flat scratch array,
    made once, and the SGD step its products into another. None of these
    buffers leaves a call: ``forward`` returns fresh logits, every exit's
    in one array, and ``loss_and_grads`` fresh gradients, copied from the
    scratch by the step's last operation.
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
        self.n_blocks = len(arch.backbone.instances)
        self.positions = [
            arch.backbone.mount_position(e.mount) for e in arch.exits
        ]
        # Linear layers in forward order: (name, fan_in, fan_out, bits), and
        # per layer the layer whose output it reads (-1: the network input).
        layers = []
        self._source = []
        fan_in = in_features
        for j in range(self.n_blocks):
            layers.append((f"block{j}", fan_in, width, arch.quant.backbone_bits))
            self._source.append(j - 1)
            fan_in = width
        # Per exit, the layer index of its hidden layer (None at depth 1)
        # and of its output layer.
        self._heads: list[tuple[int | None, int]] = []
        for i, (placement, bits, pos) in enumerate(
            zip(arch.exits, arch.quant.exit_bits, self.positions), start=1
        ):
            feat = width
            hidden = None
            if placement.head.depth == 2:
                hidden = len(layers)
                layers.append(
                    (f"exit{i}.hidden", feat, placement.head.hidden_width, bits)
                )
                self._source.append(pos)
                pos = hidden
                feat = placement.head.hidden_width
            self._heads.append((hidden, len(layers)))
            layers.append((f"exit{i}.out", feat, num_classes, bits))
            self._source.append(pos)
        outputs = {out for _, out in self._heads}
        # Per layer, its output width when relu6 follows it, else None.
        self._widths = [
            None if layer in outputs else fo
            for layer, (_, _, fo, _) in enumerate(layers)
        ]
        self._bits = [bits for *_, bits in layers]
        self._keys = [(f"{name}.w", f"{name}.b") for name, *_ in layers]

        # Weights of the layers below 32 bits first, so that they form one
        # region of the buffer, then the other weights, then the biases.
        spans = {}
        offset = 0
        for quantized in (True, False):
            for (_, fi, fo, bits), (wkey, _) in zip(layers, self._keys):
                if (bits < UNQUANTIZED_BITS) is quantized:
                    spans[wkey] = (offset, offset + fi * fo, (fi, fo))
                    offset += fi * fo
            if quantized:
                self._n_quantized = offset
        self._n_weights = offset
        for (_, _, fo, _), (_, bkey) in zip(layers, self._keys):
            spans[bkey] = (offset, offset + fo, (fo,))
            offset += fo
        # Listed layer by layer, weight then bias, whatever their offsets.
        self._layout = [
            (key, *spans[key]) for keys in self._keys for key in keys
        ]
        self._spans = [spans[wkey] for wkey, _ in self._keys]
        self.params = _FlatViews(np.empty(offset), self._layout)
        self._velocity = np.zeros(offset)
        self._w = self.params.views[0::2]
        self._b = self.params.views[1::2]
        self._grads = _FlatViews(np.empty(offset), self._layout)
        self._gw = self._grads.views[0::2]
        self._gb = self._grads.views[1::2]
        self._sgd_work = np.empty(offset)
        self._classes = num_classes
        for (_, fi, fo, _), w, b in zip(layers, self._w, self._b):
            w[...] = rng.normal(size=(fi, fo)) * math.sqrt(2.0 / fi)
            # Slightly positive biases keep narrow relu6 trunks from going dead.
            b[...] = 0.01
        # Set by calibrate: per layer, the quantizers of its weights and of
        # its activation (None: unquantized), the latter's (clip, scale,
        # levels) as floats, the quantizer of the quantized weight region
        # and the weights each forward pass uses.
        self._weight_q: list[QuantParams | None] = [None] * len(layers)
        self._act_q: list[QuantParams | None] = [None] * len(layers)
        self._act_consts: list[tuple | None] = [None] * len(layers)
        self._weight_grid: FakeQuantizer | None = None
        self._quantized_weights = self.params.flat[: self._n_quantized]
        self._wq = self._w
        # Per batch size: per layer, output and mask buffers and scratch.
        self._buffers: dict[int, list] = {}

    def forward(self, X: np.ndarray) -> list[np.ndarray]:
        """Per-exit logits."""
        return list(self._forward(X)[0])

    def _step_buffers(self, rows: int):
        """Per layer followed by relu6, its output buffer, its mask buffer
        and its share of one scratch sized for the widest such layer, for
        ``rows`` rows (None for exit output layers). A set of fewer rows
        than an existing one is that set's leading rows: each call uses one
        set only, so sets that share memory never meet."""
        buffers = self._buffers.get(rows)
        if buffers is not None:
            return buffers
        larger = [r for r in self._buffers if r > rows]
        if larger:
            buffers = [
                None if b is None
                else (b[0][:rows], b[1][:rows], tuple(a[:rows] for a in b[2]))
                for b in self._buffers[min(larger)]
            ]
        else:
            widest = max(w for w in self._widths if w is not None)
            scratch = grid_work(rows * widest)
            buffers = [
                None if w is None
                else (
                    np.empty((rows, w)),
                    np.empty((rows, w), dtype=bool),
                    tuple(a[: rows * w].reshape(rows, w) for a in scratch),
                )
                for w in self._widths
            ]
        self._buffers[rows] = buffers
        return buffers

    def _forward(self, X: np.ndarray, keep_acts: bool = False):
        """Per-exit logits, stacked in one fresh exits x rows x classes
        array, the straight-through mask of the quantized weight region
        (None before calibration), the step buffers holding each layer's
        output and mask, and, with ``keep_acts``, per layer its relu6
        output before activation quantization (None for exit output
        layers)."""
        weights = self._wq  # quantized by the call below, once calibrated
        weight_mask = None
        if self._weight_grid is not None:
            weight_mask = self._weight_grid(self._quantized_weights)[1]
        buffers = self._step_buffers(len(X))
        acts = [None] * len(buffers) if keep_acts else None
        logits = np.empty((len(self._heads), len(X), self._classes))
        exit_logits = iter(logits)
        for layer, src in enumerate(self._source):
            a = X if src < 0 else buffers[src][0]
            if buffers[layer] is None:
                z = next(exit_logits)
                np.dot(a, weights[layer], out=z)
                z += self._b[layer]
                continue
            out, mask, work = buffers[layer]
            np.dot(a, weights[layer], out=out)
            out += self._b[layer]
            consts = self._act_consts[layer]
            if keep_acts:
                # Without activation quantization, _activate leaves the
                # relu6 output in the buffer itself.
                acts[layer] = out if consts is None else _relu6(out)
            _activate(out, mask, consts, work)
        return logits, weight_mask, buffers, acts

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray):
        """The training loss (the sum of the per-exit losses, every exit
        weighing 1), the per-exit losses, and analytic gradients of the
        training loss for every parameter, as named views into one fresh
        flat array (its ``flat`` attribute)."""
        logits, weight_mask, buffers, _ = self._forward(X)
        wq, gw, gb = self._wq, self._gw, self._gb
        n = len(y)
        inputs = [X if src < 0 else buffers[src][0] for src in self._source]

        def backward(layer, dz, input_grad=True):
            # Gradients are written, not added to zeros; the one "+ 0.0"
            # over the whole buffer at the end makes up for that.
            np.dot(inputs[layer].T, dz, out=gw[layer])
            np.add.reduce(dz, axis=0, out=gb[layer])
            return np.dot(dz, wq[layer].T) if input_grad else None

        # Softmax, then (p - onehot) / n, in place in the fresh logits of
        # every exit at once, in the operations and order of _softmax: each
        # reduction runs over one row of one exit, as it does there.
        p = logits
        p -= np.maximum.reduce(p, axis=2, keepdims=True)
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=2, keepdims=True)
        # Per exit (row), the flat index of each sample's true class.
        classes = p.shape[2]
        target = np.arange(0, p.size, n * classes)[:, None] + (
            np.arange(0, n * classes, classes) + y
        )
        flat = p.reshape(-1)
        # np.mean is the sum over the count.
        sums = np.add.reduce(np.log(flat[target] + 1e-300), axis=1)
        per_exit = [-(total / n) for total in sums.tolist()]
        flat[target] -= 1.0
        p /= n
        # Gradients reaching each trunk output from the heads; the zero
        # start keeps the sums, signed zeros included, as zeros_like would.
        d_trunk = [0.0] * self.n_blocks
        for (hidden, out), pos, dlogits in zip(self._heads, self.positions, p):
            dfeat = backward(out, dlogits)
            if hidden is not None:
                dfeat *= buffers[hidden][1]
                dfeat = backward(hidden, dfeat)
            d_trunk[pos] = d_trunk[pos] + dfeat
        da = d_trunk[-1]
        for j in range(self.n_blocks - 1, -1, -1):
            da *= buffers[j][1]
            da = backward(j, da, input_grad=j > 0)
            if j > 0:
                da += d_trunk[j - 1]
        g = self._grads.flat
        if weight_mask is not None:
            # (0 + g) * mask + 0 equals g * mask + 0 bit for bit for a 0/1
            # mask, signed zeros and NaN included.
            g[: self._n_quantized] *= weight_mask
        return math.fsum(per_exit), per_exit, _FlatViews(g + 0.0, self._layout)

    def sgd_step(
        self, grads: _FlatViews, lr: float, momentum: float, wd: float
    ) -> None:
        """Momentum SGD over the flat buffer, weight decay on the weight
        region only: v = momentum * v + (g + wd * w), then w -= lr * v, with
        the products made in a scratch array of the net's own."""
        g = grads.flat
        v = self._velocity
        w = self.params.flat
        work = self._sgd_work
        v *= momentum
        if wd:
            nw = self._n_weights
            decay = np.multiply(w[:nw], wd, out=work[:nw])
            np.add(g[:nw], decay, out=decay)
            v[:nw] += decay
            v[nw:] += g[nw:]
        else:
            v += g
        w -= np.multiply(v, lr, out=work)

    def calibrate(self, X: np.ndarray) -> bool:
        """Assign per-tensor clips by KL-minimal choice over percentile
        candidates; weight clips come from the weights themselves,
        activation clips from a forward pass over the calibration batch.
        Returns False, assigning nothing, when a tensor to calibrate is not
        finite: training has diverged."""
        # Calibration runs once, on buffers of its own batch size: no other
        # set stays alive beside them, and only the relu6 outputs in acts
        # outlive the forward pass.
        self._buffers.clear()
        acts = self._forward(X, keep_acts=True)[-1]
        self._buffers.clear()
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
        self._act_consts = [
            None if q is None else _activation_consts(q) for q in self._act_q
        ]
        # The quantized weight region holds its layers in layer order.
        layers = [
            layer for layer, bits in enumerate(self._bits)
            if bits < UNQUANTIZED_BITS
        ]
        if layers:
            sizes = [self._w[layer].size for layer in layers]
            clip, scale, levels = (
                np.repeat(
                    np.array([getattr(self._weight_q[l], f) for l in layers], dtype=float),
                    sizes,
                )
                for f in ("clip", "scale", "levels")
            )
            nq = self._n_quantized
            self._weight_grid = FakeQuantizer(clip, scale, levels, (nq,))
            values = self._weight_grid.values
            self._wq = [
                values[lo:hi].reshape(shape) if hi <= nq else w
                for (lo, hi, shape), w in zip(self._spans, self._w)
            ]
        return True


def _calibrated_clip(values: np.ndarray, bits: int) -> float | None:
    """KL-calibrated clip of a tensor over its percentile candidates, from
    one sort of its values; None when they are not finite."""
    ordered = np.sort(values, axis=None)
    if not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
        return None
    # A nonnegative sample (every relu6 output) is its own sorted
    # magnitudes, up to the sign of its zeros, which the candidates ignore.
    mags = ordered if ordered[0] >= 0 else np.sort(np.abs(ordered))
    cands = sorted_clip_candidates(mags) or (1.0,)
    return calibrate_sorted(ordered, bits, cands).clip


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
                    X_train[batch], y_train[batch]
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
        check_fields(self, ValueError)
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
    return EvaluationReport(
        accuracy_per_exit=tuple(accs),
        exit_ratios=tuple(c / config.grid for c in counts),
        sample_counts=tuple(counts),
        threshold=config.threshold,
    )


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
    if not is_object(data) or set(data) != _REPORT_KEYS:
        raise ReportError(
            f"report must contain exactly the keys {sorted(_REPORT_KEYS)}"
        )
    if not isinstance(data["architecture"], str):
        raise ReportError("architecture hash must be a string")
    per_exit = [data[k] for k in ("accuracy_per_exit", "exit_ratios", "sample_counts")]
    report = EvaluationReport(
        *(tuple(v) if isinstance(v, list) else v for v in per_exit),
        data["threshold"],
    )
    if expected_hash is not None and data["architecture"] != expected_hash:
        raise ReportError(
            f"report bound to architecture {data['architecture']}, "
            f"expected {expected_hash}"
        )
    return data["architecture"], report
