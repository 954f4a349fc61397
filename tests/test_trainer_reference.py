"""The toy QAT trainer keeps its parameters, velocity and gradients in flat
buffers, quantizes all weights in one pass per step with the straight-through
masks made in that pass, and calibrates clips from one sort of each sample.
It must train exactly as the per-tensor trainer it replaced; that trainer and
its quantization functions are kept here as the reference."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.arch import (
    QuantScheme,
    SpaceConfig,
    builtin_backbone,
    decode,
    sample_architecture,
)
from eenas.evaluate import (
    DenseEenn,
    TrainingConfig,
    _relu6,
    _softmax,
    _stratified_split,
    first_exit_decisions,
    make_toy_dataset,
    report_from_outcomes,
    train_toy,
)
from eenas.quant import (
    CALIBRATION_BINS,
    DEFAULT_CLIP_PERCENTILES,
    ClipCalibration,
    QuantParams,
    calibrate_clip,
    percentile_clip_candidates,
    quantize,
)

# ---------------------------------------------------------------------------
# Reference: the per-tensor quantization functions
# ---------------------------------------------------------------------------


def ref_quantize(value, params):
    scalar = np.isscalar(value) or getattr(value, "ndim", 0) == 0
    if params.is_identity:
        return float(value) if scalar else np.asarray(value, dtype=float)
    x = np.clip(np.asarray(value, dtype=float), -params.clip, params.clip)
    s = params.scale
    m = params.levels
    k = np.floor(x / s)
    k = np.where(k * s > x, k - 1.0, k)
    k = np.where((k + 1.0) * s <= x, k + 1.0, k)
    k = np.clip(k, -m, m)
    out = k * s
    return float(out) if scalar else out


def ref_fake_quant_forward(tensor, params):
    if params.is_identity:
        return np.asarray(tensor, dtype=float)
    return ref_quantize(np.asarray(tensor, dtype=float), params)


def ref_ste_mask(tensor, params):
    arr = np.asarray(tensor, dtype=float)
    if params.is_identity:
        return np.ones_like(arr)
    return (np.abs(arr) <= params.clip).astype(float)


def ref_calibrate_clip(values, bits, candidates):
    """Quantize the whole sample per candidate and histogram it."""
    v = np.asarray(values, dtype=float).ravel()
    cands = sorted(set(float(c) for c in candidates))
    amax = float(np.max(np.abs(v)))
    if amax == 0.0:
        return ClipCalibration(
            clip=cands[0],
            bits=bits,
            divergences=tuple((c, 0.0) for c in cands),
            degenerate=True,
        )
    edges = np.linspace(-amax, amax, CALIBRATION_BINS + 1)
    p = np.histogram(v, bins=edges)[0] / v.size
    best_clip = None
    best_kl = math.inf
    divergences = []
    for c in cands:
        qv = ref_quantize(v, QuantParams(clip=c, bits=bits))
        q = np.histogram(np.clip(qv, -amax, amax), bins=edges)[0] / v.size
        kl = float(np.sum(p * (np.log(p + 1e-12) - np.log(q + 1e-12))))
        divergences.append((c, kl))
        if kl < best_kl:
            best_kl = kl
            best_clip = c
    return ClipCalibration(
        clip=best_clip, bits=bits, divergences=tuple(divergences), degenerate=False
    )


def ref_percentile_clip_candidates(values, percentiles=DEFAULT_CLIP_PERCENTILES):
    mags = np.abs(np.asarray(values, dtype=float).ravel())
    cands = sorted(set(float(np.percentile(mags, p)) for p in percentiles))
    return tuple(c for c in cands if c > 0)


# ---------------------------------------------------------------------------
# Reference: the per-tensor trainer
# ---------------------------------------------------------------------------


class ReferenceDenseEenn:
    """One array per parameter, one quantize per tensor and step, masks
    recomputed in the backward pass."""

    def __init__(self, arch, in_features, num_classes, width, rng):
        self.arch = arch
        self.num_classes = num_classes
        self.n_blocks = len(arch.backbone.instances)
        self.positions = [
            arch.backbone.mount_position(e.mount) for e in arch.exits
        ]
        self.params = {}
        self.weight_q = {}
        self.act_q = {}
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

    def _add_linear(self, name, fan_in, fan_out, rng):
        scale = math.sqrt(2.0 / fan_in)
        self.params[f"{name}.w"] = rng.normal(size=(fan_in, fan_out)) * scale
        self.params[f"{name}.b"] = np.full(fan_out, 0.01)
        self.weight_q[f"{name}.w"] = None

    def _weight(self, name):
        w = self.params[f"{name}.w"]
        q = self.weight_q[f"{name}.w"]
        return ref_fake_quant_forward(w, q) if q is not None else w

    def _activation(self, site, h):
        q = self.act_q.get(site)
        return ref_fake_quant_forward(h, q) if q is not None else h

    def forward(self, X):
        return self._forward(X)[0]

    def _forward(self, X):
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

    def loss_and_grads(self, X, y):
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
            dlogits = (p - onehot) / n
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
        return math.fsum(per_exit), per_exit, grads

    def _wmask(self, name):
        q = self.weight_q[f"{name}.w"]
        if q is None:
            return 1.0
        return ref_ste_mask(self.params[f"{name}.w"], q)

    def _amask(self, site, h):
        q = self.act_q.get(site)
        if q is None:
            return 1.0
        return ref_ste_mask(h, q)

    def sgd_step(self, grads, lr, momentum, wd):
        for key, g in grads.items():
            if wd and key.endswith(".w"):
                g = g + wd * self.params[key]
            self._velocity[key] = momentum * self._velocity[key] + g
            self.params[key] -= lr * self._velocity[key]

    def calibrate(self, X):
        bits_bb = self.arch.quant.backbone_bits
        _, trunk, caches, head_caches = self._forward(X)
        for j in range(self.n_blocks):
            self._set_weight_clip(f"block{j}", bits_bb)
            self._set_act_clip(f"block{j}", caches[j]["h"], bits_bb)
        for i, placement in enumerate(self.arch.exits, start=1):
            bits = self.arch.quant.exit_bits[i - 1]
            if placement.head.depth == 2:
                self._set_weight_clip(f"exit{i}.hidden", bits)
                self._set_act_clip(f"exit{i}.hidden", head_caches[i - 1]["h1"], bits)
            self._set_weight_clip(f"exit{i}.out", bits)

    def _set_weight_clip(self, name, bits):
        if bits >= 32:
            return
        values = self.params[f"{name}.w"]
        cands = ref_percentile_clip_candidates(values) or (1.0,)
        picked = ref_calibrate_clip(values, bits, cands)
        self.weight_q[f"{name}.w"] = QuantParams(clip=picked.clip, bits=bits)

    def _set_act_clip(self, site, values, bits):
        if bits >= 32:
            return
        cands = ref_percentile_clip_candidates(values) or (1.0,)
        picked = ref_calibrate_clip(values, bits, cands)
        self.act_q[site] = QuantParams(clip=picked.clip, bits=bits)


def reference_train_toy(arch, dataset, config):
    X, y = dataset
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    num_classes = int(y.max()) + 1
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = _stratified_split(y, config.holdout_fraction, rng)
    net = ReferenceDenseEenn(arch, X.shape[1], num_classes, config.hidden_width, rng)
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
                loss, _, grads = net.loss_and_grads(X_train[batch], y_train[batch])
                assert math.isfinite(loss)
                net.sgd_step(
                    grads, config.learning_rate, config.momentum, config.weight_decay
                )
        logits = net.forward(X[val_idx])
    conf = np.stack([_softmax(l).max(axis=1) for l in logits], axis=1)
    decisions = first_exit_decisions(conf, config.threshold)
    predicted = np.stack([l.argmax(axis=1) for l in logits], axis=1)
    correct = predicted[np.arange(len(val_idx)), decisions - 1] == y[val_idx]
    return report_from_outcomes(decisions, correct, arch.m, config.threshold)


# ---------------------------------------------------------------------------
# Architectures under test
# ---------------------------------------------------------------------------


def _architectures():
    """50 seeded smallconv samples, half at backbone bits 8 and half at 4,
    with exit bits 8 and 4 and head depths 1 and 2; one of them at 32 bits
    throughout, and three mixing 32-bit and quantized layers."""
    backbone = builtin_backbone("smallconv")
    archs = []
    for bits in (8, 4):
        space = SpaceConfig(backbone=backbone, backbone_bits=bits)
        rng = np.random.default_rng(100 + bits)
        archs += [decode(sample_architecture(space, rng), space) for _ in range(25)]
    depths = {p.head.depth for a in archs for p in a.exits}
    assert depths == {1, 2}
    assert {b for a in archs for b in a.quant.exit_bits} == {8, 4}

    def requant(arch, backbone_bits, exit_bits):
        return dataclasses.replace(
            arch, quant=QuantScheme(backbone_bits=backbone_bits, exit_bits=exit_bits)
        )

    multi = next(a for a in archs if a.m >= 2)
    m = multi.m
    return archs + [
        requant(multi, 32, (32,) * m),
        requant(multi, 32, multi.quant.exit_bits),
        requant(multi, 8, (32,) + (4,) * (m - 1)),
        requant(multi, 4, (8,) * (m - 1) + (32,)),
    ]


ARCHS = _architectures()


def assert_bitwise(actual, expected, what):
    assert actual.shape == expected.shape, what
    assert np.array_equal(actual, expected), what
    assert np.array_equal(np.signbit(actual), np.signbit(expected)), what


def _lockstep(arch, dataset, config):
    """Train the flat-buffer network and the reference side by side, as
    ``train_toy`` does, checking every gradient and parameter after every
    step, the clips after calibration and the holdout logits at the end;
    returns the number of steps taken on the quantized path and the
    trained network."""
    X, y = dataset
    num_classes = int(y.max()) + 1
    rng_new = np.random.default_rng(config.seed)
    rng_ref = np.random.default_rng(config.seed)
    train_idx, val_idx = _stratified_split(y, config.holdout_fraction, rng_new)
    _stratified_split(y, config.holdout_fraction, rng_ref)
    net = DenseEenn(arch, X.shape[1], num_classes, config.hidden_width, rng_new)
    ref = ReferenceDenseEenn(arch, X.shape[1], num_classes, config.hidden_width, rng_ref)
    assert net.params.keys() == ref.params.keys()
    for key in ref.params:
        assert_bitwise(net.params[key], ref.params[key], f"initial {key}")
    quantized = arch.quant.backbone_bits < 32 or any(
        b < 32 for b in arch.quant.exit_bits
    )
    calib = X[train_idx[: 4 * config.batch_size]]
    X_train, y_train = X[train_idx], y[train_idx]
    quantized_steps = 0
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            if quantized and epoch == config.warmup_epochs:
                assert net.calibrate(calib)
                ref.calibrate(calib)
                for layer, (wkey, _) in enumerate(net._keys):
                    site = wkey[: -len(".w")]
                    assert net._weight_q[layer] == ref.weight_q[wkey], wkey
                    assert net._act_q[layer] == ref.act_q.get(site), site
            order = rng_new.permutation(len(X_train))
            assert np.array_equal(order, rng_ref.permutation(len(X_train)))
            for lo in range(0, len(order), config.batch_size):
                batch = order[lo : lo + config.batch_size]
                loss, per_exit, grads = net.loss_and_grads(
                    X_train[batch], y_train[batch]
                )
                ref_loss, ref_per_exit, ref_grads = ref.loss_and_grads(
                    X_train[batch], y_train[batch]
                )
                assert (loss, per_exit) == (ref_loss, ref_per_exit)
                assert grads.keys() == ref_grads.keys()
                for key in ref_grads:
                    assert_bitwise(grads[key], ref_grads[key], f"epoch {epoch} d{key}")
                args = (config.learning_rate, config.momentum, config.weight_decay)
                net.sgd_step(grads, *args)
                ref.sgd_step(ref_grads, *args)
                for key in ref.params:
                    assert_bitwise(net.params[key], ref.params[key], f"epoch {epoch} {key}")
                quantized_steps += net._weight_grid is not None
        for e, (logits, ref_logits) in enumerate(
            zip(net.forward(X[val_idx]), ref.forward(X[val_idx]))
        ):
            assert_bitwise(logits, ref_logits, f"holdout logits of exit {e + 1}")
    return quantized_steps, net


LOCKSTEP_CONFIG = TrainingConfig(epochs=3, learning_rate=0.03, seed=0)


class TestTrainerMatchesReference:
    @pytest.mark.parametrize("index", range(len(ARCHS)))
    def test_every_step_matches(self, index):
        arch = ARCHS[index]
        dataset = make_toy_dataset(n=200, seed=index)
        config = dataclasses.replace(LOCKSTEP_CONFIG, seed=index)
        steps, _ = _lockstep(arch, dataset, config)
        all_32 = arch.quant.backbone_bits == 32 and set(arch.quant.exit_bits) == {32}
        assert (steps == 0) == all_32

    def test_grid_step_branches_are_compared(self):
        """One run covers each branch of the activation grid step: a clip
        of 6 or more (relu6's bound is the clamp), one below 6 (the clip
        is), and a 4-bit depth-2 head, whose 128-wide hidden activation is
        the largest tensor a step quantizes."""
        index = next(
            i for i, a in enumerate(ARCHS)
            if any(p.head.depth == 2 and b == 4
                   for p, b in zip(a.exits, a.quant.exit_bits))
        )
        arch = ARCHS[index]
        config = dataclasses.replace(LOCKSTEP_CONFIG, seed=index)
        steps, net = _lockstep(arch, make_toy_dataset(n=200, seed=index), config)
        assert steps > 0
        clips = [q.clip for q in net._act_q if q is not None]
        assert min(clips) < 6.0 <= max(clips)
        hidden = [
            h for (h, _), p, b in zip(net._heads, arch.exits, arch.quant.exit_bits)
            if p.head.depth == 2 and b == 4
        ]
        assert hidden and all(net._act_q[h].bits == 4 for h in hidden)

    @pytest.mark.parametrize("index", range(0, len(ARCHS), 6))
    def test_report_matches(self, index):
        arch = ARCHS[index]
        dataset = make_toy_dataset(n=400, seed=index)
        config = TrainingConfig(epochs=10, learning_rate=0.03, seed=index)
        assert train_toy(arch, dataset, config) == reference_train_toy(
            arch, dataset, config
        )

    def test_non_finite_calibration_sample_is_divergence(self):
        arch = ARCHS[0]
        net = DenseEenn(arch, 8, 3, 16, np.random.default_rng(0))
        before = net.params.flat.copy()
        net.params.flat[0] = np.inf
        with np.errstate(all="ignore"):
            assert not net.calibrate(np.ones((4, 8)))
        assert net._weight_grid is None
        assert all(q is None for q in net._weight_q + net._act_q)
        assert np.array_equal(net.params.flat[1:], before[1:])


# ---------------------------------------------------------------------------
# Properties of the sort-once calibration
# ---------------------------------------------------------------------------


@st.composite
def samples(draw):
    """Finite samples rich in the cases binning is sensitive to: ties, grid
    points of the clips tried, the clips themselves and their negatives,
    integers, constants and tiny arrays."""
    bits = draw(st.integers(2, 16))
    clips = draw(
        st.lists(
            st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=4,
        )
    )
    params = [QuantParams(c, bits) for c in clips]
    finite = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    special = st.one_of(
        finite,
        st.integers(-50, 50).map(float),
        st.sampled_from(clips).map(float),
        st.sampled_from(clips).map(lambda c: -c),
        st.tuples(st.sampled_from(params), st.integers(-40_000, 40_000)).map(
            lambda pk: max(-pk[0].levels, min(pk[0].levels, pk[1])) * pk[0].scale
        ),
        st.just(0.0),
        st.just(-0.0),
    )
    if draw(st.booleans()):
        values = [draw(special)] * draw(st.integers(1, 300))
    else:
        values = draw(st.lists(special, min_size=1, max_size=300))
    return np.array(values, dtype=float), bits, clips


class TestSortOnceCalibration:
    @settings(max_examples=400, deadline=None)
    @given(samples())
    def test_matches_quantize_then_histogram(self, case):
        values, bits, clips = case
        expected = ref_calibrate_clip(values, bits, clips)
        assert calibrate_clip(values, bits, clips) == expected
        assert calibrate_clip(np.sort(values), bits, clips) == expected

    @settings(max_examples=200, deadline=None)
    @given(samples())
    def test_percentile_candidates_match(self, case):
        values, _, _ = case
        expected = ref_percentile_clip_candidates(values)
        assert percentile_clip_candidates(values) == expected
        assert percentile_clip_candidates(np.sort(values)) == expected

    @settings(max_examples=300, deadline=None)
    @given(samples())
    def test_quantize_is_greatest_grid_point_below_clamped_input(self, case):
        values, bits, clips = case
        for clip in clips:
            p = QuantParams(clip, bits)
            m = p.levels
            grid = np.arange(-m, m + 1) * p.scale
            clamped = np.clip(values, -clip, clip)
            index = np.searchsorted(grid, clamped, side="right") - 1
            expected = grid[np.clip(index, 0, 2 * m)]
            q = quantize(values, p)
            assert np.array_equal(q, expected)
            assert np.array_equal(q, ref_quantize(values, p))
            assert np.all(np.abs(q) <= m * p.scale)

    def test_non_finite_sample_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                calibrate_clip(np.array([0.5, bad, -1.0]), 8, [1.0])
