"""The toy trainer's step plan: the fused relu6 and fake-quantization
activation, the stacked clip calibration, the direct percentiles, and the
per-batch-size buffers a net reuses from step to step. Each is checked
against the plain computation it replaces, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.evaluate import DenseEenn, _activate, _activation_consts, make_toy_dataset
from eenas.quant import (
    DEFAULT_CLIP_PERCENTILES,
    QuantParams,
    calibrate_clip,
    grid_work,
    sorted_percentiles,
)
from test_trainer_reference import ARCHS, ref_calibrate_clip, ref_quantize


def same_bits(actual, expected):
    """Equal shapes and equal float64 bit patterns: signed zeros and NaN
    payloads included."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and np.array_equal(
        actual.view(np.uint64), expected.view(np.uint64)
    )


# ---------------------------------------------------------------------------
# Fused relu6 + fake quantization
# ---------------------------------------------------------------------------


def _awkward_clips(bits, count=4):
    """Clips below 6 whose top grid point, levels * scale, rounds above the
    clip: there the clamp before the grid step decides the top value."""
    levels = 2 ** (bits - 1) - 1
    c = np.random.default_rng(bits).uniform(0.5, 6.0, 200_000)
    return [float(x) for x in c[levels * (c / levels) > c][:count]]


AWKWARD_CLIPS = {bits: _awkward_clips(bits) for bits in range(2, 17)}


@st.composite
def activation_cases(draw):
    """A pre-activation tensor rich in the values where relu6, the clamp
    and the grid step meet: signed zeros, NaN, infinities, 0 and 6, the
    clip and its neighbours, and grid points; with a clip below, at or
    above 6, or no quantizer at all."""
    quantized = draw(st.booleans())
    bits = draw(st.integers(2, 16))
    clip = draw(
        st.one_of(
            st.just(6.0),
            st.floats(1e-3, 5.999),
            st.floats(6.0, 50.0),
            st.sampled_from([math.nextafter(6.0, 0.0), math.nextafter(6.0, 7.0)]),
            st.sampled_from(AWKWARD_CLIPS[bits] or [1.0]),
        )
    )
    q = QuantParams(clip, bits)
    grid_point = st.integers(0, q.levels).map(lambda k: k * q.scale)
    value = st.one_of(
        st.floats(-10.0, 10.0),
        st.floats(min(clip, 6.0), 6.0),
        st.sampled_from(
            [0.0, -0.0, 6.0, -6.0, math.nan, -math.nan, math.inf, -math.inf,
             clip, -clip, math.nextafter(clip, 0.0), math.nextafter(clip, 99.0),
             math.nextafter(0.0, 1.0), math.nextafter(0.0, -1.0)]
        ),
        grid_point,
    )
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    z = np.array(draw(st.lists(value, min_size=rows * cols, max_size=rows * cols)))
    return z.reshape(rows, cols), (q if quantized else None)


def reference_activation(z, q):
    """relu6, then the clamp and quantize, and the product of the relu6 and
    straight-through masks, one function after the other."""
    h = np.minimum(np.maximum(z, 0.0), 6.0)
    through = (z > 0) & (z < 6)
    if q is None:
        return h, through
    return ref_quantize(h, q), through & (np.abs(h) <= q.clip)


class TestFusedActivation:
    @settings(max_examples=250, deadline=None)
    @given(activation_cases())
    def test_matches_relu6_then_quantize(self, case):
        z, q = case
        expected, expected_mask = reference_activation(z, q)
        out = z.copy()
        mask = np.empty(z.shape, dtype=bool)
        consts = None if q is None else _activation_consts(q)
        with np.errstate(all="ignore"):
            _activate(out, mask, consts, grid_work(z.shape))
        assert same_bits(out, expected)
        assert np.array_equal(mask, expected_mask)

    def test_stale_buffers_do_not_leak(self):
        """The outputs do not depend on what the buffers held before."""
        z = np.array([[-0.0, 0.0, 3.3, 7.0], [np.nan, 0.5, 6.0, -2.0]])
        q = QuantParams(4.0, 4)
        consts = _activation_consts(q)
        results = []
        for fill in (0.0, np.nan, -7.0):
            out = z.copy()
            mask = np.full(z.shape, fill != 0.0)
            work = grid_work(z.shape)
            for buffer in work:
                buffer[...] = fill
            with np.errstate(all="ignore"):
                _activate(out, mask, consts, work)
            results.append((out, mask))
        for out, mask in results[1:]:
            assert same_bits(out, results[0][0])
            assert np.array_equal(mask, results[0][1])


# ---------------------------------------------------------------------------
# Stacked calibration and direct percentiles
# ---------------------------------------------------------------------------


@st.composite
def calibration_cases(draw):
    """A sample that lands on the chosen side of the grid-size test (more
    grid points than samples, or at most as many), with ties, integers,
    clips, grid points and zeros; or an all-zero sample."""
    bits = draw(st.sampled_from([2, 3, 4, 5, 8, 32]))
    clips = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5))
    points = 2 ** bits - 1
    if draw(st.booleans()) or bits == 32:
        n = draw(st.integers(1, min(points - 1, 300))) if points > 1 else 1
    else:
        n = draw(st.integers(points, points + 300))
    params = [QuantParams(c, bits) for c in clips]
    value = st.one_of(
        st.floats(-1e4, 1e4),
        st.integers(-50, 50).map(float),
        st.sampled_from(clips),
        st.sampled_from(clips).map(lambda c: -c),
        st.tuples(st.sampled_from(params), st.integers(-300, 300)).map(
            lambda pk: max(-pk[0].levels, min(pk[0].levels, pk[1])) * pk[0].scale
        ),
        st.sampled_from([0.0, -0.0]),
    )
    shape = draw(st.sampled_from(["zero", "ties", "mixed"]))
    if shape == "zero":
        values = [draw(st.sampled_from([0.0, -0.0])) for _ in range(n)]
    elif shape == "ties":
        pool = draw(st.lists(value, min_size=1, max_size=3))
        values = [pool[i % len(pool)] for i in range(n)]
    else:
        values = draw(st.lists(value, min_size=n, max_size=n))
    return np.array(values), bits, clips


class TestStackedCalibration:
    @settings(max_examples=100, deadline=None)
    @given(calibration_cases())
    def test_matches_quantize_then_histogram(self, case):
        values, bits, clips = case
        expected = ref_calibrate_clip(values, bits, clips)
        assert calibrate_clip(values, bits, clips) == expected
        if not np.any(values):
            assert expected.degenerate

    def test_both_branches_seen(self):
        """8 bits means 255 grid points: 254 samples quantize the sample,
        255 count per grid point."""
        rng = np.random.default_rng(5)
        for n in (254, 255):
            values = rng.normal(size=n)
            clips = [0.5, 1.0, 2.0, float(np.max(np.abs(values)))]
            assert calibrate_clip(values, 8, clips) == ref_calibrate_clip(
                values, 8, clips
            )


@st.composite
def ascending_samples(draw):
    """Sorted samples with ties, infinities and NaN, but no -0.0: numpy's
    partition may leave either of two equal zeros at an index, so with
    both signs present the sign of a zero percentile is its choice.
    Magnitudes, which the clip candidates come from, have no -0.0."""
    finite = st.floats(-1e6, 1e6).map(lambda v: v + 0.0)
    special = st.sampled_from([0.0, 1.0, math.inf, -math.inf, math.nan])
    values = draw(st.lists(st.one_of(finite, special), min_size=1, max_size=60))
    percentiles = draw(
        st.one_of(
            st.just(DEFAULT_CLIP_PERCENTILES),
            st.lists(
                st.one_of(st.floats(0.0, 100.0), st.sampled_from([0, 50, 100])),
                min_size=1,
                max_size=6,
            ).map(tuple),
        )
    )
    return np.sort(np.array(values)), percentiles


class TestDirectPercentiles:
    @settings(max_examples=200, deadline=None)
    @given(ascending_samples())
    def test_matches_np_percentile(self, case):
        ascending, percentiles = case
        with np.errstate(invalid="ignore"):
            expected = np.percentile(ascending, percentiles)
        assert same_bits(sorted_percentiles(ascending, percentiles), expected)

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ValueError, match="range"):
            sorted_percentiles(np.arange(3.0), (50.0, 100.5))


# ---------------------------------------------------------------------------
# Buffers reused across calls
# ---------------------------------------------------------------------------


class TestBufferReuse:
    """Interleaved calls on two nets, at each batch size the trainer uses,
    equal the same call on a fresh net, and nothing a call returned
    changes afterwards."""

    @staticmethod
    def build(arch, seed, calib):
        net = DenseEenn(arch, 8, 3, 16, np.random.default_rng(seed))
        if calib is not None:
            assert net.calibrate(calib)
        return net

    @pytest.mark.parametrize("calibrated", [True, False])
    def test_interleaved_calls_match_fresh_nets(self, calibrated):
        X, y = make_toy_dataset(n=400, seed=9)
        calib = X[:320] if calibrated else None
        deep = next(
            a for a in ARCHS
            if a.m >= 2 and any(p.head.depth == 2 for p in a.exits)
            and a.quant.backbone_bits < 32
        )
        specs = [(deep, 1), (ARCHS[-1], 2)]
        nets = [self.build(arch, seed, calib) for arch, seed in specs]
        logits_kept = []
        grads_kept = []
        rng = np.random.default_rng(0)
        with np.errstate(all="ignore"):
            for step, rows in enumerate((128, 64, 80, 128, 80, 64, 128)):
                for which in (step % 2, 1 - step % 2):
                    arch, seed = specs[which]
                    idx = rng.choice(len(X), size=rows, replace=False)
                    fresh = self.build(arch, seed, calib)
                    if (step + which) % 2:
                        got = nets[which].forward(X[idx])
                        want = fresh.forward(X[idx])
                        logits_kept.append((got, [l.copy() for l in want]))
                    else:
                        got = nets[which].loss_and_grads(X[idx], y[idx])
                        want = fresh.loss_and_grads(X[idx], y[idx])
                        assert got[:2] == want[:2]
                        assert not any(
                            np.shares_memory(got[2].flat, g.flat) for g, _ in grads_kept
                        )
                        grads_kept.append((got[2], want[2].flat.copy()))
        assert len(logits_kept) == len(grads_kept) == 7
        for got, want in logits_kept:
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert same_bits(g, w)
        for got, want in grads_kept:
            assert same_bits(got.flat, want)
            for key, view in got.items():
                assert np.shares_memory(view, got.flat), key
