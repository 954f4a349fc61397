"""The grid step estimates k by a reciprocal, skips corrections that select
nothing and, on the activation path, drops the k clamps; the clip
calibration reads a sample sorted once. Each is checked bit for bit, sign
bits and NaN included, against the computation it replaced."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.evaluate import _activate, _activation_consts, _calibrated_clip
from eenas.quant import (
    FakeQuantizer,
    QuantParams,
    calibrate_clip,
    calibrate_sorted,
    grid_points,
    grid_work,
    reciprocal,
    sorted_clip_candidates,
)
from helpers import reference_grid_points
from test_step_plan import reference_activation, same_bits

#: Clips whose scale is subnormal (its reciprocal overflows) or tiny.
TINY_CLIPS = (1e-310, 1e-300)


def neighbours(value):
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


@st.composite
def clips(draw):
    return draw(
        st.one_of(
            st.floats(1e-3, 50.0),
            st.sampled_from([6.0, math.nextafter(6.0, 0.0), *TINY_CLIPS]),
        )
    )


def grid_values(draw, q, lo, hi, size):
    """``size`` values in [lo, hi]: grid points of ``q`` and their float
    neighbours (where the estimate lands a step off and a correction
    fires), the bounds, signed zeros, NaN and plain draws."""
    k = st.integers(-q.levels, q.levels)
    value = st.one_of(
        st.tuples(k, st.integers(0, 2)).map(
            lambda kj: neighbours(kj[0] * q.scale)[kj[1]]
        ),
        st.sampled_from([lo, hi, 0.0, -0.0, math.nan]),
        st.floats(lo, hi),
    )
    x = np.array(draw(st.lists(value, min_size=size, max_size=size)))
    # Keep NaN and the sign of zero; clamp the rest into [lo, hi].
    inside = np.isnan(x) | (x == 0)
    return np.where(inside, x, np.minimum(np.maximum(x, lo), hi))


@st.composite
def activation_cases(draw):
    """Scalar constants and x in [0, min(clip, 6)], as relu6 and its clamp
    leave an activation."""
    q = QuantParams(draw(clips()), draw(st.integers(2, 8)))
    top = min(q.clip, 6.0)
    x = grid_values(draw, q, 0.0, top, draw(st.integers(1, 40)))
    return x, q


@st.composite
def weight_cases(draw):
    """Per-element clip, scale and level arrays and x in [-clip, clip], as
    the quantizer of a net's weight region sees them."""
    params = [
        QuantParams(draw(clips()), draw(st.integers(2, 8)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    sizes = [draw(st.integers(1, 12)) for _ in params]
    x = np.concatenate(
        [grid_values(draw, q, -q.clip, q.clip, n) for q, n in zip(params, sizes)]
    )
    clip, scale, levels = (
        np.repeat([getattr(q, f) for q in params], sizes).astype(float)
        for f in ("clip", "scale", "levels")
    )
    return x, clip, scale, levels


def reference_step(x, scale, levels, lower):
    out = x.copy()
    with np.errstate(all="ignore"):
        return reference_grid_points(out, scale, levels, lower, out, grid_work(x.shape))


class TestGridStep:
    @settings(max_examples=300, deadline=None)
    @given(activation_cases())
    def test_activation_path_matches_the_reference(self, case):
        """Scalar constants, no k clamps where the reciprocal is finite."""
        x, q = case
        expected = reference_step(x, q.scale, float(q.levels), None)
        inv = reciprocal(q.scale)
        out = x.copy()
        with np.errstate(all="ignore"):
            grid_points(
                out, q.scale, inv, float(q.levels) if inv is None else None, None,
                out, grid_work(x.shape),
            )
        assert same_bits(out, expected)

    @settings(max_examples=300, deadline=None)
    @given(weight_cases())
    def test_weight_path_matches_the_reference(self, case):
        x, clip, scale, levels = case
        expected = reference_step(x, scale, levels, -levels)
        with np.errstate(all="ignore"):
            values, mask = FakeQuantizer(clip, scale, levels, x.shape)(x)
        assert same_bits(values, expected)
        assert np.array_equal(mask, np.abs(x) <= clip)

    def test_tiny_clips(self):
        """A subnormal scale has an infinite reciprocal, and 0 * inf is NaN:
        the step divides there instead. With a clip of 1e-300 the
        reciprocal is finite and used."""
        assert reciprocal(1e-310 / 127) is None
        assert reciprocal(np.array([1.0, 1e-310 / 127])) is None
        assert reciprocal(1e-300 / 127) is not None
        assert reciprocal(5e-324 / 127) is None  # a zero scale
        for clip in TINY_CLIPS + (5e-324,):
            q = QuantParams(clip, 8)
            x = np.array([0.0, -0.0, clip, -clip, clip / 3, -clip / 3, math.nan])
            levels = float(q.levels)
            with np.errstate(all="ignore"):
                values = FakeQuantizer(clip, q.scale, levels, x.shape)(x)[0]
            assert same_bits(values, reference_step(x, q.scale, levels, -levels))

    def test_activation_with_tiny_clips(self):
        """Where the reciprocal is not finite, the activation's step divides
        and clamps k, as a zero scale needs."""
        z = np.array([[-1.0, -0.0, 0.0, 1e-311, 1e-310, 2e-310, 3.0, 7.0, math.nan]])
        for clip in TINY_CLIPS + (5e-324,):
            q = QuantParams(clip, 8)
            out = z.copy()
            mask = np.empty(z.shape, dtype=bool)
            with np.errstate(all="ignore"):
                expected, expected_mask = reference_activation(z, q)
                _activate(out, mask, _activation_consts(q), grid_work(z.shape))
            assert same_bits(out, expected), clip
            assert np.array_equal(mask, expected_mask), clip

    def test_every_grid_neighbour(self):
        """On every grid point, its two float neighbours and the clips, the
        floor of the reciprocal estimate lands a step above the answer
        somewhere and a step below it elsewhere, on both paths, and -clip
        lies below the lowest grid point for some clips, where the lower
        clamp binds; each result still equals the reference."""
        fired = {"activation": [0, 0], "weight": [0, 0]}
        clamped = 0
        for bits in range(2, 9):
            for clip in np.random.default_rng(bits).uniform(0.01, 10.0, 20):
                q = QuantParams(float(clip), bits)
                levels = float(q.levels)
                x = np.array([
                    v for k in range(-q.levels, q.levels + 1)
                    for v in neighbours(k * q.scale)
                ] + [-q.clip, q.clip])
                weights = np.minimum(np.maximum(x, -q.clip), q.clip)
                acts = np.minimum(x[x >= 0], min(q.clip, 6.0))
                for path, values, levels_arg, lower in (
                    ("activation", acts, None, None),
                    ("weight", weights, levels, -levels),
                ):
                    k = np.floor(values * reciprocal(q.scale))
                    fired[path][0] += np.count_nonzero(k * q.scale > values)
                    fired[path][1] += np.count_nonzero((k + 1.0) * q.scale <= values)
                    out = values.copy()
                    grid_points(
                        out, q.scale, reciprocal(q.scale), levels_arg, lower, out,
                        grid_work(values.shape),
                    )
                    expected = reference_step(values, q.scale, levels, lower)
                    assert same_bits(out, expected), (path, bits, clip)
                clamped += q.levels * q.scale < q.clip  # -clip below step -levels
        assert all(count > 0 for counts in fired.values() for count in counts), fired
        assert clamped > 0


# ---------------------------------------------------------------------------
# Calibration from a sample sorted once
# ---------------------------------------------------------------------------


@st.composite
def calibration_samples(draw):
    """Sorted or unsorted, signed or nonnegative samples with repeats and
    -0.0, some smaller than the grid (2m + 1 > n)."""
    bits = draw(st.sampled_from([2, 3, 4, 8]))
    levels = 2 ** (bits - 1) - 1
    n = draw(st.one_of(st.integers(1, 2 * levels), st.integers(1, 200)))
    value = st.one_of(
        st.floats(-20.0, 20.0),
        st.sampled_from([0.0, -0.0, 1.0, 6.0]),
        st.integers(-4, 4).map(lambda k: k * 0.375),
    )
    x = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    if draw(st.booleans()):
        # A relu6 output: nonnegative, with -0.0 where relu6 kept it.
        x = np.where(x == 0, x, np.minimum(np.abs(x), 6.0))
    if draw(st.booleans()):
        x = np.sort(x)
    return x, bits


class TestSortedCalibration:
    @settings(max_examples=200, deadline=None)
    @given(calibration_samples())
    def test_trimmed_helpers_match(self, case):
        values, bits = case
        ordered = np.sort(values)
        cands = sorted_clip_candidates(np.sort(np.abs(values)))
        mags = ordered if ordered[0] >= 0 else np.sort(np.abs(ordered))
        assert sorted_clip_candidates(mags) == cands
        grid = cands or (1.0,)
        expected = calibrate_clip(values, bits, grid)
        assert calibrate_sorted(ordered, bits, grid) == expected
        assert _calibrated_clip(values.reshape(1, -1), bits) == expected.clip

    def test_non_finite_sample_is_none(self):
        for bad in (math.nan, math.inf, -math.inf):
            assert _calibrated_clip(np.array([[0.5, bad, -1.0]]), 8) is None
