import math

import numpy as np
import pytest

from eenas.quant import (
    CALIBRATION_BINS,
    ClipCalibration,
    QuantParams,
    calibrate_clip,
    fake_quant_with_mask,
    percentile_clip_candidates,
    quantize,
)

GRID_CASES = [(b, c) for b in (4, 8) for c in (0.5, 1.0, 6.0)]


def grid_points(params: QuantParams) -> np.ndarray:
    m = params.levels
    return np.array([k * params.scale for k in range(-m, m + 1)])


def floor_oracle(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Greatest enumerated grid point not above the clamped value."""
    grid = grid_points(params)
    clamped = np.clip(values, -params.clip, params.clip)
    idx = np.searchsorted(grid, clamped, side="right") - 1
    return grid[np.maximum(idx, 0)]


class TestScaleFactor:
    def test_examples(self):
        assert QuantParams(127, 8).scale == 1.0
        assert QuantParams(1, 4).scale == 1 / 7
        assert QuantParams(6, 8).scale == pytest.approx(0.047244, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            QuantParams(0.0, 8)
        with pytest.raises(ValueError):
            QuantParams(1.0, 1)
        for clip in (math.inf, math.nan):
            with pytest.raises(ValueError):
                QuantParams(clip, 8)

    def test_params_expose_exact_scale(self):
        p = QuantParams(clip=6.0, bits=8)
        assert p.scale == 6.0 / 127
        assert p.levels == 127


class TestQuantize:
    def test_zero_maps_to_zero(self):
        for b, c in GRID_CASES:
            assert quantize(0.0, QuantParams(c, b)) == 0.0

    def test_clamp_endpoint(self):
        assert quantize(2.0, QuantParams(1.0, 8)) == 1.0
        assert quantize(-3.5, QuantParams(1.0, 8)) == -1.0

    def test_floor_example(self):
        # floor(0.5 * 7) / 7 = 3/7
        assert quantize(0.5, QuantParams(1.0, 4)) == pytest.approx(3 / 7, abs=1e-12)

    def test_grid_membership(self):
        rng = np.random.default_rng(0)
        for b, c in GRID_CASES:
            p = QuantParams(c, b)
            q = quantize(rng.uniform(-2 * c, 2 * c, 100_000), p)
            k = np.round(q / p.scale)
            assert np.array_equal(k * p.scale, q)

    def test_monotonicity(self):
        rng = np.random.default_rng(1)
        for b, c in GRID_CASES:
            p = QuantParams(c, b)
            x = np.sort(rng.uniform(-2 * c, 2 * c, 100_000))
            q = quantize(x, p)
            assert np.all(np.diff(q) >= 0)

    def test_idempotence(self):
        rng = np.random.default_rng(2)
        for b, c in GRID_CASES:
            p = QuantParams(c, b)
            q = quantize(rng.uniform(-2 * c, 2 * c, 100_000), p)
            assert np.array_equal(quantize(q, p), q)

    def test_codomain(self):
        rng = np.random.default_rng(3)
        for b, c in GRID_CASES:
            q = quantize(rng.uniform(-3 * c, 3 * c, 100_000), QuantParams(c, b))
            assert np.all(np.abs(q) <= c * (1 + 1e-12))

    def test_error_below_one_step(self):
        rng = np.random.default_rng(4)
        for b, c in GRID_CASES:
            p = QuantParams(c, b)
            x = rng.uniform(-c, c, 100_000)
            err = np.abs(x - quantize(x, p))
            assert err.max() < p.scale * (1 + 1e-9)

    def test_matches_enumerated_grid_oracle_low_bits(self):
        rng = np.random.default_rng(5)
        for bits in (2, 3, 4):
            for c in (0.5, 1.0, 6.0):
                p = QuantParams(c, bits)
                x = rng.uniform(-2 * c, 2 * c, 50_000)
                assert np.array_equal(quantize(x, p), floor_oracle(x, p))

    def test_matches_pure_python_scan(self):
        p = QuantParams(1.0, 4)
        grid = [k * p.scale for k in range(-7, 8)]
        rng = np.random.default_rng(6)
        for x in rng.uniform(-1.5, 1.5, 500):
            clamped = min(max(x, -1.0), 1.0)
            expected = max(g for g in grid if g <= clamped)
            assert quantize(float(x), p) == expected

    def test_grid_points_are_fixed(self):
        for b, c in GRID_CASES:
            p = QuantParams(c, b)
            pts = grid_points(p)
            assert np.array_equal(quantize(pts, p), pts)

    def test_awkward_clip_values(self):
        # Clips whose scale is not exactly representable stress the
        # floor correction; the core properties must still hold.
        rng = np.random.default_rng(10)
        for _ in range(40):
            bits = int(rng.integers(2, 9))
            clip = float(rng.uniform(1e-3, 50.0))
            p = QuantParams(clip, bits)
            x = rng.uniform(-2 * clip, 2 * clip, 5000)
            q = quantize(x, p)
            k = np.round(q / p.scale)
            assert np.array_equal(k * p.scale, q)
            assert np.array_equal(quantize(q, p), q)
            assert np.all(np.abs(q) <= clip * (1 + 1e-12))
            assert np.array_equal(quantize(grid_points(p), p), grid_points(p))

    def test_scalar_in_scalar_out(self):
        out = quantize(0.3, QuantParams(1.0, 8))
        assert isinstance(out, float)


def fake_quant(x: np.ndarray, p: QuantParams):
    return fake_quant_with_mask(x, p.clip, p.scale, p.levels)


class TestFakeQuant:
    def test_unquantized_sentinel_is_identity(self):
        x = np.linspace(-10, 10, 101)
        assert np.array_equal(quantize(x, QuantParams(1.0, 32)), x)

    def test_idempotent(self):
        p = QuantParams(1.0, 8)
        x = np.random.default_rng(7).normal(size=1000)
        once, _ = fake_quant(x, p)
        assert np.array_equal(fake_quant(once, p)[0], once)
        assert np.array_equal(quantize(x, p), once)

    def test_ste_mask_matches_clip_region(self):
        p = QuantParams(0.5, 8)
        x = np.array([-1.0, -0.5, 0.0, 0.4999, 0.5, 0.51])
        assert np.array_equal(fake_quant(x, p)[1], [0, 1, 1, 1, 1, 0])


class TestCalibration:
    def test_single_candidate(self):
        rng = np.random.default_rng(8)
        cal = calibrate_clip(rng.uniform(-1, 1, 5000), 8, [1.0])
        assert cal.clip == 1.0
        assert not cal.degenerate

    def test_constant_sample_prefers_fine_grid(self):
        cal = calibrate_clip(np.full(2000, 0.5), 8, [0.5, 5.0])
        assert cal.clip == 0.5
        kl = dict(cal.divergences)
        assert kl[0.5] < kl[5.0]

    def test_chosen_clip_minimizes_divergence(self):
        rng = np.random.default_rng(9)
        values = rng.normal(scale=2.0, size=4000)
        cal = calibrate_clip(values, 4, [0.5, 1.0, 2.0, 4.0, 8.0])
        best = min(d for _, d in cal.divergences)
        chosen = dict(cal.divergences)[cal.clip]
        assert chosen <= best + 1e-15

    def test_tie_breaks_toward_smaller_clip(self):
        # Both candidates clip nothing on a symmetric two-point sample and
        # produce identical histograms, so the smaller one must win.
        values = np.array([-1.0, 1.0] * 64)
        cal = calibrate_clip(values, 8, [4.0, 2.0])
        assert cal.clip == 2.0

    def test_all_zero_sample_flags_degenerate(self):
        cal = calibrate_clip(np.zeros(100), 8, [3.0, 1.0])
        assert cal == ClipCalibration(
            clip=1.0,
            bits=8,
            divergences=((1.0, 0.0), (3.0, 0.0)),
            degenerate=True,
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            calibrate_clip(np.array([]), 8, [1.0])
        with pytest.raises(ValueError):
            calibrate_clip(np.ones(10), 8, [])
        with pytest.raises(ValueError):
            calibrate_clip(np.ones(10), 8, [-1.0])

    def test_bin_count_is_fixed(self):
        assert CALIBRATION_BINS == 128

    def test_percentile_candidates(self):
        values = np.linspace(-2, 2, 1001)
        cands = percentile_clip_candidates(values)
        assert cands == tuple(sorted(cands))
        assert all(c > 0 for c in cands)
        assert percentile_clip_candidates(np.zeros(10)) == ()
