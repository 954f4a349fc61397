"""Symmetric linear quantization.

Values are clamped to [-c, c] and floored onto the uniform grid with scale
s = c / (2^(b-1) - 1), giving 2^b - 1 representable magnitudes symmetric
about zero. Bit width 32 is the "unquantized" sentinel and maps values
through unchanged. Clip magnitudes are calibrated per layer by minimizing
the KL divergence between histograms of the raw and quantized values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arch import UNQUANTIZED_BITS

#: Fixed histogram resolution for clip calibration.
CALIBRATION_BINS = 128

#: Percentile magnitudes tried as clip candidates during training.
DEFAULT_CLIP_PERCENTILES = (90.0, 95.0, 99.0, 99.9, 100.0)


@dataclass(frozen=True)
class QuantParams:
    """Clip magnitude and bit width; the scale is derived, never stored."""

    clip: float
    bits: int

    def __post_init__(self):
        if self.bits < 2:
            raise ValueError("bit width must be >= 2")
        if not (self.clip > 0 and math.isfinite(self.clip)):
            raise ValueError("clip must be positive and finite")

    @property
    def levels(self) -> int:
        return 2 ** (self.bits - 1) - 1

    @property
    def scale(self) -> float:
        return self.clip / self.levels

    @property
    def is_identity(self) -> bool:
        return self.bits >= UNQUANTIZED_BITS


def scale_factor(clip: float, bits: int) -> float:
    """Grid step c / (2^(b-1) - 1)."""
    return QuantParams(clip, bits).scale


def quantize(value, params: QuantParams):
    """Floor ``clamp(value, -c, c)`` onto the grid and rescale.

    Returns the greatest representable grid point not exceeding the clamped
    input. The floor of the scaled quotient is corrected against the actual
    floating-point grid so that grid points map to themselves exactly
    (idempotence) and outputs always satisfy quantize(x)/s integral.
    Scalars in, scalar out; arrays in, array out.
    """
    scalar = np.isscalar(value) or getattr(value, "ndim", 0) == 0
    if params.is_identity:
        return float(value) if scalar else np.asarray(value, dtype=float)
    x = np.clip(np.asarray(value, dtype=float), -params.clip, params.clip)
    s = params.scale
    m = params.levels
    k = np.floor(x / s)
    # The quotient can land one step off the true grid after rounding.
    k = np.where(k * s > x, k - 1.0, k)
    k = np.where((k + 1.0) * s <= x, k + 1.0, k)
    k = np.clip(k, -m, m)
    out = k * s
    return float(out) if scalar else out


def fake_quant_forward(tensor, params: QuantParams) -> np.ndarray:
    """Elementwise quantization used inside training forwards. The matching
    backward rule is straight-through: gradient 1 inside [-c, c], 0 outside
    (see :func:`ste_mask`)."""
    if params.is_identity:
        return np.asarray(tensor, dtype=float)
    return quantize(np.asarray(tensor, dtype=float), params)


def ste_mask(tensor, params: QuantParams) -> np.ndarray:
    """Straight-through gradient mask for :func:`fake_quant_forward`."""
    arr = np.asarray(tensor, dtype=float)
    if params.is_identity:
        return np.ones_like(arr)
    return (np.abs(arr) <= params.clip).astype(float)


@dataclass(frozen=True)
class ClipCalibration:
    """Chosen clip plus the divergence of every candidate, smallest clip
    winning ties. ``degenerate`` flags an all-zero sample."""

    clip: float
    bits: int
    divergences: tuple[tuple[float, float], ...]
    degenerate: bool = False


def calibrate_clip(
    values, bits: int, candidates: Iterable[float]
) -> ClipCalibration:
    """Pick the clip candidate minimizing the KL divergence between the
    128-bin histograms of the sample and of its quantized image."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("cannot calibrate on an empty sample")
    cands = sorted(set(float(c) for c in candidates))
    if not cands:
        raise ValueError("empty clip candidate grid")
    if any(not (c > 0 and math.isfinite(c)) for c in cands):
        raise ValueError("clip candidates must be positive and finite")
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
        qv = quantize(v, QuantParams(clip=c, bits=bits))
        # Flooring can step just past the sample range; bin at the edges.
        q = np.histogram(np.clip(qv, -amax, amax), bins=edges)[0] / v.size
        kl = _kl_divergence(p, q)
        divergences.append((c, kl))
        if kl < best_kl:
            best_kl = kl
            best_clip = c
    return ClipCalibration(
        clip=best_clip, bits=bits, divergences=tuple(divergences), degenerate=False
    )


def _kl_divergence(p: np.ndarray, q: np.ndarray, eps: float = 1e-12) -> float:
    return float(np.sum(p * (np.log(p + eps) - np.log(q + eps))))


def percentile_clip_candidates(
    values, percentiles: Sequence[float] = DEFAULT_CLIP_PERCENTILES
) -> tuple[float, ...]:
    """Candidate clips from percentile magnitudes of a sample; zero or
    duplicate magnitudes are dropped."""
    mags = np.abs(np.asarray(values, dtype=float).ravel())
    cands = sorted(set(float(np.percentile(mags, p)) for p in percentiles))
    return tuple(c for c in cands if c > 0)
