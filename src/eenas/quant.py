"""Symmetric linear quantization.

Values are clamped to [-c, c] and floored onto the uniform grid with scale
s = c / (2^(b-1) - 1), giving 2^b - 1 representable magnitudes symmetric
about zero. Bit width 32 is the "unquantized" sentinel and maps values
through unchanged. Clip magnitudes are calibrated per layer by minimizing
the KL divergence between histograms of the raw and quantized values.

The floor-and-correct grid step has one home, :func:`_grid_steps`.
:func:`quantize` uses it one tensor at a time; :func:`fake_quant_with_mask`
runs it once over many tensors, with per-element clip, scale and level
arrays, and returns the straight-through mask from the same pass. Every
element goes through the same floating-point operations either way, so the
values are the same bit for bit.

:func:`calibrate_clip` sorts its sample once. Both histograms are then
counted by binary search on the sorted sample, exactly as ``np.histogram``
counts with explicit edges. A candidate's quantized image is counted per
grid point: quantize maps x to the greatest grid point not above clamp(x),
so the samples below a grid point are one ``searchsorted`` away.
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


def _grid_steps(x, scale, levels):
    """Index k of the greatest grid point ``k * scale`` not above ``x``,
    clipped to [-levels, levels], as floats; ``x`` is already clamped.

    The quotient ``x / scale`` can land one step off the true grid after
    rounding, so the floor is corrected once each way against the actual
    floating-point products. The corrections write through ``where=``,
    which leaves unselected entries untouched exactly as ``np.where`` would,
    so no sign of zero changes. ``scale`` and ``levels`` are scalars or
    arrays shaped like ``x``.
    """
    k = np.floor(x / scale)
    np.subtract(k, 1.0, out=k, where=k * scale > x)
    np.add(k, 1.0, out=k, where=(k + 1.0) * scale <= x)
    return np.clip(k, -levels, levels, out=k)


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
    x = np.atleast_1d(np.asarray(value, dtype=float))
    x = np.clip(x, -params.clip, params.clip)
    out = _grid_steps(x, params.scale, params.levels)
    out *= params.scale
    return float(out[0]) if scalar else out


def fake_quant_with_mask(x: np.ndarray, clip, scale, levels):
    """Fake quantization of a float array and its straight-through gradient
    mask (1 inside [-c, c], 0 outside) in one pass. ``clip``, ``scale`` and
    ``levels`` are the quantizer's (``levels`` is 2^(b-1) - 1), as scalars
    or as arrays shaped like ``x``, so that tensors of different clips and
    bit widths can share one pass. Returns the quantized values and the
    mask as booleans."""
    clamped = np.clip(x, -clip, clip)
    out = _grid_steps(clamped, scale, levels)
    out *= scale
    # |x| <= clip exactly where clamping left x unchanged; NaN fails both.
    return out, clamped == x


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
    128-bin histograms of the sample and of its quantized image. The
    sample must be finite."""
    v = _ascending(np.asarray(values, dtype=float).ravel())
    if v.size == 0:
        raise ValueError("cannot calibrate on an empty sample")
    cands = sorted(set(float(c) for c in candidates))
    if not cands:
        raise ValueError("empty clip candidate grid")
    if any(not (c > 0 and math.isfinite(c)) for c in cands):
        raise ValueError("clip candidates must be positive and finite")
    if not (math.isfinite(v[0]) and math.isfinite(v[-1])):
        raise ValueError("cannot calibrate on a non-finite sample")
    amax = float(max(-v[0], v[-1]))
    if amax == 0.0:
        return ClipCalibration(
            clip=cands[0],
            bits=bits,
            divergences=tuple((c, 0.0) for c in cands),
            degenerate=True,
        )
    n = v.size
    edges = np.linspace(-amax, amax, CALIBRATION_BINS + 1)
    p = _bin_counts(v, edges) / n
    best_clip = None
    best_kl = math.inf
    divergences = []
    for c in cands:
        params = QuantParams(clip=c, bits=bits)
        # Flooring can step just past the sample range; bin at the edges.
        if 2 * params.levels + 1 > n:
            # More grid points than samples: quantize the sample itself.
            # Quantization is monotone, so the image stays ascending.
            image = np.clip(quantize(v, params), -amax, amax)
            counts = _bin_counts(image, edges)
        else:
            m = params.levels
            grid = np.arange(-m, m + 1) * params.scale
            # below[j]: samples whose image lies under grid[j]. A grid point
            # above the clip is never reached by a clamped sample.
            below = np.searchsorted(v, grid[1:], side="left")
            below[grid[1:] > c] = n
            below = np.concatenate(([0], below, [n]))
            counts = _bin_counts(np.clip(grid, -amax, amax), edges, below)
        kl = _kl_divergence(p, counts / n)
        divergences.append((c, kl))
        if kl < best_kl:
            best_kl = kl
            best_clip = c
    return ClipCalibration(
        clip=best_clip, bits=bits, divergences=tuple(divergences), degenerate=False
    )


def _ascending(v: np.ndarray) -> np.ndarray:
    """``v`` itself when it is already ascending, else a sorted copy."""
    return v if bool(np.all(v[1:] >= v[:-1])) else np.sort(v)


def _bin_counts(ascending: np.ndarray, edges: np.ndarray, below=None):
    """``np.histogram(x, edges)[0]`` of an ascending ``x``, counted the way
    numpy counts explicit edges: bin i holds edges[i] <= x < edges[i+1],
    the last bin is closed. With ``below``, ``x[j]`` stands for
    ``below[j+1] - below[j]`` samples."""
    idx = np.concatenate((
        np.searchsorted(ascending, edges[:-1], side="left"),
        np.searchsorted(ascending, edges[-1:], side="right"),
    ))
    return np.diff(idx if below is None else below[idx])


def _kl_divergence(p: np.ndarray, q: np.ndarray, eps: float = 1e-12) -> float:
    return float(np.sum(p * (np.log(p + eps) - np.log(q + eps))))


def percentile_clip_candidates(
    values, percentiles: Sequence[float] = DEFAULT_CLIP_PERCENTILES
) -> tuple[float, ...]:
    """Candidate clips from percentile magnitudes of a sample, taken in one
    call on the sorted magnitudes; zero or duplicate magnitudes are
    dropped."""
    mags = _ascending(np.abs(np.asarray(values, dtype=float).ravel()))
    cands = sorted(set(float(c) for c in np.percentile(mags, percentiles)))
    return tuple(c for c in cands if c > 0)
