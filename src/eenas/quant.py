"""Symmetric linear quantization.

Values are clamped to [-c, c] and floored onto the uniform grid with scale
s = c / (2^(b-1) - 1), giving 2^b - 1 representable magnitudes symmetric
about zero. Bit width 32 is the "unquantized" sentinel and maps values
through unchanged. Clip magnitudes are calibrated per layer by minimizing
the KL divergence between histograms of the raw and quantized values.

The floor-and-correct grid step has one home, :func:`grid_points`, which
writes through ``out=`` into buffers its caller owns. Its first estimate of
the step k multiplies by the reciprocal of the scale rather than dividing
by the scale. That estimate lies within one step of the answer, and the
two corrections that follow it turn any such estimate into the greatest
grid point not above x, so the result is the one the quotient gives, bit
for bit. Where the reciprocal is not finite (a subnormal scale) the step
divides. A correction that selects no element is skipped, since a masked
operation that selects nothing changes nothing. An activation reaches the
step already in [0, clip], so with a finite reciprocal its k cannot leave
[0, levels], and the step makes no clamp for it; a weight keeps both.
:class:`FakeQuantizer` keeps the buffers for one shape and one set of
(clip, scale, levels), scalars or per-element arrays, and returns the
straight-through mask from the same pass, so that a training step reuses
them instead of allocating; :func:`quantize` builds one per call. Every
element gets the same result either way, bit for bit.

:func:`calibrate_clip` sorts its sample once, and :func:`calibrate_sorted`
takes a sample its caller has sorted. Both histograms are then counted by
binary search on the sorted sample, exactly as ``np.histogram`` counts with
explicit edges. A candidate's quantized image is counted per grid point:
quantize maps x to the greatest grid point not above clamp(x), so the
samples below a grid point are one ``searchsorted`` away. All candidates of
one sample share one pass: their grids are stacked, searched in the sample
with one ``searchsorted``, binned with one ``bincount``, and their
divergences come from one reduction over a candidates x bins array.
Candidate clips are percentiles of the sorted magnitudes, read off by the
interpolation ``np.percentile`` uses, without its partition. The edges and
differences are made in the operations ``np.linspace`` and ``np.diff``
make, without their wrappers.
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


def reciprocal(scale):
    """``1 / scale`` for a float or an array ``scale``, or None where that
    is not finite everywhere: then :func:`grid_points` divides instead."""
    if isinstance(scale, float):
        inv = 1.0 / scale if scale else math.inf
        return inv if math.isfinite(inv) else None
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.divide(1.0, scale)
    return inv if np.isfinite(inv).all() else None


def grid_points(x, scale, inv, levels, lower, out, work):
    """Write into ``out`` the greatest grid point ``k * scale`` not above
    ``x``, with k clipped to [``lower``, ``levels``]; ``x`` is already
    clamped, and ``out`` may be ``x`` itself.

    The first estimate of k is ``floor(x * inv)`` with ``inv`` the
    reciprocal of ``scale`` from :func:`reciprocal`, or ``floor(x /
    scale)`` where ``inv`` is None. Either lies within one step of the
    answer: both quotients carry a relative error of a few units in the
    last place, far below one step for any bit width below 32. So the
    floor is corrected once each way against the actual floating-point
    products, which turns any estimate within one step into the greatest
    grid point not above x: the same k whichever estimate started it, with
    the same sign of zero, since k ends as -0 exactly where x is -0. The
    reciprocal of a subnormal scale can overflow, and 0 * inf is NaN, so
    ``inv`` is None there. The corrections write through ``where=``, which
    leaves unselected entries untouched exactly as ``np.where`` would, and
    each runs only when it selects an entry: a masked operation selecting
    none is a no-op.

    ``scale``, ``levels`` and ``lower`` (normally ``-levels``) are scalars
    or arrays broadcasting against ``x``. ``lower`` is None where ``x``
    holds no negative value, so that it could not bind. ``levels`` may be
    None where ``inv`` is given and ``x`` is at most the clip that the
    scale came from (scale = clip / levels): a scale with a finite
    reciprocal is precise enough that step ``levels + 1`` lies above the
    clip, so k cannot pass ``levels``. A scale of zero (a clip so small
    that clip / levels underflows) makes k infinite, and there the clamp
    decides. ``work`` holds the steps k, their products and the comparison
    hits: two float arrays and one bool array shaped like ``x``.
    """
    k, prod, hit = work
    if inv is None:
        np.divide(x, scale, out=k)
    else:
        np.multiply(x, inv, out=k)
    np.floor(k, out=k)
    np.multiply(k, scale, out=prod)
    np.greater(prod, x, out=hit)
    if np.count_nonzero(hit):
        np.subtract(k, 1.0, out=k, where=hit)
    np.add(k, 1.0, out=prod)
    np.multiply(prod, scale, out=prod)
    np.less_equal(prod, x, out=hit)
    if np.count_nonzero(hit):
        np.add(k, 1.0, out=k, where=hit)
    # Clamping from above, then below, equals np.clip for bounds that are
    # not zero, NaN included.
    if levels is not None:
        np.minimum(k, levels, out=k)
    if lower is not None:
        np.maximum(k, lower, out=k)
    return np.multiply(k, scale, out=out)


def grid_work(shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fresh ``work`` buffers of :func:`grid_points` for one shape."""
    return np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)


class FakeQuantizer:
    """Fake quantization of arrays of one shape with a fixed (clip, scale,
    levels), as scalars or as arrays broadcasting against that shape, so
    that tensors of different clips and bit widths can share one pass.

    Calling it returns the quantized values and the straight-through mask
    (True inside [-c, c]), both in buffers it owns and overwrites on the
    next call."""

    def __init__(self, clip, scale, levels, shape):
        self.clip, self.scale, self.levels = clip, scale, levels
        self.inv = reciprocal(scale)
        self.neg_clip = -clip
        self.neg_levels = -levels
        self.values = np.empty(shape)
        self.mask = np.empty(shape, dtype=bool)
        self.work = grid_work(shape)

    def __call__(self, x: np.ndarray):
        # np.clip(x, -c, c), as one clamp from below and one from above.
        values = np.maximum(x, self.neg_clip, out=self.values)
        np.minimum(values, self.clip, out=values)
        # |x| <= clip exactly where clamping left x unchanged; NaN fails both.
        np.equal(values, x, out=self.mask)
        grid_points(
            values, self.scale, self.inv, self.levels, self.neg_levels, values,
            self.work,
        )
        return values, self.mask


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
    out = FakeQuantizer(params.clip, params.scale, params.levels, x.shape)(x)[0]
    return float(out[0]) if scalar else out


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
    return calibrate_sorted(v, bits, candidates)


def calibrate_sorted(
    ascending: np.ndarray, bits: int, candidates: Iterable[float]
) -> ClipCalibration:
    """:func:`calibrate_clip` of a 1-D float sample already sorted
    ascending, which it does not check."""
    v = ascending
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
    edges = _edges(amax)
    p = _bin_counts(v, edges) / n
    params = QuantParams(clip=cands[0], bits=bits)  # checks the bit width
    m = params.levels
    clips = np.array(cands)[:, None]
    shape = (len(cands), n)
    # Per candidate (row), the points of its quantized image and how many
    # samples each stands for (None: one each).
    weights = None
    if params.is_identity:
        points = np.broadcast_to(v, shape)
    elif 2 * m + 1 > n:
        # More grid points than samples: quantize the sample itself.
        quantizer = FakeQuantizer(clips, clips / m, m, shape)
        points = quantizer(np.broadcast_to(v, shape))[0]
    else:
        points = np.arange(-m, m + 1) * (clips / m)
        # below[:, j]: samples whose image lies under grid point j. A grid
        # point above the clip is never reached by a clamped sample.
        below = v.searchsorted(points[:, 1:], side="left")
        below[points[:, 1:] > clips] = n
        # np.diff(below, prepend=0, append=n, axis=1)
        weights = np.empty((len(cands), 2 * m + 1), dtype=below.dtype)
        weights[:, 0] = below[:, 0]
        np.subtract(below[:, 1:], below[:, :-1], out=weights[:, 1:-1])
        np.subtract(n, below[:, -1], out=weights[:, -1])
    # Flooring can step just past the sample range; bin at the edges. For
    # a nonzero amax this is np.clip, value for value.
    points = np.maximum(points, -amax)
    np.minimum(points, amax, out=points)
    q = _stacked_bin_counts(points, edges, weights) / n
    eps = 1e-12
    kls = np.add.reduce(p * (np.log(p + eps) - np.log(q + eps)), axis=1)
    best_clip = None
    best_kl = math.inf
    divergences = []
    for c, kl in zip(cands, kls.tolist()):
        divergences.append((c, kl))
        if kl < best_kl:
            best_kl = kl
            best_clip = c
    return ClipCalibration(
        clip=best_clip, bits=bits, divergences=tuple(divergences), degenerate=False
    )


#: The bin indices 0..CALIBRATION_BINS, as floats.
_EDGE_STEPS = np.arange(CALIBRATION_BINS + 1, dtype=float)


def _edges(amax: float) -> np.ndarray:
    """``np.linspace(-amax, amax, CALIBRATION_BINS + 1)`` in the operations
    it makes: the steps times the step width (scaled one after the other
    where that width underflows to zero), plus the start, and the stop
    itself as the last edge."""
    delta = amax - -amax
    step = delta / CALIBRATION_BINS
    if step == 0:
        edges = _EDGE_STEPS / CALIBRATION_BINS
        edges *= delta
    else:
        edges = _EDGE_STEPS * step
    edges += -amax
    edges[-1] = amax
    return edges


def _ascending(v: np.ndarray) -> np.ndarray:
    """``v`` itself when it is already ascending, else a sorted copy."""
    return v if bool(np.all(v[1:] >= v[:-1])) else np.sort(v)


def _bin_counts(ascending: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``np.histogram(x, edges)[0]`` of an ascending ``x``, counted the way
    numpy counts explicit edges: bin i holds edges[i] <= x < edges[i+1],
    the last bin is closed."""
    idx = ascending.searchsorted(edges, side="left")
    idx[-1] = ascending.searchsorted(edges[-1], side="right")
    return idx[1:] - idx[:-1]


def _stacked_bin_counts(points: np.ndarray, edges: np.ndarray, weights=None):
    """Per row of ``points``, all inside [edges[0], edges[-1]], the counts
    :func:`_bin_counts` gives, each point standing for its ``weights``
    entry (one when None). A point's bin is the last edge not above it,
    the top edge belonging to the last bin."""
    rows, bins = len(points), len(edges) - 1
    index = edges.searchsorted(points, side="right")
    np.minimum(index, bins, out=index)
    index += np.arange(-1, rows * bins - 1, bins)[:, None]
    counts = np.bincount(
        index.ravel(),
        weights=None if weights is None else weights.ravel(),
        minlength=rows * bins,
    )
    return counts.reshape(rows, bins)


def percentile_clip_candidates(
    values, percentiles: Sequence[float] = DEFAULT_CLIP_PERCENTILES
) -> tuple[float, ...]:
    """Candidate clips from percentile magnitudes of a sample, read off its
    sorted magnitudes; zero or duplicate magnitudes are dropped."""
    mags = _ascending(np.abs(np.asarray(values, dtype=float).ravel()))
    return sorted_clip_candidates(mags, percentiles)


def sorted_clip_candidates(
    ascending: np.ndarray, percentiles: Sequence[float] = DEFAULT_CLIP_PERCENTILES
) -> tuple[float, ...]:
    """:func:`percentile_clip_candidates` of an ascending sample of
    magnitudes, which it does not check. A nonnegative sample sorted as it
    is may hold -0.0 where its magnitudes hold 0.0: it gives the same
    candidates, since a zero percentile is dropped either way and a
    signed zero added to or taken from a nonzero one changes nothing."""
    cands = sorted(set(sorted_percentiles(ascending, percentiles)))
    return tuple(c for c in cands if c > 0)


def sorted_percentiles(ascending: np.ndarray, percentiles: Sequence[float]):
    """``np.percentile(ascending, percentiles)`` (its default, linear
    method) of an ascending sample, as a list of floats: the same
    interpolation between the two neighbours of each virtual index, in the
    same floating-point operations, without a partition. A NaN, which
    sorts last, makes every percentile NaN, as in numpy."""
    if not all(0 <= q <= 100 for q in percentiles):
        raise ValueError("Percentiles must be in the range [0, 100]")
    n = ascending.size
    last = float(ascending[-1])
    if math.isnan(last):
        return [math.nan] * len(percentiles)
    out = []
    for q in percentiles:
        virtual = (n - 1) * (q / 100)
        below = math.floor(virtual)
        if virtual >= n - 1:
            # numpy reads index -1 on both sides, and its gamma follows.
            below = -1
            a = b = last
        else:
            a = float(ascending[below])
            b = float(ascending[below + 1])
        gamma = virtual - below
        diff = b - a
        out.append(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
    return out
