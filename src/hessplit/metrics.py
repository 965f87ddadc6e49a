"""Per-unit normalization and time-domain load metrics.

Everything downstream works on per-unit (pu) series: samples divided by the
profile maximum, so the peak is exactly 1.0 and profiles of different sites
become comparable. The base load is estimated as the most frequent power
level below the peak region, and peak statistics count excursions above it.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (
    AllZeroProfileError,
    DegenerateBaseLoadWarning,
    InvalidConfigError,
    InvalidProfileError,
)
from .profiles import CSV_BLOCK_ROWS, LoadProfile, check_dt, freeze_arrays, freeze_numbers

#: Per-unit level above which samples count as "peak region" rather than base.
PEAK_BAND_PU = 0.8
#: Default bin count for the base-load histogram.
BASE_LOAD_BINS = 100


@dataclass(frozen=True, eq=False)
class NormalizedProfile:
    """A load profile rescaled to its own maximum.

    ``pu`` is ``samples / max(samples)``; by construction ``max(pu) == 1.0``
    exactly, because IEEE division of the maximum by itself is exact.
    ``base_power_kw`` is that maximum, kept to convert back to kilowatts.
    ``dt`` and ``base_power_kw`` are stored as floats.
    ``pu`` and ``dt`` are checked as :class:`LoadProfile` checks its samples
    and ``dt``, but the peak may be below 1; ``base_power_kw`` is positive
    and finite.
    """

    site_id: str
    dt: float
    base_power_kw: float
    pu: np.ndarray
    _owned: InitVar[bool] = False  # see freeze_arrays

    def __post_init__(self, _owned):
        freeze_arrays(self, np.float64, "pu", copy=not _owned)
        freeze_numbers(self, InvalidProfileError, self._check)

    def _check(self):
        pu = self.pu
        if pu.ndim != 1 or pu.size < 2:
            raise InvalidProfileError(f"pu must be 1-D with at least 2 samples, got shape {pu.shape}")
        # min and max allocate nothing per sample, and a NaN fails both tests
        if not (pu.min() >= 0.0 and pu.max() < np.inf):
            raise InvalidProfileError("pu samples must all be finite and non-negative")
        check_dt(self.dt)
        if not 0.0 < self.base_power_kw < np.inf:
            raise InvalidProfileError(
                f"base_power_kw must be positive and finite, got {self.base_power_kw!r}")

    @property
    def n_samples(self) -> int:
        return int(self.pu.size)


def normalize(profile: LoadProfile) -> NormalizedProfile:
    """Divide a profile by its maximum, yielding a per-unit series.

    Raises
    ------
    AllZeroProfileError
        If the profile maximum is zero (nothing to scale by).
    """
    p_max = profile.max_kw
    if p_max == 0.0:
        raise AllZeroProfileError(
            f"profile {profile.site_id!r} is identically zero; per-unit form undefined"
        )
    return NormalizedProfile(
        site_id=profile.site_id, dt=profile.dt, base_power_kw=p_max,
        pu=profile.samples / p_max, _owned=True,
    )


def load_factor(norm: NormalizedProfile) -> float:
    """Mean of the per-unit series: 1.0 means flat, small means peaky."""
    return float(norm.pu.mean())


def check_integer(value, name: str) -> None:
    """Reject a ``value`` that is not an integer; a bool is not one, a numpy integer is."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")


def blocked_histogram(values: np.ndarray, bins, span) -> tuple[np.ndarray, np.ndarray]:
    """``np.histogram(values, bins, span)``, counted :data:`CSV_BLOCK_ROWS` values at a time.

    ``bins`` is a bin count, with ``span`` the ``(lo, hi)`` range of the whole
    series, or an array of edges, with ``span`` None. Every block is given the
    same ``bins`` and ``span``, so its edges are those of one call over the whole
    series and each value lands in the bin it lands in there: the block counts
    add up to that call's counts, bit for bit. numpy's own temporaries are then
    those of a block, not of its own blocks of 65,536 values.
    """
    counts, edges = np.histogram(values[:CSV_BLOCK_ROWS], bins, span)
    for s in range(CSV_BLOCK_ROWS, len(values), CSV_BLOCK_ROWS):
        counts += np.histogram(values[s:s + CSV_BLOCK_ROWS], bins, span)[0]
    return counts, edges


def base_load_estimate(norm: NormalizedProfile, *, bins: int = BASE_LOAD_BINS) -> float:
    """Most frequent per-unit level below the peak band.

    Histograms the pu series over [0, 1] and returns the center of the
    fullest bin among those whose center lies below :data:`PEAK_BAND_PU`.
    Ties go to the lower level. If no sample mass sits below the band at
    all, the estimate degenerates to 1.0 and a
    :class:`DegenerateBaseLoadWarning` is emitted.
    """
    _check_base_bins(norm, bins)
    return _base_level(norm, *blocked_histogram(norm.pu, bins, (0.0, 1.0)))


def _check_base_bins(norm: NormalizedProfile, bins: int) -> None:
    """The checks :func:`base_load_estimate` runs on ``bins`` before it counts."""
    check_integer(bins, "bins")
    if bins < 10:
        raise InvalidConfigError(f"base-load histogram needs >= 10 bins, got {bins}")
    if norm.n_samples < bins:
        raise InvalidConfigError(
            f"base-load estimate needs at least one sample per bin "
            f"({norm.n_samples} samples < {bins} bins)"
        )


def _base_level(norm: NormalizedProfile, counts: np.ndarray, edges: np.ndarray) -> float:
    """:func:`base_load_estimate` from the counts and edges of its histogram of ``norm.pu``."""
    centers = (edges[:-1] + edges[1:]) / 2.0
    below = centers < PEAK_BAND_PU
    if not np.any(counts[below] > 0):
        warnings.warn(
            f"profile {norm.site_id!r} has no samples below {PEAK_BAND_PU} pu; "
            "base-load estimate degenerates to the peak",
            DegenerateBaseLoadWarning,
        )
        return 1.0
    masked = np.where(below, counts, -1)
    return float(centers[int(np.argmax(masked))])


@dataclass(frozen=True)
class PeakStats:
    """Excursions of a pu series strictly above a level."""

    level: float
    peak_count: int
    mean_duration_s: float
    max_duration_s: float
    time_above_fraction: float
    energy_above_pu_h: float


def peak_stats(norm: NormalizedProfile, level: float) -> PeakStats:
    """Count and size contiguous runs with ``pu > level`` (strict).

    Durations are run lengths times the sample interval;
    ``energy_above_pu_h`` integrates the excess over the level,
    ``sum(max(pu - level, 0)) * dt / 3600``, in per-unit hours. With no
    runs, durations are 0 and the count is 0.
    """
    if not 0.0 <= level < 1.0:
        raise InvalidConfigError(f"peak level must be in [0, 1), got {level}")
    above = norm.pu > level
    # run boundaries alternate: where a run starts, then one past where it ends
    edges = np.flatnonzero(np.diff(above, prepend=False, append=False))
    lengths = edges[1::2] - edges[::2]
    n = int(lengths.size)
    excess = norm.pu - level
    np.maximum(excess, 0.0, out=excess)
    return PeakStats(
        level=level,
        peak_count=n,
        mean_duration_s=float(lengths.mean() * norm.dt) if n else 0.0,
        max_duration_s=float(lengths.max() * norm.dt) if n else 0.0,
        time_above_fraction=float(above.mean()),
        energy_above_pu_h=float(excess.sum() * norm.dt / 3600.0),
    )


@dataclass(frozen=True)
class ProfileMetrics:
    """Summary numbers for one profile, in per-unit terms plus absolute energy."""

    site_id: str
    dt: float
    base_power_kw: float
    energy_kwh: float
    load_factor: float
    base_load_pu: float
    peak_count: int
    mean_peak_duration_s: float
    max_peak_duration_s: float
    time_above_base_fraction: float
    energy_above_base_pu_h: float


def compute_metrics(profile: LoadProfile, *, bins: int = BASE_LOAD_BINS) -> ProfileMetrics:
    """Normalize a profile and derive its summary metrics.

    Peak statistics are taken at the estimated base-load level, so
    ``peak_count`` answers "how often does the site rise above its
    typical draw", not "above an arbitrary threshold". When the base
    estimate degenerates to 1.0 (nothing below the peak band) the peak
    statistics fall back to level 0 so they stay defined.
    """
    norm = normalize(profile)
    return _compute_metrics(profile, norm, base_load_estimate(norm, bins=bins))


def _compute_metrics(profile: LoadProfile, norm: NormalizedProfile, base: float) -> ProfileMetrics:
    """:func:`compute_metrics` of a profile whose normalized form is ``norm``
    and whose base-load estimate is ``base``."""
    peaks = peak_stats(norm, base) if base < 1.0 else peak_stats(norm, 0.0)
    return ProfileMetrics(
        site_id=profile.site_id,
        dt=profile.dt,
        base_power_kw=norm.base_power_kw,
        energy_kwh=float(profile.samples.sum() * profile.dt / 3600.0),
        load_factor=load_factor(norm),
        base_load_pu=base,
        peak_count=peaks.peak_count,
        mean_peak_duration_s=peaks.mean_duration_s,
        max_peak_duration_s=peaks.max_duration_s,
        time_above_base_fraction=peaks.time_above_fraction,
        energy_above_base_pu_h=peaks.energy_above_pu_h,
    )
