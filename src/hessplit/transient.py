"""Time-derivative series, value histograms, and symmetry measures.

Fast storage earns its keep on power *transients*, so the second half of the
analysis looks at step-to-step changes: the forward-difference derivative of
the per-unit series, histograms of load and derivative values, and a symmetry
index that tells one-sided ramping (EV chargers) apart from balanced
up/down switching (machines, municipal feeders).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import IO, Optional, Sequence, Union

import numpy as np

from .errors import (EmptyValuesError, InvalidConfigError, NonFiniteValuesError,
                     NotSymmetricHistogramError)
from .metrics import NormalizedProfile, blocked_histogram, check_integer
from .profiles import float_array, freeze_arrays, write_csv

#: Default bin count for load-value histograms.
LOAD_BINS = 100
#: Default bin count for symmetric derivative histograms (odd, center on 0).
DERIVATIVE_BINS = 101
#: Most bins a histogram may be asked for; a report carries every edge and count.
MAX_BINS = 100_000
#: Default |normalized derivative| level separating "tail" transients.
TAIL_LEVEL = 0.5
#: Fixed secondary probe level always included in symmetry reports.
PROBE_LEVEL = 0.1


@dataclass(frozen=True, eq=False)
class DerivativeSeries:
    """Forward differences of a per-unit series, scaled so the largest swing is ±1.

    ``normalized`` has one element fewer than the source. It is the pu/s
    slope ``np.diff(norm.pu) / norm.dt`` divided by its largest magnitude;
    a constant source gives all-zero ``normalized`` instead of 0/0.
    """

    normalized: np.ndarray
    dt: float
    _owned: InitVar[bool] = False  # see freeze_arrays

    def __post_init__(self, _owned):
        freeze_arrays(self, np.float64, "normalized", copy=not _owned)

    @property
    def n_steps(self) -> int:
        return int(self.normalized.size)


def derivative(norm: NormalizedProfile) -> DerivativeSeries:
    """Forward-difference derivative of a normalized profile.

    The slope is ``(pu[i+1] - pu[i]) / dt``. Forward differences are used because
    the dispatcher reacts to the upcoming step; centered schemes would smear
    exactly the switch-on spikes this analysis exists to find. Both divisions
    run in place and give the bits of ``slope / peak``.
    """
    d = np.diff(norm.pu)
    d /= norm.dt
    peak = _abs_max(d)
    if peak > 0.0:
        d /= peak
    else:  # every slope is ±0.0, and one that underflowed is -0.0
        d.fill(0.0)
    return DerivativeSeries(normalized=d, dt=norm.dt, _owned=True)


def _abs_max(arr: np.ndarray):
    """``np.abs(arr).max()`` without the copy: negation is exact, and NaN gives NaN."""
    return abs(max(arr.max(), -arr.min()))  # abs clears a NaN's sign bit, as np.abs does


@dataclass(frozen=True, eq=False)
class Histogram:
    """Equal-width binned counts of a value series.

    ``edges`` has one more element than ``counts``; values landing on an
    interior edge belong to the upper bin. ``total`` equals the number of
    input values, so counts always sum to it.
    """

    edges: np.ndarray
    counts: np.ndarray
    total: int
    symmetric: bool = False

    def __post_init__(self):
        freeze_arrays(self, np.float64, "edges")
        freeze_arrays(self, np.int64, "counts")

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def centers(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    @property
    def fractions(self) -> np.ndarray:
        """Counts as fractions of the total."""
        return self.counts / self.total


def check_bins(bins: int) -> None:
    """Reject a bin count that is not an integer in ``[2, MAX_BINS]``."""
    check_integer(bins, "bins")
    if bins < 2:
        raise InvalidConfigError(f"need at least 2 bins, got {bins}")
    if bins > MAX_BINS:
        raise InvalidConfigError(f"at most {MAX_BINS} bins, got {bins}")


def histogram(
    values: Union[Sequence[float], np.ndarray],
    *,
    bins: int = LOAD_BINS,
    range: Optional[tuple[float, float]] = None,
    symmetric: bool = False,
) -> Histogram:
    """Bin a value series into an equal-width histogram.

    With ``symmetric=True`` the range is forced to ``[-m, m]`` with
    ``m = max(|values|)`` and the bin count is forced odd so one bin is
    centered exactly on zero; an all-zero series uses ``m = 1``. An even
    ``bins`` is bumped up by one rather than rejected. ``bins`` must lie in
    ``[2, MAX_BINS]``. Otherwise a given ``range`` must be finite with
    ``lo <= hi`` and hold every value, so the counts sum to the total, or
    ``InvalidConfigError`` is raised, as it is for a span too narrow to
    hold ``bins`` increasing edges. A value that is not a finite real number
    (NaN, an infinity, a complex or a non-number), or a bin range wider than
    a float holds, raises ``NonFiniteValuesError``.
    """
    arr = float_array(values, NonFiniteValuesError).ravel()
    if arr.size == 0:
        raise EmptyValuesError("cannot histogram an empty value series")
    check_bins(bins)
    lo, hi = float(arr.min()), float(arr.max())  # a NaN anywhere gives NaN in both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteValuesError("cannot histogram NaN or infinite values")
    if symmetric:
        if bins % 2 == 0:
            bins += 1
        hi = abs(max(hi, -lo)) or 1.0  # as _abs_max does
        lo = -hi
    elif range is not None:
        if not (math.isfinite(range[0]) and math.isfinite(range[1]) and range[0] <= range[1]):
            raise InvalidConfigError(f"histogram range must be finite with lo <= hi, got {range}")
        if lo < range[0] or hi > range[1]:
            raise InvalidConfigError(
                f"values span [{lo!r}, {hi!r}], outside the histogram range {range}")
        lo, hi = range
    if not math.isfinite(hi - lo):
        raise NonFiniteValuesError(f"the bin range [{lo!r}, {hi!r}] is wider than a float holds")
    if symmetric:
        grid = np.linspace(lo, hi, bins + 1)
        # mirror-average so edge i and edge n-i are exact negations of each
        # other; plain linspace leaves them a few ulp apart
        counts, edges = blocked_histogram(arr, (grid - grid[::-1]) / 2.0, None)
    else:
        try:  # numpy raises when the span is too narrow for increasing edges at its magnitude
            counts, edges = blocked_histogram(arr, bins, (lo, hi))
        except ValueError:  # every other ValueError numpy raises is ruled out above
            raise InvalidConfigError(f"{bins} bins do not fit in [{lo!r}, {hi!r}]") from None
    return Histogram(edges=edges, counts=counts, total=int(arr.size), symmetric=symmetric)


@dataclass(frozen=True)
class SymmetryReport:
    """How evenly a symmetric histogram's mass balances about zero.

    ``symmetry_index`` is 1 for perfectly mirrored counts and 0 when all
    mass sits on one side. Tail masses are the fractions of values in bins
    lying entirely beyond ``±tail_level``; the 0.1-level probe is always
    reported as well because small transients cluster there on ramp-shaped
    loads.
    """

    symmetry_index: float
    positive_tail_mass: float
    negative_tail_mass: float
    tail_level: float
    probe_level: float
    probe_positive_mass: float
    probe_negative_mass: float
    total: int


def check_tail_level(tail_level: float) -> None:
    """Reject a tail level that is not finite and positive."""
    if not 0.0 < tail_level < float("inf"):
        raise InvalidConfigError(f"tail_level must be finite and positive, got {tail_level}")


def _tail_masses(h: Histogram, level: float) -> tuple[float, float]:
    lo = h.edges[:-1]
    hi = h.edges[1:]
    pos = h.counts[lo >= level].sum()
    neg = h.counts[hi <= -level].sum()
    return float(pos / h.total), float(neg / h.total)


def symmetry_report(h: Histogram, tail_level: float = TAIL_LEVEL) -> SymmetryReport:
    """Mirror-pair a symmetric histogram and score its balance about zero.

    Bin ``i`` is paired with bin ``n-1-i`` and

        symmetry_index = 1 - sum|f(b) - f(-b)| / sum(f(b) + f(-b))

    with ``f`` the count fractions, summed once per pair. The central bin is
    its own mirror: it can never contribute imbalance, so it is left out of
    both sums — the index measures how evenly the mass that actually moved
    splits between up and down, not how often nothing happened. A series
    whose changes all sit in the central bin scores 1.0 (nothing to tip the
    balance); one whose moving mass is entirely one-sided scores 0.0.

    Raises
    ------
    NotSymmetricHistogramError
        If ``h`` was not built with ``symmetric=True``.
    """
    if not h.symmetric:
        raise NotSymmetricHistogramError(
            "symmetry_report needs a histogram built with symmetric=True"
        )
    check_tail_level(tail_level)
    f = h.fractions
    n = h.n_bins
    mid = (n - 1) // 2
    num = 0.0
    den = 0.0
    for i in range(mid):
        j = n - 1 - i
        num += abs(f[i] - f[j])
        den += f[i] + f[j]
    index = 1.0 - num / den if den > 0.0 else 1.0
    pos, neg = _tail_masses(h, tail_level)
    probe_pos, probe_neg = _tail_masses(h, PROBE_LEVEL)
    return SymmetryReport(
        symmetry_index=float(index),
        positive_tail_mass=pos,
        negative_tail_mass=neg,
        tail_level=float(tail_level),
        probe_level=PROBE_LEVEL,
        probe_positive_mass=probe_pos,
        probe_negative_mass=probe_neg,
        total=h.total,
    )


def write_histogram_csv(h: Histogram, target: Union[str, Path, IO]) -> None:
    """Write a histogram as ``bin_lo,bin_hi,count`` rows."""
    write_csv(target, ["bin_lo", "bin_hi", "count"], [h.edges[:-1], h.edges[1:], h.counts])
