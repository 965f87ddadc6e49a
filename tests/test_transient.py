"""Derivative series, histograms, symmetry index."""

from __future__ import annotations

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessplit import Histogram, derivative, histogram, normalize, symmetry_report
from hessplit.errors import (
    EmptyValuesError,
    InvalidConfigError,
    NonFiniteValuesError,
    NotSymmetricHistogramError,
)
from hessplit.metrics import NormalizedProfile, blocked_histogram
from hessplit.profiles import CSV_BLOCK_ROWS, LoadProfile
from hessplit.transient import MAX_BINS, write_histogram_csv


def _norm(pu, dt=1.0):
    return NormalizedProfile(site_id="t", dt=dt, base_power_kw=1.0, pu=np.asarray(pu, float))


# --- derivative ---

def test_derivative_example():
    d = derivative(_norm([0.0, 0.5, 1.0, 0.25], dt=2.0))
    # the pu/s slope is [0.25, 0.25, -0.375]
    assert np.array_equal(d.normalized, [0.25 / 0.375, 0.25 / 0.375, -1.0])
    assert d.dt == 2.0


def test_derivative_has_one_fewer_element():
    d = derivative(_norm(np.linspace(0, 1, 37)))
    assert d.n_steps == 36


def test_derivative_of_constant_is_zero_not_nan():
    d = derivative(_norm([0.5, 0.5, 0.5]))
    assert d.normalized.tobytes() == np.zeros(2).tobytes()  # +0.0, not NaN or -0.0


def test_derivative_of_underflowed_slopes_is_positive_zero():
    # a one-ulp fall over 1e308 s is a -0.0 pu/s slope, and the largest swing is 0
    d = derivative(_norm([1.0, np.nextafter(1.0, 0.0), 1.0], dt=1e308))
    assert d.normalized.tobytes() == np.zeros(2).tobytes()


@pytest.mark.parametrize("samples", [
    np.full(50, 7.5), np.linspace(10.0, 1.0, 40), [4.0, 3.0, 3.0, 0.0, 0.0],
], ids=["constant", "falling", "falling-steps"])
def test_derivative_equals_its_abs_max_form(samples):
    norm = normalize(LoadProfile(site_id="d", t0=0.0, dt=0.5, samples=samples))
    d = derivative(norm)
    raw = np.diff(norm.pu) / 0.5
    peak = np.abs(raw).max()
    want = raw / peak if peak > 0.0 else np.zeros_like(raw)
    assert d.normalized.tobytes() == want.tobytes()
    assert not d.normalized.flags.writeable


def test_derivative_normalized_peak_is_one(rng):
    pu = rng.uniform(0.0, 1.0, size=300)
    d = derivative(_norm(pu))
    assert np.abs(d.normalized).max() == 1.0


def test_derivative_time_reversal_flips_sign(rng):
    pu = rng.uniform(0.0, 1.0, size=64)
    fwd = derivative(_norm(pu))
    rev = derivative(_norm(pu[::-1]))
    assert np.array_equal(rev.normalized, -fwd.normalized[::-1])


def test_derivative_scale_invariant_in_pu():
    # normalized derivative depends only on the shape, not the pu scale
    a = derivative(_norm([0.0, 0.2, 0.6, 0.1]))
    b = derivative(_norm([0.0, 0.1, 0.3, 0.05]))
    assert np.allclose(a.normalized, b.normalized)


# --- histogram ---

def test_histogram_example():
    h = histogram([0.0, 0.2, 0.4, 0.9, 1.0], bins=5, range=(0.0, 1.0))
    assert np.array_equal(h.counts, [1, 1, 1, 0, 2])
    assert np.allclose(h.edges, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    assert h.total == 5


def test_histogram_interior_edge_goes_to_upper_bin():
    h = histogram([0.5], bins=2, range=(0.0, 1.0))
    assert np.array_equal(h.counts, [0, 1])


def test_histogram_symmetric_forces_odd_bins_and_range():
    h = histogram([-2.0, 1.0, 0.5], bins=4, symmetric=True)
    assert h.n_bins == 5
    assert h.edges[0] == -2.0 and h.edges[-1] == 2.0
    assert h.symmetric
    mid = h.centers[h.n_bins // 2]
    assert mid == 0.0


def test_histogram_symmetric_all_zero_uses_unit_range():
    h = histogram([0.0, 0.0], bins=3, symmetric=True)
    assert h.edges[0] == -1.0 and h.edges[-1] == 1.0
    assert h.counts[1] == 2  # everything in the central bin


@pytest.mark.parametrize("values", [
    [0.0, 0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, 0.5], [-0.5, -0.0],
    [-2.0, 1.0, 0.5], [2.0, -1.0], [-3.0, 3.0], [np.nan, 1.0], [1.0, np.nan], [1.0, -np.nan],
    [np.inf, 1.0], [-np.inf, 1.0], [-np.inf, np.inf], [np.nan, -np.inf],
    [5e-324, -5e-324], [-1.7976931348623157e308, 1.0],
])
def test_histogram_symmetric_range_is_abs_max(values):
    arr = np.asarray(values, dtype=np.float64)
    m = float(np.abs(arr).max()) or 1.0
    if not math.isfinite(2.0 * m):  # NaN, an infinity, or a range wider than a float
        # these used to give NaN edges, with counts that missed values
        with pytest.raises(NonFiniteValuesError):
            histogram(values, bins=5, symmetric=True)
        return
    h = histogram(values, bins=5, symmetric=True)
    grid = np.linspace(-m, m, 6)
    counts, edges = np.histogram(arr, bins=(grid - grid[::-1]) / 2.0)
    assert h.edges.tobytes() == edges.tobytes()
    assert h.counts.tobytes() == counts.tobytes()


def test_histogram_rejects_values_and_ranges_it_cannot_bin():
    for values in ([np.nan, 1.0], [1.0, -np.inf], [np.inf], [1.0, None]):
        with pytest.raises(NonFiniteValuesError, match="NaN or infinite"):
            histogram(values, bins=5)
    for values in (np.array([1 + 5j, 2j, 3.0]), [1 + 5j, None], "abc"):
        with pytest.raises(NonFiniteValuesError, match="must be real numbers"):
            histogram(values, bins=5)
    with pytest.raises(NonFiniteValuesError, match="wider than a float"):
        histogram([-1.7e308, 1.7e308], bins=5)
    with pytest.raises(NonFiniteValuesError, match="wider than a float"):
        histogram([0.0], bins=5, range=(-1.7e308, 1.7e308))
    for bad in [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (2.0, 1.0)]:
        with pytest.raises(InvalidConfigError, match="finite with lo <= hi"):
            histogram([1.5], bins=5, range=bad)
    with pytest.raises(InvalidConfigError, match="outside the histogram range"):
        histogram([0.5, 2.0, -1.0], bins=2, range=(0.0, 1.0))
    h = histogram([0.0, 0.5, 1.0], bins=2, range=(0.0, 1.0))  # both ends are inside
    assert h.counts.tolist() == [1, 2] and h.total == 3


# spans whose bin edges round to equal floats: numpy's 0.5 widening of an
# empty span rounds away at 1e16, and 5e-324 cannot be split in five
@pytest.mark.parametrize("values, bins, range_, span", [
    ([1e16, 1e16], 4, None, "[1e+16, 1e+16]"),
    ([1e16, 1e16 + 2], 4, None, "[1e+16, 1.0000000000000002e+16]"),
    ([1e16, 1e16 + 2], 4, (1e16, 1e16 + 2), "[1e+16, 1.0000000000000002e+16]"),
    ([0.0, 5e-324], 5, None, "[0.0, 5e-324]"),
    ([1e308], 4, (1e308, 1e308), "[1e+308, 1e+308]"),
])
def test_histogram_rejects_spans_too_narrow_for_its_bins(values, bins, range_, span):
    with pytest.raises(InvalidConfigError) as exc:
        histogram(values, bins=bins, range=range_)
    assert str(exc.value) == f"{bins} bins do not fit in {span}"


def test_histogram_symmetric_span_of_large_values_fits():
    h = histogram([1e16, 1e16 + 2], bins=4, symmetric=True)  # [-m, m] is wide enough
    assert h.counts.tolist() == [0, 0, 0, 0, 2]


def test_histogram_rejects_empty_and_tiny_bins():
    with pytest.raises(EmptyValuesError):
        histogram([])
    with pytest.raises(InvalidConfigError):
        histogram([1.0], bins=1)
    for bins in (2.5, 3.0, "3", True, None):
        with pytest.raises(InvalidConfigError, match="bins must be an integer"):
            histogram([1.0], bins=bins)
    assert histogram([1.0], bins=np.int64(3)).n_bins == 3


def test_histogram_bins_are_bounded():
    assert histogram([0.5], bins=MAX_BINS, symmetric=True).n_bins == MAX_BINS + 1
    tracemalloc.start()
    try:
        for bins in (MAX_BINS + 1, 10 ** 8, 10 ** 13):
            for symmetric in (False, True):
                with pytest.raises(InvalidConfigError, match=f"at most {MAX_BINS} bins"):
                    histogram([0.1, 0.9], bins=bins, symmetric=symmetric)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # rejected before any edge exists


@settings(max_examples=50)
@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=300),
    st.integers(2, 64),
)
def test_histogram_conserves_mass(values, bins):
    h = histogram(values, bins=bins, symmetric=True)
    assert int(h.counts.sum()) == h.total == len(values)
    assert np.isclose(h.fractions.sum(), 1.0)


def test_histogram_csv_format():
    h = histogram([0.1, 0.9], bins=2, range=(0.0, 1.0))
    buf = io.StringIO()
    write_histogram_csv(h, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert lines[1] == "0.0,0.5,1"
    assert lines[2] == "0.5,1.0,1"


# --- symmetry ---

def _sym_hist(counts, edges=None):
    counts = np.asarray(counts)
    n = counts.size
    if edges is None:
        edges = np.linspace(-1.0, 1.0, n + 1)
    return Histogram(edges=edges, counts=counts, total=int(counts.sum()), symmetric=True)


def test_symmetry_index_perfect_mirror():
    rep = symmetry_report(_sym_hist([3, 1, 8, 1, 3]))
    assert rep.symmetry_index == 1.0


def test_symmetry_index_fully_one_sided():
    rep = symmetry_report(_sym_hist([0, 0, 5, 2, 7]))
    assert rep.symmetry_index == 0.0


def test_symmetry_index_ignores_central_bin():
    # the central bin is its own mirror pair; only off-center mass can
    # unbalance the index
    small = symmetry_report(_sym_hist([1, 0, 2, 0, 1]))
    large = symmetry_report(_sym_hist([1, 0, 999, 0, 1]))
    assert small.symmetry_index == large.symmetry_index == 1.0


def test_symmetry_index_all_mass_central():
    rep = symmetry_report(_sym_hist([0, 0, 9, 0, 0]))
    assert rep.symmetry_index == 1.0


def test_symmetry_index_partial():
    # pairs: (4,1) and (0,0): num = 3/5... fractions of total 5
    rep = symmetry_report(_sym_hist([4, 0, 0, 0, 1]))
    assert rep.symmetry_index == pytest.approx(1.0 - 3.0 / 5.0)


def test_symmetry_mirror_invariance(rng):
    counts = rng.integers(0, 50, size=9)
    counts[counts.size // 2] += 1  # keep a nonzero total either way
    a = symmetry_report(_sym_hist(counts))
    b = symmetry_report(_sym_hist(counts[::-1]))
    assert a.symmetry_index == pytest.approx(b.symmetry_index)
    assert a.positive_tail_mass == pytest.approx(b.negative_tail_mass)
    assert a.probe_positive_mass == pytest.approx(b.probe_negative_mass)


def test_symmetry_requires_symmetric_histogram():
    h = histogram([0.1, 0.5], bins=4, range=(0.0, 1.0))
    with pytest.raises(NotSymmetricHistogramError):
        symmetry_report(h)


def test_symmetry_rejects_bad_tail_level():
    with pytest.raises(InvalidConfigError):
        symmetry_report(_sym_hist([1, 1, 1]), tail_level=0.0)


@pytest.mark.parametrize("level", [float("inf"), float("nan"), -1.0])
def test_symmetry_rejects_non_finite_tail_level(level):
    with pytest.raises(InvalidConfigError, match="must be finite and positive"):
        symmetry_report(_sym_hist([1, 1, 1]), tail_level=level)


def test_tail_masses_count_whole_bins_only():
    # edges at -1,-0.6,-0.2,0.2,0.6,1: only the outermost bins lie fully
    # beyond |0.5|
    rep = symmetry_report(_sym_hist([2, 1, 4, 1, 3]), tail_level=0.5)
    assert rep.positive_tail_mass == pytest.approx(3 / 11)
    assert rep.negative_tail_mass == pytest.approx(2 / 11)
    # at the 0.1 probe the +-[0.2,0.6] bins count too
    assert rep.probe_positive_mass == pytest.approx(4 / 11)
    assert rep.probe_negative_mass == pytest.approx(3 / 11)


def test_tail_level_at_edge_includes_bin():
    rep = symmetry_report(_sym_hist([1, 0, 0, 0, 1]), tail_level=0.6)
    assert rep.positive_tail_mass == pytest.approx(0.5)
    assert rep.negative_tail_mass == pytest.approx(0.5)


def test_symmetry_report_carries_levels_and_total():
    rep = symmetry_report(_sym_hist([1, 2, 1]))
    assert rep.tail_level == 0.5
    assert rep.probe_level == 0.1
    assert rep.total == 4


def test_end_to_end_on_square_wave():
    # equal up and down steps -> perfectly symmetric derivative
    samples = np.tile([1.0, 5.0], 50)
    profile = LoadProfile(site_id="sq", t0=0.0, dt=1.0, samples=samples)
    d = derivative(normalize(profile))
    h = histogram(d.normalized, bins=101, symmetric=True)
    rep = symmetry_report(h)
    assert rep.symmetry_index == pytest.approx(1.0, abs=0.05)
    assert rep.positive_tail_mass > 0.0 and rep.negative_tail_mass > 0.0


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([1, 7, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                          3 * CSV_BLOCK_ROWS, 3 * CSV_BLOCK_ROWS + 1]),
       bins=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
       lo=st.floats(-1e6, 1e6), width=st.floats(1e-3, 1e6),
       case=st.sampled_from(["range", "data", "constant", "symmetric"]))
def test_blocked_histogram_is_one_numpy_call(n, bins, seed, lo, width, case):
    # counts and edges bit for bit those of one np.histogram over the series,
    # with about half the values exactly on an edge, interior ones included
    rng = np.random.default_rng(seed)
    edges = np.linspace(lo, lo + width, bins + 1)
    if case == "symmetric":  # transient.histogram's mirrored edges
        grid = np.linspace(-width, width, bins + 1)
        edges = (grid - grid[::-1]) / 2.0
    values = np.where(rng.random(n) < 0.5, rng.choice(edges, n),
                      rng.uniform(edges[0], edges[-1], n))
    if case == "constant":  # numpy's own range is then c - 0.5 to c + 0.5
        values = np.full(n, lo)
    if case == "symmetric":
        expected = np.histogram(values, edges)
        got = blocked_histogram(values, edges, None)
    elif case == "range":
        expected = np.histogram(values, bins, range=(lo, lo + width))
        got = blocked_histogram(values, bins, (lo, lo + width))
    else:
        expected = np.histogram(values, bins)
        got = blocked_histogram(values, bins, (float(values.min()), float(values.max())))
    for g, e in zip(got, expected):
        assert (g.dtype, g.tobytes()) == (e.dtype, e.tobytes())
