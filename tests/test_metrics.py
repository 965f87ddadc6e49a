"""Normalization, base-load estimation, peak statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessplit import (
    base_load_estimate,
    compute_metrics,
    load_factor,
    normalize,
    peak_stats,
)
from hessplit.errors import (
    AllZeroProfileError,
    DegenerateBaseLoadWarning,
    InvalidConfigError,
)
from hessplit.profiles import LoadProfile
from conftest import dyadic_factor, dyadic_samples

finite_powers = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=200,
)


def _profile(samples, dt=1.0):
    return LoadProfile(site_id="t", t0=0.0, dt=dt, samples=np.asarray(samples, float))


def test_normalize_example():
    norm = normalize(_profile([2.0, 4.0, 1.0]))
    assert norm.base_power_kw == 4.0
    assert np.array_equal(norm.pu, [0.5, 1.0, 0.25])


def test_normalize_constant_profile():
    norm = normalize(_profile([3.0, 3.0, 3.0]))
    assert np.array_equal(norm.pu, [1.0, 1.0, 1.0])


def test_normalize_rejects_all_zero():
    with pytest.raises(AllZeroProfileError):
        normalize(_profile([0.0, 0.0]))


@given(finite_powers)
def test_normalize_peak_is_exactly_one(samples):
    if max(samples) == 0.0:
        samples[0] = 1.0
    norm = normalize(_profile(samples))
    assert norm.pu.max() == 1.0  # x / x is exact in IEEE arithmetic
    assert norm.pu.min() >= 0.0


def test_load_factor():
    norm = normalize(_profile([2.0, 4.0, 1.0, 1.0]))
    assert load_factor(norm) == pytest.approx(0.5)
    assert load_factor(normalize(_profile([5.0, 5.0]))) == 1.0


def test_base_load_plateau():
    # 200 samples at 0.5 pu, a handful of excursions to 1.0
    samples = np.full(200, 5.0)
    samples[10] = samples[50] = samples[120] = 10.0
    base = base_load_estimate(normalize(_profile(samples)))
    assert base == pytest.approx(0.505, abs=1e-12)  # center of the bin holding 0.5


def test_base_load_tie_goes_lower():
    # equal mass at 0.2 and 0.6 -> the lower level wins
    samples = np.concatenate([np.full(50, 2.0), np.full(50, 6.0), [10.0] * 20])
    base = base_load_estimate(normalize(_profile(samples)))
    assert base < 0.25


def test_base_load_ignores_peak_band():
    # most mass sits at 0.9 pu, but that is inside the peak band
    samples = np.concatenate([np.full(150, 9.0), np.full(50, 3.0)])
    samples[0] = 10.0
    base = base_load_estimate(normalize(_profile(samples)))
    assert abs(base - 0.305) < 0.01


def test_base_load_degenerate_warns():
    norm = normalize(_profile(np.full(100, 7.0)))
    with pytest.warns(DegenerateBaseLoadWarning):
        assert base_load_estimate(norm) == 1.0


def test_base_load_parameter_validation():
    norm = normalize(_profile(np.linspace(1.0, 10.0, 100)))
    with pytest.raises(InvalidConfigError):
        base_load_estimate(norm, bins=5)
    with pytest.raises(TypeError):  # the band is PEAK_BAND_PU, not a parameter
        base_load_estimate(norm, peak_band=0.5)
    with pytest.raises(InvalidConfigError):
        base_load_estimate(normalize(_profile([1.0, 2.0])), bins=100)
    for bins in (10.5, 20.0, "20", True):
        with pytest.raises(InvalidConfigError, match="bins must be an integer"):
            base_load_estimate(norm, bins=bins)
    assert base_load_estimate(norm, bins=np.int64(20)) == base_load_estimate(norm, bins=20)


def test_peak_stats_example():
    # pu = [0.2, 0.9, 1.0, 0.2, 0.6, 0.2]: runs above 0.5 of length 2 and 1
    norm = normalize(_profile([2, 9, 10, 2, 6, 2], dt=2.0))
    stats = peak_stats(norm, 0.5)
    assert stats.peak_count == 2
    assert stats.mean_duration_s == pytest.approx(3.0)
    assert stats.max_duration_s == 4.0
    assert stats.time_above_fraction == pytest.approx(0.5)


def test_peak_stats_strict_comparison():
    norm = normalize(_profile([5.0, 10.0, 5.0, 10.0]))
    stats = peak_stats(norm, 0.5)
    assert stats.peak_count == 2, "samples exactly at the level do not count"


def test_peak_stats_whole_series_is_one_run():
    norm = normalize(_profile([1.0, 1.0, 1.0]))
    stats = peak_stats(norm, 0.99)
    assert stats.peak_count == 1
    assert stats.max_duration_s == 3.0
    assert stats.time_above_fraction == 1.0


def test_peak_stats_no_peaks():
    from hessplit.metrics import NormalizedProfile

    low = NormalizedProfile(site_id="t", dt=1.0, base_power_kw=10.0,
                            pu=np.array([0.1, 0.2, 0.1]))
    stats = peak_stats(low, 0.5)
    assert stats.peak_count == 0
    assert stats.mean_duration_s == 0.0
    assert stats.max_duration_s == 0.0
    assert stats.time_above_fraction == 0.0
    assert stats.energy_above_pu_h == 0.0


def test_peak_energy_identity():
    # at level 0 the excess energy equals the pu integral
    norm = normalize(_profile([1.0, 2.0, 3.0, 4.0], dt=900.0))
    stats = peak_stats(norm, 0.0)
    assert stats.energy_above_pu_h == pytest.approx(norm.pu.sum() * 900.0 / 3600.0)


def test_peak_level_validation():
    norm = normalize(_profile([1.0, 2.0]))
    with pytest.raises(InvalidConfigError):
        peak_stats(norm, 1.0)
    with pytest.raises(InvalidConfigError):
        peak_stats(norm, -0.1)


def test_compute_metrics_fields(rng):
    samples = rng.uniform(1.0, 9.0, size=500)
    samples[200] = 20.0
    profile = _profile(samples, dt=10.0)
    m = compute_metrics(profile)
    assert m.base_power_kw == 20.0
    assert m.energy_kwh == pytest.approx(samples.sum() * 10.0 / 3600.0)
    assert 0.0 < m.load_factor < 1.0
    assert 0.0 <= m.base_load_pu < 0.8
    assert m.peak_count > 0
    assert m.mean_peak_duration_s <= m.max_peak_duration_s
    assert 0.0 <= m.time_above_base_fraction <= 1.0
    assert m.energy_above_base_pu_h > 0.0


def test_compute_metrics_degenerate_base_falls_back():
    with pytest.warns(DegenerateBaseLoadWarning):
        m = compute_metrics(_profile(np.full(120, 6.0)))
    assert m.base_load_pu == 1.0
    assert m.peak_count == 1  # fallback counts excursions above zero
    assert m.time_above_base_fraction == 1.0


@settings(max_examples=25)
@given(st.integers(0, 2 ** 32 - 1))
def test_metrics_scale_invariance_is_exact(seed):
    rng = np.random.default_rng(seed)
    samples = dyadic_samples(rng, 150)
    k = dyadic_factor(rng)
    a = compute_metrics(_profile(samples))
    b = compute_metrics(_profile(samples * k))
    assert b.base_power_kw == a.base_power_kw * k
    assert b.load_factor == a.load_factor
    assert b.base_load_pu == a.base_load_pu
    assert b.peak_count == a.peak_count
    assert b.time_above_base_fraction == a.time_above_base_fraction
    assert b.energy_above_base_pu_h == a.energy_above_base_pu_h
