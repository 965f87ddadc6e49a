"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from hessplit import LoadProfile, dispatch


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def make_profile():
    """Factory for quick in-memory profiles."""

    def _make(samples, dt=1.0, site_id="test", t0=0.0, **kwargs):
        return LoadProfile(
            site_id=site_id, t0=t0, dt=dt, samples=np.asarray(samples, dtype=float), **kwargs
        )

    return _make


@pytest.fixture
def make_csv(tmp_path):
    """Write a profile CSV file and return its path."""

    def _make(rows, header="timestamp,power_kw", name="profile.csv"):
        path = tmp_path / name
        lines = [header] + [f"{t},{p}" for t, p in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return _make


def dyadic_samples(rng, n, mantissa_bits=20, scale_bits=10):
    """Non-negative floats that survive scaling by dyadic factors exactly.

    Values are integers below 2**mantissa_bits divided by 2**scale_bits, so
    products with small-denominator dyadic rationals stay exactly
    representable and scale-invariance tests can demand bit equality.
    """
    ints = rng.integers(0, 2 ** mantissa_bits, size=n)
    out = ints.astype(np.float64) / (2.0 ** scale_bits)
    if out.max() == 0.0:
        out[rng.integers(0, n)] = 1.0
    return out


def dyadic_factor(rng):
    """A random scale factor k in (0, 1e6] exactly representable as m/64."""
    return float(rng.integers(1, 64_000_000)) / 64.0


#: The DeviceParams fields in kW, kWh or kW/s.
DEVICE_UNIT_FIELDS = ("vrfb_power_kw", "vrfb_energy_kwh", "vrfb_ramp_kw_per_s", "sc_power_kw",
                      "sc_energy_kwh", "sc_recharge_power_kw", "vrfb_recharge_power_kw")
#: The DispatchResult traces in kW or kWh.
DISPATCH_UNIT_TRACES = ("p_load_kw", "p_grid_kw", "p_sc_kw", "p_vrfb_kw", "soc_sc_kwh",
                        "soc_vrfb_kwh")


def assert_dispatch_scales(norm, cfg, dev, k):
    """Scaling the base power and every device power, energy and ramp by the
    power of two ``k`` scales each of the six traces by ``k``, bit for bit,
    and leaves the SC flags as they are.

    Every expression of the dispatch contract is a product, quotient, sum,
    ``min``/``max`` or floor of kW or kWh terms, so a power of two passes
    through each of them exactly while nothing overflows or goes subnormal.
    The recharge threshold is per unit, so it is not scaled.
    """
    scaled_dev = replace(dev, **{name: getattr(dev, name) * k for name in DEVICE_UNIT_FIELDS
                                 if getattr(dev, name) is not None})
    ref = dispatch(norm, cfg, dev)
    got = dispatch(replace(norm, base_power_kw=norm.base_power_kw * k), cfg, scaled_dev)
    for name in DISPATCH_UNIT_TRACES:
        assert getattr(got, name).tobytes() == (getattr(ref, name) * k).tobytes(), name
    assert got.flag_sc.tobytes() == ref.flag_sc.tobytes()
