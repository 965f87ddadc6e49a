"""CSV rendering: the block renderer against the ``csv.writer`` definition it replaced."""

from __future__ import annotations

import csv
import hashlib
import io

import numpy as np
import pytest

from hessplit import (
    LoadProfile,
    analyze_profile,
    dispatch,
    normalize,
    threshold_sweep,
    write_dispatch_csv,
    write_histogram_csv,
    write_profile_csv,
    write_sweep_csv,
)
from hessplit.profiles import CSV_BLOCK_ROWS, csv_blocks, profile_to_csv, write_csv
from hessplit.transient import histogram

AWKWARD = [-0.0, 5e-324, 1e16, 9.999999999999999e15, 1e-5, 1 / 3, 0.1 + 0.2, 1e22,
           123456789.125, 2.0 ** 53 + 2, 0.0, 7.0]
LENGTHS = [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]


def reference_csv(header, rows) -> str:
    """The old renderer: ``csv.writer`` over the ``repr`` of every field."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([repr(x) for x in row] for row in rows)
    return buf.getvalue()


def rendered(write, *args) -> str:
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


@pytest.mark.parametrize("n", LENGTHS)
def test_write_csv_matches_csv_writer(tmp_path, n):
    floats = np.resize(np.array(AWKWARD), n)
    negated = -floats[::-1]
    counts = np.arange(n, dtype=np.int64) * 7919 - 3
    header = ["a", "b", "count"]
    columns = [floats, negated, counts]
    expected = reference_csv(header, zip(floats.tolist(), negated.tolist(), counts.tolist()))

    buf = io.StringIO()
    write_csv(buf, header, columns)
    assert buf.getvalue() == expected
    path = tmp_path / "out.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == expected.encode("utf-8")
    assert len(list(csv_blocks(header, columns))) == 1 + -(-n // CSV_BLOCK_ROWS)


@pytest.fixture
def profile(rng):
    n = 2 * CSV_BLOCK_ROWS + 3
    samples = rng.uniform(0.0, 250.0, size=n)
    samples[: len(AWKWARD)] = np.abs(AWKWARD)
    return LoadProfile(site_id="r", t0=1.6e9 + 0.1, dt=0.1, samples=samples)


def test_profile_csv_matches_old_writer(profile, tmp_path):
    expected = reference_csv(["timestamp", "power_kw"], (
        [profile.t0 + i * profile.dt, float(p)] for i, p in enumerate(profile.samples)
    ))
    assert profile_to_csv(profile) == expected
    path = tmp_path / "p.csv"
    write_profile_csv(profile, path)
    assert path.read_bytes() == expected.encode("utf-8")


def test_input_sha256_is_hash_of_canonical_csv(profile):
    expected = hashlib.sha256(profile_to_csv(profile).encode("utf-8")).hexdigest()
    assert analyze_profile(profile).input_sha256 == expected


def test_trace_sweep_and_histogram_match_old_writers(profile):
    norm = normalize(profile)
    res = dispatch(norm)
    assert rendered(write_dispatch_csv, res) == reference_csv(
        ["t", "p_load_kw", "p_grid_kw", "p_sc_kw", "p_vrfb_kw",
         "soc_sc_kwh", "soc_vrfb_kwh", "flag_sc"],
        ([i * res.dt, float(res.p_load_kw[i]), float(res.p_grid_kw[i]),
          float(res.p_sc_kw[i]), float(res.p_vrfb_kw[i]), float(res.soc_sc_kwh[i]),
          float(res.soc_vrfb_kwh[i]), int(res.flag_sc[i])] for i in range(res.n_steps)),
    )

    rows = threshold_sweep(norm, [0.5, np.float64(0.7), 0.9])
    assert rendered(write_sweep_csv, rows) == reference_csv(
        ["threshold", "sc_engaged_fraction", "sc_energy_share",
         "vrfb_energy_share", "grid_peak_kw"],
        ([float(thr), s.sc_engaged_fraction, s.sc_energy_share,
          s.vrfb_energy_share, s.grid_peak_kw] for thr, s in rows),
    )
    assert rendered(write_sweep_csv, []) == reference_csv(
        ["threshold", "sc_engaged_fraction", "sc_energy_share",
         "vrfb_energy_share", "grid_peak_kw"], [],
    )

    h = histogram(norm.pu, bins=37, range=(0.0, 1.0))
    assert rendered(write_histogram_csv, h) == reference_csv(
        ["bin_lo", "bin_hi", "count"],
        ([float(lo), float(hi), int(c)] for lo, hi, c in zip(h.edges[:-1], h.edges[1:], h.counts)),
    )
