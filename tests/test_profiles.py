"""Ingestion: CSV parsing, grid checks, resolution gates, resampling."""

from __future__ import annotations

import dataclasses
import gc
import io
import json
import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hessplit import (
    Category,
    EmsConfig,
    LoadProfile,
    analyze_profile,
    dispatch,
    normalize,
    parse_profile,
    parse_profile_file,
    read_catalog,
    resample,
    validate_resolution,
    write_profile_csv,
)
from hessplit.cli import main
from hessplit.errors import (
    EmptyInputError,
    InvalidProfileError,
    MalformedRowError,
    NegativePowerError,
    NonUniformGridError,
    NotAMultipleError,
    UpsamplingForbiddenError,
)
from hessplit.profiles import (
    _catalog_profiles,
    _loadtxt_path,
    _parse_loadtxt,
    _parse_rows,
    profile_to_csv,
)
from hessplit.report import report_to_dict


def test_parse_epoch_timestamps():
    p = parse_profile("timestamp,power_kw\n100.0,1.5\n101.0,2.5\n102.0,0.0\n")
    assert p.t0 == 100.0
    assert p.dt == 1.0
    assert np.array_equal(p.samples, [1.5, 2.5, 0.0])


def test_parse_iso_timestamps():
    text = (
        "timestamp,power_kw\n"
        "2021-03-01T00:00:00Z,1.0\n"
        "2021-03-01T00:00:15Z,2.0\n"
        "2021-03-01T00:00:30Z,3.0\n"
    )
    p = parse_profile(text)
    assert p.dt == 15.0
    assert p.n_samples == 3


def test_iso_timestamp_without_offset_reads_as_utc():
    naive = parse_profile("timestamp,power_kw\n2024-01-01T00:00:00,1\n2024-01-01T00:00:01,2\n")
    utc = parse_profile("timestamp,power_kw\n2024-01-01T00:00:00Z,1\n2024-01-01T00:00:01Z,2\n")
    assert naive.t0 == utc.t0 == 1704067200.0
    assert naive == utc


def test_parse_accepts_bytes_and_file_objects():
    text = "timestamp,power_kw\n0,1\n1,2\n"
    from_bytes = parse_profile(text.encode("utf-8"))
    from_file = parse_profile(io.StringIO(text))
    assert from_bytes == from_file


def test_parse_text_file_after_next(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("exported by meter 7\ntimestamp,power_kw\n0,1\n1,2\n")
    with path.open(encoding="utf-8") as fh:
        next(fh)  # a text file being iterated cannot tell(): the row parser reads it
        p = parse_profile(fh)
    assert np.array_equal(p.samples, [1.0, 2.0])


@pytest.mark.parametrize("text", ["timestamp,power_kw\n0,1\n1,2\n",
                                  "timestamp,power_kw\n0,1\n1,x\n"])
def test_parse_leaves_binary_file_open(tmp_path, text):
    path = tmp_path / "p.csv"
    path.write_text(text)
    with path.open("rb") as fh:
        try:
            assert np.array_equal(parse_profile(fh).samples, [1.0, 2.0])
        except MalformedRowError:
            pass
        gc.collect()  # a leftover text wrapper would close fh when collected
        assert not fh.closed
        fh.seek(0)
        assert fh.read() == text.encode("utf-8")


def test_header_must_match_exactly():
    with pytest.raises(MalformedRowError) as err:
        parse_profile("time,power\n0,1\n1,2\n")
    assert "timestamp,power_kw" in str(err.value)


def test_empty_input_and_no_data_rows():
    with pytest.raises(EmptyInputError):
        parse_profile("")
    with pytest.raises(EmptyInputError):
        parse_profile("timestamp,power_kw\n")


def test_malformed_row_cites_row_number():
    with pytest.raises(MalformedRowError) as err:
        parse_profile("timestamp,power_kw\n0,1\n1,not-a-number\n")
    assert err.value.row_number == 3, "header is row 1, so the bad row is 3"
    with pytest.raises(MalformedRowError) as err:
        parse_profile("timestamp,power_kw\n0,1\nbogus stamp,2\n")
    assert "row 3" in str(err.value)


@pytest.mark.parametrize("row", [2, 150, 300])
@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_non_finite_timestamp_cites_row(stamp, row):
    lines = ["timestamp,power_kw"] + [f"{i},1" for i in range(300)]
    lines[row - 1] = f"{stamp},1"
    with pytest.raises(MalformedRowError) as err:
        parse_profile("\n".join(lines) + "\n")
    assert err.value.row_number == row
    assert "timestamp must be finite" in str(err.value)


def test_negative_power_rejected_unless_clamped():
    text = "timestamp,power_kw\n0,1\n1,-2\n2,1\n"
    with pytest.raises(NegativePowerError):
        parse_profile(text)
    p = parse_profile(text, clamp_negative=True)
    assert p.samples[1] == 0.0


def test_non_uniform_grid_rejected():
    with pytest.raises(NonUniformGridError):
        parse_profile("timestamp,power_kw\n0,1\n1,1\n2.5,1\n")
    # non-increasing timestamps
    with pytest.raises(NonUniformGridError):
        parse_profile("timestamp,power_kw\n5,1\n5,1\n5,1\n")


@pytest.mark.parametrize("text, message", [
    ("timestamp,power_kw\n0,1\n\n1,1\n2,1\n\n\n5,1\n",
     "row 8: gap 3.0 s deviates from inferred interval 1.0 s"),
    ("timestamp,power_kw\n\n0,1\n\n0,1\n",
     "timestamps not strictly increasing at row 5 (dt=0.0)"),
])
def test_grid_errors_count_blank_lines(tmp_path, text, message):
    path = tmp_path / "p.csv"
    path.write_text(text)
    for parse in (lambda: parse_profile(text), lambda: parse_profile_file(path)):
        with pytest.raises(NonUniformGridError) as err:
            parse()
        assert str(err.value) == message


@pytest.mark.parametrize("at", [2, 4096, 4097, 4098, 9_999])
def test_grid_error_names_its_row_in_any_block(at):
    # the grid check reads its gaps a block of CSV_BLOCK_ROWS at a time; the
    # first gap off the grid is named wherever it falls, by both parse paths
    times = np.arange(10_000.0)
    times[at:] += 0.0015
    times[-1] += 5.0  # a later gap off the grid too
    text = "timestamp,power_kw\n" + "".join(f"{t!r},1\n" for t in times.tolist())
    for source in (text, io.StringIO(text).readlines()):
        with pytest.raises(NonUniformGridError) as err:
            parse_profile(source)
        gap = float(times[at] - times[at - 1])
        assert str(err.value) == f"row {at + 2}: gap {gap} s deviates from inferred interval 1.0 s"


def test_grid_tolerates_millisecond_jitter():
    p = parse_profile("timestamp,power_kw\n0.0,1\n1.0004,1\n2.0,1\n")
    assert p.n_samples == 3


def test_round_trip_is_lossless(make_profile):
    p = make_profile([0.125, 7.75, 3.0625, 0.0], dt=0.5, t0=1234.5)
    again = parse_profile(profile_to_csv(p))
    assert again.t0 == p.t0
    assert again.dt == p.dt
    assert np.array_equal(again.samples, p.samples)


def test_round_trip_survives_awkward_floats(rng):
    samples = rng.uniform(0.0, 1e3, size=50)
    p = LoadProfile(site_id="x", t0=0.0, dt=1.0, samples=samples)
    assert parse_profile(profile_to_csv(p), site_id="x") == p


def test_profile_equality_compares_every_field():
    p = LoadProfile(site_id="a", t0=10.0, dt=1.0, samples=[1.0, 0.0, 2.0],
                    category_hint=Category.PS)
    assert p == dataclasses.replace(p) and not p != dataclasses.replace(p)
    for changes in ({"site_id": "b"}, {"category_hint": Category.UPS}, {"t0": 11.0},
                    {"dt": 2.0}, {"samples": [1.0, 0.5, 2.0]}, {"samples": [1.0, 0.0]},
                    {"samples": [1.0, 0.0, 2.0, 2.0]}):
        assert p != dataclasses.replace(p, **changes), changes
    assert p == dataclasses.replace(p, samples=[1.0, -0.0, 2.0])  # as np.array_equal
    for other in (None, "a", 1.0, [1.0, 0.0, 2.0]):
        assert (p == other) is False
        assert (p != other) is True


def test_write_profile_csv_to_path(tmp_path, make_profile):
    p = make_profile([1.0, 2.0, 3.0])
    path = tmp_path / "out.csv"
    write_profile_csv(p, path)
    assert parse_profile_file(path, site_id="test") == p


def test_profile_validation():
    with pytest.raises(InvalidProfileError):
        LoadProfile(site_id="x", t0=0.0, dt=1.0, samples=np.array([1.0]))
    with pytest.raises(InvalidProfileError):
        LoadProfile(site_id="x", t0=0.0, dt=0.0, samples=np.array([1.0, 2.0]))
    with pytest.raises(InvalidProfileError):
        LoadProfile(site_id="x", t0=0.0, dt=1.0, samples=np.array([1.0, -2.0]))
    with pytest.raises(InvalidProfileError):
        LoadProfile(site_id="x", t0=0.0, dt=1.0, samples=np.array([1.0, np.nan]))
    with pytest.raises(InvalidProfileError):
        LoadProfile(site_id="x", t0=0.0, dt=1.0, samples=[1.0, None])
    with pytest.raises(InvalidProfileError, match="real numbers: got complex"):
        LoadProfile(site_id="x", t0=0.0, dt=1.0, samples=np.array([1 + 5j, 2j, 3.0]))
    with pytest.raises(InvalidProfileError, match="real numbers: could not convert"):
        LoadProfile(site_id="x", t0=0.0, dt=1.0, samples="abc")


def test_two_dimensional_samples_are_rejected():
    with pytest.raises(InvalidProfileError, match="^samples must be a one-dimensional sequence$"):
        LoadProfile(site_id="x", t0=0.0, dt=1.0, samples=np.ones((2, 2)))


@pytest.mark.parametrize("samples, message", [
    ([1.0, -2.0], "samples must be non-negative kilowatts"),
    ([-2.0, np.nan], "samples must all be finite"),
    ([np.inf, -2.0], "samples must all be finite"),
    ([-np.inf, 1.0], "samples must all be finite"),
    ([np.nan, np.nan], "samples must all be finite"),
])
def test_non_finite_samples_are_named_before_negative_ones(samples, message):
    with pytest.raises(InvalidProfileError, match=f"^{message}$"):
        LoadProfile(site_id="x", t0=0.0, dt=1.0, samples=np.array(samples))


@pytest.mark.parametrize("t0", [math.inf, -math.inf, math.nan, "0", True])
def test_t0_must_be_a_finite_number(t0):
    with pytest.raises(InvalidProfileError, match="^t0 must be a"):
        LoadProfile(site_id="x", t0=t0, dt=1.0, samples=np.array([1.0, 2.0]))


@pytest.mark.parametrize("t0, dt, n", [
    (1e300, 1.0, 3),  # three equal 1e+300 timestamps
    (1.7e308, 1e307, 3),  # the last timestamp overflows to inf
    (2.0 ** 53, 0.5, 4),  # gaps of 0 and 2 s around an inferred interval of 0 s
    (1e15, 0.1, 100),  # gaps of 0.125 and 0 s: off the grid by far more than 1 ms
])
def test_timestamps_must_read_back_as_a_grid(t0, dt, n):
    # the canonical CSV would fail parse_profile's grid check, so input_sha256
    # would name a profile that cannot be read back; no RuntimeWarning either
    with pytest.raises(InvalidProfileError, match="finite, evenly spaced timestamps"):
        LoadProfile(site_id="x", t0=t0, dt=dt, samples=np.ones(n))
    with np.errstate(over="ignore"):
        times = (t0 + np.arange(n) * dt).tolist()
    with pytest.raises((NonUniformGridError, MalformedRowError)):
        parse_profile("timestamp,power_kw\n" + "".join(f"{t!r},1.0\n" for t in times))


def test_large_epoch_grid_is_accepted():
    # 1.6e9 s at 0.1 s: every gap rounds to within an ulp (2.4e-7 s) of the first
    p = LoadProfile(site_id="x", t0=1.6e9, dt=0.1, samples=np.ones(10_000))
    back = parse_profile(profile_to_csv(p), site_id="x")
    assert (back.t0, back.n_samples) == (p.t0, p.n_samples)
    assert abs(back.dt - p.dt) < 1e-6


def test_grid_check_holds_no_time_column():
    # LoadProfile checks its grid a block of timestamps at a time: the whole
    # time column and its gaps took 16 bytes per sample
    samples = np.ones(12 * 86_400)
    tracemalloc.start()
    try:
        LoadProfile(site_id="x", t0=1.6e9, dt=1.0, samples=samples, _owned=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= samples.size


@pytest.mark.parametrize("t0, dt", [
    (0, 1), (1_600_000_000, 2), (np.int64(-7), np.float32(0.5)),
    (np.float32(1.5), np.float64(0.25)), (Fraction(3, 2), Fraction(1, 4)), (2 ** 53 + 1, 2),
])
def test_number_types_give_the_float_csv(rng, t0, dt):
    # t0 and dt are stored as floats: an int-built profile has the canonical
    # CSV, input_sha256 and report of its float twin and of its own CSV read back
    samples = rng.uniform(0.0, 5.0, size=200)
    p = LoadProfile(site_id="x", t0=t0, dt=dt, samples=samples)
    assert (type(p.t0), type(p.dt)) == (float, float)
    twin = LoadProfile(site_id="x", t0=float(t0), dt=float(dt), samples=samples)
    back = parse_profile(profile_to_csv(p), site_id="x")
    texts = {json.dumps(report_to_dict(analyze_profile(q))) for q in (p, twin, back)}
    assert len(texts) == 1
    assert profile_to_csv(p) == profile_to_csv(twin) == profile_to_csv(back)


def test_numpy_dt_is_checked_as_its_float():
    # in float32, 1e39 kWh * 1 s overflows; in numpy, 1 / 1e-310 warns
    p = LoadProfile(site_id="x", t0=0.0, dt=np.float32(1.0), samples=np.array([1e39, 0.0]))
    assert p == LoadProfile(site_id="x", t0=0.0, dt=1.0, samples=np.array([1e39, 0.0]))
    with pytest.raises(InvalidProfileError, match="1/dt overflows a float"):
        LoadProfile(site_id="x", t0=0.0, dt=np.float64(1e-310), samples=np.array([1.0, 2.0]))


def test_profile_energy_must_fit_a_float():
    quarter = sys.float_info.max / 4
    edge = LoadProfile(site_id="x", t0=0.0, dt=1.0, samples=np.array([quarter, 0.0, quarter]))
    res = dispatch(normalize(edge), EmsConfig(recharge_threshold=0.0))  # largest sum accepted
    assert math.isfinite(res.p_load_kw.sum())
    assert all(math.isfinite(v) for v in dataclasses.astuple(res.stats))
    for dt, samples in [(1.0, [quarter, quarter, quarter]), (4.0, [quarter, 0.0, quarter]),
                        (1.0, [1e308, 1e308])]:
        with pytest.raises(InvalidProfileError, match="total energy overflows a float"):
            LoadProfile(site_id="x", t0=0.0, dt=dt, samples=np.array(samples))


def test_samples_are_immutable(make_profile):
    p = make_profile([1.0, 2.0])
    with pytest.raises(ValueError):
        p.samples[0] = 5.0


@pytest.mark.parametrize(
    "dt,sc,ups,vrfb_only",
    [
        (1.0, True, True, False),
        (10.0, True, True, False),   # boundary: 10 s still fine for the SC
        (15.0, False, True, True),   # between the gates
        (29.9, False, True, True),
        (30.0, False, False, True),  # boundary: 30 s no longer UPS-usable
        (900.0, False, False, True),
    ],
)
def test_resolution_gates(make_profile, dt, sc, ups, vrfb_only):
    verdict = validate_resolution(make_profile([1.0, 2.0], dt=dt))
    assert verdict.sc_suitable is sc
    assert verdict.ups_usable is ups
    assert verdict.vrfb_only is vrfb_only
    assert verdict.reason


def test_resample_window_means(make_profile):
    p = make_profile([1.0, 3.0, 5.0, 7.0, 2.0, 4.0], dt=1.0)
    r = resample(p, 2.0)
    assert r.dt == 2.0
    assert np.array_equal(r.samples, [2.0, 6.0, 3.0])


def test_resample_drops_trailing_partial_window(make_profile):
    p = make_profile([1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0], dt=1.0)
    r = resample(p, 3.0)
    assert r.n_samples == 2, "the seventh sample cannot fill a third window"


def test_resample_conserves_energy(rng, make_profile):
    samples = rng.uniform(0.0, 50.0, size=600)
    p = make_profile(samples, dt=1.0)
    r = resample(p, 60.0)
    energy_in = p.samples.sum() * p.dt
    energy_out = r.samples.sum() * r.dt
    assert math.isclose(energy_in, energy_out, rel_tol=1e-12)


def test_resample_rejects_upsampling_and_non_multiples(make_profile):
    p = make_profile([1.0, 2.0, 3.0, 4.0], dt=2.0)
    with pytest.raises(UpsamplingForbiddenError):
        resample(p, 1.0)
    with pytest.raises(UpsamplingForbiddenError):
        resample(p, 2.0)
    with pytest.raises(NotAMultipleError):
        resample(p, 5.0)


@pytest.mark.parametrize("target", [float("inf"), float("nan")])
def test_resample_rejects_non_finite_targets(make_profile, target):
    p = make_profile([1.0, 2.0, 3.0, 4.0], dt=2.0)
    with pytest.raises(NotAMultipleError, match="not an integer multiple"):
        resample(p, target)


def test_resample_needs_two_output_samples(make_profile):
    p = make_profile([1.0, 2.0, 3.0], dt=1.0)
    with pytest.raises(InvalidProfileError):
        resample(p, 3.0)


def test_catalog_manifest(tmp_path, make_profile):
    a = make_profile([1.0, 2.0], site_id="a")
    b = make_profile([3.0, 4.0], site_id="b")
    write_profile_csv(a, tmp_path / "a.csv")
    write_profile_csv(b, tmp_path / "b.csv")
    manifest = tmp_path / "catalog.json"
    manifest.write_text(json.dumps([
        {"path": "a.csv", "site_id": "a", "category_hint": "PS"},
        {"path": str(tmp_path / "b.csv"), "site_id": "b"},
    ]))
    entries = read_catalog(manifest)
    assert entries[0].category_hint is Category.PS
    assert entries[1].category_hint is Category.UNKNOWN
    profiles = list(_catalog_profiles(manifest, False))
    assert [p.site_id for p in profiles] == ["a", "b"]
    assert profiles[0].category_hint is Category.PS
    assert np.array_equal(profiles[1].samples, b.samples)


def test_category_hint_value_gives_its_member(make_profile):
    assert make_profile([1.0, 2.0], category_hint="PS").category_hint is Category.PS
    with pytest.raises(InvalidProfileError) as exc:
        make_profile([1.0, 2.0], category_hint="XX")
    assert str(exc.value) == (
        "category_hint must be one of ['PS', 'WDG', 'UPS', 'VI', 'Unknown'], got 'XX'")


def test_catalog_rejects_bad_entries(tmp_path):
    manifest = tmp_path / "catalog.json"
    manifest.write_text(json.dumps([{"site_id": "missing-path"}]))
    with pytest.raises(MalformedRowError):
        read_catalog(manifest)


# --- numpy path against the row parser ---

_HEAD = "timestamp,power_kw\n"
_ROWS = "".join(f"{1.6e9 + i},{0.25 * i}\n" for i in range(50))

#: (id, CSV text, clamp_negative, whether the numpy path takes it)
PARSE_CASES = [
    ("clean", _HEAD + _ROWS, False, True),
    ("crlf", (_HEAD + _ROWS).replace("\n", "\r\n"), False, True),
    ("cr", (_HEAD + _ROWS).replace("\n", "\r"), False, True),
    ("no-final-newline", _HEAD + _ROWS.rstrip("\n"), False, True),
    ("bom", "\ufeff" + _HEAD + _ROWS, False, True),
    ("blank-lines", _HEAD + "0,1\n\n1,2\n\n\n2,3\n\n", False, True),
    ("whitespace-line", _HEAD + "0,1\n   \n1,2\n\t\n2,3\n", False, False),
    ("spaces", " timestamp , power_kw \n 0 , 1 \n1 ,\t2\n 2,3 \n", False, True),
    ("quoted", _HEAD + '"0","1"\n"1",2\n2,3\n', False, False),
    ("quoted-header", '"timestamp","power_kw"\n0,1\n1,2\n', False, False),
    ("trailing-comma", _HEAD + "0,1,\n1,2,\n", False, False),
    ("trailing-comma-last", _HEAD + "0,1\n1,2\n2,3,\n", False, False),
    ("underscores", _HEAD + "1_000,1_0\n1_001,2\n1002,3\n", False, False),
    ("iso", _HEAD + "2021-03-01T00:00:00Z,1\n2021-03-01T00:00:15Z,2\n", False, False),
    ("nan-time-row2", _HEAD + "nan,1\n1,2\n2,3\n", False, False),
    ("nan-time-mid", _HEAD + _ROWS + "nan,1\n" + _ROWS, False, False),
    ("inf-time", _HEAD + "0,1\ninf,2\n", False, False),
    ("nan-power", _HEAD + "0,1\n1,nan\n2,3\n", False, False),
    ("inf-power", _HEAD + "0,1\n1,-inf\n", False, False),
    ("negative-zero", _HEAD + "-0,-0\n1,-0.0\n2,0\n", False, True),
    ("negative-power", _HEAD + "0,1\n1,-2\n2,1\n", False, False),
    ("negative-power-clamped", _HEAD + "0,1\n1,-2\n2,-0.0\n", True, True),
    ("jitter", _HEAD + "0.0,1\n1.0004,1\n2.0,1\n2.9995,1\n", False, True),
    ("jitter-at-tolerance", _HEAD + "0,1\n1,1\n2.001,1\n", False, True),
    ("jitter-beyond-tolerance", _HEAD + "0,1\n1,1\n2.002,1\n", False, False),
    ("non-uniform", _HEAD + "0,1\n1,1\n2.5,1\n", False, False),
    ("non-increasing", _HEAD + "5,1\n5,1\n5,1\n", False, False),
    ("overflowing-dt", _HEAD + "-1e308,1\n1e308,1\n", False, False),
    ("single-row", _HEAD + "0,1\n", False, False),
    ("header-only", _HEAD, False, False),
    ("header-and-blank-lines", _HEAD + "\n\n", False, False),
    ("empty", "", False, False),
    ("bad-header", "time,power\n0,1\n1,2\n", False, False),
    ("three-fields", _HEAD + "0,1,2\n1,2,3\n", False, False),
    ("one-field", _HEAD + "0,1\n5\n1,2\n", False, False),
    ("comment-row", _HEAD + "#note,1\n0,1\n1,2\n", False, False),
]


def _outcome(parse):
    """What a parse gives: the profile's bits, or the exception's type and text."""
    try:
        p = parse()
    except Exception as exc:
        return type(exc), str(exc)
    return p.samples.tobytes(), repr(p.t0), repr(p.dt)


def _reference(source, clamp):
    def parse():
        lines = io.StringIO(source, newline="") if isinstance(source, str) else source
        t0, dt, samples = _parse_rows(lines, clamp)
        return LoadProfile(site_id="", t0=t0, dt=dt, samples=samples)
    return parse


@pytest.mark.parametrize("text,clamp,fast", [c[1:] for c in PARSE_CASES],
                         ids=[c[0] for c in PARSE_CASES])
def test_numpy_path_matches_row_parser(tmp_path, text, clamp, fast):
    got = _outcome(lambda: parse_profile(text, clamp_negative=clamp))
    assert got == _outcome(_reference(text, clamp))
    assert _outcome(lambda: parse_profile(text.encode("utf-8"), clamp_negative=clamp)) == got

    path = tmp_path / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    from_file = _outcome(lambda: parse_profile_file(path, site_id="", clamp_negative=clamp))
    with path.open("r", encoding="utf-8", newline="") as fh:
        assert from_file == _outcome(_reference(fh, clamp))

    with path.open("r", encoding="utf-8", newline="") as fh:
        assert (_parse_loadtxt(fh, clamp) is not None) is fast


@pytest.mark.parametrize("at", [4, 100, 15000])
def test_undecodable_file_fails_as_row_parser(tmp_path, at):
    data = (_HEAD + _ROWS * 20).encode("utf-8")
    path = tmp_path / "p.csv"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    got = _outcome(lambda: parse_profile_file(path, site_id=""))
    assert got[0] is UnicodeDecodeError
    with path.open("r", encoding="utf-8", newline="") as fh:
        assert got == _outcome(_reference(fh, False))


def _write_source(tmp_path, kind, data):
    """A file holding ``data`` that ``parse_profile_file`` opens: a regular
    ``p.csv``, a regular (uncompressed) ``x.csv.gz``, or a FIFO that a thread
    feeds, returned with that thread."""
    if kind != "fifo":
        path = tmp_path / kind
        path.write_bytes(data)
        return path, None
    path = tmp_path / "p.fifo"
    os.mkfifo(path)

    def feed():
        with path.open("wb") as fh:
            try:
                fh.write(data)
            except BrokenPipeError:  # the reader stopped at a bad row
                pass
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    return path, writer


@pytest.mark.parametrize("kind", ["p.csv", "x.csv.gz", "fifo"])
@pytest.mark.parametrize("text,clamp", [c[1:3] for c in PARSE_CASES],
                         ids=[c[0] for c in PARSE_CASES])
def test_file_parse_matches_text_parse(tmp_path, kind, text, clamp):
    # numpy reads a regular file's rows by its path; a name numpy would
    # decompress and a FIFO take the open file, as any other source does
    path, writer = _write_source(tmp_path, kind, text.encode("utf-8"))
    got = _outcome(lambda: parse_profile_file(path, site_id="", clamp_negative=clamp))
    if writer is not None:
        writer.join(timeout=10)
        assert not writer.is_alive()
    assert got == _outcome(lambda: parse_profile(text, clamp_negative=clamp))


def test_only_a_regular_file_is_read_by_its_path(tmp_path):
    data = (_HEAD + _ROWS).encode("utf-8")
    for kind, by_path in [("p.csv", True), ("x.csv.gz", False), ("fifo", False)]:
        path, writer = _write_source(tmp_path, kind, data)
        with path.open("r", encoding="utf-8", newline="") as fh:
            assert (_loadtxt_path(fh, path) == str(path.resolve())) is by_path, kind
            assert _parse_rows(fh, False)[0] == 1.6e9
        if writer is not None:
            writer.join(timeout=10)


@pytest.mark.parametrize("kind", ["p.csv", "x.csv.gz", "fifo"])
@pytest.mark.parametrize("at", [4, 100, 15000, 150000])
def test_undecodable_file_exits_2(capsys, tmp_path, kind, at):
    # past 150,000 bytes the bad byte lies beyond numpy's first chunk
    data = (_HEAD + _ROWS * 4000).encode("utf-8")
    path, writer = _write_source(tmp_path, kind, data[:at] + b"\xff" + data[at:])
    code = main(["analyze", str(path), "--out", str(tmp_path / "r.json")])
    if writer is not None:
        writer.join(timeout=10)
    assert code == 2 and "utf-8" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


_CSV_FIELD = st.one_of(
    st.integers(-2, 30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "1e308", "-0.0", "nan", "inf", "x", '"1"', "1_0", "#1",
                     "2024-01-01T00:00:00Z", "2024-01-01T00:00:01+00:00", "\ufeff1"]),
)
_CSV_TEXT = st.builds(
    lambda head, rows, eol: eol.join([head, *rows]) + eol,
    st.sampled_from(["timestamp,power_kw", "\ufefftimestamp,power_kw", " timestamp , power_kw",
                     "time,power", ""]),
    st.one_of(
        st.lists(st.lists(_CSV_FIELD, max_size=3).map(",".join), max_size=6),
        # one second apart, so most of these parse
        st.lists(st.floats(0.0, 1e6).map(repr) | _CSV_FIELD, min_size=2, max_size=6).map(
            lambda powers: [f"{i},{p}" for i, p in enumerate(powers)]),
    ),
    st.sampled_from(["\n", "\r\n", "\r"]),
)


# every accepted input here has at most a handful of rows, so a regression
# shows as a failure or exit 3, not as a hang
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_CSV_TEXT.map(str.encode) | st.binary(max_size=40), clamp=st.booleans())
def test_no_profile_csv_is_an_internal_error(capsys, tmp_path, data, clamp):
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    from_file = _outcome(lambda: parse_profile_file(path, site_id="", clamp_negative=clamp))
    with path.open("r", encoding="utf-8", newline="") as fh:
        assert from_file == _outcome(_reference(fh, clamp))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:
        got = _outcome(lambda: parse_profile(text, clamp_negative=clamp))
        assert got == _outcome(_reference(text, clamp))
        assert _outcome(lambda: parse_profile(data, clamp_negative=clamp)) == got

    flags = ["--clamp-negative"] if clamp else []
    code = main(["analyze", str(path), "--out", str(tmp_path / "r.json"), *flags])
    assert code in (0, 2), capsys.readouterr().err
