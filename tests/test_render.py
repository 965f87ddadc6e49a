"""CSV rendering: the block renderer against the ``csv.writer`` definition it replaced."""

from __future__ import annotations

import csv
import hashlib
import io
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hessplit import profiles
from hessplit.profiles import CSV_BLOCK_ROWS, csv_bytes, profile_to_csv, write_csv
from hessplit.synth import MachineSpec, MunicipalSpec, generate
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


def assert_same_text(got: str, expected: str) -> None:
    """``got == expected``, failing with the first differing line, not a full diff."""
    if got != expected:
        a, b = got.splitlines(), expected.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i} differs: {a[i:i + 1]} != {b[i:i + 1]}")


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
    assert_same_text(buf.getvalue(), expected)
    path = tmp_path / "out.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == expected.encode("utf-8")
    assert len(list(csv_bytes(header, columns))) == 1 + -(-n // CSV_BLOCK_ROWS)


# NaNs with other sign and payload bits: each is its own table key, all print 'nan'
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                dtype=np.uint64).view(np.float64).tolist()
POOL = [0.0, -0.0, 5e-324, 1e16, 9.999999999999999e15, 1e-5, 1 / 3, *NANS]
INT_POOLS = {np.int8: [-128, -1, 0, 1, 127],
             np.int64: [-2 ** 63, -1, 0, 1, 10 ** 15, 2 ** 63 - 1]}
LONG_LENGTHS = [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                2 * CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 17]

COLUMN_KINDS = st.one_of(
    st.tuples(st.just("pool"), st.lists(st.sampled_from(POOL), min_size=1, max_size=6)),
    st.tuples(st.just("ints"), st.sampled_from(sorted(INT_POOLS, key=str))),
    st.tuples(st.just("distinct"), st.sampled_from([np.float64, np.int64])),
    # distinct counts on both sides of the table threshold of n // 8
    st.tuples(st.just("k distinct"), st.sampled_from([-1, 0, 1])),
    st.tuples(st.just("half repeated"), st.sampled_from([0.0, -0.0])),
)


def make_column(kind, n, rng):
    tag, arg = kind
    if tag == "pool":
        return rng.choice(np.array(arg), size=n)
    if tag == "ints":
        return rng.choice(np.array(INT_POOLS[arg], dtype=arg), size=n)
    if tag == "distinct":
        return rng.random(n) * 1e3 if arg is np.float64 else np.arange(n, dtype=arg) * 7919 - 3
    if tag == "k distinct":
        return np.resize(rng.random(n // 8 + arg), n)
    col = rng.random(n)
    col[: n // 2] = arg
    return col


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(COLUMN_KINDS, min_size=1, max_size=4),
       n=st.sampled_from(LONG_LENGTHS), seed=st.integers(0, 2 ** 32 - 1))
def test_long_columns_match_csv_writer(kinds, n, seed):
    rng = np.random.default_rng(seed)
    columns = [make_column(kind, n, rng) for kind in kinds]
    header = [f"c{i}" for i in range(len(columns))]
    buf = io.StringIO()
    write_csv(buf, header, columns)
    assert_same_text(buf.getvalue(), reference_csv(header, zip(*(c.tolist() for c in columns))))


def count_rendered(monkeypatch, columns):
    """Render ``columns`` and return how many values were rendered: once per
    distinct value of a tabled column, once per row of any other."""
    calls = []
    fields = profiles._fields

    def counting_fields(values):
        calls.append(len(values))
        return fields(values)

    monkeypatch.setattr(profiles, "_fields", counting_fields)
    header = [f"c{i}" for i in range(len(columns))]
    text = b"".join(csv_bytes(header, columns)).decode()
    monkeypatch.undo()
    assert_same_text(text, reference_csv(header, zip(*(c.tolist() for c in columns))))
    return sum(calls)


def test_long_low_cardinality_columns_are_tabled(monkeypatch):
    n = 3 * CSV_BLOCK_ROWS
    few = np.resize([0.0, -0.0, 1 / 3, 5e-324, 7.0], n)
    flags = np.resize(np.array([0, 1], dtype=np.int8), n)
    distinct = np.arange(n) / 3.0
    # one rendered value per distinct value of the two tabled columns, one
    # per row of the distinct column and of a short one
    assert count_rendered(monkeypatch, [few, distinct, flags]) == 5 + n + 2
    assert count_rendered(monkeypatch, [distinct]) == n
    assert count_rendered(monkeypatch, [few[: CSV_BLOCK_ROWS - 1]]) == CSV_BLOCK_ROWS - 1


def forbid_sort(monkeypatch):
    def no_sort(*args, **kwargs):
        raise AssertionError("np.sort called")

    monkeypatch.setattr(np, "sort", no_sort)


def test_mostly_distinct_columns_are_not_sorted(monkeypatch, rng):
    # the first sort in a process maps numpy's sort code: analyze never pays it
    forbid_sort(monkeypatch)
    n = 3 * CSV_BLOCK_ROWS
    times = 1.6e9 + np.arange(n) * 0.5
    samples = rng.uniform(0.0, 250.0, size=n)
    samples[::64] = 7.0  # one row in 64 repeats a value: still nearly all distinct
    assert b"".join(csv_bytes(["t", "p"], [times, samples])).decode().count("\r\n") == n + 1


def count_sorts(monkeypatch) -> list:
    """A list that gets one entry per ``np.sort`` call from here on."""
    sorts, sort = [], np.sort
    monkeypatch.setattr(np, "sort", lambda *a, **k: sorts.append(1) or sort(*a, **k))
    return sorts


def test_one_frequent_value_among_distinct_ones_is_sorted_once_not_tabled(monkeypatch, rng):
    # a trace column pinned at one value on half its steps: the sample is far
    # from all distinct, so the keys are sorted, and the count of nearly n / 2
    # distinct ones refuses a table
    n = 3 * CSV_BLOCK_ROWS
    col = rng.uniform(0.0, 250.0, size=n)
    col[rng.random(n) < 0.5] = 50.0
    sorts = count_sorts(monkeypatch)
    assert count_rendered(monkeypatch, [col]) == n
    assert len(sorts) == 1


def test_deciding_against_a_table_holds_no_distinct_keys(rng):
    # 40% one value, 30% from a pool of 200 and 30% distinct: the sample is
    # far from all distinct, so the keys are sorted, and about 104,000
    # distinct ones refuse a table (n // 8 is 43,200). Deciding holds the
    # sorted keys and a byte mask, about 9 bytes per row; compacting the
    # distinct keys before counting them took 11.4.
    n = 345_600
    col = rng.uniform(0.0, 250.0, size=n)
    u = rng.random(n)
    col[u < 0.4] = 50.0
    pooled = u >= 0.7
    col[pooled] = rng.choice(rng.uniform(0.0, 250.0, size=200), size=np.count_nonzero(pooled))
    tracemalloc.start()
    try:
        profiles._column_renderer(col)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * n


def test_a_long_table_renders_its_keys_in_blocks(rng):
    # half the rows 0.0 and 23,628 distinct values, under the table limit of
    # n // 8: the column is tabled. The float kernel's temporaries are about
    # 311 bytes per value, so rendering every key at once peaked at 38.7 bytes
    # per row; a block of keys at a time leaves the decision's sorted keys and
    # mask as the peak, 10.0
    n = 200_000
    col = rng.choice(rng.uniform(0.0, 250.0, size=n // 8 - 1000), size=n)
    col[rng.random(n) < 0.5] = 0.0
    sink = io.StringIO()
    sink.write = len  # the text is not kept
    tracemalloc.start()
    try:
        write_csv(sink, ["x"], [col])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n


def test_many_repeated_values_are_still_tabled(monkeypatch, rng):
    # n // 32 distinct values in random order: most of those in the sample
    # are seen there once, yet each repeats about 32 times in the column
    n = 16 * CSV_BLOCK_ROWS
    col = rng.choice(rng.uniform(0.0, 250.0, size=n // 32), size=n)
    assert count_rendered(monkeypatch, [col]) == len(np.unique(col))


TRACE_COLUMNS = ["p_load_kw", "p_grid_kw", "p_sc_kw", "p_vrfb_kw", "soc_sc_kwh", "soc_vrfb_kwh",
                 "flag_sc"]


@pytest.mark.parametrize("spec, sorted_columns, tabled_columns", [
    # every trace column but t has few values
    (MachineSpec(days=1, seed=11), TRACE_COLUMNS, TRACE_COLUMNS),
    # p_grid_kw, p_vrfb_kw and soc_vrfb_kwh pass the sample test, but hold
    # 62,264, 36,664 and 35,841 distinct values, over n // 8 = 10,800: sorted,
    # then not tabled; p_load_kw's sample is nearly all distinct, so no sort
    (MunicipalSpec(days=1, seed=42),
     ["p_grid_kw", "p_sc_kw", "p_vrfb_kw", "soc_sc_kwh", "soc_vrfb_kwh", "flag_sc"],
     ["p_sc_kw", "soc_sc_kwh", "flag_sc"]),
], ids=["machine", "municipal"])
def test_archetype_traces_sort_and_table_their_columns(monkeypatch, spec, sorted_columns,
                                                       tabled_columns):
    res = dispatch(normalize(generate(spec)[0]))
    columns = {"p_load_kw": res.p_load_kw, "p_grid_kw": res.p_grid_kw, "p_sc_kw": res.p_sc_kw,
               "p_vrfb_kw": res.p_vrfb_kw, "soc_sc_kwh": res.soc_sc_kwh,
               "soc_vrfb_kwh": res.soc_vrfb_kwh, "flag_sc": res.flag_sc.astype(np.int8)}
    keys = {name: c.view(np.int64) if c.dtype == np.float64 else c for name, c in columns.items()}
    expected = res.n_steps * (1 + len(columns) - len(tabled_columns)) + sum(
        len(np.unique(keys[name])) for name in tabled_columns)  # -0.0 is its own key
    rendered, fields = [], profiles._fields
    sorts = count_sorts(monkeypatch)
    monkeypatch.setattr(profiles, "_fields", lambda v: rendered.append(len(v)) or fields(v))
    write_dispatch_csv(res, io.StringIO())
    assert (len(sorts), sum(rendered)) == (len(sorted_columns), expected)


def test_table_threshold_is_one_distinct_value_per_eight_rows(monkeypatch):
    n = 4 * CSV_BLOCK_ROWS
    at = np.resize(np.arange(n // 8) / 3.0, n)
    over = np.resize(np.arange(n // 8 + 1) / 3.0, n)
    assert count_rendered(monkeypatch, [at]) == n // 8
    assert count_rendered(monkeypatch, [over]) == n


def rendered_column(values) -> list:
    """The fields ``write_csv`` writes for a one-column table of ``values``."""
    buf = io.StringIO()
    write_csv(buf, ["x"], [np.asarray(values, dtype=np.float64)])
    return buf.getvalue().split("\r\n")[1:-1]


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=50),
       floats=st.lists(st.floats(), max_size=50))
def test_float_fields_are_their_repr(bits, floats):
    values = np.array(bits, dtype=np.uint64).view(np.float64).tolist() + floats
    assert rendered_column(values) == list(map(repr, values))


def sweep_values(rng, n):
    """About ``9 * n`` floats of every kind the kernel must get right."""
    sign = rng.choice([-1.0, 1.0], n)
    digits = rng.integers(1, 18, n)
    exponents = rng.integers(-6, 16, n)
    mantissas = rng.integers(1, 10 ** 17, n) // 10 ** (17 - digits)
    decimals = np.array([float(f"{m}e{e}") for m, e in zip(mantissas, exponents - digits + 1)])
    powers = np.array([2.0 ** k for k in range(-40, 60)] + [float(f"1e{k}") for k in range(-8, 20)])
    return np.concatenate([
        rng.uniform(0.0, 1e3, n) * sign,
        10.0 ** rng.uniform(-5, 16, n) * sign,  # log-spread, 1e-5 to 1e16
        decimals, np.nextafter(decimals, np.inf), np.nextafter(decimals, -np.inf),
        rng.integers(-2 ** 53, 2 ** 53, n).astype(np.float64),
        rng.integers(-10 ** 6, 10 ** 6, n).astype(np.float64),
        1.6e9 + rng.integers(0, 10 ** 8, n) / 10,  # epoch-second tenths
        powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0), -powers,
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e14, np.nextafter(1e14, 0.0),
         1e-4, np.nextafter(1e-4, 0.0), 9007199254740993.0],
        rng.integers(-2 ** 63, 2 ** 63, n, dtype=np.int64).view(np.float64),
    ])


def test_seeded_sweep_matches_repr():
    rng = np.random.default_rng(20261019)
    values = sweep_values(rng, 112_000)
    assert len(values) >= 1_000_000
    got = b"".join(csv_bytes(["x"], [values])).decode().split("\r\n")[1:-1]
    expected = list(map(repr, values.tolist()))
    if got != expected:
        bad = [(e, g) for e, g in zip(expected, got) if e != g]
        pytest.fail(f"{len(bad)} fields differ from repr, first {bad[:5]}")
    # in its range the kernel leaves to repr only exact ties: values whose
    # exact decimal ends in a 5 at the 16th, 17th or 18th significant digit
    a = np.abs(values)
    inside = values[(a >= 1e-4) & (a < 1e14) & (values.view(np.int64) & (2 ** 52 - 1) != 0)]
    fallback = profiles._fixed_digits(np.abs(inside), inside.view(np.int64))[-1]
    assert len(fallback) <= len(inside) // 1000
    for x in inside[fallback].tolist():
        digits = "".join(map(str, Decimal(x).as_tuple().digits)).strip("0")
        assert digits.endswith("5") and len(digits) in (16, 17, 18), x


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
    assert_same_text(profile_to_csv(profile), expected)
    path = tmp_path / "p.csv"
    write_profile_csv(profile, path)
    assert path.read_bytes() == expected.encode("utf-8")


def test_input_sha256_is_hash_of_canonical_csv(profile):
    expected = hashlib.sha256(profile_to_csv(profile).encode("utf-8")).hexdigest()
    assert analyze_profile(profile).input_sha256 == expected


def test_trace_sweep_and_histogram_match_old_writers(profile):
    norm = normalize(profile)
    res = dispatch(norm)
    assert_same_text(rendered(write_dispatch_csv, res), reference_csv(
        ["t", "p_load_kw", "p_grid_kw", "p_sc_kw", "p_vrfb_kw",
         "soc_sc_kwh", "soc_vrfb_kwh", "flag_sc"],
        ([i * res.dt, float(res.p_load_kw[i]), float(res.p_grid_kw[i]),
          float(res.p_sc_kw[i]), float(res.p_vrfb_kw[i]), float(res.soc_sc_kwh[i]),
          float(res.soc_vrfb_kwh[i]), int(res.flag_sc[i])] for i in range(res.n_steps)),
    ))

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


@pytest.mark.parametrize("t0", [0.0, 1.7e9])
@pytest.mark.parametrize("dt", [0.1, 0.25, 10.0])
def test_time_column_blocks_are_the_whole_column(t0, dt):
    # each block's rows are np.arange(s, e) * dt + t0, bit for bit the rows
    # of the whole column, so its text is the whole column's too
    n = 3 * CSV_BLOCK_ROWS + 5
    whole = profiles._sample_times(t0, dt, n)
    starts = range(0, n, CSV_BLOCK_ROWS)
    blocks = [profiles._sample_times(t0, dt, min(s + CSV_BLOCK_ROWS, n), s) for s in starts]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    by_formula = [np.arange(s, min(s + CSV_BLOCK_ROWS, n), dtype=np.float64) * dt + t0
                  for s in starts]
    assert np.concatenate(by_formula).tobytes() == whole.tobytes()
    column = profiles._TimeColumn(t0, dt, n)
    assert b"".join(csv_bytes(["t"], [column])) == b"".join(csv_bytes(["t"], [whole]))
