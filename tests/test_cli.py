"""Command-line interface, exercised through main(argv)."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from hessplit import (
    DeviceParams, EmsConfig, EngageMode, EvParkSpec, LoadProfile, MachineSpec, MunicipalSpec,
    parse_profile_file, write_profile_csv,
)
from hessplit.cli import CONFIG_ENV_VAR, _parse_range, main
from hessplit.errors import InvalidRangeError
from hessplit.profiles import _parse_loadtxt
from hessplit.transient import MAX_BINS


_EMS_FIELDS = {f.name for f in dataclasses.fields(EmsConfig)}
_DEV_FIELDS = {f.name for f in dataclasses.fields(DeviceParams)}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


@pytest.fixture
def profile_csv(tmp_path, rng):
    samples = rng.uniform(2.0, 6.0, size=400)
    samples[rng.integers(0, 400, size=12)] = 20.0
    profile = LoadProfile(site_id="p", t0=0.0, dt=1.0, samples=samples)
    path = tmp_path / "site-a.csv"
    write_profile_csv(profile, path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _strict_json(text):
    """``json.loads`` that fails on ``Infinity``, ``-Infinity`` and ``NaN``."""
    def reject(constant):
        raise AssertionError(f"{constant} in the output")

    return json.loads(text, parse_constant=reject)


# --- analyze ---

def test_analyze_stdout_json(capsys, profile_csv):
    code, out, err = run(capsys, "analyze", str(profile_csv))
    assert code == 0
    report = json.loads(out)
    assert report["site_id"] == "site-a"
    assert report["classification"]["hess_compliant"] in (True, False)
    assert report["resolution"]["sc_suitable"] is True
    assert err == ""


def test_analyze_out_file(capsys, tmp_path, profile_csv):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", str(profile_csv), "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["site_id"] == "site-a"


def test_analyze_coarse_profile_warns(capsys, tmp_path):
    profile = LoadProfile(site_id="slow", t0=0.0, dt=900.0,
                          samples=np.linspace(1.0, 10.0, 200))
    path = tmp_path / "slow.csv"
    write_profile_csv(profile, path)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0
    assert "transient analysis skipped" in err
    assert json.loads(out)["classification"] is None


def test_analyze_manifest(capsys, tmp_path, rng):
    for name in ("one", "two"):
        write_profile_csv(
            LoadProfile(site_id=name, t0=0.0, dt=1.0,
                        samples=rng.uniform(1.0, 9.0, size=150)),
            tmp_path / f"{name}.csv",
        )
    manifest = tmp_path / "catalog.json"
    manifest.write_text(json.dumps([
        {"path": "one.csv", "site_id": "one", "category_hint": "PS"},
        {"path": "two.csv", "site_id": "two"},
    ]))
    code, out, _ = run(capsys, "analyze", str(manifest), "--manifest")
    assert code == 0
    reports = json.loads(out)
    assert [r["site_id"] for r in reports] == ["one", "two"]
    assert reports[0]["classification"]["category"] == "PS"


def test_analyze_json_input_is_always_a_manifest(capsys, tmp_path, profile_csv):
    manifest = tmp_path / "catalog.json"
    manifest.write_text(json.dumps([{"path": profile_csv.name, "site_id": "one"}]))
    code, out, _ = run(capsys, "analyze", str(manifest))  # no --manifest: the suffix decides
    assert code == 0
    reports = json.loads(out)
    assert isinstance(reports, list) and [r["site_id"] for r in reports] == ["one"]


@pytest.mark.parametrize("manifest", [
    "[1]",
    '["one.csv"]',
    '[{"path": 3, "site_id": "a"}]',
    '[{"path": "one.csv", "site_id": 4}]',
    '[{"path": "one.csv"}]',
    '[{"path": "one.csv", "site_id": "a"',
    '[{"path": "one.csv\\u0000", "site_id": "a"}]',
    '[{"path": "\\ud800", "site_id": "a"}]',
])
def test_analyze_malformed_manifest_exits_2(capsys, tmp_path, manifest):
    path = tmp_path / "catalog.json"
    path.write_text(manifest)
    code, _, err = run(capsys, "analyze", str(path), "--manifest")
    assert code == 2
    assert err.startswith("error: row 1:")


_JSON_TEXT = st.text(max_size=4) | st.sampled_from(
    ["one.csv", "missing.csv", "", ".", "/", "../one.csv", "one.csv\x00", "\ud800", "PS"])
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["path", "site_id", "category_hint"]) | st.text(max_size=3), inner,
        max_size=4),
    max_leaves=8,
)
_MANIFEST_ENTRY = st.fixed_dictionaries(
    {"path": _JSON_TEXT, "site_id": _JSON_TEXT},
    optional={"category_hint": st.sampled_from(["PS", "UPS", "Unknown"]) | _JSON_VALUE})


# every manifest here names at most a few copies of one 400-sample profile
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(manifest=st.lists(_MANIFEST_ENTRY, max_size=3) | _JSON_VALUE)
def test_no_manifest_is_an_internal_error(capsys, tmp_path, profile_csv, manifest):
    (tmp_path / "one.csv").write_bytes(profile_csv.read_bytes())
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(manifest))
    code = _exit_code("analyze", str(path), "--manifest", "--out", str(tmp_path / "r.json"))
    event(f"exit {code}")
    assert code in (0, 2), capsys.readouterr().err


@pytest.mark.parametrize("dt", [1.0, 900.0])  # 900 s skips the symmetry report
@pytest.mark.parametrize("level", ["inf", "-inf", "nan", "0"])
def test_analyze_non_finite_tail_level_exits_2(capsys, tmp_path, dt, level):
    profile = LoadProfile(site_id="t", t0=0.0, dt=dt, samples=np.linspace(1.0, 10.0, 200))
    path = tmp_path / "t.csv"
    write_profile_csv(profile, path)
    code, out, err = run(capsys, "analyze", str(path), f"--tail-level={level}")
    assert (code, out) == (2, "")
    assert err == f"error: tail_level must be finite and positive, got {float(level)}\n"


def test_analyze_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "error:" in err


def test_analyze_malformed_row_cited(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,power_kw\n0,1\n1,oops\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "row 3" in err


@pytest.mark.parametrize("row", [2, 151])
def test_analyze_non_finite_timestamp_exits_2(capsys, tmp_path, row):
    lines = ["timestamp,power_kw"] + [f"{i},{1 + i % 7}" for i in range(300)]
    lines[row - 1] = "nan,1"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    assert err == f"error: row {row}: timestamp must be finite, got 'nan'\n"


@pytest.mark.parametrize("stamp", [str, lambda i: f"2024-01-01T00:{i // 60:02d}:{i % 60:02d}Z"],
                         ids=["numpy-path", "row-parser"])
@pytest.mark.parametrize(
    "command", [["analyze"], ["dispatch"], ["sweep", "--range", "0.5:0.9:0.2"]],
    ids=lambda argv: argv[0])
def test_overflowing_profile_exits_2(capsys, tmp_path, command, stamp):
    # every finite power, but their sum is not: 200 of 1e308
    rows = [f"{stamp(i)},{0.0 if i % 3 == 0 else 1e308}" for i in range(300)]
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(["timestamp,power_kw", *rows]) + "\n")
    with path.open("r", encoding="utf-8", newline="") as fh:
        assert (_parse_loadtxt(fh, False) is None) is (stamp is not str)
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == "error: samples too large: their total energy overflows a float\n"


@pytest.mark.parametrize("quote", ["", '"'], ids=["numpy-path", "row-parser"])
@pytest.mark.parametrize("command", ["analyze", "dispatch"])
def test_subnormal_interval_exits_2(capsys, tmp_path, command, quote):
    # 1 / 1e-310 overflows, and so would the derivative, which divides by dt
    rows = [f"{quote}{i * 1e-310!r}{quote},{1 + i % 7}" for i in range(300)]
    path = tmp_path / "tiny.csv"
    path.write_text("\n".join(["timestamp,power_kw", *rows]) + "\n")
    with path.open("r", encoding="utf-8", newline="") as fh:
        assert (_parse_loadtxt(fh, False) is None) is bool(quote)
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == "error: dt=1e-310 s is too short: 1/dt overflows a float\n"


@pytest.mark.parametrize("command", ["analyze", "dispatch"])
def test_shortest_interval_gives_strict_json(capsys, tmp_path, command):
    # 1 / 5.6e-309 is just below the largest float
    rows = [f"{i * 5.6e-309!r},{1 + i % 7}" for i in range(300)]
    path = tmp_path / "short.csv"
    path.write_text("\n".join(["timestamp,power_kw", *rows]) + "\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 0

    def reject(constant):
        raise AssertionError(f"{constant} in the output")

    assert json.loads(out, parse_constant=reject)


def test_analyze_header_only_has_no_warning(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("timestamp,power_kw\n")
    code, out, err = run(capsys, "analyze", str(empty))
    assert (code, out, err) == (2, "", "error: no data rows\n")


@pytest.mark.parametrize("bins", ["0", "-5", str(MAX_BINS + 1)])
def test_analyze_derivative_bins_checked_without_transient_analysis(capsys, tmp_path, bins):
    # a 900 s profile skips the derivative histogram, yet the report's config
    # records the bin count, so it is checked as on a 1 s profile
    profile = LoadProfile(site_id="slow", t0=0.0, dt=900.0,
                          samples=np.linspace(1.0, 10.0, 200))
    path = tmp_path / "slow.csv"
    write_profile_csv(profile, path)
    code, out, err = run(capsys, "analyze", str(path), "--derivative-bins", bins)
    assert (code, out) == (2, "")
    assert err == (f"error: at most {MAX_BINS} bins, got {bins}\n" if int(bins) > 2
                   else f"error: need at least 2 bins, got {bins}\n")


@pytest.mark.parametrize("bins", [str(MAX_BINS + 1), "100000000", "10000000000000"])
def test_analyze_derivative_bins_is_bounded(capsys, profile_csv, bins):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "analyze", str(profile_csv), "--derivative-bins", bins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == f"error: at most {MAX_BINS} bins, got {bins}\n"
    assert peak < 1_000_000  # rejected before any edge exists


def test_analyze_negative_power_and_clamp(capsys, tmp_path):
    neg = tmp_path / "neg.csv"
    rows = "".join(f"{i},{1.0 if i % 2 else -1.0}\n" for i in range(150))
    neg.write_text("timestamp,power_kw\n" + rows)
    code, _, err = run(capsys, "analyze", str(neg))
    assert code == 2 and "negative power" in err
    code, out, _ = run(capsys, "analyze", str(neg), "--clamp-negative")
    assert code == 0
    assert json.loads(out)["metrics"]["base_power_kw"] == 1.0


# --- dispatch ---

def test_dispatch_summary_and_trace(capsys, tmp_path, profile_csv):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "dispatch", str(profile_csv), "--trace", str(trace))
    assert code == 0
    summary = json.loads(out)
    assert summary["site_id"] == "site-a"
    assert summary["n_steps"] == 400
    assert 0.0 <= summary["sc_engaged_fraction"] <= 1.0
    lines = trace.read_text().strip().splitlines()
    assert lines[0].startswith("t,p_load_kw,")
    assert len(lines) == 401


def test_dispatch_config_file(capsys, tmp_path, profile_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sc_threshold": 0.6,
        "recharge_threshold": 0.1,
        "sc_engage_mode": "ThresholdOnly",
        "vrfb_power_kw": 3.0,
    }))
    code, out, _ = run(capsys, "dispatch", str(profile_csv), "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["recharge_threshold"] == 0.1


def test_int_zero_config_is_its_float_twin(capsys, tmp_path, profile_csv):
    # -(0) is +0 where -(0.0) is -0.0: stored as a float, the int recharge
    # power gives the SC's recharge steps the float config's signed zeros
    traces = []
    for zero in ("0", "0.0"):
        cfg = tmp_path / f"cfg-{zero}.json"
        cfg.write_text(f'{{"sc_recharge_power_kw": {zero}, "recharge_threshold": 0.2}}')
        trace = tmp_path / f"t-{zero}.csv"
        code, out, _ = run(capsys, "dispatch", str(profile_csv), "--config", str(cfg),
                           "--trace", str(trace))
        assert code == 0
        traces.append(trace.read_bytes())
    assert b",-0.0," in traces[1]
    assert traces[0] == traces[1]


def test_dispatch_config_via_env(capsys, tmp_path, monkeypatch, profile_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recharge_threshold": 0.25}))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    code, out, _ = run(capsys, "dispatch", str(profile_csv))
    assert code == 0
    assert json.loads(out)["recharge_threshold"] == 0.25


def test_dispatch_explicit_config_beats_env(capsys, tmp_path, monkeypatch, profile_csv):
    env_cfg = tmp_path / "env.json"
    env_cfg.write_text(json.dumps({"recharge_threshold": 0.25}))
    cli_cfg = tmp_path / "cli.json"
    cli_cfg.write_text(json.dumps({"recharge_threshold": 0.35}))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(env_cfg))
    code, out, _ = run(capsys, "dispatch", str(profile_csv), "--config", str(cli_cfg))
    assert code == 0
    assert json.loads(out)["recharge_threshold"] == 0.35


def test_dispatch_unknown_config_key(capsys, tmp_path, profile_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sc_treshold": 0.6}))
    code, _, err = run(capsys, "dispatch", str(profile_csv), "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err and "sc_treshold" in err


def test_dispatch_missing_config_file(capsys, profile_csv):
    code, _, err = run(capsys, "dispatch", str(profile_csv), "--config", "/no/such.json")
    assert code == 2
    assert "config file not found" in err


@pytest.mark.parametrize("config", [
    {"sc_engage_mode": "Bogus"},
    {"sc_threshold": "0.7"},
    {"vrfb_power_kw": None},
    {"vrfb_efficiency": [1]},
    {"derivative_threshold": True},
    {"vrfb_energy_kwh": 10 ** 400},
    {"vrfb_power_kw": float("inf")},
])
def test_dispatch_config_wrong_type(capsys, tmp_path, profile_csv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "dispatch", str(profile_csv), "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and next(iter(config)) in err


_JSON_VALUES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.floats(0.0, 1.0)
    | st.text(max_size=4) | st.sampled_from([m.value for m in EngageMode])
    | st.lists(st.integers(), max_size=2) | st.dictionaries(st.text(max_size=2), st.integers())
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=st.dictionaries(
    st.sampled_from(sorted(_EMS_FIELDS | _DEV_FIELDS) + ["sc_treshold"]), _JSON_VALUES,
    max_size=4,
))
def test_no_flat_config_is_an_internal_error(capsys, tmp_path, profile_csv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "dispatch", str(profile_csv), "--config", str(cfg))
    assert code in (0, 2), err
    if code == 0:
        _strict_json(out)


def test_undecodable_input_exits_2(capsys, tmp_path, profile_csv):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"timestamp,power_kw\n0,\xff\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "utf-8" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff{}")
    code, _, err = run(capsys, "dispatch", str(profile_csv), "--config", str(cfg))
    assert code == 2 and "utf-8" in err


def test_library_warning_uses_cli_format(capsys, tmp_path):
    profile = LoadProfile(site_id="flat", t0=0.0, dt=1.0, samples=np.linspace(9.0, 10.0, 200))
    path = tmp_path / "flat.csv"
    write_profile_csv(profile, path)
    code, out, err = run(capsys, "dispatch", str(path))
    assert code == 0
    assert json.loads(out)["recharge_threshold"] == 0.0
    assert err == ("warning: profile 'flat' has no samples below 0.8 pu; "
                   "base-load estimate degenerates to the peak\n")


def test_sweep_degenerate_base_load_warns_once(capsys, tmp_path):
    profile = LoadProfile(site_id="flat", t0=0.0, dt=1.0, samples=np.linspace(9.0, 10.0, 300))
    path = tmp_path / "flat.csv"
    write_profile_csv(profile, path)
    code, out, err = run(capsys, "sweep", str(path), "--range", "0.5:0.9:0.1")
    assert code == 0
    assert len(out.splitlines()) == 6
    assert err == ("warning: profile 'flat' has no samples below 0.8 pu; "
                   "base-load estimate degenerates to the peak\n")


def test_dispatch_coarse_profile_rejected(capsys, tmp_path):
    profile = LoadProfile(site_id="slow", t0=0.0, dt=60.0,
                          samples=np.linspace(1.0, 10.0, 120))
    path = tmp_path / "slow.csv"
    write_profile_csv(profile, path)
    code, _, err = run(capsys, "dispatch", str(path))
    assert code == 2
    assert "supercapacitor dispatch" in err


# --- sweep ---

def test_parse_range():
    assert _parse_range("0.6:0.9:0.1") == [0.6, 0.7, 0.8, 0.9]
    assert _parse_range("0.8:0.8:0.1") == [0.8]
    with pytest.raises(InvalidRangeError):
        _parse_range("0.9:0.5:0.1")
    with pytest.raises(InvalidRangeError):
        _parse_range("0.5:0.9")
    with pytest.raises(InvalidRangeError):
        _parse_range("0.5:0.9:0")
    with pytest.raises(InvalidRangeError):
        _parse_range("0:0.9:0.1")
    # at most 1000 thresholds, and never a step that cannot advance
    assert len(_parse_range("0.0005:0.9995:0.001")) == 1000
    for text in ("0.1:0.9:1e-6", "0.5:0.9:5e-324", "0.5:0.9:inf", "0.5:0.9:nan"):
        with pytest.raises(InvalidRangeError):
            _parse_range(text)


def test_sweep_stdout(capsys, profile_csv):
    code, out, _ = run(capsys, "sweep", str(profile_csv), "--range", "0.6:0.8:0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "threshold,sc_engaged_fraction,sc_energy_share,vrfb_energy_share,grid_peak_kw"
    assert len(lines) == 4
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0.6", "0.7", "0.8"]


def test_sweep_out_file(capsys, tmp_path, profile_csv):
    target = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", str(profile_csv),
                       "--range", "0.8:0.8:0.1", "--out", str(target))
    assert code == 0 and out == ""
    assert len(target.read_text().strip().splitlines()) == 2


@pytest.mark.parametrize("text, rounded", [
    ("0.9999999999999:0.9999999999999:0.1", "1.0..1.0"),
    ("1e-13:0.5:0.1", "0.0..0.5"),
])
def test_sweep_range_checks_the_rounded_thresholds(capsys, profile_csv, text, rounded):
    # thresholds are rounded to 12 places; the check names the range, not
    # a threshold the user never wrote
    code, out, err = run(capsys, "sweep", str(profile_csv), "--range", text)
    assert (code, out) == (2, "")
    assert err == f"error: range {text!r} rounds to thresholds outside (0, 1): {rounded}\n"


def test_sweep_bad_range_exit_code(capsys, profile_csv):
    code, _, err = run(capsys, "sweep", str(profile_csv), "--range", "0.9:0.5:0.1")
    assert code == 2
    assert "range lo" in err


# --- ups ---

def test_ups_feasible(capsys, tmp_path):
    profile = LoadProfile(site_id="u", t0=0.0, dt=1.0, samples=np.full(7200, 1.0))
    path = tmp_path / "u.csv"
    write_profile_csv(profile, path)
    code, out, _ = run(capsys, "ups", str(path), "--start", "0", "--duration", "3600")
    assert code == 0
    data = json.loads(out)
    assert data["feasible"] is True
    assert data["limiting"] == "None"
    assert data["window_energy_kwh"] == pytest.approx(1.0)


def test_ups_infeasible_then_override(capsys, tmp_path):
    profile = LoadProfile(site_id="u", t0=0.0, dt=1.0,
                          samples=np.full(11 * 3600, 5.0))
    path = tmp_path / "u.csv"
    write_profile_csv(profile, path)
    args = ("ups", str(path), "--start", "0", "--duration", str(10 * 3600))
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert json.loads(out)["limiting"] == "Energy"
    code, out, _ = run(capsys, *args, "--vrfb-energy", "100")
    assert json.loads(out)["feasible"] is True


def test_ups_demand_out(capsys, tmp_path):
    profile = LoadProfile(site_id="u", t0=0.0, dt=1.0,
                          samples=np.arange(2.0, 12.0))
    path = tmp_path / "u.csv"
    write_profile_csv(profile, path)
    demand = tmp_path / "demand.csv"
    code, _, _ = run(capsys, "ups", str(path), "--start", "2", "--duration", "3",
                     "--demand-out", str(demand))
    assert code == 0
    written = parse_profile_file(demand)
    assert np.array_equal(written.samples, [0, 0, 4, 5, 6, 0, 0, 0, 0, 0])


def test_ups_window_error(capsys, tmp_path):
    profile = LoadProfile(site_id="u", t0=0.0, dt=1.0, samples=np.ones(100))
    path = tmp_path / "u.csv"
    write_profile_csv(profile, path)
    code, _, err = run(capsys, "ups", str(path), "--start", "90", "--duration", "60")
    assert code == 2
    assert "outside profile span" in err


@pytest.mark.parametrize("flags, message", [
    (("--vrfb-power", "inf"), "vrfb_power_kw must be finite and >= 0, got inf"),
    (("--sc-power", "1e400"), "sc_power_kw must be finite and >= 0, got inf"),
    (("--vrfb-power", "1e308", "--sc-power", "1e308"),
     "combined ratings must be finite: inf kW, 10.05 kWh"),
    (("--vrfb-energy", "1e308", "--sc-energy", "1e308"),
     "combined ratings must be finite: 10.0 kW, inf kWh"),
    (("--vrfb-energy", "inf", "--vrfb-soc", "0"),  # inf * 0.0 would be nan kWh
     "vrfb_initial_soc_fraction must be > 0 when vrfb_energy_kwh is infinite, got 0.0"),
])
def test_ups_infinite_ratings_exit_2(capsys, profile_csv, flags, message):
    code, out, err = run(capsys, "ups", str(profile_csv), "--start", "0", "--duration", "60",
                         *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", [("dispatch",), ("sweep", "--range", "0.5:0.9:0.1")])
def test_infinite_sc_ratings_exit_2(capsys, tmp_path, command):
    # JSON's 1e400 parses as inf; an infinite power rating used to print
    # grid peaks of Infinity and -Infinity
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"sc_power_kw": 1e400, "sc_energy_kwh": 1e400}')
    samples = np.tile(np.linspace(1.0, 10.0, 20), 10)
    path = tmp_path / "p.csv"
    write_profile_csv(LoadProfile(site_id="p", t0=0.0, dt=1.0, samples=samples), path)
    code, out, err = run(capsys, command[0], str(path), *command[1:], "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: sc_power_kw must be finite and >= 0, got inf\n")


@pytest.mark.parametrize("dev", ["sc", "vrfb"])
def test_infinite_energy_with_empty_start_exits_2(capsys, tmp_path, profile_csv, dev):
    # the initial SoC would be inf * 0.0 = nan, and stay nan for the whole run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{dev}_energy_kwh": 1e400, "{dev}_initial_soc_fraction": 0}}')
    trace = tmp_path / "t.csv"
    code, out, err = run(capsys, "dispatch", str(profile_csv), "--config", str(cfg),
                         "--trace", str(trace))
    assert (code, out) == (2, "")
    assert err == (f"error: {dev}_initial_soc_fraction must be > 0 when {dev}_energy_kwh "
                   "is infinite, got 0.0\n")
    assert not trace.exists()


def test_infinite_energy_means_no_limit(capsys, tmp_path, profile_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"sc_energy_kwh": 1e400, "vrfb_energy_kwh": 1e400}')
    code, out, _ = run(capsys, "dispatch", str(profile_csv), "--config", str(cfg))
    assert code == 0
    assert _strict_json(out)["grid_peak_kw"] < 20.0


@pytest.mark.parametrize("flags", [
    ("--start", "nan", "--duration", "10"),
    ("--start", "0", "--duration", "nan"),
])
def test_ups_nan_window_exits_2(capsys, tmp_path, flags):
    profile = LoadProfile(site_id="u", t0=0.0, dt=1.0, samples=np.ones(100))
    path = tmp_path / "u.csv"
    write_profile_csv(profile, path)
    code, out, err = run(capsys, "ups", str(path), *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# --- synth ---

def test_synth_municipal_round_trip(capsys, tmp_path):
    out_csv = tmp_path / "muni.csv"
    code, _, _ = run(capsys, "synth", "--kind", "municipal", "--out", str(out_csv),
                     "--days", "1", "--seed", "9")
    assert code == 0
    profile = parse_profile_file(out_csv)
    assert profile.n_samples == 86400
    assert profile.dt == 1.0
    from hessplit import MunicipalSpec, gen_municipal
    reference, _ = gen_municipal(MunicipalSpec(days=1, seed=9))
    assert np.array_equal(profile.samples, reference.samples)


def test_synth_machine_event_log(capsys, tmp_path):
    out_csv = tmp_path / "mach.csv"
    events_json = tmp_path / "events.json"
    code, _, _ = run(capsys, "synth", "--kind", "machine", "--out", str(out_csv),
                     "--events", str(events_json), "--seed", "4")
    assert code == 0
    log = json.loads(events_json.read_text())
    assert log["spec"]["kind"] == "machine"
    assert log["spec"]["seed"] == 4
    assert all(e["kind"] == "cycle" for e in log["events"])
    profile = parse_profile_file(out_csv)
    assert profile.max_kw == 10.0  # per-kind default scale preserved


def test_synth_ev_park(capsys, tmp_path):
    out_csv = tmp_path / "ev.csv"
    code, _, _ = run(capsys, "synth", "--kind", "ev_park", "--out", str(out_csv),
                     "--arrival-rate", "2.0", "--charge-power", "7.0")
    assert code == 0
    profile = parse_profile_file(out_csv)
    assert profile.max_kw >= 2 * 7.0  # sessions overlap and stack
    nonzero = profile.samples[profile.samples > 0.0]
    values, counts = np.unique(nonzero, return_counts=True)
    assert values[np.argmax(counts)] == 7.0  # constant phase dominates


_SPECS = {"municipal": MunicipalSpec, "machine": MachineSpec, "ev_park": EvParkSpec}
#: each synth kind flag and the kinds whose spec has its field
_KIND_FLAGS = {
    "--noise-sigma": {"municipal"},
    "--duty-cycle": {"machine"},
    "--on-level": {"machine"},
    "--arrival-rate": {"ev_park"},
    "--charge-power": {"ev_park"},
    "--scale-kw": {"municipal", "machine"},
}


@pytest.mark.parametrize("kind, flag", [
    (kind, flag) for kind in _SPECS for flag, kinds in _KIND_FLAGS.items() if kind not in kinds])
def test_synth_flag_of_another_kind_exits_2(capsys, tmp_path, kind, flag):
    out_csv = tmp_path / "x.csv"
    code, out, err = run(capsys, "synth", "--kind", kind, "--out", str(out_csv), flag, "0.5")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {kind}: no such parameter: ")
    assert not out_csv.exists()


@pytest.mark.parametrize("kind", _SPECS)
def test_synth_defaults_are_the_specs(capsys, tmp_path, kind):
    events_json = tmp_path / "events.json"
    code, _, _ = run(capsys, "synth", "--kind", kind, "--out", str(tmp_path / "x.csv"),
                     "--events", str(events_json))
    assert code == 0
    expected = dataclasses.asdict(_SPECS[kind](days=1, dt=1.0, seed=0)) | {"kind": kind}
    assert json.loads(events_json.read_text())["spec"] == expected


def test_synth_bad_spec(capsys, tmp_path):
    code, _, err = run(capsys, "synth", "--kind", "municipal",
                       "--out", str(tmp_path / "x.csv"), "--days", "0")
    assert code == 2
    assert "days" in err


@pytest.mark.parametrize("flags", [
    ("--kind", "ev_park", "--arrival-rate", "nan"),
    ("--kind", "municipal", "--noise-sigma", "nan"),
])
def test_synth_nan_spec_exits_2(capsys, tmp_path, flags):
    out_csv = tmp_path / "x.csv"
    code, _, err = run(capsys, "synth", *flags, "--out", str(out_csv))
    assert code == 2
    assert err.startswith("error: ")
    assert not out_csv.exists()


_OVERFLOWING_SYNTH = [
    {"kind": "machine", "flags": {"--scale-kw": "1e400"}},  # an off step's 0.0 * inf
    {"kind": "municipal", "flags": {"--noise-sigma": "1.0", "--scale-kw": "1e400"}},
    {"kind": "ev_park", "flags": {"--charge-power": "1e400"}},
    {"kind": "ev_park", "flags": {"--charge-power": "1e308"}},  # sessions superpose
    {"kind": "municipal", "flags": {"--noise-sigma": "1e300", "--scale-kw": "1e10"}},
]


@pytest.mark.parametrize("case", _OVERFLOWING_SYNTH)
def test_synth_overflow_is_one_error_line(capsys, tmp_path, case):
    out_csv = tmp_path / "x.csv"
    code, out, err = run(capsys, "synth", "--kind", case["kind"], "--out", str(out_csv),
                         *(x for kv in case["flags"].items() for x in kv))
    assert (code, out, err) == (2, "", "error: samples must all be finite\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("flags", [("--dt", "1e-9"), ("--days", "400")])
def test_synth_sample_count_is_bounded(capsys, tmp_path, flags):
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "synth", "--kind", "municipal", *flags,
                           "--out", str(tmp_path / "x.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "exceed 31536000 samples" in err
    assert peak < 1_000_000  # rejected before any sample array exists


@pytest.mark.parametrize("kind", _SPECS)
@pytest.mark.parametrize("dt", ["1e-305", "5e-324"])
def test_synth_infinite_sample_count_exits_2(capsys, tmp_path, kind, dt):
    # one day over such a dt is more samples than a float holds
    out_csv = tmp_path / "x.csv"
    code, out, err = run(capsys, "synth", "--kind", kind, "--dt", dt, "--out", str(out_csv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {kind}: 1 days at dt=") and "exceed 31536000 samples" in err
    assert not out_csv.exists()


def test_synth_then_analyze(capsys, tmp_path):
    out_csv = tmp_path / "mach.csv"
    run(capsys, "synth", "--kind", "machine", "--out", str(out_csv))
    code, out, _ = run(capsys, "analyze", str(out_csv))
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["sc_relevance"] == "High"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("hessplit 0.1")


# --- no flag value is an internal error ---

def _exit_code(*argv):
    """``main``'s exit code, including argparse's own exit for a malformed flag."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


_FLAG_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2.0, 2.0),
    st.sampled_from(["nan", "-inf", "1e400", "-0.0", "5e-324", "x", ""]),
).map(str)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=st.dictionaries(
    st.sampled_from(["--start", "--duration", "--sc-soc", "--vrfb-soc", "--sc-power",
                     "--sc-energy", "--vrfb-power", "--vrfb-energy"]),
    _FLAG_FLOATS | st.floats(0.0, 500.0).map(str),
))
def test_no_ups_flag_is_an_internal_error(capsys, profile_csv, flags):
    argv = {"--start": "0", "--duration": "60"} | flags
    code = _exit_code("ups", str(profile_csv), *(x for kv in argv.items() for x in kv))
    event(f"exit {code}")
    out, err = capsys.readouterr()
    assert code in (0, 2), err
    if code == 0:
        _strict_json(out)


_BIN_COUNTS = st.one_of(
    st.integers(-10, 500).map(str),
    st.sampled_from([MAX_BINS, MAX_BINS + 1, 10 ** 8, 10 ** 13, 2 ** 63, -2 ** 63, 10 ** 40])
    .map(str),
    st.sampled_from(["x", "", "1.5", "1e3", "nan", "0x10"]),
)


# the profile has 400 samples, so an accepted flag set stays small and fast
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=st.dictionaries(
    st.sampled_from(["--bins", "--derivative-bins", "--tail-level"]),
    _BIN_COUNTS | _FLAG_FLOATS,
))
def test_no_analyze_flag_is_an_internal_error(capsys, tmp_path, profile_csv, flags):
    out = tmp_path / "r.json"
    out.unlink(missing_ok=True)
    code = _exit_code("analyze", str(profile_csv), "--out", str(out),
                      *(x for kv in flags.items() for x in kv))
    event(f"exit {code}")
    assert code in (0, 2), capsys.readouterr().err
    if code == 0:
        _strict_json(out.read_text())


# every accepted value here makes at most two days at dt >= 2 s and a few
# hundred sessions, so a regression shows as exit 3, not as a hang
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["municipal", "machine", "ev_park"]),
    flags=st.dictionaries(
        st.sampled_from(["--noise-sigma", "--duty-cycle", "--on-level", "--charge-power",
                         "--scale-kw", "--arrival-rate"]),
        st.floats(0.0, 1.0).map(str) | st.floats(0.0, 20.0).map(str) | _FLAG_FLOATS,
        max_size=3,
    ),
    days=st.just("1") | st.sampled_from(["2", "0", "-1", str(10 ** 30), "1.5", "x"]),
    dt=st.floats(2.0, 10.0).map(str) | _FLAG_FLOATS.filter(
        lambda v: v in ("nan", "-inf", "x", "") or not 0.0 < float(v) < 2.0)
    | st.sampled_from(["1e-9", "0.001", "1e-305", "5e-324"]),
    seed=st.just("0") | st.sampled_from(["-1", "-9223372036854775808", str(10 ** 40), "1.5", "x"]),
)
@example(**_OVERFLOWING_SYNTH[0], days="1", dt="2.0", seed="0")
@example(**_OVERFLOWING_SYNTH[1], days="1", dt="2.0", seed="0")
@example(**_OVERFLOWING_SYNTH[2], days="1", dt="2.0", seed="0")
@example(**_OVERFLOWING_SYNTH[3], days="1", dt="2.0", seed="0")
@example(**_OVERFLOWING_SYNTH[4], days="1", dt="2.0", seed="0")
@example(kind="machine", flags={}, days="1", dt="2.0", seed="-1")  # exit 3 when unchecked
@example(kind="machine", flags={}, days="1", dt="1e-305", seed="0")  # an infinite count
@example(kind="ev_park", flags={}, days="1", dt="5e-324", seed="0")
def test_no_synth_flag_is_an_internal_error(capsys, tmp_path, kind, flags, days, dt, seed):
    if "--arrival-rate" in flags and flags["--arrival-rate"] not in ("x", ""):
        rate = float(flags["--arrival-rate"])
        if 20.0 < rate < 1e9:  # accepted, but one loop turn per session
            flags["--arrival-rate"] = "20"
    code = _exit_code("synth", "--kind", kind, "--out", str(tmp_path / "x.csv"),
                      "--days", days, "--dt", dt, "--seed", seed,
                      *(x for kv in flags.items() for x in kv))
    event(f"exit {code}")
    assert code in (0, 2), capsys.readouterr().err
