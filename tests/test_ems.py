"""Flags, dispatch stepping, sweeps, outage scenarios."""

from __future__ import annotations

import inspect
import io
import json
import math
import sys
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessplit import (
    DeviceParams,
    EmsConfig,
    EngageMode,
    Limiting,
    LoadProfile,
    MachineSpec,
    MunicipalSpec,
    UtilizationStats,
    dispatch,
    gen_machine,
    gen_municipal,
    generate,
    make_ups_scenario,
    analyze_profile,
    derivative,
    normalize,
    parse_profile_file,
    threshold_sweep,
    write_profile_csv,
)
from hessplit import cli, ems
from hessplit.ems import (
    _sustainable_power,
    resolve_recharge_threshold,
    write_dispatch_csv,
    write_sweep_csv,
)
from hessplit.errors import (
    AllZeroProfileError,
    DegenerateBaseLoadWarning,
    IncompatibleResolutionError,
    InvalidConfigError,
    ResolutionTooCoarseError,
    WindowOutOfRangeError,
)
from hessplit.metrics import NormalizedProfile
from hessplit.transient import DerivativeSeries
from oracle import (
    _largest_sustainable,
    _wind_down_sum,
    naive_dispatch,
    naive_engaged,
    naive_window_check,
)


def _norm(pu, dt=1.0, p_max=10.0):
    return NormalizedProfile(site_id="t", dt=dt, base_power_kw=p_max,
                             pu=np.asarray(pu, float))


NO_RECHARGE = EmsConfig(recharge_threshold=0.0)


# --- configuration ---

def test_config_validation():
    with pytest.raises(InvalidConfigError):
        EmsConfig(sc_threshold=0.0)
    with pytest.raises(InvalidConfigError):
        EmsConfig(sc_threshold=1.0)
    with pytest.raises(InvalidConfigError):
        EmsConfig(derivative_threshold=0.0)
    with pytest.raises(InvalidConfigError):
        EmsConfig(sc_threshold=0.5, recharge_threshold=0.5)
    EmsConfig(sc_threshold=0.5, recharge_threshold=0.49)  # fine


def test_device_validation():
    with pytest.raises(InvalidConfigError):
        DeviceParams(vrfb_power_kw=0.0)
    with pytest.raises(InvalidConfigError):
        DeviceParams(sc_energy_kwh=-1.0)
    with pytest.raises(InvalidConfigError):
        DeviceParams(sc_initial_soc_fraction=1.5)
    with pytest.raises(InvalidConfigError):
        DeviceParams(vrfb_efficiency=0.0)
    assert DeviceParams(sc_recharge_power_kw=0.0).sc_recharge_kw == 0.0
    assert DeviceParams().vrfb_recharge_kw == 5.0


@pytest.mark.parametrize("big", [10 ** 400, Fraction(10 ** 400), Fraction(-10 ** 400, 3)])
def test_exact_numbers_beyond_float_range_are_rejected(big):
    # float() would raise OverflowError on each of them
    with pytest.raises(InvalidConfigError, match="^vrfb_energy_kwh must be a number, got "):
        DeviceParams(vrfb_energy_kwh=big)


@pytest.mark.parametrize("dev", ["sc", "vrfb"])
def test_infinite_energy_needs_a_charge_to_start_from(dev):
    # inf * 0.0 would start the device at nan kWh
    energy, fraction = f"{dev}_energy_kwh", f"{dev}_initial_soc_fraction"
    for zero in (0.0, -0.0, 0):
        with pytest.raises(InvalidConfigError, match=f"{fraction} must be > 0 when {energy}"):
            DeviceParams(**{energy: float("inf"), fraction: zero})
    DeviceParams(**{energy: float("inf"), fraction: 0.3})  # fine
    DeviceParams(**{energy: 1e308, fraction: 0.0})  # fine


@pytest.mark.parametrize("mode", list(EngageMode))
def test_engage_mode_value_gives_its_member(mode):
    assert EmsConfig(sc_engage_mode=mode.value).sc_engage_mode is mode
    assert EmsConfig(sc_engage_mode=mode).sc_engage_mode is mode


def test_engage_mode_value_dispatches_as_its_member():
    norm = normalize(gen_machine(MachineSpec(days=1))[0])
    runs = []
    for mode in (EngageMode.THRESHOLD_OR_DERIVATIVE, "ThresholdOrDerivative"):
        res = dispatch(norm, EmsConfig(sc_engage_mode=mode))
        buf = io.StringIO()
        write_dispatch_csv(res, buf)
        # the trace has no engaged column: a mode read as ThresholdOnly shows in the stats
        runs.append((buf.getvalue(), res.engaged_sc.tobytes(), res.stats))
    assert runs[0] == runs[1]
    assert runs[0][2].sc_engaged_fraction == 43104 / 86400


@pytest.mark.parametrize("value", [42, "Bogus", [1], None, True])
def test_engage_mode_rejects_what_is_not_a_mode(value):
    with pytest.raises(InvalidConfigError) as exc:
        EmsConfig(sc_engage_mode=value)
    assert str(exc.value) == (
        f"sc_engage_mode must be one of ['ThresholdOnly', 'ThresholdOrDerivative'], got {value!r}")


@pytest.mark.parametrize("field", ["vrfb_power_kw", "sc_power_kw", "sc_recharge_power_kw",
                                   "vrfb_recharge_power_kw"])
def test_device_powers_must_be_finite(field):
    with pytest.raises(InvalidConfigError, match=f"{field} must be finite and >= 0, got inf"):
        DeviceParams(**{field: float("inf")})


def test_recharge_threshold_resolution(rng):
    norm = _norm(np.concatenate([np.full(150, 0.3), rng.uniform(0.85, 1.0, 50)]))
    assert resolve_recharge_threshold(norm, EmsConfig(recharge_threshold=0.2)) == 0.2
    derived = resolve_recharge_threshold(norm, EmsConfig())
    assert abs(derived - 0.305) < 0.01  # the 0.3 plateau
    # degenerate: base estimate at/above the SC threshold disables recharging
    high = _norm(np.full(120, 0.9))
    with pytest.warns(DegenerateBaseLoadWarning):
        assert resolve_recharge_threshold(high, EmsConfig(sc_threshold=0.5)) == 0.0


# --- flags ---

def test_flags_threshold_is_strict():
    flag_sc = dispatch(_norm([0.8, 0.81, 1.0]), NO_RECHARGE).flag_sc
    assert np.array_equal(flag_sc, [False, True, True])


@settings(max_examples=60)
@given(  # an all-zero profile has no load to split (AllZeroProfileError)
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=100).filter(any),
    st.floats(0.01, 0.99),
)
def test_flags_partition_every_step(pu, thr):
    flag_sc = dispatch(_norm(pu), EmsConfig(sc_threshold=thr, recharge_threshold=0.0)).flag_sc
    assert np.array_equal(flag_sc, [p > thr for p in pu])
    on_boundary = np.asarray(pu) == thr
    assert not np.any(flag_sc[on_boundary])


# --- dispatch stepping ---

def test_dispatch_hand_worked_example():
    # pu=[0.5, 1.0] at 10 kW peak, thresholds 0.8/0.4: the first step keeps
    # the battery at 1 kW (load minus recharge band), the second splits
    # 2 kW to the SC and ramps the battery from 1 to 3.5 kW.
    norm = _norm([0.5, 1.0])
    cfg = EmsConfig(recharge_threshold=0.4)
    res = dispatch(norm, cfg)
    assert res.p_sc_kw.tolist() == [0.0, 2.0]
    assert res.p_vrfb_kw.tolist() == [1.0, 3.5]
    assert res.p_grid_kw.tolist() == [4.0, 4.5]
    assert res.flag_sc.tolist() == [False, True]
    assert res.engaged_sc.tolist() == [True, True]  # derivative trips step 0
    assert res.recharge_threshold == 0.4


def test_dispatch_threshold_only_mode():
    res = dispatch(_norm([0.5, 1.0]),
                   EmsConfig(recharge_threshold=0.4,
                             sc_engage_mode=EngageMode.THRESHOLD_ONLY))
    assert res.engaged_sc.tolist() == [False, True]
    assert res.p_sc_kw.tolist() == [0.0, 2.0]


def test_dispatch_ramp_down_pushes_grid_negative():
    dev = DeviceParams(vrfb_ramp_kw_per_s=0.5)
    res = dispatch(_norm([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
                   EmsConfig(recharge_threshold=0.0,
                             sc_engage_mode=EngageMode.THRESHOLD_ONLY),
                   dev)
    assert res.p_vrfb_kw.tolist() == [0.5, 1.0, 1.5, 1.0, 0.5, 0.0]
    assert res.p_grid_kw[3] == -1.0
    assert res.p_grid_kw[4] == -0.5
    assert res.p_grid_kw[5] == 0.0


def test_dispatch_recharges_sc_before_vrfb():
    dev = DeviceParams(sc_initial_soc_fraction=0.0, vrfb_initial_soc_fraction=0.0)
    res = dispatch(_norm(np.full(80, 0.2)), EmsConfig(recharge_threshold=0.5), dev)
    assert res.p_sc_kw[0] == -5.0
    assert res.p_vrfb_kw[0] == 0.0, "battery waits until the SC is full"
    # 0.05 kWh at 5 kW and 1 s steps: full after 36 steps
    assert res.soc_sc_kwh[35] == pytest.approx(0.05)
    assert res.p_vrfb_kw[36] == -2.5, "then the battery ramps into recharge"
    assert res.p_vrfb_kw[37] == -5.0
    # the grid carries the load plus everything flowing into storage
    assert np.all(res.p_grid_kw >= res.p_load_kw)


def test_dispatch_wind_down_reserve_prevents_stranded_power():
    # 1 Wh battery: it may only take on power it can ramp back to zero
    dev = DeviceParams(vrfb_energy_kwh=0.001, sc_energy_kwh=0.05)
    res = dispatch(_norm(np.ones(6)), NO_RECHARGE, dev)
    p = res.p_vrfb_kw
    assert p[0] == 2.5
    assert 0.0 < p[1] < 2.5
    assert p[2] == 0.0
    assert res.soc_vrfb_kwh[1] == pytest.approx(0.0, abs=1e-15)
    # discharged energy never exceeds what was stored
    assert p.clip(0.0, None).sum() * res.dt / 3600.0 <= 0.001 + 1e-12


def test_dispatch_power_balance_is_exact(rng):
    pu = rng.uniform(0.0, 1.0, size=2000)
    pu[17] = 1.0
    res = dispatch(_norm(pu), EmsConfig(recharge_threshold=0.3))
    residual = res.p_load_kw - res.p_sc_kw - res.p_vrfb_kw - res.p_grid_kw
    assert np.all(residual == 0.0)


def test_dispatch_soc_stays_in_bounds(rng):
    dev = DeviceParams(vrfb_energy_kwh=0.05, sc_energy_kwh=0.01,
                       sc_initial_soc_fraction=0.5, vrfb_initial_soc_fraction=0.5)
    pu = rng.uniform(0.0, 1.0, size=3000)
    pu[0] = 1.0
    res = dispatch(_norm(pu), EmsConfig(recharge_threshold=0.4), dev)
    assert np.all(res.soc_sc_kwh >= 0.0) and np.all(res.soc_sc_kwh <= 0.01)
    assert np.all(res.soc_vrfb_kwh >= 0.0) and np.all(res.soc_vrfb_kwh <= 0.05)


def test_dispatch_vrfb_respects_ramp(rng):
    dev = DeviceParams(vrfb_ramp_kw_per_s=0.7)
    pu = rng.uniform(0.0, 1.0, size=1500)
    pu[3] = 1.0
    res = dispatch(_norm(pu), EmsConfig(recharge_threshold=0.3), dev)
    q = 0.7 * res.dt
    steps = np.diff(np.concatenate(([0.0], res.p_vrfb_kw)))
    assert np.all(np.abs(steps) <= q * (1.0 + 1e-12) + 1e-12)


def test_dispatch_sc_has_no_ramp_limit():
    res = dispatch(_norm([0.0, 1.0, 0.0, 1.0]), NO_RECHARGE)
    assert res.p_sc_kw[1] == 2.0 and res.p_sc_kw[2] == 0.0


def test_dispatch_rejects_coarse_profiles():
    with pytest.raises(IncompatibleResolutionError):
        dispatch(_norm([0.5, 1.0], dt=30.0), NO_RECHARGE)
    dispatch(_norm([0.5, 1.0], dt=10.0), NO_RECHARGE)  # boundary is fine


def test_dispatch_stats(rng):
    pu = rng.uniform(0.2, 1.0, size=5000)
    pu[42] = 1.0
    res = dispatch(_norm(pu), EmsConfig(recharge_threshold=0.1))
    st_ = res.stats
    assert 0.0 < st_.sc_engaged_fraction <= 1.0
    assert st_.sc_energy_share >= 0.0
    assert st_.vrfb_energy_share >= 0.0
    assert st_.grid_peak_kw == res.p_grid_kw.max()
    assert st_.grid_peak_reduction_fraction == (10.0 - st_.grid_peak_kw) / 10.0


_TRACE_FIELDS = ("p_load_kw", "p_grid_kw", "p_sc_kw", "p_vrfb_kw", "soc_sc_kwh",
                 "soc_vrfb_kwh", "flag_sc", "engaged_sc")


def test_result_copies_a_callers_arrays_and_freezes_its_own(rng):
    pu = rng.uniform(0.0, 1.0, size=300)
    pu[9] = 1.0
    res = dispatch(_norm(pu))
    for name in _TRACE_FIELDS:  # built by dispatch, frozen where they are
        arr = getattr(res, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[1]

    mine = {name: getattr(res, name).copy() for name in _TRACE_FIELDS}
    kwargs = {f.name: getattr(res, f.name) for f in fields(res)}
    built = ems.DispatchResult(**{**kwargs, **mine})
    for name, arr in mine.items():
        want = getattr(built, name).tobytes()
        arr[:] = ~arr if arr.dtype == bool else arr + 1.0
        assert arr.flags.writeable  # the caller's array is left as it was
        assert getattr(built, name).tobytes() == want
        assert not getattr(built, name).flags.writeable


def test_dispatch_matches_naive_oracle(rng):
    for trial in range(5):
        n = 150
        pu = rng.uniform(0.0, 1.0, size=n)
        pu[int(rng.integers(n))] = 1.0
        dt = float(rng.choice([1.0, 2.0, 5.0]))
        mode = EngageMode.THRESHOLD_ONLY if trial % 2 else EngageMode.THRESHOLD_OR_DERIVATIVE
        cfg = EmsConfig(
            sc_threshold=float(rng.uniform(0.5, 0.95)),
            derivative_threshold=float(rng.uniform(0.2, 0.9)),
            recharge_threshold=float(rng.uniform(0.0, 0.4)),
            sc_engage_mode=mode,
        )
        dev = DeviceParams(
            vrfb_power_kw=float(rng.uniform(2.0, 8.0)),
            vrfb_energy_kwh=float(rng.uniform(0.001, 0.1)),
            vrfb_ramp_kw_per_s=float(rng.uniform(0.1, 3.0)),
            sc_power_kw=float(rng.uniform(1.0, 6.0)),
            sc_energy_kwh=float(rng.uniform(0.001, 0.05)),
            sc_initial_soc_fraction=float(rng.uniform(0.0, 1.0)),
            vrfb_initial_soc_fraction=float(rng.uniform(0.0, 1.0)),
            sc_efficiency=float(rng.uniform(0.8, 1.0)),
            vrfb_efficiency=float(rng.uniform(0.8, 1.0)),
        )
        norm = _norm(pu, dt=dt)
        res = dispatch(norm, cfg, dev)
        o_sc, o_v, o_g, o_ssc, o_sv = naive_dispatch(
            norm.pu.tolist(), dt, norm.base_power_kw, cfg, dev)
        # bytes, not ==: -0.0 == 0.0, but the trace CSV tells them apart
        assert res.p_sc_kw.tobytes() == np.array(o_sc).tobytes()
        assert res.p_vrfb_kw.tobytes() == np.array(o_v).tobytes()
        assert res.p_grid_kw.tobytes() == np.array(o_g).tobytes()
        assert res.soc_sc_kwh.tobytes() == np.array(o_ssc).tobytes()
        assert res.soc_vrfb_kwh.tobytes() == np.array(o_sv).tobytes()


# --- battery-empty runs ---

# name: (engage mode, recharge threshold, device overrides, dt)
_EMPTY_RUN_CASES = {
    "sc-empty-engaged": (EngageMode.THRESHOLD_OR_DERIVATIVE, 0.2, {}, 1.0),
    "sc-charged-idle": (EngageMode.THRESHOLD_ONLY, 0.2, {"sc_initial_soc_fraction": 0.3}, 1.0),
    "zero-power-recharge": (EngageMode.THRESHOLD_ONLY, 0.2, {"sc_recharge_power_kw": 0.0}, 1.0),
    "lossy": (EngageMode.THRESHOLD_OR_DERIVATIVE, 0.2,
              {"sc_efficiency": 0.8, "vrfb_efficiency": 0.9}, 1.0),
    "negative-zero-load": (EngageMode.THRESHOLD_ONLY, 0.0, {"sc_initial_soc_fraction": 0.3}, 1.0),
    "negative-zero-threshold": (EngageMode.THRESHOLD_ONLY, -0.0,
                                {"sc_initial_soc_fraction": 0.3}, 1.0),
    "at-recharge-threshold": (EngageMode.THRESHOLD_OR_DERIVATIVE, 0.2, {}, 1.0),
    "infinite-ramp": (EngageMode.THRESHOLD_OR_DERIVATIVE, 0.2, {"vrfb_ramp_kw_per_s": 1e308}, 10.0),
    "negative-zero-sc": (EngageMode.THRESHOLD_ONLY, 0.2, {"sc_initial_soc_fraction": -0.0}, 1.0),
    "negative-zero-sc-idle": (EngageMode.THRESHOLD_ONLY, 0.2, {"sc_initial_soc_fraction": -0.0},
                              1.0),
    "negative-zero-vrfb": (EngageMode.THRESHOLD_ONLY, 0.0, {"vrfb_initial_soc_fraction": -0.0},
                           1.0),
}


@pytest.mark.parametrize("run", [1, 2, 15, 16, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("case", list(_EMPTY_RUN_CASES))
def test_battery_empty_runs_match_naive_oracle(rng, monkeypatch, case, run):
    # step 0 finds the battery empty and at rest; steps 1..run cannot move
    # the state; step run + 1 can (or, with no recharge, just ends the run
    # for a charged SC); a short tail follows. The profile is then cut after
    # step run, so that the run ends at the last step.
    mode, rth, overrides, dt = _EMPTY_RUN_CASES[case]
    pu = rng.uniform(0.3, 0.7, size=run + 8)
    body = pu[1:run + 1]
    if case in ("sc-empty-engaged", "lossy", "infinite-ramp", "negative-zero-sc"):
        body[::7] = 0.95  # threshold-engaged, and steep next to its neighbours
    elif case in ("negative-zero-load", "negative-zero-threshold"):
        body[::3] = -0.0
    elif case == "at-recharge-threshold":
        body[::4] = rth
        body[2::7] = 0.95
    elif case == "negative-zero-vrfb":
        body[::5] = -0.0
    pu[run + 1] = 0.95 if rth == 0.0 or case == "sc-charged-idle" else 0.1
    pu[run + 4] = 1.0
    cfg = EmsConfig(sc_threshold=0.8, recharge_threshold=rth, sc_engage_mode=mode)
    dev = DeviceParams(**{"vrfb_initial_soc_fraction": 0.0, "sc_initial_soc_fraction": 0.0,
                          **overrides})

    calls = []
    real = ems._sustainable_power
    monkeypatch.setattr(ems, "_sustainable_power", lambda u, q: calls.append(u) or real(u, q))
    for steps in (pu, pu[:run + 1]):
        calls.clear()
        norm = _norm(steps, dt=dt)
        res = dispatch(norm, cfg, dev)
        o_sc, o_v, o_g, o_ssc, o_sv = naive_dispatch(
            norm.pu.tolist(), dt, norm.base_power_kw, cfg, dev)
        assert res.p_sc_kw.tobytes() == np.array(o_sc).tobytes()
        assert res.p_vrfb_kw.tobytes() == np.array(o_v).tobytes()
        assert res.p_grid_kw.tobytes() == np.array(o_g).tobytes()
        assert res.soc_sc_kwh.tobytes() == np.array(o_ssc).tobytes()
        assert res.soc_vrfb_kwh.tobytes() == np.array(o_sv).tobytes()
        assert res.soc_vrfb_kwh[run] == 0.0
        if case == "negative-zero-vrfb":
            continue  # a -0.0 battery is never filled; every step of it is scalar
        # the scalar loop would call _sustainable_power on the run's steps with
        # a positive VRFB target; a filled run calls it on the tail's few steps
        # only, however short the run. A -0.0 SC counts as charged, so its run
        # starts one step later, after the engaged step 1 has turned the -0.0
        # into 0.0.
        assert len(calls) <= 8


def test_underflowing_sc_threshold_matches_scalar_loop(monkeypatch):
    # sc_threshold * P rounds to 0.0, so an engaged -0.0 load on an empty SC
    # gives p_sc = -0.0, not the +0.0 of every other step of an empty run
    pu = np.full(400, 0.1)
    pu[0] = 1.0
    pu[5:350:4] = -0.0
    pu[6:350:4] = 1.0  # each -0.0 step is engaged by the steep rise after it
    norm = _norm(pu, p_max=5e-324)
    cfg = EmsConfig(sc_threshold=0.3, recharge_threshold=0.0)
    dev = DeviceParams(vrfb_initial_soc_fraction=0.0, sc_initial_soc_fraction=0.0)
    res = dispatch(norm, cfg, dev)
    assert np.signbit(res.p_sc_kw).any()
    # no run is filled: each try resumes at the step after it
    monkeypatch.setattr(ems, "_fill_battery_empty", lambda load, mode, rth_kw, out, i, *_: i)
    scalar = dispatch(norm, cfg, dev)
    for name in ("p_grid_kw", "p_sc_kw", "p_vrfb_kw", "soc_sc_kwh", "soc_vrfb_kwh"):
        assert getattr(res, name).tobytes() == getattr(scalar, name).tobytes()


def _negative_zero_sc_profile():
    # 30 steps whose peak is the smallest subnormal: sc_threshold * P rounds
    # to 0.0 for thresholds up to 0.5, and each -0.0 step is engaged by the
    # steep rise after it, so the SC serves p_sc = -0.0 there
    pu = np.full(30, 0.1)
    pu[0] = 1.0
    pu[5:28:4] = -0.0
    pu[6:28:4] = 1.0
    return _norm(pu, p_max=5e-324)


def test_negative_zero_sc_power_matches_naive_oracle():
    # the VRFB target subtracts a -0.0 p_sc as it is (so does the oracle's
    # max(p_sc, 0.0)): -0.0 - -0.0 is +0.0, so the VRFB serves +0.0 there, not -0.0
    norm = _negative_zero_sc_profile()
    cfg = EmsConfig(sc_threshold=0.3, recharge_threshold=0.0)
    res = dispatch(norm, cfg)
    assert np.signbit(res.p_sc_kw).sum() == 6
    o_sc, o_v, o_g, o_ssc, o_sv = naive_dispatch(
        norm.pu.tolist(), 1.0, norm.base_power_kw, cfg, DeviceParams())
    got = (res.p_sc_kw, res.p_vrfb_kw, res.p_grid_kw, res.soc_sc_kwh, res.soc_vrfb_kwh)
    for g, w in zip(got, (o_sc, o_v, o_g, o_ssc, o_sv)):
        assert g.tobytes() == np.array(w).tobytes()

    thresholds = [0.3, 0.5, 0.7]
    want = []
    for thr in thresholds:
        o_sc, o_v, _, o_ssc, o_sv = naive_dispatch(
            norm.pu.tolist(), 1.0, norm.base_power_kw, replace(cfg, sc_threshold=thr),
            DeviceParams())
        want.append(np.array([o_sc, o_v, o_ssc, o_sv]).tobytes())
    assert _sweep_traces(norm, thresholds, cfg, DeviceParams()) == want


@pytest.mark.parametrize("mode", list(EngageMode))
def test_int_config_matches_naive_oracle(rng, mode):
    # int fields, as a JSON config file gives them, are stored as floats, so
    # the oracle, reading the same config, steps in floats alone
    dev = DeviceParams(**json.loads('{"vrfb_power_kw": 5, "sc_power_kw": 3}'))
    assert (type(dev.vrfb_power_kw), type(dev.sc_power_kw)) == (float, float)
    cfg = EmsConfig(recharge_threshold=0.2, sc_engage_mode=mode)
    pu = rng.uniform(0.0, 1.0, size=600)
    pu[17] = 1.0
    norm = _norm(pu, p_max=20.0)
    res = dispatch(norm, cfg, dev)

    pu_l = norm.pu.tolist()
    o_sc, o_v, o_g, o_ssc, o_sv = naive_dispatch(pu_l, 1.0, 20.0, cfg, dev)
    assert {type(x) for x in o_sc} == {type(x) for x in o_v} == {float}
    load = np.array([x * 20.0 for x in pu_l])
    sc, vrfb, grid = (np.array(o, dtype=np.float64) for o in (o_sc, o_v, o_g))
    flag_sc = np.array([x > 0.8 for x in pu_l])
    engaged = np.array(naive_engaged(pu_l, 1.0, cfg))
    got = (res.p_load_kw, res.p_grid_kw, res.p_sc_kw, res.p_vrfb_kw, res.soc_sc_kwh,
           res.soc_vrfb_kwh, res.flag_sc, res.engaged_sc)
    want = (load, grid, sc, vrfb, np.array(o_ssc, dtype=np.float64),
            np.array(o_sv, dtype=np.float64), flag_sc, engaged)
    for g, w in zip(got, want):
        assert (g.dtype, g.tobytes()) == (w.dtype, w.tobytes())

    energy, peak = float(load.sum()), float(grid.max())
    stats = UtilizationStats(
        sc_engaged_fraction=float(np.mean(engaged)),
        sc_energy_share=float(np.clip(sc, 0.0, None).sum() / energy),
        vrfb_energy_share=float(np.clip(vrfb, 0.0, None).sum() / energy),
        grid_peak_kw=peak,
        grid_peak_reduction_fraction=(20.0 - peak) / 20.0,
    )
    assert repr(res.stats) == repr(stats)
    assert repr(threshold_sweep(norm, [0.8], cfg, dev)) == repr([(0.8, stats)])


def _as_number(floats, ints=()):
    """A value of ``floats`` as an np.float32, an np.float64 or a nearby
    Fraction, or one of ``ints``."""
    return st.one_of(
        st.sampled_from(ints) if ints else st.nothing(),
        floats.map(np.float32), floats.map(np.float64),
        floats.map(lambda x: Fraction(x).limit_denominator(1000)),
    )


_ZEROS = [0, json.loads("-0")]  # JSON's -0 is the int 0
_CFG_NUMBERS = dict(
    sc_threshold=_as_number(st.floats(0.3, 0.95)),
    derivative_threshold=_as_number(st.floats(0.05, 1.0), [1]),
    recharge_threshold=st.none() | _as_number(st.floats(0.0, 0.25), _ZEROS),
)
_FRACTIONS = _as_number(st.floats(0.0, 1.0), [0, 1])
_RECHARGE_POWERS = st.none() | _as_number(st.floats(0.0, 10.0), _ZEROS + [2])
_EFFICIENCIES = _as_number(st.floats(0.5, 1.0), [1])
_DEV_NUMBERS = dict(
    vrfb_power_kw=_as_number(st.floats(0.5, 10.0), [1, 5]),
    vrfb_energy_kwh=_as_number(st.floats(0.01, 20.0), [1, 10]),
    vrfb_ramp_kw_per_s=_as_number(st.floats(0.1, 5.0), [1, 3]),
    sc_power_kw=_as_number(st.floats(0.5, 10.0), [1, 5]),
    sc_energy_kwh=_as_number(st.floats(0.001, 0.1), [1]),
    sc_initial_soc_fraction=_FRACTIONS,
    vrfb_initial_soc_fraction=_FRACTIONS,
    sc_recharge_power_kw=_RECHARGE_POWERS,
    vrfb_recharge_power_kw=_RECHARGE_POWERS,
    sc_efficiency=_EFFICIENCIES,
    vrfb_efficiency=_EFFICIENCIES,
)


_MACHINE_PU = normalize(gen_machine(MachineSpec(days=1))[0]).pu
_MUNICIPAL_PU = normalize(gen_municipal(MunicipalSpec(days=1))[0]).pu
# 3,000 steps each: machine on/off blocks, and the municipal rise through 0.8 pu
_TWIN_PROFILES = [_norm(_MACHINE_PU[:3000]), _norm(_MACHINE_PU[40_000:43_000]),
                  _norm(_MUNICIPAL_PU[54_000:57_000])]


def _outputs(norm, cfg, dev):
    """The trace CSV, summary and sweep CSV of one config, as text."""
    trace, table = io.StringIO(), io.StringIO()
    res = dispatch(norm, cfg, dev)
    write_dispatch_csv(res, trace)
    write_sweep_csv(threshold_sweep(norm, [0.5, 0.7, 0.9], cfg, dev), table)
    return trace.getvalue(), repr((res.stats, res.recharge_threshold)), table.getvalue()


@settings(max_examples=60, deadline=None)
@given(norm=st.sampled_from(_TWIN_PROFILES), mode=st.sampled_from(list(EngageMode)),
       cfg_numbers=st.fixed_dictionaries(_CFG_NUMBERS),
       dev_numbers=st.fixed_dictionaries(_DEV_NUMBERS))
def test_number_types_dispatch_as_their_floats(norm, mode, cfg_numbers, dev_numbers):
    # an int (0 and JSON's -0 included), an np.float32, an np.float64 or a
    # Fraction is stored as its float: the outputs are the float twin's
    def build(cfg_numbers, dev_numbers):
        return EmsConfig(sc_engage_mode=mode, **cfg_numbers), DeviceParams(**dev_numbers)

    cfg, dev = build(cfg_numbers, dev_numbers)
    stored = [getattr(obj, name) for obj, names in ((cfg, cfg_numbers), (dev, dev_numbers))
              for name in names]
    assert {type(v) for v in stored if v is not None} == {float}
    twin = build(*({k: None if v is None else float(v) for k, v in numbers.items()}
                   for numbers in (cfg_numbers, dev_numbers)))
    assert _outputs(norm, cfg, dev) == _outputs(norm, *twin)


@pytest.mark.parametrize("pu, p_max", [([0.0] * 200, 10.0), ([0.25] * 200, 5e-324)])
def test_zero_load_in_kw_is_rejected(pu, p_max):
    # the energy shares would be 0.0 / 0.0; a 5e-324 peak rounds 0.25 pu to 0.0 kW
    norm = _norm(pu, p_max=p_max)
    cfg = EmsConfig(recharge_threshold=0.1)
    with pytest.raises(AllZeroProfileError, match="^profile 't' has no load in kW to split$"):
        dispatch(norm, cfg)
    with pytest.raises(AllZeroProfileError, match="no load in kW"):
        threshold_sweep(norm, [0.5, 0.6], cfg)


# --- memory ---

def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dispatch_memory_per_step_is_bounded():
    # The traces go into preallocated float64 arrays, adopted as they are:
    # the peak is about 52 bytes per step (load, four traces, one summary
    # buffer that becomes the grid, the flags). A second grid temporary and
    # two clip temporaries took 59; per-step Python floats in lists over 200.
    norm = normalize(gen_machine(MachineSpec(days=1))[0])
    assert _traced_peak(lambda: dispatch(norm)) < 56 * norm.n_samples


@pytest.fixture(scope="module", params=[MunicipalSpec(days=1), MachineSpec(days=1)],
                ids=["municipal", "machine"])
def day_csv(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "day.csv"
    write_profile_csv(generate(request.param)[0], path)
    return path


def test_parse_memory_per_sample_is_bounded(day_csv):
    # about 24 bytes per sample: the loadtxt table, then the contiguous power
    # column the profile adopts. Holding the table through the profile's
    # checks and copying the column again took 40.
    assert _traced_peak(lambda: parse_profile_file(day_csv)) < 32 * 86_400


def test_analyze_memory_per_sample_is_bounded(day_csv):
    # about 34 bytes per sample above the input: pu and the derivative, each
    # adopted where it is built, with the input hash run before either
    # exists. Copying each and hashing last took 55-58.
    profile = parse_profile_file(day_csv)
    assert _traced_peak(lambda: analyze_profile(profile)) < 44 * profile.n_samples


def test_trace_write_memory_per_step_is_bounded(day_csv, tmp_path):
    # about 29 (machine) and 40 (municipal) bytes per step: the time column,
    # the int8 flags, one sorted copy of a tabled column's keys with its byte
    # mask, and one block's text. np.unique's argsort and copies and the
    # block's fields held through its compaction took 35 and 51.
    res = dispatch(normalize(parse_profile_file(day_csv)))
    trace = tmp_path / "t.csv"
    assert _traced_peak(lambda: write_dispatch_csv(res, trace)) < 45 * res.n_steps


def test_cli_dispatch_trace_memory_per_step_is_bounded(day_csv, tmp_path):
    # about 78 (machine) and 91 (municipal) bytes per step: the parse, then
    # the dispatch and its trace write, with the profile dropped once
    # normalized and the per-unit series before the write. Keeping both
    # through the write took 96 and 110.
    argv = ["dispatch", str(day_csv), "--trace", str(tmp_path / "t.csv"),
            "--out", str(tmp_path / "d.json")]
    assert _traced_peak(lambda: cli.main(argv)) < 100 * 86_400


def test_analyze_manifest_memory_does_not_grow_with_entries(tmp_path):
    # the profiles are parsed one at a time; parsing the whole catalog
    # before the first analysis took 3.9 MB for one day and 8.6 MB for eight
    write_profile_csv(generate(MunicipalSpec(days=1))[0], tmp_path / "day.csv")

    def peak(n):
        manifest = tmp_path / "cat.json"
        manifest.write_text(json.dumps([{"path": "day.csv", "site_id": f"s{i}"}
                                        for i in range(n)]))
        argv = ["analyze", str(manifest), "--manifest", "--out", str(tmp_path / "r.json")]
        traced = _traced_peak(lambda: cli.main(argv))
        assert len(json.loads((tmp_path / "r.json").read_text())) == n
        return traced

    assert peak(8) < peak(1) + 1_000_000


def test_array_holders_copy_a_callers_arrays():
    mine = np.array([1.0, 3.0, 2.0, 4.0])
    held = [
        LoadProfile(site_id="s", t0=0.0, dt=1.0, samples=mine).samples,
        NormalizedProfile(site_id="s", dt=1.0, base_power_kw=4.0, pu=mine).pu,
        DerivativeSeries(raw=mine, normalized=mine, dt=1.0).raw,
        DerivativeSeries(raw=mine, normalized=mine, dt=1.0).normalized,
    ]
    mine[:] = 0.0
    for arr in held:
        assert arr.tobytes() == np.array([1.0, 3.0, 2.0, 4.0]).tobytes()
        assert not arr.flags.writeable
    assert mine.flags.writeable  # the caller's array is left as it was


def test_sweep_memory_does_not_grow_with_thresholds():
    norm = normalize(gen_municipal(MunicipalSpec(days=1))[0])
    one = _traced_peak(lambda: threshold_sweep(norm, [0.8]))
    five = _traced_peak(lambda: threshold_sweep(norm, [0.5, 0.6, 0.7, 0.8, 0.9]))
    # one array of a byte per step kept per threshold would show here
    assert five < one + norm.n_samples
    # one set of traces and one summary buffer, no DispatchResult: about 51;
    # a grid and two clip temporaries per threshold took 58
    assert five < 56 * norm.n_samples


# --- reserve helpers ---

def test_stop_energy_sum_matches_series():
    def longhand(p, q):
        total = 0.0
        k = 0
        while p - k * q > 0.0:
            total += p - k * q
            k += 1
        return total

    for p, q in [(5.0, 2.5), (5.0, 2.0), (1.0, 10.0), (7.3, 1.1), (0.0, 1.0)]:
        assert _wind_down_sum(p, q) == pytest.approx(longhand(p, q))
    assert _wind_down_sum(4.0, float("inf")) == 4.0


def test_sustainable_power_inverts_stop_sum():
    for u, q in [(3.6, 2.5), (10.0, 1.0), (0.4, 2.5), (100.0, 0.3), (1e6, 1e-20)]:
        p = _sustainable_power(u, q)
        assert _wind_down_sum(p, q) <= u + 1e-9
        # a hair more power would break the budget
        assert _wind_down_sum(p * (1.0 + 1e-9) + 1e-12, q) > u
    assert _sustainable_power(0.0, 1.0) == 0.0
    assert _sustainable_power(float("inf"), 1.0) == float("inf")
    assert _sustainable_power(5.0, float("inf")) == 5.0


def test_sustainable_power_matches_oracle_scan(rng):
    inf = float("inf")
    cases = [(3.6e5, 1e-6), (3.0, 1.0), (6.0, 1.0), (6.0 - 1e-15, 1.0), (0.5, 1.0),
             (1e-300, 1.0), (5e-324, 5e-324), (1.0, 0.1), (0.3, 0.1),
             (5.0, inf), (0.0, inf), (-0.0, 2.5), (-0.0, inf), (inf, inf),
             (1.5e308, inf), (1.5e308, 1e308)]
    cases += [(10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-3, 3)) for _ in range(300)]
    for u, q in cases:  # by the bits: -0.0 and 0.0 differ
        assert _sustainable_power(u, q).hex() == _largest_sustainable(u, q).hex(), (u, q)


# --- threshold sweep ---

def test_sweep_validates_thresholds():
    norm = _norm(np.linspace(0.1, 1.0, 120))
    with pytest.raises(InvalidConfigError):
        threshold_sweep(norm, [0.9, 0.5], NO_RECHARGE)
    with pytest.raises(InvalidConfigError):
        threshold_sweep(norm, [1.0], NO_RECHARGE)
    for thresholds in (["0.5"], [None], [0.5, "0.7"]):
        with pytest.raises(InvalidConfigError, match="^sc_threshold must be a number, got "):
            threshold_sweep(norm, thresholds, NO_RECHARGE)
    assert threshold_sweep(norm, [], NO_RECHARGE) == []


def test_sweep_engaged_fraction_non_increasing(rng):
    pu = rng.uniform(0.0, 1.0, size=4000)
    pu[7] = 1.0
    norm = _norm(pu)
    cfg = EmsConfig(recharge_threshold=0.0,
                    sc_engage_mode=EngageMode.THRESHOLD_ONLY)
    rows = threshold_sweep(norm, [0.5, 0.7, 0.9], cfg)
    fractions = [stats.sc_engaged_fraction for _, stats in rows]
    assert fractions == sorted(fractions, reverse=True)
    assert [thr for thr, _ in rows] == [0.5, 0.7, 0.9]


def test_sweep_repeated_threshold_allowed():
    norm = _norm(np.linspace(0.0, 1.0, 150))
    rows = threshold_sweep(norm, [0.8, 0.8], NO_RECHARGE)
    assert rows[0][1] == rows[1][1]


@pytest.mark.parametrize("mode", list(EngageMode))
@pytest.mark.parametrize("recharge", [0.3, None])
def test_sweep_rows_equal_dispatch_stats(rng, mode, recharge):
    pu = rng.uniform(0.0, 1.0, size=600)
    pu[11] = 1.0
    norm = _norm(pu)
    cfg = EmsConfig(recharge_threshold=recharge, sc_engage_mode=mode)
    dev = DeviceParams(vrfb_energy_kwh=0.05, sc_energy_kwh=0.005, sc_efficiency=0.9)
    thresholds = [0.35, 0.5, 0.5, 0.75, 0.95]
    rows = threshold_sweep(norm, thresholds, cfg, dev)
    assert [thr for thr, _ in rows] == thresholds
    for thr, stats in rows:
        assert stats == dispatch(norm, replace(cfg, sc_threshold=thr), dev).stats


def test_sweep_estimates_base_load_once(rng, monkeypatch):
    norm = _norm(np.concatenate([np.full(400, 0.3), rng.uniform(0.0, 1.0, 200), [1.0]]))
    calls = []
    real = ems.base_load_estimate
    monkeypatch.setattr(ems, "base_load_estimate", lambda n: calls.append(n) or real(n))
    thresholds = [0.1, 0.3, 0.5, 0.9]  # the estimate, ~0.305, is used from 0.5 on
    rows = threshold_sweep(norm, thresholds, EmsConfig())
    assert len(calls) == 1
    for thr, stats in rows:
        assert stats == dispatch(norm, EmsConfig(sc_threshold=thr)).stats
    assert len(calls) == 1 + len(thresholds)
    threshold_sweep(norm, thresholds, NO_RECHARGE)
    assert len(calls) == 1 + len(thresholds)


def test_sweep_rejects_coarse_profiles():
    norm = _norm(np.linspace(0.1, 1.0, 120), dt=30.0)
    with pytest.raises(IncompatibleResolutionError):
        threshold_sweep(norm, [0.8], NO_RECHARGE)
    assert threshold_sweep(norm, [], NO_RECHARGE) == []


# --- steps shared between sweep points ---

def _sweep_traces(norm, thresholds, cfg, dev):
    """The four traces of each sweep point, as bytes, as ``_summarize`` gets them."""
    traces = []
    real = ems._summarize

    def spy(load, engaged, out, p_max):
        traces.append(out.tobytes())
        return real(load, engaged, out, p_max)

    with mock.patch.object(ems, "_summarize", spy):
        threshold_sweep(norm, thresholds, cfg, dev)
    return traces


def _dispatch_traces(norm, thresholds, cfg, dev):
    """The same traces from one fresh :func:`dispatch` per threshold."""
    runs = [dispatch(norm, replace(cfg, sc_threshold=thr), dev) for thr in thresholds]
    return [np.stack([r.p_sc_kw, r.p_vrfb_kw, r.soc_sc_kwh, r.soc_vrfb_kwh]).tobytes()
            for r in runs]


def _shared_case(name, rng):
    """(profile, config, device, thresholds) of one shared-steps case."""
    cfg = EmsConfig(recharge_threshold=0.2)
    dev = DeviceParams(vrfb_energy_kwh=0.02, sc_energy_kwh=0.002)
    thresholds = [0.5, 0.6, 0.7, 0.9]
    if name == "quiet-then-peak":
        pu = np.concatenate([np.full(3000, 0.3), np.linspace(0.4, 1.0, 40), np.full(50, 0.3)])
        return _norm(pu), cfg, dev, thresholds
    if name == "municipal-3-days":
        norm = normalize(gen_municipal(MunicipalSpec(days=3))[0])
        return norm, EmsConfig(), DeviceParams(), [0.5, 0.7, 0.9]
    if name == "steep-before-first-differing-step":
        pu = np.full(800, 0.3)
        pu[100:600:50] = 0.45  # below every threshold, but steep on both sides
        pu[700] = 1.0
        return _norm(pu), cfg, dev, thresholds
    if name == "base-between-thresholds":
        # the estimate, ~0.305, is the recharge threshold from 0.5 on; below
        # that recharging is off, so 0.25 and 0.5 share no steps
        pu = np.concatenate([np.full(400, 0.3), rng.uniform(0.0, 1.0, 600), [1.0]])
        return _norm(pu), EmsConfig(), dev, [0.2, 0.25, 0.5, 0.6]
    if name == "repeated-thresholds":
        pu = rng.uniform(0.0, 1.0, 2000)
        pu[3] = 1.0
        return _norm(pu), cfg, dev, [0.6, 0.6, 0.8, 0.8]
    if name == "subnormal-peak":
        # 0.5 * P rounds to 0.0 and 0.7 * P does not, so the -0.0 loads, each
        # engaged by a steep step, give 0.5 p_sc = -0.0 and 0.7 p_sc = +0.0
        pu = np.full(200, 0.45)
        pu[1:199:2] = -0.0
        pu[199] = 1.0
        return _norm(pu, p_max=5e-324), NO_RECHARGE, dev, [0.3, 0.5, 0.5, 0.7]
    pu = rng.uniform(0.0, 1.0, 2000)
    pu[3] = 1.0
    sc, vrfb = {"sc-soc-negative-zero": (-0.0, 0.0), "vrfb-soc-negative-zero": (0.0, -0.0)}[name]
    dev = replace(dev, sc_initial_soc_fraction=sc, vrfb_initial_soc_fraction=vrfb)
    return _norm(pu), EmsConfig(recharge_threshold=0.0), dev, thresholds


@pytest.mark.parametrize("mode", list(EngageMode))
@pytest.mark.parametrize("name", [
    "quiet-then-peak", "municipal-3-days", "steep-before-first-differing-step",
    "base-between-thresholds", "repeated-thresholds", "subnormal-peak",
    "sc-soc-negative-zero", "vrfb-soc-negative-zero",
])
def test_sweep_traces_equal_dispatch(rng, name, mode):
    norm, cfg, dev, thresholds = _shared_case(name, rng)
    cfg = replace(cfg, sc_engage_mode=mode)
    assert _sweep_traces(norm, thresholds, cfg, dev) == _dispatch_traces(
        norm, thresholds, cfg, dev)


_FRACTIONS = st.sampled_from([0.0, -0.0, 0.3, 1.0])


@settings(max_examples=150, deadline=None)
@given(
    pu=st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 0.2, 0.5, 0.6, 1.0]),
                          st.floats(0.0, 1.0)), min_size=1, max_size=60),
    base=st.sampled_from([0.1, 0.3, 0.55]),
    p_max=st.sampled_from([10.0, 0.37, 5e-324]),
    recharge=st.sampled_from([None, 0.0, -0.0, 0.2, 0.45]),
    mode=st.sampled_from(list(EngageMode)),
    thresholds=st.lists(st.sampled_from([0.46, 0.5, 0.6, 0.7, 0.8, 0.95]),
                        min_size=1, max_size=5).map(sorted),
    dev=st.builds(
        DeviceParams,
        vrfb_energy_kwh=st.sampled_from([1e-4, 1e-3, 0.01]),
        vrfb_ramp_kw_per_s=st.sampled_from([1e-3, 2.5, 1e308]),
        sc_energy_kwh=st.sampled_from([1e-5, 1e-4, 1e-3]),
        sc_initial_soc_fraction=_FRACTIONS,
        vrfb_initial_soc_fraction=_FRACTIONS,
        sc_efficiency=st.sampled_from([1.0, 0.9]),
        vrfb_efficiency=st.sampled_from([1.0, 0.85]),
    ),
)
def test_sweep_traces_equal_dispatch_property(pu, base, p_max, recharge, mode, thresholds,
                                              dev):
    # 100 steps at a base level lead in: the base-load estimate needs 100
    norm = _norm([base] * 100 + pu + [1.0], p_max=p_max)
    cfg = EmsConfig(recharge_threshold=recharge, sc_engage_mode=mode)
    assert _sweep_traces(norm, thresholds, cfg, dev) == _dispatch_traces(
        norm, thresholds, cfg, dev)


# --- runs of repeated steps ---

_LEVELS = st.sampled_from([0.0, -0.0, 1.0, 0.2, 0.45, 0.5, 0.6, 0.8]) | st.floats(0.0, 1.0)
_ENERGIES = st.sampled_from([5e-324, 10.0, float("inf")]) | st.floats(1e-5, 0.05)
_DEVICES = st.fixed_dictionaries(dict(
    vrfb_energy_kwh=_ENERGIES,
    vrfb_ramp_kw_per_s=st.sampled_from([1e-3, 0.7, 2.5, 1e308, float("inf")]),
    sc_energy_kwh=_ENERGIES,
    sc_initial_soc_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    vrfb_initial_soc_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    sc_efficiency=st.sampled_from([1.0, 0.9]),
    vrfb_efficiency=st.sampled_from([1.0, 0.85]),
)).filter(lambda d: not any(d[f"{x}_energy_kwh"] == float("inf")
                            and d[f"{x}_initial_soc_fraction"] == 0.0 for x in ("sc", "vrfb"))
          ).map(lambda d: DeviceParams(**d))


@settings(max_examples=100, deadline=None)
@given(
    segments=st.lists(st.tuples(_LEVELS, st.integers(1, 400)), min_size=1, max_size=8),
    base=st.sampled_from([0.1, 0.3, 0.55]),
    p_max=st.sampled_from([10.0, 0.37]),
    dt=st.sampled_from([1.0, 5.0]),
    recharge=st.one_of(st.sampled_from([None, 0.0, -0.0]), st.floats(0.0, 0.45)),
    mode=st.sampled_from(list(EngageMode)),
    thresholds=st.lists(st.sampled_from([0.46, 0.5, 0.6, 0.8, 0.95]),
                        min_size=1, max_size=4).map(sorted),
    dev=_DEVICES,
)
def test_repeated_steps_match_naive_oracle(segments, base, p_max, dt, recharge, mode,
                                           thresholds, dev):
    # piecewise-constant loads: most steps repeat the one before, so most of
    # each run is written by the windows; 100 lead-in steps for the estimate
    pu = np.concatenate([np.full(100, base)] + [np.full(n, v) for v, n in segments] + [[1.0]])
    norm = _norm(pu, dt=dt, p_max=p_max)
    cfg = EmsConfig(recharge_threshold=recharge, sc_engage_mode=mode)
    res = dispatch(norm, cfg, dev)
    want = naive_dispatch(norm.pu.tolist(), dt, p_max,
                          replace(cfg, recharge_threshold=res.recharge_threshold), dev)
    got = (res.p_sc_kw, res.p_vrfb_kw, res.p_grid_kw, res.soc_sc_kwh, res.soc_vrfb_kwh)
    for g, w in zip(got, want):
        assert g.tobytes() == np.array(w).tobytes()
    assert _sweep_traces(norm, thresholds, cfg, dev) == _dispatch_traces(
        norm, thresholds, cfg, dev)
    for thr, stats in threshold_sweep(norm, thresholds, cfg, dev):
        assert repr(stats) == repr(dispatch(norm, replace(cfg, sc_threshold=thr), dev).stats)


@settings(max_examples=100, deadline=None)
@given(
    lead=st.lists(_LEVELS, max_size=20),
    level=_LEVELS,
    n=st.integers(2, 200),
    recharge=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 0.45)),
    mode=st.sampled_from(list(EngageMode)),
    dev=_DEVICES,
)
def test_window_writes_only_steps_the_contract_takes(lead, level, n, recharge, mode, dev):
    # a window started at any step that repeats the load bits and mode of
    # the one before, from the oracle's state there, whether or not that
    # step also repeats the powers: what it writes is the oracle's trace
    pu = np.concatenate([[1.0], lead, np.full(n, level)])
    cfg = EmsConfig(recharge_threshold=recharge, sc_engage_mode=mode)
    o_sc, o_v, _, o_ssc, o_sv = naive_dispatch(pu.tolist(), 1.0, 10.0, cfg, dev)
    want = np.array([o_sc, o_v, o_ssc, o_sv], dtype=np.float64)
    runs = []  # the load, the modes and _repeats' bytes of the run
    real = ems._repeats

    def spy(load, modes):
        runs.append((load, modes, real(load, modes)))
        return runs[-1][2]

    with mock.patch.object(ems, "_repeats", spy):
        dispatch(_norm(pu), cfg, dev)
    load, modes, same = runs[0]
    args = (dev, 1.0 / 3600.0, dev.vrfb_ramp_kw_per_s * 1.0, 0.8 * 10.0, recharge * 10.0)
    for i in range(1, pu.size):
        if same[i]:
            out = want.copy()
            out[:, i:] = np.nan
            end = ems._fill_repeats(load, modes, same, out, i, *args)
            assert out[:, i:end].tobytes() == want[:, i:end].tobytes(), i


def _rounding_edge(kind):
    """``(power, soc, capacity)``: an SC state one step from its clamp, where
    the power check and the SoC clamp disagree by rounding. ``floor`` and
    ``avail`` discharge at ``power``, ``cap`` and ``room`` recharge at it.
    """
    step = 1.0 / 3600.0
    for cap in (0.05, 0.001):
        for x in (0.5 + k / 997 for k in range(4000)):
            d = x * step if kind in ("floor", "avail") else -x * step
            base = d if kind in ("floor", "avail") else cap + d
            for soc in (base + k * math.ulp(base) for k in range(-4, 5)):
                avail, room = soc / step, (cap - soc) / step
                if {"floor": not avail < x and 0.0 > soc - d,
                    "avail": avail < x and not 0.0 > soc - d,
                    "cap": soc <= cap and not room < x and cap < soc - d,
                    "room": room < x and not cap < soc - d}[kind]:
                    return x, soc, cap
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", ["floor", "avail", "cap", "room"])
def test_window_rejects_a_step_one_rounding_from_a_clamp(kind):
    # the SC's power check and its SoC clamp mostly reject the same step;
    # one rounding apart, only one of them does, and the scalar step either
    # clamps the SoC or serves another power, so the window keeps nothing
    x, soc, cap = _rounding_edge(kind)
    discharge = kind in ("floor", "avail")
    dev = DeviceParams(sc_energy_kwh=cap, sc_recharge_power_kw=None if discharge else x)
    load = np.full(4, x if discharge else 0.0)  # the SC's excess over thr_kw = 0.0
    modes = np.full(4, ems._ENGAGED if discharge else ems._RECHARGE, dtype=np.int8)
    same = bytes([0, 1, 1, 1, 0])
    for start, kept in ((soc, 0), (soc + 20 * x / 3600.0 * (1 if discharge else -1), 3)):
        out = np.zeros((4, 4))
        out[:, 0] = (x if discharge else -x), 0.0, start, 5.0
        assert ems._fill_repeats(load, modes, same, out, 1, dev, 1.0 / 3600.0, 2.5, 0.0,
                                 0.0) == 1 + kept


def test_signed_zero_loads_are_not_repeats():
    # 0.0 and -0.0 loads are equal but give VRFB targets, and so powers, of
    # opposite sign; a window that took one for the other would copy a sign
    pu = np.concatenate([[1.0], np.tile([0.0, -0.0], 200), np.full(50, 0.0), [1.0]])
    norm = _norm(pu)
    cfg = EmsConfig(recharge_threshold=0.0)
    res = dispatch(norm, cfg)
    want = naive_dispatch(norm.pu.tolist(), 1.0, 10.0, cfg, DeviceParams())
    got = (res.p_sc_kw, res.p_vrfb_kw, res.p_grid_kw, res.soc_sc_kwh, res.soc_vrfb_kwh)
    for g, w in zip(got, want):
        assert g.tobytes() == np.array(w).tobytes()
    signs = np.signbit(res.p_vrfb_kw[1:401])
    assert signs[1::2].all() and not signs[::2].any()
    assert not np.signbit(res.p_grid_kw).any()  # -0.0 - -0.0 is +0.0


def _loop_passes(fn) -> int:
    """Line events on the first line of ``_run``'s step loop body while ``fn`` runs.

    That is one per simulated step.
    """
    lines, first = inspect.getsourcelines(ems._run)
    header = next(k for k, line in enumerate(lines)
                  if line.strip().startswith("for i, (p_load, m) in enumerate("))
    body = first + header + 1
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line" and frame.f_lineno == body
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is ems._run.__code__ else None)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


def test_short_battery_empty_runs_are_filled(rng):
    # an empty VRFB next to an empty SC that cannot recharge: each cycle is a
    # recharge step, then 2-4 idle steps with a positive VRFB target. The
    # first idle step finds the battery empty and at rest, and the fill
    # writes the 1-3 steps after it, however short that run is.
    runs = rng.integers(1, 4, size=300)
    norm = _norm(np.concatenate([[0.1] + [0.5] * (r + 1) for r in runs]))
    cfg = EmsConfig(recharge_threshold=0.2, sc_engage_mode=EngageMode.THRESHOLD_ONLY)
    dev = DeviceParams(vrfb_initial_soc_fraction=0.0, sc_initial_soc_fraction=0.0,
                       sc_recharge_power_kw=0.0)
    assert _loop_passes(lambda: dispatch(norm, cfg, dev)) == 2 * runs.size
    res = dispatch(norm, cfg, dev)
    want = naive_dispatch(norm.pu.tolist(), 1.0, norm.base_power_kw, cfg, dev)
    got = (res.p_sc_kw, res.p_vrfb_kw, res.p_grid_kw, res.soc_sc_kwh, res.soc_vrfb_kwh)
    for g, w in zip(got, want):
        assert g.tobytes() == np.array(w).tobytes()


def test_machine_day_runs_mostly_in_windows(monkeypatch):
    # a machine switches between a few load levels, so nearly every step
    # repeats the one before: of 86,400 steps, 1,315 reach the scalar loop
    norm = normalize(gen_machine(MachineSpec(days=1))[0])
    assert _loop_passes(lambda: dispatch(norm)) == 1315
    res = dispatch(norm)
    monkeypatch.setattr(ems, "_fill_repeats", lambda load, mode, same, out, i, *_: i)
    scalar = dispatch(norm)  # every step in the loop
    for name in _TRACE_FIELDS:
        assert getattr(res, name).tobytes() == getattr(scalar, name).tobytes()


def test_step_iterator_yields_only_simulated_steps(monkeypatch):
    # a jump restarts the step iterator at the step it resumes at instead of
    # draining the steps in between, so it yields one item per simulated step
    norm = normalize(gen_machine(MachineSpec(days=1))[0])
    yielded = 0

    def counting_zip(*iterables):
        nonlocal yielded
        for item in zip(*iterables):
            yielded += 1
            yield item

    monkeypatch.setattr(ems, "zip", counting_zip, raising=False)
    dispatch(norm)
    assert yielded == 1315  # the steps test_machine_day_runs_mostly_in_windows counts
    yielded = 0
    threshold_sweep(norm, [0.5, 0.6, 0.7, 0.8, 0.9])
    # 6,526 simulated steps, and the 4 pairs the ascending check zips
    assert yielded == 6530


def test_int_json_config_takes_the_windows():
    # the int 5 of a JSON config is stored as 5.0, so its run is 5.0's
    norm = normalize(gen_machine(MachineSpec(days=1))[0])
    dev = DeviceParams(**json.loads('{"vrfb_power_kw": 5}'))
    assert _loop_passes(lambda: dispatch(norm, EmsConfig(), dev)) == 1315


def test_sweep_point_starts_at_its_first_differing_step():
    # after the first point, each simulates only from the first step whose
    # load reaches the previous threshold: the last 8 or 7 of 2010 steps.
    # The load alternates, so no step repeats the one before it.
    quiet = np.tile([0.3, 0.31], 1000)
    pu = np.concatenate([quiet, np.linspace(0.4, 1.0, 10)])
    norm = _norm(pu)
    cfg = EmsConfig(recharge_threshold=0.0, sc_engage_mode=EngageMode.THRESHOLD_ONLY)
    first = _loop_passes(lambda: threshold_sweep(norm, [0.5], cfg))
    assert first == pu.size
    starts = [int(np.argmax(norm.pu * 10.0 >= thr * 10.0)) for thr in (0.5, 0.6)]
    assert starts == [2002, 2003]
    sweep = _loop_passes(lambda: threshold_sweep(norm, [0.5, 0.6, 0.7], cfg))
    assert sweep == first + sum(pu.size - start for start in starts)


def test_sweep_point_resyncs_where_both_batteries_are_empty():
    # each cycle: a peak on which the SC's power cap binds for both
    # thresholds and the VRFB empties, then steps below both thresholds,
    # recharge steps among them. Once the VRFB is empty and at rest, 0.6's
    # run finds the state 0.5 left in out and moves on to the next peak.
    # Between the peaks the load alternates, so no step repeats the one
    # before it and every step of a lone dispatch reaches the scalar loop.
    wiggle = np.tile([0.0, 0.01], 150)
    cycle = np.concatenate([np.full(20, 1.0), 0.35 + wiggle, 0.1 + wiggle, 0.35 + wiggle])
    norm = _norm(np.tile(cycle, 3))
    cfg = EmsConfig(recharge_threshold=0.2, sc_engage_mode=EngageMode.THRESHOLD_ONLY)
    dev = DeviceParams(sc_power_kw=2.0, vrfb_energy_kwh=0.02)
    alone = _loop_passes(lambda: dispatch(norm, replace(cfg, sc_threshold=0.6), dev))
    first = _loop_passes(lambda: threshold_sweep(norm, [0.5], cfg, dev))
    second = _loop_passes(lambda: threshold_sweep(norm, [0.5, 0.6], cfg, dev)) - first
    assert alone > 3 * 300  # the recharge steps at least
    assert second <= 3 * 20  # at most the peaks
    assert _sweep_traces(norm, [0.5, 0.6], cfg, dev) == _dispatch_traces(
        norm, [0.5, 0.6], cfg, dev)


# --- outage scenarios ---

def test_ups_feasible_low_demand(make_profile):
    profile = make_profile(np.full(7200, 1.0), dt=1.0)  # 1 kW for 2 h
    sc = make_ups_scenario(profile, 0.0, 3600.0)
    assert sc.feasible and sc.limiting is Limiting.NONE
    assert sc.window_peak_kw == 1.0
    assert sc.window_energy_kwh == pytest.approx(1.0)
    assert sc.power_cap_kw == 10.0
    assert sc.energy_available_kwh == pytest.approx(10.05)


def test_ups_energy_limited(make_profile):
    profile = make_profile(np.full(11 * 3600, 5.0), dt=1.0)  # 5 kW for 11 h
    sc = make_ups_scenario(profile, 0.0, 10 * 3600.0)
    assert not sc.feasible
    assert sc.limiting is Limiting.ENERGY
    assert sc.window_energy_kwh == pytest.approx(50.0)


def test_ups_power_limited(make_profile):
    profile = make_profile(np.full(600, 12.0), dt=1.0)
    sc = make_ups_scenario(profile, 60.0, 120.0)
    assert sc.limiting is Limiting.POWER, "power violation wins over energy"


def test_ups_demand_zeroed_outside_window(make_profile):
    profile = make_profile([2.0, 3.0, 4.0, 5.0, 6.0, 7.0], dt=1.0)
    sc = make_ups_scenario(profile, 2.0, 2.0)
    assert np.array_equal(sc.hess_demand.samples, [0, 0, 4, 5, 0, 0])
    assert sc.hess_demand.site_id.endswith(":ups")
    assert sc.window_peak_kw == 5.0


def test_ups_window_bounds(make_profile):
    profile = make_profile(np.ones(100), dt=1.0)
    with pytest.raises(WindowOutOfRangeError):
        make_ups_scenario(profile, -1.0, 10.0)
    with pytest.raises(WindowOutOfRangeError):
        make_ups_scenario(profile, 95.0, 10.0)
    with pytest.raises(WindowOutOfRangeError):
        make_ups_scenario(profile, 0.0, 0.0)
    make_ups_scenario(profile, 90.0, 10.0)  # flush against the end is fine


@pytest.mark.parametrize("dev", [
    DeviceParams(vrfb_power_kw=1e308, sc_power_kw=1e308),
    DeviceParams(vrfb_energy_kwh=1e308, sc_energy_kwh=1e308),
    DeviceParams(vrfb_energy_kwh=float("inf")),
    DeviceParams(sc_energy_kwh=float("inf"), sc_initial_soc_fraction=0.3),
])
def test_ups_rejects_infinite_ratings(make_profile, dev):
    profile = make_profile(np.full(600, 1.0), dt=1.0)
    with pytest.raises(InvalidConfigError, match="combined ratings must be finite"):
        make_ups_scenario(profile, 0.0, 60.0, dev)


def test_ups_resolution_gate(make_profile):
    profile = make_profile(np.ones(100), dt=30.0)
    with pytest.raises(ResolutionTooCoarseError):
        make_ups_scenario(profile, 0.0, 600.0)
    make_ups_scenario(make_profile(np.ones(100), dt=29.0), 0.0, 600.0)


def test_ups_matches_naive_scan(rng, make_profile):
    for _ in range(10):
        n = int(rng.integers(50, 400))
        samples = rng.uniform(0.0, 15.0, size=n)
        dt = float(rng.choice([1.0, 5.0, 15.0]))
        profile = make_profile(samples, dt=dt)
        start = float(rng.uniform(0.0, n * dt * 0.5))
        dur = float(rng.uniform(dt, n * dt - start))
        sc = make_ups_scenario(profile, start, dur)
        ok, limit = naive_window_check(samples.tolist(), dt, start, dur, 10.0, 10.05)
        assert sc.feasible == ok
        assert sc.limiting.value == limit


# --- CSV output ---

def test_dispatch_csv_shape():
    res = dispatch(_norm([0.5, 1.0]), EmsConfig(recharge_threshold=0.4))
    buf = io.StringIO()
    write_dispatch_csv(res, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,p_load_kw,p_grid_kw,p_sc_kw,p_vrfb_kw,soc_sc_kwh,soc_vrfb_kwh,flag_sc"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "5.0" and first[-1] == "0"


def test_sweep_csv_shape():
    norm = _norm(np.linspace(0.0, 1.0, 150))
    rows = threshold_sweep(norm, [0.6, 0.9], NO_RECHARGE)
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "threshold,sc_engaged_fraction,sc_energy_share,vrfb_energy_share,grid_peak_kw"
    assert len(lines) == 3
    assert lines[1].startswith("0.6,")
