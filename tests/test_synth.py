"""Synthetic profile generators: determinism, shape properties, event logs."""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest

from hessplit import (
    EvParkSpec,
    MachineSpec,
    MunicipalSpec,
    gen_ev_park,
    gen_machine,
    gen_municipal,
    generate,
    normalize,
)
from hessplit import synth
from hessplit.errors import AllZeroProfileError, InvalidSpecError
from hessplit.synth import MAX_EVENTS, MAX_SAMPLES, MAX_SESSIONS, _taper_head


def test_generators_are_deterministic():
    for spec in (MunicipalSpec(days=1), MachineSpec(), EvParkSpec()):
        a, log_a = generate(spec)
        b, log_b = generate(spec)
        assert a == b
        assert log_a == log_b


def test_seeds_change_the_output():
    a, _ = gen_machine(MachineSpec(seed=1))
    b, _ = gen_machine(MachineSpec(seed=2))
    assert not np.array_equal(a.samples, b.samples)


def test_sample_counts_and_metadata():
    muni, _ = gen_municipal(MunicipalSpec(days=2, dt=5.0))
    assert muni.n_samples == 2 * 86400 // 5
    assert muni.dt == 5.0
    assert muni.site_id == "synthetic-municipal-42"
    mach, _ = gen_machine(MachineSpec(seed=3))
    assert mach.site_id == "synthetic-machine-3"
    ev, _ = gen_ev_park(EvParkSpec())
    assert ev.site_id == "synthetic-ev-park-7"
    assert ev.n_samples == 86400


def test_generate_dispatches_on_spec_type():
    for spec, fn in ((MunicipalSpec(days=1), gen_municipal),
                     (MachineSpec(), gen_machine),
                     (EvParkSpec(), gen_ev_park)):
        assert generate(spec)[0] == fn(spec)[0]
    with pytest.raises(InvalidSpecError):
        generate(object())


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        MunicipalSpec(days=0)
    with pytest.raises(InvalidSpecError):
        MunicipalSpec(dt=11.0)  # too coarse for the fast component
    with pytest.raises(InvalidSpecError):
        MunicipalSpec(base_pu=0.9, peak_pu=0.5)
    with pytest.raises(InvalidSpecError):
        MachineSpec(duty_cycle=1.5)
    with pytest.raises(InvalidSpecError):
        MachineSpec(on_level=0.0)
    with pytest.raises(InvalidSpecError):
        EvParkSpec(arrival_rate_per_h=-1.0)
    with pytest.raises(InvalidSpecError):
        EvParkSpec(taper_duration_s=-5.0)
    # days takes the integer rule of seed: a bool is no integer, a numpy integer is one
    for spec in (MunicipalSpec, MachineSpec, EvParkSpec):
        for name in ("days", "seed"):
            with pytest.raises(InvalidSpecError, match=f"{name} must be an integer"):
                spec(**{name: True})
            with pytest.raises(InvalidSpecError, match=f"{name} must be an integer"):
                spec(**{name: 2.0})
        assert spec(days=np.int64(2), seed=np.int64(3)).days == 2
    # a float field holds a real number, stored as a float
    with pytest.raises(InvalidSpecError, match="noise_sigma must be a number"):
        MunicipalSpec(noise_sigma="0.1")
    with pytest.raises(InvalidSpecError, match="scale_kw must be a number"):
        MachineSpec(scale_kw=True)
    assert repr(EvParkSpec(dt=np.float32(0.5)).dt) == "0.5"
    with pytest.raises(InvalidSpecError, match="peak_width_h"):
        MunicipalSpec(peak_width_h=0.0)  # the evening bump would divide by zero
    with pytest.raises(InvalidSpecError, match="peak_width_h"):
        MunicipalSpec(peak_width_h=-1.0)
    with pytest.raises(InvalidSpecError, match="events_per_day"):
        MunicipalSpec(events_per_day=-0.5)
    MunicipalSpec(days=2, events_per_day=MAX_EVENTS / 2)  # exactly at the bound: accepted
    # a dt so tiny that the sample count overflows to inf is over the bound too
    for spec in (MunicipalSpec, MachineSpec, EvParkSpec):
        with pytest.raises(InvalidSpecError, match=f"exceed {MAX_SAMPLES} samples"):
            spec(dt=5e-324)


@pytest.mark.parametrize("make", [
    lambda v: MunicipalSpec(noise_sigma=v),
    lambda v: MunicipalSpec(event_height_pu=v),
    lambda v: MunicipalSpec(scale_kw=v),
    lambda v: MunicipalSpec(peak_hour=v),
    lambda v: MunicipalSpec(peak_width_h=v),
    lambda v: MunicipalSpec(events_per_day=v),
    lambda v: MachineSpec(spike_duration_s=v),
    lambda v: MachineSpec(scale_kw=v),
    lambda v: EvParkSpec(arrival_rate_per_h=v),
    lambda v: EvParkSpec(charge_power_kw=v),
    lambda v: EvParkSpec(taper_duration_s=v),
])
def test_spec_rejects_nan(make):
    with pytest.raises(InvalidSpecError):
        make(math.nan)


@pytest.mark.parametrize("make", [
    lambda: EvParkSpec(arrival_rate_per_h=math.inf),  # zero gaps: would never end
    lambda: EvParkSpec(taper_duration_s=math.inf),
    lambda: MachineSpec(spike_duration_s=math.inf),
    lambda: MunicipalSpec(event_width_s_hi=math.inf),  # rng.uniform would overflow
    lambda: MachineSpec(cycle_s_hi=math.inf),
    lambda: EvParkSpec(constant_s_hi=math.inf),
    lambda: MunicipalSpec(peak_hour=math.inf),
    lambda: MunicipalSpec(peak_width_h=math.inf),
    lambda: MunicipalSpec(events_per_day=math.inf),
    lambda: MunicipalSpec(events_per_day=1e5),  # each event tries up to 1000 starts
    lambda: MunicipalSpec(days=2, events_per_day=MAX_EVENTS / 2 + 0.5),
])
def test_spec_rejects_unbounded_durations_and_rates(make):
    with pytest.raises(InvalidSpecError):
        make()


def test_spec_sample_count_is_bounded():
    assert MAX_SAMPLES == 365 * 86400
    MachineSpec(days=365)  # exactly at the bound: accepted
    for spec in (MunicipalSpec, MachineSpec, EvParkSpec):
        with pytest.raises(InvalidSpecError):
            spec(days=366)
        with pytest.raises(InvalidSpecError):
            spec(days=1, dt=1e-9)
        with pytest.raises(InvalidSpecError):
            spec(days=10 ** 400)  # beyond float range


def test_ev_park_taper_length_is_bounded():
    EvParkSpec(taper_duration_s=float(MAX_SAMPLES))  # exactly at the bound: accepted
    tracemalloc.start()
    try:
        for taper, dt in ((MAX_SAMPLES + 1.0, 1.0), (1e12, 1.0), (MAX_SAMPLES / 2 + 1.0, 0.5)):
            with pytest.raises(InvalidSpecError, match="taper_duration_s"):
                EvParkSpec(taper_duration_s=taper, dt=dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # rejected before any taper exists


@pytest.mark.parametrize("power", [11.0, 1 / 3, 7, 1e300, 5e-324, 2.5e-308])
def test_taper_head_equals_sliced_linspace(power):
    for taper_steps in (0, 1, 2, 3, 7, 599, 600, 601, 4096, 86_399):
        full = np.linspace(power, 0.0, taper_steps + 2)[1:-1]
        for k in {0, min(1, taper_steps), taper_steps // 2, max(0, taper_steps - 1), taper_steps}:
            assert _taper_head(power, taper_steps, k).tobytes() == full[:k].tobytes()


def _sliced_linspace(power_kw, taper_steps, k):
    return np.linspace(power_kw, 0.0, taper_steps + 2)[1:-1][:k]


@pytest.mark.parametrize("spec", [
    EvParkSpec(),
    EvParkSpec(taper_duration_s=0.0),
    EvParkSpec(taper_duration_s=1.0, dt=2.0, seed=3),
    EvParkSpec(taper_duration_s=20_000.0, arrival_rate_per_h=6.0, charge_power_kw=1 / 3),
    EvParkSpec(taper_duration_s=3.0e5, constant_s_lo=1.0, constant_s_hi=5.0, seed=1),
])
def test_ev_park_tapers_match_sliced_linspace(monkeypatch, spec):
    profile, events = gen_ev_park(spec)
    monkeypatch.setattr(synth, "_taper_head", _sliced_linspace)
    assert profile.samples.tobytes() == gen_ev_park(spec)[0].samples.tobytes()
    ends = [e["start_step"] + e["constant_steps"] + e["taper_steps"] for e in events]
    assert max(ends) > profile.n_samples  # a session is clipped at the horizon


def test_ev_park_long_taper_builds_only_the_horizon():
    spec = EvParkSpec(taper_duration_s=3.0e7)
    start = time.perf_counter()
    profile, events = gen_ev_park(spec)
    assert time.perf_counter() - start < 1.0
    assert profile.n_samples == 86_400 and len(events) > 10
    # every session is clipped by the horizon: the taper never ends
    assert all(e["start_step"] + e["constant_steps"] + e["taper_steps"] > 86_400
               for e in events)


def test_ev_park_session_count_is_bounded():
    # only specs are built here: a generator run past the bound would not end
    assert MAX_SESSIONS == 100_000
    EvParkSpec(days=365, arrival_rate_per_h=11.0)  # 96,360 expected sessions
    for days, rate in ((365, 12.0), (1, 1e9), (1, 1e300)):
        with pytest.raises(InvalidSpecError, match="sessions"):
            EvParkSpec(days=days, arrival_rate_per_h=rate)


# --- municipal ---

def test_municipal_shape():
    profile, events = gen_municipal(MunicipalSpec(days=1))
    assert profile.max_kw <= 115.0  # peak + event + noise headroom
    assert profile.samples.min() >= 0.0
    # plateau around half the peak, bump in the evening
    hours = np.arange(profile.n_samples) / 3600.0
    night = profile.samples[hours < 4.0].mean()
    evening = profile.samples[(hours > 17.0) & (hours < 19.0)].mean()
    assert night == pytest.approx(50.0, rel=0.05)
    assert evening > 90.0
    assert len(events) == max(1, round(0.25 * 1))


def test_municipal_event_log_matches_signal():
    spec = MunicipalSpec(days=4, noise_sigma=0.0, events_per_day=1.0)
    profile, events = gen_municipal(spec)
    assert len(events) == 4
    for ev in events:
        start, width = ev["start_step"], ev["width_steps"]
        jump_up = profile.samples[start] - profile.samples[start - 1]
        jump_down = profile.samples[start + width - 1] - profile.samples[start + width]
        assert jump_up == pytest.approx(spec.event_height_pu * spec.scale_kw, abs=0.5)
        assert jump_down == pytest.approx(spec.event_height_pu * spec.scale_kw, abs=0.5)


@pytest.mark.parametrize("spec", [
    MunicipalSpec(days=1, events_per_day=0.0),
    MunicipalSpec(days=1),  # 0.25 x 1 rounds to 0
    MunicipalSpec(days=2),  # 0.25 x 2 = 0.5 rounds to even, 0
])
def test_municipal_has_at_least_one_ramp_event(spec):
    # the floor of one event is a rule: the benchmark's municipal inputs hold just that one
    _, events = gen_municipal(spec)
    assert [e["kind"] for e in events] == ["ramp_event"]


@pytest.mark.parametrize("width_s", [86398.0, 1e9])
def test_municipal_event_wider_than_the_profile_is_capped(width_s):
    spec = MunicipalSpec(days=1, event_width_s_lo=width_s, event_width_s_hi=width_s)
    profile, events = gen_municipal(spec)
    # the widest event that still has a quiet step before and after it
    assert [e["width_steps"] for e in events] == [profile.n_samples - 3]
    assert events[0]["start_step"] == 1


def test_municipal_events_do_not_overlap():
    _, events = gen_municipal(MunicipalSpec(days=10, events_per_day=2.0))
    spans = sorted((e["start_step"], e["start_step"] + e["width_steps"]) for e in events)
    for (_, end), (nxt, _) in zip(spans, spans[1:]):
        assert end <= nxt


# --- machine ---

def test_machine_off_fraction_tracks_duty_cycle():
    profile, _ = gen_machine(MachineSpec())
    off = float(np.mean(profile.samples == 0.0))
    assert off == pytest.approx(0.5, abs=0.02)


def test_machine_levels_are_exact():
    spec = MachineSpec()
    profile, _ = gen_machine(spec)
    values = set(np.unique(profile.samples))
    assert values == {0.0, 9.5, 10.0}


def test_machine_event_log_recounts_spikes_and_off_time():
    spec = MachineSpec(seed=5)
    profile, events = gen_machine(spec)
    spike_steps = sum(e["spike_steps"] for e in events)
    off_steps = sum(e["off_steps"] for e in events)
    assert spike_steps == int(np.sum(profile.samples == 10.0))
    assert off_steps == int(np.sum(profile.samples == 0.0))


def test_machine_on_level_is_tunable():
    profile, _ = gen_machine(MachineSpec(on_level=0.7))
    assert np.sum(profile.samples == 7.0) > 10000


def test_machine_always_off_yields_all_zero():
    profile, _ = gen_machine(MachineSpec(duty_cycle=1.0))
    assert profile.samples.max() == 0.0
    with pytest.raises(AllZeroProfileError):
        normalize(profile)


# --- EV park ---

def test_ev_sessions_superpose():
    spec = EvParkSpec()
    profile, events = gen_ev_park(spec)
    assert len(events) > 24  # ~3 arrivals/h over a day
    # overlapping sessions stack above the single-charger power
    assert profile.max_kw >= 2 * spec.charge_power_kw


def test_ev_isolated_session_shape():
    spec = EvParkSpec(arrival_rate_per_h=0.2, seed=3)
    profile, events = gen_ev_park(spec)
    assert events, "this seed produces at least one session"
    # find a session that no other session overlaps
    spans = [(e["start_step"], e["start_step"] + e["constant_steps"] + e["taper_steps"])
             for e in events]
    for i, (s, e) in enumerate(spans):
        if e <= profile.n_samples and all(
                o_e <= s or o_s >= e for j, (o_s, o_e) in enumerate(spans) if j != i):
            ev = events[i]
            const = profile.samples[s: s + ev["constant_steps"]]
            taper = profile.samples[s + ev["constant_steps"]: e]
            assert np.all(const == spec.charge_power_kw)
            assert np.all(np.diff(taper) < 0.0)
            assert 0.0 < taper[-1] < spec.charge_power_kw
            break
    else:
        pytest.fail("no isolated session found for this seed")


def test_ev_zero_rate_is_silent():
    profile, events = gen_ev_park(EvParkSpec(arrival_rate_per_h=0.0))
    assert events == []
    assert profile.samples.max() == 0.0


def test_ev_event_log_energy_bound():
    spec = EvParkSpec()
    profile, events = gen_ev_park(spec)
    # every session contributes at most constant+taper energy
    per_session_kwh = [
        (e["constant_steps"] + e["taper_steps"]) * spec.charge_power_kw / 3600.0
        for e in events
    ]
    total = profile.samples.sum() * profile.dt / 3600.0
    assert 0.0 < total <= sum(per_session_kwh) + 1e-9
