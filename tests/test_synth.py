"""Synthetic profile generators: determinism, shape properties, event logs."""

from __future__ import annotations

import math

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
from hessplit.errors import AllZeroProfileError, InvalidSpecError
from hessplit.synth import MAX_SAMPLES, MAX_SESSIONS


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


@pytest.mark.parametrize("make", [
    lambda v: MunicipalSpec(noise_sigma=v),
    lambda v: MunicipalSpec(event_height_pu=v),
    lambda v: MunicipalSpec(scale_kw=v),
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
