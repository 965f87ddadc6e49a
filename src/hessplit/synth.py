"""Seeded generators for the three reference load shapes.

Real metering data for the interesting sites is rarely shareable, so the
test suite and the demos run on synthetic stand-ins instead:

* ``MunicipalSpec`` — a steady plateau with a smooth evening peak, light
  noise, and a handful of isolated rectangular ramp events;
* ``MachineSpec`` — alternating off/on blocks, each switch-on opening with
  a short full-power spike;
* ``EvParkSpec`` — randomly arriving charging sessions that start at full
  power and taper out linearly.

Every generator is a pure function of its spec (seed included): the same
spec yields byte-identical samples. Each also returns an event log — enough
bookkeeping to re-derive peak and transient counts independently of the
signal itself.

A spec can pass its checks and still overflow: a huge ``scale_kw`` times an
off step's 0.0, or sessions that superpose past the float range. The
generators therefore run with numpy's overflow and invalid-value warnings
off, and such a profile ends in :class:`~hessplit.profiles.LoadProfile`'s
check that every sample is finite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidSpecError
from .profiles import SC_MAX_DT_S, LoadProfile, freeze_numbers

SECONDS_PER_DAY = 86400.0
#: Most samples one spec may ask for: a year at 1 s.
MAX_SAMPLES = 31_536_000
#: Most charging sessions one ``EvParkSpec`` may expect (rate x span); the
#: generator loops once per session, about 20 us each.
MAX_SESSIONS = 100_000
#: Most ramp events one ``MunicipalSpec`` may expect (rate x days); each tries
#: up to 1000 isolated starts, about 5 ms once the profile has no room left.
MAX_EVENTS = 1000


def _n_samples(days: int, dt: float) -> int:
    return int(round(days * SECONDS_PER_DAY / dt))


def _check_common(days: int, dt: float, seed: int, name: str) -> None:
    for field, value, least in (("days", days, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
            raise InvalidSpecError(f"{name}: {field} must be an integer >= {least}, got {value!r}")
    if not 0.0 < dt <= SC_MAX_DT_S:
        raise InvalidSpecError(
            f"{name}: dt must be in (0, {SC_MAX_DT_S:g}] s so outputs stay "
            f"usable for supercapacitor studies, got {dt}"
        )
    # days > MAX_SAMPLES already exceeds the bound (a huge int days would
    # overflow the float product in _n_samples), and so does a count that a
    # tiny dt makes infinite (round() would raise on it)
    if (days > MAX_SAMPLES or math.isinf(days * SECONDS_PER_DAY / dt)
            or _n_samples(days, dt) > MAX_SAMPLES):
        raise InvalidSpecError(
            f"{name}: {days} days at dt={dt:g} s exceed {MAX_SAMPLES} samples"
        )


@dataclass(frozen=True)
class MunicipalSpec:
    """Mixed residential/commercial feeder: plateau, evening bump, rare ramps.

    Levels are in shape units ("pu-like", peak at ``peak_pu``); the output is
    scaled by ``scale_kw``. ``event_height_pu`` is deliberately independent
    of ``noise_sigma`` so noise-free runs still contain the ramp events.
    There is at least one ramp event: ``events_per_day * days``, rounded, or
    one where that rounds to 0 (``events_per_day=0.0`` included).
    """

    days: int = 12
    dt: float = 1.0
    seed: int = 42
    base_pu: float = 0.5
    peak_pu: float = 1.0
    noise_sigma: float = 0.01
    peak_hour: float = 18.0
    peak_width_h: float = 2.5
    events_per_day: float = 0.25
    event_height_pu: float = 0.08
    event_width_s_lo: float = 600.0
    event_width_s_hi: float = 3600.0
    scale_kw: float = 100.0

    def __post_init__(self):
        freeze_numbers(self, InvalidSpecError, self._check)

    def _check(self):
        _check_common(self.days, self.dt, self.seed, "municipal")
        if not 0.0 < self.base_pu < self.peak_pu <= 1.0:
            raise InvalidSpecError(
                f"municipal: need 0 < base_pu < peak_pu <= 1, got {self.base_pu}/{self.peak_pu}"
            )
        if not (self.noise_sigma >= 0.0 and self.event_height_pu >= 0.0):
            raise InvalidSpecError("municipal: noise_sigma and event_height_pu must be >= 0")
        if not 0.0 < self.event_width_s_lo <= self.event_width_s_hi < math.inf:
            raise InvalidSpecError("municipal: event widths must satisfy 0 < lo <= hi < inf")
        if not self.scale_kw > 0.0:
            raise InvalidSpecError("municipal: scale_kw must be > 0")
        if not (math.isfinite(self.peak_hour) and 0.0 < self.peak_width_h < math.inf):
            raise InvalidSpecError("municipal: need a finite peak_hour and 0 < peak_width_h < inf")
        if not 0.0 <= self.events_per_day <= MAX_EVENTS / self.days:
            raise InvalidSpecError(f"municipal: events_per_day x days must lie in "
                                   f"[0, {MAX_EVENTS}], got {self.events_per_day} x {self.days}")


@np.errstate(over="ignore", invalid="ignore")  # see the module docstring
def gen_municipal(spec: MunicipalSpec) -> tuple[LoadProfile, list[dict]]:
    """Generate the plateau-with-evening-peak shape.

    The event log holds one ``ramp_event`` entry per injected rectangle with
    its first elevated step, width, and height; there is at least one ramp
    event (see :class:`MunicipalSpec`).
    """
    rng = np.random.default_rng(spec.seed)
    n = _n_samples(spec.days, spec.dt)
    hours = (np.arange(n) * (spec.dt / 3600.0)) % 24.0
    bump = np.exp(-0.5 * ((hours - spec.peak_hour) / spec.peak_width_h) ** 2)
    level = spec.base_pu + (spec.peak_pu - spec.base_pu) * bump
    if spec.noise_sigma > 0.0:
        level = level + rng.normal(0.0, spec.noise_sigma, n)

    events = []
    n_events = max(1, int(round(spec.events_per_day * spec.days)))
    occupied = np.zeros(n, dtype=bool)
    for _ in range(n_events):
        width = int(round(rng.uniform(spec.event_width_s_lo, spec.event_width_s_hi) / spec.dt))
        width = max(1, min(width, n - 3))
        # rejection-sample a start so events stay isolated from each other
        for _attempt in range(1000):
            start = int(rng.integers(1, n - width - 1))
            if not occupied[max(0, start - 2): start + width + 2].any():
                break
        occupied[start: start + width] = True
        level[start: start + width] += spec.event_height_pu
        events.append({
            "kind": "ramp_event",
            "start_step": start,
            "width_steps": width,
            "height_pu": spec.event_height_pu,
        })

    samples = np.clip(level, 0.0, None) * spec.scale_kw
    profile = LoadProfile(
        site_id=f"synthetic-municipal-{spec.seed}", t0=0.0, dt=spec.dt, samples=samples,
    )
    return profile, events


@dataclass(frozen=True)
class MachineSpec:
    """Industrial machine cycling between idle-off and full production.

    ``duty_cycle`` is the *off* fraction of each cycle. Cycle lengths are
    uniform in ``[cycle_s_lo, cycle_s_hi]``. Each on-block starts at
    ``switch_spike_level`` for ``spike_duration_s`` and then settles to
    ``on_level``; the default on level sits just under the spike so loaded
    operation stays inside the top decile of the observed range.
    """

    days: int = 1
    dt: float = 1.0
    seed: int = 11
    duty_cycle: float = 0.5
    on_level: float = 0.95
    switch_spike_level: float = 1.0
    spike_duration_s: float = 5.0
    cycle_s_lo: float = 600.0
    cycle_s_hi: float = 1800.0
    scale_kw: float = 10.0

    def __post_init__(self):
        freeze_numbers(self, InvalidSpecError, self._check)

    def _check(self):
        _check_common(self.days, self.dt, self.seed, "machine")
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise InvalidSpecError(f"machine: duty_cycle must be in [0, 1], got {self.duty_cycle}")
        if not 0.0 < self.on_level <= self.switch_spike_level <= 1.0:
            raise InvalidSpecError(
                f"machine: need 0 < on_level <= switch_spike_level <= 1, "
                f"got {self.on_level}/{self.switch_spike_level}"
            )
        if not 0.0 <= self.spike_duration_s < math.inf:
            raise InvalidSpecError("machine: spike_duration_s must be finite and >= 0")
        if not 0.0 < self.cycle_s_lo <= self.cycle_s_hi < math.inf:
            raise InvalidSpecError("machine: cycle lengths must satisfy 0 < lo <= hi < inf")
        if not self.scale_kw > 0.0:
            raise InvalidSpecError("machine: scale_kw must be > 0")


@np.errstate(over="ignore", invalid="ignore")  # see the module docstring
def gen_machine(spec: MachineSpec) -> tuple[LoadProfile, list[dict]]:
    """Generate the off/on block shape with switch-on spikes.

    Off samples are exact zeros. The event log holds one ``cycle`` entry per
    started cycle with its realized block lengths (clipped to the horizon).
    """
    rng = np.random.default_rng(spec.seed)
    n = _n_samples(spec.days, spec.dt)
    level = np.zeros(n)
    spike_steps_full = int(round(spec.spike_duration_s / spec.dt))
    events = []
    t = 0
    while t < n:
        cycle_s = rng.uniform(spec.cycle_s_lo, spec.cycle_s_hi)
        cycle_steps = max(2, int(round(cycle_s / spec.dt)))
        off_steps = int(round(spec.duty_cycle * cycle_steps))
        on_steps = cycle_steps - off_steps
        on_start = min(t + off_steps, n)
        on_end = min(t + cycle_steps, n)
        spike_end = min(on_start + spike_steps_full, on_end)
        level[on_start:spike_end] = spec.switch_spike_level
        level[spike_end:on_end] = spec.on_level
        events.append({
            "kind": "cycle",
            "start_step": t,
            "off_steps": on_start - t,
            "on_steps": on_end - on_start,
            "spike_steps": spike_end - on_start,
        })
        t += cycle_steps
    samples = level * spec.scale_kw
    profile = LoadProfile(
        site_id=f"synthetic-machine-{spec.seed}", t0=0.0, dt=spec.dt, samples=samples,
    )
    return profile, events


@dataclass(frozen=True)
class EvParkSpec:
    """Charging park: unscheduled arrivals, full-power start, linear taper.

    Arrivals follow a Poisson process (exponential gaps); each session holds
    ``charge_power_kw`` for a uniform-random constant phase and then ramps
    linearly to zero over ``taper_duration_s``. Sessions superpose.
    """

    days: int = 1
    dt: float = 1.0
    seed: int = 7
    arrival_rate_per_h: float = 3.0
    charge_power_kw: float = 11.0
    constant_s_lo: float = 600.0
    constant_s_hi: float = 2400.0
    taper_duration_s: float = 600.0

    def __post_init__(self):
        freeze_numbers(self, InvalidSpecError, self._check)

    def _check(self):
        _check_common(self.days, self.dt, self.seed, "ev_park")
        if not 0.0 <= self.arrival_rate_per_h < math.inf:
            raise InvalidSpecError("ev_park: arrival_rate_per_h must be finite and >= 0")
        span_h = _n_samples(self.days, self.dt) * self.dt / 3600.0
        if self.arrival_rate_per_h * span_h > MAX_SESSIONS:
            raise InvalidSpecError(
                f"ev_park: {self.arrival_rate_per_h:g} arrivals/h over {span_h:g} h "
                f"expect more than {MAX_SESSIONS} sessions"
            )
        if not self.charge_power_kw > 0.0:
            raise InvalidSpecError("ev_park: charge_power_kw must be > 0")
        if not 0.0 < self.constant_s_lo <= self.constant_s_hi < math.inf:
            raise InvalidSpecError("ev_park: constant phase bounds must satisfy 0 < lo <= hi < inf")
        if not 0.0 <= self.taper_duration_s < math.inf:
            raise InvalidSpecError("ev_park: taper_duration_s must be finite and >= 0")
        # a taper longer than the longest profile never ends inside one
        if self.taper_duration_s / self.dt > MAX_SAMPLES:
            raise InvalidSpecError(
                f"ev_park: taper_duration_s={self.taper_duration_s:g} at dt={self.dt:g} s "
                f"exceeds {MAX_SAMPLES} samples"
            )


def _taper_head(power_kw: float, taper_steps: int, k: int) -> np.ndarray:
    """The first ``k`` points of ``np.linspace(power_kw, 0.0, taper_steps + 2)[1:-1]``.

    Bit for bit, without building the rest: ``linspace`` computes point
    ``i`` as ``i * step + start`` with ``step = (stop - start) / div``, or as
    ``i / div * (stop - start)`` plus ``start`` when that step underflows
    to zero; ``k <= taper_steps``, so the exact ``stop`` it writes last is
    never among them.
    """
    div = taper_steps + 1
    delta = 0.0 - power_kw
    i = np.arange(1, k + 1, dtype=np.float64)
    step = delta / div
    return (i * step if step != 0.0 else i / div * delta) + power_kw


@np.errstate(over="ignore", invalid="ignore")  # see the module docstring
def gen_ev_park(spec: EvParkSpec) -> tuple[LoadProfile, list[dict]]:
    """Generate the superposed charging-session shape.

    The event log holds one ``session`` entry per arrival inside the
    horizon, with start step and phase lengths before horizon clipping.
    """
    rng = np.random.default_rng(spec.seed)
    n = _n_samples(spec.days, spec.dt)
    span_s = n * spec.dt
    samples = np.zeros(n)
    events = []
    if spec.arrival_rate_per_h > 0.0:
        mean_gap_s = 3600.0 / spec.arrival_rate_per_h
        t_s = rng.exponential(mean_gap_s)
        while t_s < span_s:
            const_s = rng.uniform(spec.constant_s_lo, spec.constant_s_hi)
            start = int(round(t_s / spec.dt))
            const_steps = max(1, int(round(const_s / spec.dt)))
            taper_steps = int(round(spec.taper_duration_s / spec.dt))
            if start < n:
                end_c = min(start + const_steps, n)
                samples[start:end_c] += spec.charge_power_kw
                end_t = min(start + const_steps + taper_steps, n)
                samples[end_c:end_t] += _taper_head(
                    spec.charge_power_kw, taper_steps, max(0, end_t - end_c))
                events.append({
                    "kind": "session",
                    "start_step": start,
                    "constant_steps": const_steps,
                    "taper_steps": taper_steps,
                    "power_kw": spec.charge_power_kw,
                })
            t_s += rng.exponential(mean_gap_s)
    profile = LoadProfile(
        site_id=f"synthetic-ev-park-{spec.seed}", t0=0.0, dt=spec.dt, samples=samples,
    )
    return profile, events


SynthSpec = Union[MunicipalSpec, MachineSpec, EvParkSpec]


def generate(spec: SynthSpec) -> tuple[LoadProfile, list[dict]]:
    """Dispatch to the generator matching the spec type."""
    if isinstance(spec, MunicipalSpec):
        return gen_municipal(spec)
    if isinstance(spec, MachineSpec):
        return gen_machine(spec)
    if isinstance(spec, EvParkSpec):
        return gen_ev_park(spec)
    raise InvalidSpecError(f"unknown spec type {type(spec).__name__}")
