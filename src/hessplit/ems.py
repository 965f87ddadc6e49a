"""Threshold-based energy management: flags, power split, sweeps, outages.

The rule is deliberately simple. Load above ``sc_threshold`` of the profile
peak is supercapacitor (SC) territory; the flow battery (VRFB) serves the
band between the recharge threshold and the SC band; the grid is the slack
that absorbs whatever is left — including negative residuals when the
battery has to ramp down slower than the load drops.

The exact floating point expressions used per step are documented on
:func:`dispatch` and are part of the behavioral contract. Dispatch computes
in numpy whatever does not depend on the state: the load in kW, the flags,
the steep-derivative mask, each step's mode (recharge, engaged or idle) and,
after the loop, the grid slack ``(p_load - p_sc) - p_vrfb``. numpy float64
``*``, ``-``, ``>`` and ``<`` round and compare exactly as Python floats do,
so these match the per-step expressions bit for bit. The state of charge
and the VRFB ramp are a genuine recurrence, so they stay a scalar loop over
Python floats, with each ``min``/``max`` written as a conditional that keeps
the builtin's tie rule. Each step's four outputs go straight into float64
arrays allocated once per run (a sweep shares one set among its thresholds),
so no Python object outlives its step.

One fixed point of that recurrence is skipped. Once the VRFB is empty and at
rest, neither device serves until a step that can move the state, and the
grid carries the load. :func:`_fill_battery_empty` writes such a run in numpy
windows as what the contract's step reduces to there (its docstring gives
the argument), byte-identical to the scalar steps.

A sweep's next point starts from the previous point's trace in the shared
arrays and simulates only the steps a higher threshold can change, plus
those until the two states meet again (:func:`_run` gives the argument).
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from collections import deque
from dataclasses import dataclass, fields, replace
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import IO, Optional, Sequence, Union

import numpy as np

from .errors import (
    IncompatibleResolutionError,
    InvalidConfigError,
    ResolutionTooCoarseError,
    WindowOutOfRangeError,
)
from .metrics import NormalizedProfile, base_load_estimate
from .profiles import SC_MAX_DT_S, UPS_MAX_DT_S, LoadProfile, freeze_arrays, write_csv
from .transient import derivative


class EngageMode(Enum):
    """When the supercapacitor participates in a step."""

    THRESHOLD_ONLY = "ThresholdOnly"
    THRESHOLD_OR_DERIVATIVE = "ThresholdOrDerivative"


class Limiting(Enum):
    """Which constraint breaks an outage scenario, if any."""

    NONE = "None"
    POWER = "Power"
    ENERGY = "Energy"


def _require_numbers(obj) -> None:
    """Reject a config field that does not hold a real number.

    Enum fields are skipped, and a field whose default is ``None`` may hold
    ``None``. Bools and ints beyond float range are rejected.
    """
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(f.default, Enum) or (v is None and f.default is None):
            continue
        if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                or isinstance(v, int) and abs(v) > sys.float_info.max):
            raise InvalidConfigError(f"{f.name} must be a number, got {v!r}")


@dataclass(frozen=True)
class EmsConfig:
    """Thresholds steering the power split.

    ``recharge_threshold`` may be ``None``, in which case dispatch derives it
    from the profile's base-load estimate (and falls back to 0, disabling
    recharge, if that estimate is not below ``sc_threshold``).
    """

    sc_threshold: float = 0.8
    derivative_threshold: float = 0.5
    recharge_threshold: Optional[float] = None
    sc_engage_mode: EngageMode = EngageMode.THRESHOLD_OR_DERIVATIVE

    def __post_init__(self):
        _require_numbers(self)
        if not 0.0 < self.sc_threshold < 1.0:
            raise InvalidConfigError(f"sc_threshold must be in (0, 1), got {self.sc_threshold}")
        if not 0.0 < self.derivative_threshold <= 1.0:
            raise InvalidConfigError(
                f"derivative_threshold must be in (0, 1], got {self.derivative_threshold}"
            )
        if self.recharge_threshold is not None and not (
            0.0 <= self.recharge_threshold < self.sc_threshold
        ):
            raise InvalidConfigError(
                f"recharge_threshold must satisfy 0 <= r < sc_threshold, "
                f"got {self.recharge_threshold} vs {self.sc_threshold}"
            )


@dataclass(frozen=True)
class DeviceParams:
    """Ratings and state bounds of the two storage devices.

    Defaults mirror a small demonstrator: a 5 kW / 10 kWh flow battery next
    to a 5 kW / 0.05 kWh supercapacitor. The battery ramp default reaches
    full power in two seconds; the supercapacitor is treated as ramp-free.
    Recharge powers default to the device power rating. Efficiencies are
    hooks and default to lossless.
    """

    vrfb_power_kw: float = 5.0
    vrfb_energy_kwh: float = 10.0
    vrfb_ramp_kw_per_s: float = 2.5
    sc_power_kw: float = 5.0
    sc_energy_kwh: float = 0.05
    sc_initial_soc_fraction: float = 1.0
    vrfb_initial_soc_fraction: float = 1.0
    sc_recharge_power_kw: Optional[float] = None
    vrfb_recharge_power_kw: Optional[float] = None
    sc_efficiency: float = 1.0
    vrfb_efficiency: float = 1.0

    def __post_init__(self):
        _require_numbers(self)
        for name in ("vrfb_power_kw", "vrfb_energy_kwh", "vrfb_ramp_kw_per_s",
                     "sc_power_kw", "sc_energy_kwh"):
            v = getattr(self, name)
            if not v > 0.0:
                raise InvalidConfigError(f"{name} must be > 0, got {v}")
        for name in ("sc_initial_soc_fraction", "vrfb_initial_soc_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidConfigError(f"{name} must be in [0, 1], got {v}")
        for name in ("sc_recharge_power_kw", "vrfb_recharge_power_kw"):
            v = getattr(self, name)
            if v is not None and not v >= 0.0:
                raise InvalidConfigError(f"{name} must be >= 0, got {v}")
        for name in ("sc_efficiency", "vrfb_efficiency"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise InvalidConfigError(f"{name} must be in (0, 1], got {v}")

    @property
    def sc_recharge_kw(self) -> float:
        return self.sc_power_kw if self.sc_recharge_power_kw is None else self.sc_recharge_power_kw

    @property
    def vrfb_recharge_kw(self) -> float:
        return (
            self.vrfb_power_kw
            if self.vrfb_recharge_power_kw is None
            else self.vrfb_recharge_power_kw
        )


@dataclass(frozen=True, eq=False)
class FlagSeries:
    """Per-step component flags; exactly one of the two is set at each step."""

    flag_sc: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, bool, "flag_sc")

    @property
    def flag_vrfb(self) -> np.ndarray:
        """``~flag_sc``, read-only: the battery's steps."""
        vrfb = ~self.flag_sc
        vrfb.flags.writeable = False
        return vrfb


def compute_flags(norm: NormalizedProfile, cfg: EmsConfig) -> FlagSeries:
    """Evaluate the component flags: SC above the threshold, VRFB at or below.

    The comparison is strict (``pu > sc_threshold``), so a sample exactly on
    the threshold belongs to the battery. The two flags partition every step.
    """
    return FlagSeries(flag_sc=norm.pu > cfg.sc_threshold)


@dataclass(frozen=True)
class UtilizationStats:
    """Summary of one dispatch run."""

    sc_engaged_fraction: float
    sc_energy_share: float
    vrfb_energy_share: float
    grid_peak_kw: float
    grid_peak_reduction_fraction: float


@dataclass(frozen=True, eq=False)
class DispatchResult:
    """Per-step traces of a dispatch run plus its summary.

    Device powers are positive when discharging and negative when
    recharging; ``p_grid_kw`` may go negative when the battery must ramp
    down slower than the load drops. SoC traces hold the end-of-step state.
    """

    dt: float
    base_power_kw: float
    p_load_kw: np.ndarray
    p_grid_kw: np.ndarray
    p_sc_kw: np.ndarray
    p_vrfb_kw: np.ndarray
    soc_sc_kwh: np.ndarray
    soc_vrfb_kwh: np.ndarray
    flag_sc: np.ndarray
    engaged_sc: np.ndarray
    recharge_threshold: float
    stats: UtilizationStats

    def __post_init__(self):
        freeze_arrays(self, np.float64, "p_load_kw", "p_grid_kw", "p_sc_kw", "p_vrfb_kw",
                      "soc_sc_kwh", "soc_vrfb_kwh")
        freeze_arrays(self, bool, "flag_sc", "engaged_sc")

    @property
    def n_steps(self) -> int:
        return int(self.p_load_kw.size)

    def times(self) -> np.ndarray:
        """Seconds from the start of the run, one entry per step."""
        return np.arange(self.n_steps) * self.dt


def _sustainable_power(u: float, q: float) -> float:
    """Largest ``p`` whose wind-down sum ``need`` (see :func:`dispatch`) is ``<= u``.

    Evaluated exactly as ``(u + q * (m * (m + 1) / 2.0)) / (m + 1)`` for the
    largest integer ``m`` with ``q * ((m + 1) * (m + 2) / 2.0) <= u``
    (contractual expression: reimplementations must round identically).
    Infinite ``u`` means no energy limit; infinite ``q`` means the whole
    charge is usable in one step.
    """
    if math.isinf(u):
        return math.inf
    if u <= 0.0:
        return 0.0
    if math.isinf(q):
        return u
    # The sqrt estimate is within a few steps of m while m < 2**53, and
    # dispatch never gets near that: |p| moves by at most q per step, so m
    # stays below about twice the step count.
    m = int(math.sqrt(2.0 * u / q))
    while m > 0 and q * (m * (m + 1) / 2.0) > u:
        m -= 1
    while q * ((m + 1) * (m + 2) / 2.0) <= u:
        m += 1
    return (u + q * (m * (m + 1) / 2.0)) / (m + 1)


def resolve_recharge_threshold(norm: NormalizedProfile, cfg: EmsConfig) -> float:
    """The recharge threshold actually used by dispatch.

    Explicit config wins; otherwise the base-load estimate is used, unless
    that estimate is not strictly below ``sc_threshold`` (degenerate flat-top
    profiles), in which case recharging is disabled via 0.
    """
    base = None if cfg.recharge_threshold is not None else base_load_estimate(norm)
    return _recharge_threshold(cfg, base)


def _recharge_threshold(cfg: EmsConfig, base: Optional[float]) -> float:
    """:func:`resolve_recharge_threshold` given the base-load estimate ``base``.

    ``base`` is None when the config names the threshold. The estimate does
    not depend on ``sc_threshold``, so a sweep computes it once.
    """
    if cfg.recharge_threshold is not None:
        return cfg.recharge_threshold
    return base if base < cfg.sc_threshold else 0.0


def dispatch(
    norm: NormalizedProfile,
    cfg: EmsConfig = EmsConfig(),
    dev: DeviceParams = DeviceParams(),
) -> DispatchResult:
    """Simulate the threshold split of a load between SC, VRFB, and grid.

    Per step ``t`` (``pu`` the per-unit series, ``P`` the profile peak in kW,
    ``d[t]`` the normalized forward derivative, 0 at the final step):

    1. The SC engages iff ``pu[t] > sc_threshold`` or, in
       ``THRESHOLD_OR_DERIVATIVE`` mode, ``|d[t]| > derivative_threshold``.
    2. Recharge steps are those with ``pu[t] < r`` (the resolved recharge
       threshold); then the SC charges first and the VRFB only once the SC
       is already full at the step start.
    3. When engaged, the SC serves the load portion above ``sc_threshold*P``,
       capped by its power rating and remaining charge. It has no ramp limit.
    4. The VRFB serves what remains above ``r*P``, capped by power, by its
       per-step ramp ``q = ramp*dt``, and by a wind-down energy reserve: it
       never carries more power than it could ramp back to zero on its
       remaining charge. The ramp bound also binds downward, so on a sudden
       load drop the battery keeps delivering and the grid absorbs the
       surplus (negative grid power).
    5. The grid is the slack: ``p_grid = p_load - p_sc - p_vrfb`` exactly.
    6. End-of-step state: ``soc = clamp(soc - delta, 0, capacity)``.

    The exact float expressions, in evaluation order (these, not prose, are
    the contract)::

        step_kwh = dt / 3600.0
        q        = vrfb_ramp_kw_per_s * dt
        thr_kw   = sc_threshold * P
        rth_kw   = r * P
        p_load   = pu[t] * P

        # SC (eff = sc_efficiency)
        charge:    p_sc = -min(sc_recharge_kw, sc_power_kw,
                               (sc_energy_kwh - soc_sc) / step_kwh / eff)
        discharge: p_sc = min(max(p_load - thr_kw, 0.0), sc_power_kw,
                              soc_sc / step_kwh * eff)

        # VRFB (eff = vrfb_efficiency)
        charge target:    -min(vrfb_recharge_kw,
                               (vrfb_energy_kwh - soc_v) / step_kwh / eff)
                          (0.0 unless soc_sc >= sc_energy_kwh at step start)
        discharge target: max(p_load - max(p_sc, 0.0) - rth_kw, 0.0)
        p = min(target, vrfb_power_kw); p = max(p, -vrfb_power_kw)
        p = min(p, prev + q);           p = max(p, prev - q)
        if p > 0.0:
            u = soc_v / step_kwh * eff
            # need = sum(max(p - k*q, 0) for k >= 0): carry p, then ramp to 0
            if q == inf: need = p
            else:        m = int(p // q); need = (m + 1) * p - q * (m * (m + 1) / 2.0)
            if need > u:
                p = _sustainable_power(u, q); p = max(p, prev - q)

        p_grid = p_load - p_sc - p
        delta  = (p / eff if p >= 0.0 else p * eff) * step_kwh   # per device
        soc    = min(max(soc - delta, 0.0), capacity)

    Raises
    ------
    IncompatibleResolutionError
        If the profile interval exceeds the supercapacitor limit (10 s);
        both engage modes place load on the SC.
    """
    load, steep, base = _prep(norm, cfg)
    out = np.empty((4, norm.n_samples))
    rth, flag_sc, engaged = _run(norm, cfg, dev, load, steep, base, out)
    grid, stats = _summarize(load, engaged, out, norm.base_power_kw)
    return DispatchResult(
        dt=norm.dt, base_power_kw=norm.base_power_kw, p_load_kw=load, p_grid_kw=grid,
        p_sc_kw=out[0], p_vrfb_kw=out[1], soc_sc_kwh=out[2], soc_vrfb_kwh=out[3],
        flag_sc=flag_sc, engaged_sc=engaged, recharge_threshold=rth, stats=stats,
    )


def _prep(
    norm: NormalizedProfile, cfg: EmsConfig
) -> tuple[np.ndarray, Optional[np.ndarray], Optional[float]]:
    """The inputs of a dispatch that no threshold changes.

    Returns the load ``pu * P`` in kW; in ``THRESHOLD_OR_DERIVATIVE`` mode
    the steep-derivative mask ``|d[t]| > derivative_threshold`` (``False``
    at the final step), else ``None``; and the base-load estimate, or
    ``None`` when the config names the recharge threshold.
    """
    if norm.dt > SC_MAX_DT_S:
        raise IncompatibleResolutionError(
            f"dt={norm.dt:g} s exceeds {SC_MAX_DT_S:g} s; supercapacitor dispatch "
            "needs finer sampling"
        )
    load = norm.pu * norm.base_power_kw
    steep = None
    if cfg.sc_engage_mode is EngageMode.THRESHOLD_OR_DERIVATIVE:
        steep = np.zeros(norm.n_samples, dtype=bool)
        steep[:-1] = np.abs(derivative(norm).normalized) > cfg.derivative_threshold
    base = None if cfg.recharge_threshold is not None else base_load_estimate(norm)
    return load, steep, base


# Per-step modes of the dispatch loop (idle is 0); recharging wins over engaging.
_ENGAGED, _RECHARGE = 1, 2


def _run(
    norm: NormalizedProfile, cfg: EmsConfig, dev: DeviceParams, load: np.ndarray,
    steep: Optional[np.ndarray], base: Optional[float], out: np.ndarray,
    prev_thr_kw: Optional[float] = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """One dispatch on inputs from :func:`_prep` (the ``dispatch`` contract).

    Writes ``p_sc``, ``p_vrfb``, ``soc_sc`` and ``soc_vrfb`` of every step
    into the rows of ``out``, a float64 array of shape ``(4, n)``, and
    returns the recharge threshold, the SC flag and the engaged mask. The
    loop carries only the SoC and ramp recurrence. It stores step ``i`` by
    item assignment on a memoryview of each row, which keeps a float's
    double, signed zeros too, and converts an int as ``float()`` does. Each
    builtin ``min(a, b)`` of the contract is written ``b if b < a else a``
    and each ``max(a, b)`` as ``b if b > a else a``: the first argument wins ties.

    Battery-empty runs are handed to :func:`_fill_battery_empty`. The test
    for one sits where the energy reserve binds, which every step of an
    empty, resting battery with a positive VRFB target reaches, so other
    steps pay nothing for it. The SC's end-of-step SoC is therefore settled
    before the VRFB's part of the step. No try is made before ``retry``, the
    step that ended the last run tried, and none if ``thr_kw`` underflows to
    0.0: an engaged -0.0 load then gives ``p_sc = -0.0``, which the fill omits.

    ``prev_thr_kw`` says that ``out`` holds the run at a threshold ``a <=
    sc_threshold`` with ``a * P == prev_thr_kw`` and a recharge threshold of
    the same bits. Both runs take the same step from the same state, except
    on ``differs``: the steps that do not recharge and have ``p_load >=
    a * P``. The step reads the threshold only in the flag ``pu > thr`` and,
    if engaged, in ``p_load - thr_kw``. Flags differ only where ``pu > a``,
    so where ``p_load >= a * P``: multiplying by ``P > 0`` keeps the order.
    An engaged ``p_load < a * P`` gives ``p_load - thr_kw < 0`` for both (a
    float ``x - y`` is never zero when ``x < y``), so +0.0 SC excesses, also
    if ``a * P`` underflows to 0.0. So the loop starts at the first step of
    ``differs``, from out's state before it. Where it meets out's end state
    again (checked at the battery-empty test only), it keeps out's steps up
    to the next step of ``differs``, unless the fill has written past that.
    """
    rth = _recharge_threshold(cfg, base)
    step_kwh = norm.dt / 3600.0
    q = dev.vrfb_ramp_kw_per_s * norm.dt
    thr_kw = cfg.sc_threshold * norm.base_power_kw
    rth_kw = rth * norm.base_power_kw

    flag_sc = compute_flags(norm, cfg).flag_sc
    engaged = flag_sc if steep is None else flag_sc | steep
    mode = engaged.astype(np.int8)  # _ENGAGED where engaged, else idle
    mode[norm.pu < rth] = _RECHARGE

    cap_sc = dev.sc_energy_kwh
    cap_v = dev.vrfb_energy_kwh
    eff_sc = dev.sc_efficiency
    eff_v = dev.vrfb_efficiency
    pow_sc = dev.sc_power_kw
    pow_v = dev.vrfb_power_kw
    neg_pow_v = -pow_v
    r_sc = min(dev.sc_recharge_kw, pow_sc)  # the first two terms of the charge min
    r_v = dev.vrfb_recharge_kw
    soc_sc = dev.sc_initial_soc_fraction * cap_sc
    soc_v = dev.vrfb_initial_soc_fraction * cap_v
    prev_v = 0.0

    w_sc, w_v, w_soc_sc, w_soc_v = map(memoryview, out)
    start, differs = 0, None
    if prev_thr_kw is not None:
        differs = ((mode != _RECHARGE) & (load >= prev_thr_kw)).tobytes()
        start = differs.find(1) if 1 in differs else mode.size
        if start:
            soc_sc, soc_v, prev_v = w_soc_sc[start - 1], w_soc_v[start - 1], w_v[start - 1]
    retry = 0 if thr_kw > 0.0 else mode.size  # no battery-empty run is tried before this step
    q_inf = math.isinf(q)
    steps = enumerate(zip(memoryview(load)[start:], mode.tobytes()[start:]), start)
    for i, (p_load, m) in steps:
        if m == _RECHARGE:
            room = (cap_sc - soc_sc) / step_kwh / eff_sc
            p_sc = -(room if room < r_sc else r_sc)
            if soc_sc >= cap_sc:
                room = (cap_v - soc_v) / step_kwh / eff_v
                target = -(room if room < r_v else r_v)
            else:
                target = 0.0
        else:
            if m == _ENGAGED:
                p_sc = p_load - thr_kw
                if 0.0 > p_sc:
                    p_sc = 0.0
                if pow_sc < p_sc:
                    p_sc = pow_sc
                avail = soc_sc / step_kwh * eff_sc
                if avail < p_sc:
                    p_sc = avail
            else:
                p_sc = 0.0
            target = p_load - (0.0 if 0.0 > p_sc else p_sc) - rth_kw
            if 0.0 > target:
                target = 0.0
        # nothing below reads the start-of-step soc_sc
        soc = soc_sc - (p_sc / eff_sc if p_sc >= 0.0 else p_sc * eff_sc) * step_kwh
        if 0.0 > soc:
            soc = 0.0
        soc_sc = cap_sc if cap_sc < soc else soc

        p_v = pow_v if pow_v < target else target
        if neg_pow_v > p_v:
            p_v = neg_pow_v
        hi = prev_v + q
        if hi < p_v:
            p_v = hi
        lo = prev_v - q
        if lo > p_v:
            p_v = lo
        if p_v > 0.0:
            u = soc_v / step_kwh * eff_v
            if q_inf:  # the contract's need, for p_v > 0
                need = p_v
            else:
                k = int(p_v // q)
                need = (k + 1) * p_v - q * (k * (k + 1) / 2.0)
            if need > u:
                if u <= 0.0 and soc_v == 0.0 and prev_v == 0.0 and i >= retry:
                    # Empty and at rest: this step ends with p_v = 0.0 and
                    # soc_v as it is, and the run after it is filled in numpy.
                    synced = (differs is not None and out[1:, i].tobytes()
                              == np.array((0.0, soc_sc, soc_v)).tobytes())
                    w_sc[i], w_v[i], w_soc_sc[i], w_soc_v[i] = p_sc, 0.0, soc_sc, soc_v
                    resume, retry = _fill_battery_empty(
                        load, mode, rth_kw, out, i + 1, soc_sc, soc_v)
                    if synced:
                        k = differs.find(1, i + 1)
                        if k < 0:
                            break
                        if k >= resume:
                            resume, soc_sc, soc_v = k, w_soc_sc[k - 1], w_soc_v[k - 1]
                    if resume > i + 1:
                        deque(islice(steps, resume - i - 1), maxlen=0)
                    prev_v = w_v[resume - 1]
                    continue
                p_v = _sustainable_power(u, q)
                if lo > p_v:
                    p_v = lo

        soc = soc_v - (p_v / eff_v if p_v >= 0.0 else p_v * eff_v) * step_kwh
        if 0.0 > soc:
            soc = 0.0
        soc_v = cap_v if cap_v < soc else soc

        w_sc[i] = p_sc
        w_v[i] = p_v
        w_soc_sc[i] = soc_sc
        w_soc_v[i] = soc_v
        prev_v = p_v
    return rth, flag_sc, engaged


def _summarize(
    load: np.ndarray, engaged: np.ndarray, out: np.ndarray, p_max: float
) -> tuple[np.ndarray, UtilizationStats]:
    """The grid slack ``(p_load - p_sc) - p_vrfb`` of a :func:`_run`, and its summary."""
    sc, vrfb = out[0], out[1]
    grid = (load - sc) - vrfb
    load_energy = float(load.sum())
    grid_peak = float(grid.max())
    return grid, UtilizationStats(
        sc_engaged_fraction=float(np.mean(engaged)),
        sc_energy_share=float(np.clip(sc, 0.0, None).sum() / load_energy),
        vrfb_energy_share=float(np.clip(vrfb, 0.0, None).sum() / load_energy),
        grid_peak_kw=grid_peak,
        grid_peak_reduction_fraction=(p_max - grid_peak) / p_max,
    )


#: Steps per numpy window when :func:`_fill_battery_empty` fills a run.
_FILL_WINDOW = 4096
#: Shortest battery-empty run filled in numpy; shorter ones stay scalar.
_FILL_MIN_RUN = 16
# The steps that can move the state of an empty, resting VRFB: any non-idle
# step, or a recharge step. They are searched in the int8 mode array's own
# bytes: over a short run a regex search costs a fraction of a numpy compare
# and argmax, which keeps a refused try cheap.
_ACTIVE_STEP = re.compile(rb"[^\x00]")
_RECHARGE_STEP = re.compile(re.escape(bytes([_RECHARGE])))


def _fill_battery_empty(
    load: np.ndarray, mode: np.ndarray, rth_kw: float, out: np.ndarray, i: int,
    soc_sc: float, soc_v: float,
) -> tuple[int, int]:
    """Write the run of steps from ``i`` that leave an empty, resting VRFB as it is.

    The state at step ``i`` must be ``soc_v == 0.0`` and ``prev_v == 0.0``,
    with ``q > 0`` and ``thr_kw > 0``. Then only a recharge step can move the
    battery, and only a recharge step or, while the SC holds charge, an
    engaged one can move the SC. Up to the first such step, the contract's
    step reduces to zeros. ``p_sc`` is +0.0: an idle step sets it, and on an
    engaged one ``avail = 0.0`` takes ``max(p_load - thr_kw, 0.0)``, never
    -0.0, to +0.0. The VRFB target is then ``max(p_load - rth_kw, 0.0)``, and
    ``prev_v`` is a signed zero, so the ramp bounds are ``q`` and ``-q``: no
    clamp moves a signed-zero target, and a positive one meets the reserve
    with ``u = 0.0`` and becomes +0.0. ``p_vrfb`` is thus ``p_load - rth_kw``
    where that is a signed zero (a -0.0 load with ``rth_kw = +0.0`` gives
    -0.0), else +0.0. These powers hold both SoCs, but a SoC of -0.0 would
    turn into 0.0 on a -0.0 power step: such a VRFB fills nothing, and such
    an SC counts as charged.

    The run is searched and written into ``out`` as :func:`_run` does,
    ``_FILL_WINDOW`` steps at a time, if it is at least ``_FILL_MIN_RUN``
    long. Returns where the loop resumes and the step that ends the run (or
    ``len(mode)``): a try before it would find the same run, or a shorter one.
    """
    if math.copysign(1.0, soc_v) < 0.0:
        return i, i
    sc_empty = math.copysign(1.0, soc_sc) > 0.0 and soc_sc == 0.0
    moving = _RECHARGE_STEP if sc_empty else _ACTIVE_STEP
    start, n = i, mode.size
    while i < n:
        hit = moving.search(mode, i, i + _FILL_WINDOW)
        end = hit.start() if hit else min(i + _FILL_WINDOW, n)
        if end - start < _FILL_MIN_RUN:
            return start, end
        t = load[i:end] - rth_kw
        out[0, i:end] = 0.0
        out[1, i:end] = np.where(t == 0.0, t, 0.0)
        out[2:, i:end] = ((soc_sc,), (soc_v,))
        i = end
        if hit:
            break
    return i, i


def threshold_sweep(
    norm: NormalizedProfile,
    thresholds: Sequence[float],
    cfg: EmsConfig = EmsConfig(),
    dev: DeviceParams = DeviceParams(),
) -> list[tuple[float, UtilizationStats]]:
    """Dispatch once per SC threshold and tabulate the utilization numbers.

    Thresholds must each lie in (0, 1) and be given in ascending order;
    rows come back in the same order. An empty list yields an empty table.
    Each row equals ``dispatch(norm, replace(cfg, sc_threshold=t), dev).stats``.
    The load in kW, the steep-derivative mask and the base-load estimate do
    not depend on the threshold, so they are computed once for the whole
    sweep; the flags, the recharge threshold and the loop run once per
    threshold. All runs share one set of output arrays, and no
    :class:`DispatchResult` is built. A run whose recharge threshold has the
    previous run's bits simulates only the steps where the two thresholds
    can differ (see :func:`_run`), so a sweep costs more the more of the
    profile lies above its lower thresholds.
    """
    prev = 0.0
    for thr in thresholds:
        if not 0.0 < thr < 1.0:
            raise InvalidConfigError(f"sweep threshold must be in (0, 1), got {thr}")
        if thr < prev:
            raise InvalidConfigError("sweep thresholds must be ascending")
        prev = thr
    if len(thresholds) == 0:
        return []
    load, steep, base = _prep(norm, cfg)
    out = np.empty((4, norm.n_samples))
    rows, prev_thr_kw, prev_rth = [], None, None
    for thr in thresholds:
        thr_cfg = replace(cfg, sc_threshold=thr)
        rth = float(_recharge_threshold(thr_cfg, base)).hex()  # tells -0.0 from 0.0
        engaged = _run(norm, thr_cfg, dev, load, steep, base, out,
                       prev_thr_kw if rth == prev_rth else None)[2]
        rows.append((float(thr), _summarize(load, engaged, out, norm.base_power_kw)[1]))
        prev_thr_kw, prev_rth = thr * norm.base_power_kw, rth
    return rows


@dataclass(frozen=True)
class UpsScenario:
    """An island-mode exercise: the storage alone covers one outage window."""

    hess_demand: LoadProfile
    feasible: bool
    limiting: Limiting
    window_peak_kw: float
    window_energy_kwh: float
    power_cap_kw: float
    energy_available_kwh: float


def make_ups_scenario(
    profile: LoadProfile,
    outage_start_s: float,
    outage_duration_s: float,
    dev: DeviceParams = DeviceParams(),
) -> UpsScenario:
    """Zero the demand outside an outage window and check coverage feasibility.

    Inside the window the storage must carry the full load, so feasibility
    requires the window peak to stay within the combined power rating and
    the window energy within the stored energy at the initial SoC. When both
    constraints fail, the power violation is reported as limiting.

    Raises
    ------
    ResolutionTooCoarseError
        If ``profile.dt >= 30 s`` (peaks inside short outages average away).
    WindowOutOfRangeError
        If the window does not lie within the profile span.
    """
    if profile.dt >= UPS_MAX_DT_S:
        raise ResolutionTooCoarseError(
            f"dt={profile.dt:g} s too coarse for outage scenarios (need < {UPS_MAX_DT_S:g} s)"
        )
    if not outage_duration_s > 0.0:
        raise WindowOutOfRangeError(f"outage duration must be > 0, got {outage_duration_s}")
    span = profile.duration_s
    if not (outage_start_s >= 0.0 and outage_start_s + outage_duration_s <= span):
        raise WindowOutOfRangeError(
            f"window [{outage_start_s}, {outage_start_s + outage_duration_s}) s "
            f"outside profile span [0, {span}) s"
        )

    offsets = np.arange(profile.n_samples) * profile.dt
    in_window = (offsets >= outage_start_s) & (offsets < outage_start_s + outage_duration_s)
    demand = np.where(in_window, profile.samples, 0.0)

    window_peak = float(profile.samples[in_window].max()) if in_window.any() else 0.0
    window_energy = float(profile.samples[in_window].sum() * profile.dt / 3600.0)
    power_cap = dev.vrfb_power_kw + dev.sc_power_kw
    energy_avail = (
        dev.vrfb_energy_kwh * dev.vrfb_initial_soc_fraction
        + dev.sc_energy_kwh * dev.sc_initial_soc_fraction
    )
    if window_peak > power_cap:
        limiting = Limiting.POWER
    elif window_energy > energy_avail:
        limiting = Limiting.ENERGY
    else:
        limiting = Limiting.NONE

    return UpsScenario(
        hess_demand=LoadProfile(
            site_id=f"{profile.site_id}:ups", category_hint=profile.category_hint,
            t0=profile.t0, dt=profile.dt, samples=demand,
        ),
        feasible=limiting is Limiting.NONE,
        limiting=limiting,
        window_peak_kw=window_peak,
        window_energy_kwh=window_energy,
        power_cap_kw=power_cap,
        energy_available_kwh=energy_avail,
    )


def write_dispatch_csv(result: DispatchResult, target: Union[str, Path, IO]) -> None:
    """Write the per-step trace as CSV.

    Columns: ``t,p_load_kw,p_grid_kw,p_sc_kw,p_vrfb_kw,soc_sc_kwh,
    soc_vrfb_kwh,flag_sc`` with ``t`` in seconds from the run start.
    """
    r = result
    write_csv(target, ["t", "p_load_kw", "p_grid_kw", "p_sc_kw", "p_vrfb_kw",
                       "soc_sc_kwh", "soc_vrfb_kwh", "flag_sc"], [
        r.times(), r.p_load_kw, r.p_grid_kw, r.p_sc_kw, r.p_vrfb_kw,
        r.soc_sc_kwh, r.soc_vrfb_kwh, r.flag_sc.astype(np.int8),
    ])


def write_sweep_csv(
    rows: Sequence[tuple[float, UtilizationStats]], target: Union[str, Path, IO]
) -> None:
    """Write a threshold sweep table as CSV.

    Columns: ``threshold,sc_engaged_fraction,sc_energy_share,
    vrfb_energy_share,grid_peak_kw``.
    """
    table = np.array([
        [thr, stats.sc_engaged_fraction, stats.sc_energy_share,
         stats.vrfb_energy_share, stats.grid_peak_kw]
        for thr, stats in rows
    ], dtype=np.float64).reshape(-1, 5)  # an empty sweep still has five columns
    write_csv(target, ["threshold", "sc_engaged_fraction", "sc_energy_share",
                       "vrfb_energy_share", "grid_peak_kw"], table.T)
