"""Threshold-based energy management: power split, sweeps, outages.

The rule is deliberately simple. Load above ``sc_threshold`` of the profile
peak is supercapacitor (SC) territory; the flow battery (VRFB) serves the
band between the recharge threshold and the SC band; the grid is the slack
that absorbs whatever is left — including negative residuals when the
battery has to ramp down slower than the load drops.

The exact floating point expressions used per step are documented on
:func:`dispatch` and are part of the behavioral contract. Dispatch computes
in numpy whatever does not depend on the state: the load in kW, the SC flag,
the steep-derivative mask, each step's mode (recharge, engaged or idle) and,
after the loop, the grid slack ``(p_load - p_sc) - p_vrfb``. numpy float64
``*``, ``-``, ``>`` and ``<`` round and compare exactly as Python floats do,
so these match the per-step expressions bit for bit. The state of charge
and the VRFB ramp are a genuine recurrence, so they stay a scalar loop over
Python floats, with each ``min``/``max`` written as a conditional that keeps
the builtin's tie rule. Each step's four outputs go straight into float64
arrays allocated once per run (a sweep shares one set among its thresholds),
so no Python object outlives its step.

Two kinds of runs skip the scalar loop, each written in place, byte-identical
to the scalar steps, by a fill whose docstring gives the argument:

* the state is held while the load varies. Once the VRFB is empty and at
  rest, neither device serves until a step that can move the state, and the
  grid carries the load. :func:`_fill_battery_empty` writes such a run as
  what the contract's step reduces to there (the municipal archetype).
* the load is held while the state moves. After a step that repeats the one
  before it (load bits, mode and both powers), :func:`_fill_repeats` guesses
  that the steps after it with its load bits and mode repeat it too, checks
  each from the start state the guess implies with the contract's
  expressions, and writes the prefix where the check holds (the machine and
  EV-park archetypes). Steps where a SoC clamp or the reserve binds stay in
  the loop.

A sweep's next point starts from the previous point's trace in the shared
arrays and simulates only the steps a higher threshold can change, plus
those until the two states meet again (:func:`_run` gives the argument).
"""

from __future__ import annotations

import math
import re
from dataclasses import InitVar, dataclass, replace
from enum import Enum
from pathlib import Path
from typing import IO, Optional, Sequence, Union

import numpy as np

from .errors import (
    AllZeroProfileError,
    IncompatibleResolutionError,
    InvalidConfigError,
    ResolutionTooCoarseError,
    WindowOutOfRangeError,
)
from .metrics import NormalizedProfile, base_load_estimate
from .profiles import (
    SC_MAX_DT_S, UPS_MAX_DT_S, LoadProfile, _sample_times, _TimeColumn, freeze_arrays,
    freeze_numbers, write_csv,
)
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


@dataclass(frozen=True)
class EmsConfig:
    """Thresholds steering the power split.

    ``recharge_threshold`` may be ``None``, in which case dispatch derives it
    from the profile's base-load estimate (and falls back to 0, disabling
    recharge, if that estimate is not below ``sc_threshold``). The numbers
    are stored as floats.
    """

    sc_threshold: float = 0.8
    derivative_threshold: float = 0.5
    recharge_threshold: Optional[float] = None
    sc_engage_mode: EngageMode = EngageMode.THRESHOLD_OR_DERIVATIVE

    def __post_init__(self):
        freeze_numbers(self, InvalidConfigError, self._check)

    def _check(self):
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
    hooks and default to lossless. Powers are finite; an infinite energy
    means no energy limit. Every field is stored as a float.
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
        freeze_numbers(self, InvalidConfigError, self._check)

    def _check(self):
        for name in ("vrfb_power_kw", "vrfb_energy_kwh", "vrfb_ramp_kw_per_s",
                     "sc_power_kw", "sc_energy_kwh"):
            v = getattr(self, name)
            if not v > 0.0:
                raise InvalidConfigError(f"{name} must be > 0, got {v}")
        for name in ("sc_initial_soc_fraction", "vrfb_initial_soc_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidConfigError(f"{name} must be in [0, 1], got {v}")
        for dev in ("sc", "vrfb"):  # the initial SoC would be inf * 0.0 = nan
            energy, fraction = f"{dev}_energy_kwh", f"{dev}_initial_soc_fraction"
            v = getattr(self, fraction)
            if math.isinf(getattr(self, energy)) and v == 0.0:
                raise InvalidConfigError(
                    f"{fraction} must be > 0 when {energy} is infinite, got {v}")
        for name in ("vrfb_power_kw", "sc_power_kw", "sc_recharge_power_kw",
                     "vrfb_recharge_power_kw"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v < math.inf:
                raise InvalidConfigError(f"{name} must be finite and >= 0, got {v}")
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


@dataclass(frozen=True)
class UtilizationStats:
    """Summary of one dispatch run."""

    sc_engaged_fraction: float
    sc_energy_share: float
    vrfb_energy_share: float
    grid_peak_kw: float
    grid_peak_reduction_fraction: float


#: The float arrays of a :class:`DispatchResult`, in the order of its trace CSV.
_TRACE_FIELDS = ("p_load_kw", "p_grid_kw", "p_sc_kw", "p_vrfb_kw", "soc_sc_kwh", "soc_vrfb_kwh")


@dataclass(frozen=True, eq=False)
class DispatchResult:
    """Per-step traces of a dispatch run plus its summary.

    Device powers are positive when discharging and negative when
    recharging; ``p_grid_kw`` may go negative when the battery must ramp
    down slower than the load drops. SoC traces hold the end-of-step state.

    The arrays are read-only copies of those passed in, or the arrays
    :func:`dispatch` built, adopted in place (see
    :func:`~hessplit.profiles.freeze_arrays`).
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
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        freeze_arrays(self, np.float64, *_TRACE_FIELDS, copy=not _owned)
        freeze_arrays(self, bool, "flag_sc", "engaged_sc", copy=not _owned)

    @property
    def n_steps(self) -> int:
        return int(self.p_load_kw.size)


def _sustainable_power(u: float, q: float) -> float:
    """Largest ``p`` whose wind-down sum ``need`` (see :func:`dispatch`) is ``<= u``.

    Evaluated exactly as ``(u + q * (m * (m + 1) / 2.0)) / (m + 1)`` for the
    largest integer ``m`` with ``q * ((m + 1) * (m + 2) / 2.0) <= u``
    (contractual expression: reimplementations must round identically).
    ``m == 0`` returns ``u``, which the expression gives exactly for a
    finite ``q``; an infinite ``q`` (the whole charge is usable in one step)
    always has ``m == 0``. Infinite ``u`` means no energy limit.
    """
    if math.isinf(u):
        return math.inf
    if u <= 0.0:
        return 0.0
    # The sqrt estimate is within a few steps of m while m < 2**53, and
    # dispatch never gets near that: |p| moves by at most q per step, so m
    # stays below about twice the step count. u / q is 0.0 for an infinite q.
    m = int(math.sqrt(2.0 * (u / q)))
    while m > 0 and q * (m * (m + 1) / 2.0) > u:
        m -= 1
    while q * ((m + 1) * (m + 2) / 2.0) <= u:
        m += 1
    return u if m == 0 else (u + q * (m * (m + 1) / 2.0)) / (m + 1)


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

    1. The SC engages iff ``pu[t] > sc_threshold`` (``flag_sc``; a sample exactly on
       the threshold belongs to the battery) or, in ``THRESHOLD_OR_DERIVATIVE`` mode,
       ``|d[t]| > derivative_threshold``.
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
        discharge target: max(p_load - p_sc - rth_kw, 0.0)
                          (p_sc is 0.0 when idle, else a min of terms >= 0.0)
        p = min(target, vrfb_power_kw); p = max(p, -vrfb_power_kw)
        p = min(p, prev + q);           p = max(p, prev - q)
        if p > 0.0:
            u = soc_v / step_kwh * eff
            # need = sum(max(p - k*q, 0) for k >= 0): carry p, then ramp to 0 (p // inf is 0.0)
            m = int(p // q); need = p if m == 0 else (m + 1) * p - q * (m * (m + 1) / 2.0)
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
    AllZeroProfileError
        If ``pu * P`` is zero at every step.
    """
    load, steep, base = _prep(norm, cfg)
    cfg = replace(cfg, recharge_threshold=_recharge_threshold(cfg, base))
    out = np.empty((4, norm.n_samples))
    flag_sc, engaged = _run(norm, cfg, dev, load, steep, out)
    grid, stats = _summarize(load, engaged, out, norm.base_power_kw)
    return DispatchResult(
        dt=norm.dt, base_power_kw=norm.base_power_kw, p_load_kw=load, p_grid_kw=grid,
        p_sc_kw=out[0], p_vrfb_kw=out[1], soc_sc_kwh=out[2], soc_vrfb_kwh=out[3],
        flag_sc=flag_sc, engaged_sc=engaged, stats=stats, _owned=True,
        recharge_threshold=cfg.recharge_threshold,
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
    if not load.any():  # the energy shares would divide 0.0 by 0.0
        raise AllZeroProfileError(f"profile {norm.site_id!r} has no load in kW to split")
    steep = None
    if cfg.sc_engage_mode is EngageMode.THRESHOLD_OR_DERIVATIVE:
        d, thr = derivative(norm).normalized, cfg.derivative_threshold
        steep = np.zeros(norm.n_samples, dtype=bool)
        # |d| > thr with no float copy of d: negation is exact, and NaN passes neither test
        np.greater(d, thr, out=steep[:-1])
        steep[:-1] |= d < -thr
    base = None if cfg.recharge_threshold is not None else base_load_estimate(norm)
    return load, steep, base


# Per-step modes of the dispatch loop (idle is 0); recharging wins over engaging.
_ENGAGED, _RECHARGE = 1, 2


def _run(
    norm: NormalizedProfile, cfg: EmsConfig, dev: DeviceParams, load: np.ndarray,
    steep: Optional[np.ndarray], out: np.ndarray, prev_thr_kw: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One dispatch on inputs from :func:`_prep` (the ``dispatch`` contract).

    ``cfg`` names the resolved recharge threshold. Writes ``p_sc``,
    ``p_vrfb``, ``soc_sc`` and ``soc_vrfb`` of every step into the rows of
    ``out``, a float64 array of shape ``(4, n)``, and returns the SC flag and
    the engaged mask. The loop carries only the SoC and ramp recurrence. It
    stores step ``i`` by item assignment on a memoryview of each row, which
    keeps a float's double, signed zeros too. Each builtin ``min(a, b)`` of
    the contract is written ``b if b < a else a`` and each ``max(a, b)`` as
    ``b if b > a else a``: the first argument wins ties.

    The loop resumes by one rule after each of the four jumps below: a jump
    sets the next step ``i``, before which ``out`` holds the contract's
    steps, and breaks off the step iterator. The outer loop reloads
    ``soc_sc``, ``soc_v`` and ``prev_v`` from ``out[:, i - 1]`` and restarts
    the iterator at ``i`` on memoryview slices, which copy nothing.

    Battery-empty runs are handed to :func:`_fill_battery_empty`. The test
    for one sits where the energy reserve binds, which every step of an
    empty, resting battery with a positive VRFB target reaches, so other
    steps pay nothing for it. The SC's end-of-step SoC is therefore settled
    before the VRFB's part of the step. The fill writes the whole run, and
    the loop resumes at the step that ends it. Nothing is filled if
    ``thr_kw`` underflows to 0.0: an engaged -0.0 load then gives ``p_sc =
    -0.0``, which the fill omits.

    A step with the previous step's load bits, mode, ``p_sc`` and ``p_vrfb``
    hands the steps after it to :func:`_fill_repeats`, and the loop resumes
    where they end. The test costs a float compare on every step; the rest
    runs only when the VRFB's power repeats. A window writes only steps the
    loop then skips, so ahead of the loop ``out`` still holds the previous
    sweep point's trace, which the re-sync below reads.

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
    ``differs``. Where it meets out's end state again (the re-sync, checked
    at the battery-empty test only), it resumes at the next step of
    ``differs``, unless the fill has written past that.
    """
    rth = cfg.recharge_threshold
    step_kwh = norm.dt / 3600.0
    q = dev.vrfb_ramp_kw_per_s * norm.dt
    thr_kw = cfg.sc_threshold * norm.base_power_kw
    rth_kw = rth * norm.base_power_kw

    flag_sc = norm.pu > cfg.sc_threshold
    engaged = flag_sc if steep is None else flag_sc | steep
    mode = engaged.astype(np.int8)  # _ENGAGED where engaged, else idle
    mode[norm.pu < rth] = _RECHARGE

    cap_sc, eff_sc, pow_sc = dev.sc_energy_kwh, dev.sc_efficiency, dev.sc_power_kw
    cap_v, eff_v, pow_v = dev.vrfb_energy_kwh, dev.vrfb_efficiency, dev.vrfb_power_kw
    neg_pow_v = -pow_v
    r_sc = min(dev.sc_recharge_kw, pow_sc)  # the first two terms of the charge min
    r_v = dev.vrfb_recharge_kw
    soc_sc = dev.sc_initial_soc_fraction * cap_sc
    soc_v = dev.vrfb_initial_soc_fraction * cap_v
    prev_v = 0.0

    w_sc, w_v, w_soc_sc, w_soc_v = map(memoryview, out)
    loads, modes = memoryview(load), memoryview(mode.tobytes())
    i, n, differs = 0, mode.size, None
    if prev_thr_kw is not None:
        differs = ((mode != _RECHARGE) & (load >= prev_thr_kw)).tobytes()
        i = differs.find(1) if 1 in differs else n
    fills = thr_kw > 0.0
    same = _repeats(load, mode)
    while i < n:
        if i:
            soc_sc, soc_v, prev_v = w_soc_sc[i - 1], w_soc_v[i - 1], w_v[i - 1]
        for i, (p_load, m) in enumerate(zip(loads[i:], modes[i:]), i):
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
                target = p_load - p_sc - rth_kw
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
                k = int(p_v // q)
                need = p_v if k == 0 else (k + 1) * p_v - q * (k * (k + 1) / 2.0)
                if need > u:
                    if soc_v == 0.0 and prev_v == 0.0 and fills:
                        # Empty and at rest: this step ends with p_v = 0.0 and
                        # soc_v as it is, and the run after it is filled in numpy.
                        synced = (differs is not None and out[1:, i].tobytes()
                                  == np.array((0.0, soc_sc, soc_v)).tobytes())
                        w_sc[i], w_v[i], w_soc_sc[i], w_soc_v[i] = p_sc, 0.0, soc_sc, soc_v
                        end = _fill_battery_empty(load, mode, rth_kw, out, i + 1, soc_sc, soc_v)
                        if synced:
                            k = differs.find(1, i + 1)
                            end = n if k < 0 else max(end, k)
                        i = end
                        break
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
            if p_v == prev_v and same[i + 1] and same[i] and p_sc == w_sc[i - 1]:
                # this step repeats the one before, and so may the steps after it
                i = _fill_repeats(load, mode, same, out, i + 1, dev, step_kwh, q, thr_kw, rth_kw)
                break
            prev_v = p_v
        else:
            break
    return flag_sc, engaged


def _summarize(
    load: np.ndarray, engaged: np.ndarray, out: np.ndarray, p_max: float
) -> tuple[np.ndarray, UtilizationStats]:
    """The grid slack ``(p_load - p_sc) - p_vrfb`` of a :func:`_run`, and its summary.

    One buffer holds each per-step temporary in turn: the discharge part of
    ``p_sc``, then of ``p_vrfb``, each summed, then the grid it returns.
    """
    sc, vrfb = out[0], out[1]
    buf = np.clip(sc, 0.0, None)
    sc_out = buf.sum()
    vrfb_out = np.clip(vrfb, 0.0, None, out=buf).sum()
    grid = np.subtract(load, sc, out=buf)
    grid -= vrfb
    load_energy = float(load.sum())
    grid_peak = float(grid.max())
    return grid, UtilizationStats(
        sc_engaged_fraction=float(np.mean(engaged)),
        sc_energy_share=float(sc_out / load_energy),
        vrfb_energy_share=float(vrfb_out / load_energy),
        grid_peak_kw=grid_peak,
        grid_peak_reduction_fraction=(p_max - grid_peak) / p_max,
    )


# The steps that can move the state of an empty, resting VRFB: any non-idle
# step, or a recharge step. A regex search in the int8 mode array's own bytes
# stops at the first one, so it costs no more than the run it finds.
_ACTIVE_STEP = re.compile(rb"[^\x00]")
_RECHARGE_STEP = re.compile(re.escape(bytes([_RECHARGE])))


def _fill_battery_empty(
    load: np.ndarray, mode: np.ndarray, rth_kw: float, out: np.ndarray, i: int,
    soc_sc: float, soc_v: float,
) -> int:
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

    The whole run is written into ``out`` in place, as :func:`_run` would.
    Returns the step that ends it, where the loop resumes, else ``len(mode)``.
    """
    if math.copysign(1.0, soc_v) < 0.0:
        return i
    sc_empty = math.copysign(1.0, soc_sc) > 0.0 and soc_sc == 0.0
    hit = (_RECHARGE_STEP if sc_empty else _ACTIVE_STEP).search(mode, i)
    end = hit.start() if hit else mode.size
    out[0, i:end] = 0.0
    v = np.subtract(load[i:end], rth_kw, out=out[1, i:end])
    np.copyto(v, 0.0, where=v != 0.0)
    out[2:, i:end] = ((soc_sc,), (soc_v,))
    return end


#: Most steps one window of :func:`_fill_repeats` checks; bounds its memory.
_REPEAT_WINDOW = 4096


def _repeats(load: np.ndarray, mode: np.ndarray) -> bytes:
    """Per step, whether it has the previous step's load bits and mode.

    One byte per step plus a zero after the last; step 0 is zero too.
    """
    same = np.zeros(load.size + 1, dtype=bool)
    bits = load.view(np.int64)
    np.equal(bits[1:], bits[:-1], out=same[1:-1])
    same[1:-1] &= mode[1:] == mode[:-1]
    return same.tobytes()


def _fill_repeats(
    load: np.ndarray, mode: np.ndarray, same: bytes, out: np.ndarray, i: int,
    dev: DeviceParams, step_kwh: float, q: float, thr_kw: float, rth_kw: float,
) -> int:
    """Write the steps from ``i`` on that repeat step ``i - 1``; return where they end.

    The window is the run of steps from ``i`` with the load bits and mode of
    step ``i - 1`` (see :func:`_repeats`), at most :data:`_REPEAT_WINDOW`
    long. The guess is that each keeps the powers ``out`` holds for step
    ``i - 1``. Both SoC series then follow from ``np.subtract.accumulate``,
    which subtracts the contract's ``delta`` in order, as the loop does.
    Each step is checked from its own start state with the contract's
    expressions for its mode, each builtin ``min(a, b)`` as ``np.where(b <
    a, b, a)``, and the powers are compared by their bits. A step is
    rejected where a SoC clamp binds or where ``need > u``. Where the check
    holds the step is the contract's step, so the longest such prefix is
    written into ``out`` in place. A kept step has the guessed ``p_sc``, so
    outside recharging its VRFB target is a scalar.
    """
    end = same.find(0, i, i + _REPEAT_WINDOW)
    if end < 0:
        end = i + _REPEAT_WINDOW
    p_load, m = float(load[i - 1]), mode[i - 1]
    p_sc, p_v, soc_sc, soc_v = out[:, i - 1].tolist()
    cap_sc, eff_sc = dev.sc_energy_kwh, dev.sc_efficiency
    cap_v, eff_v, pow_v = dev.vrfb_energy_kwh, dev.vrfb_efficiency, dev.vrfb_power_kw
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf, nan
        d_sc = (p_sc / eff_sc if p_sc >= 0.0 else p_sc * eff_sc) * step_kwh
        d_v = (p_v / eff_v if p_v >= 0.0 else p_v * eff_v) * step_kwh
        soc = np.empty((2, end - i + 1))
        soc[:, 0] = soc_sc, soc_v
        soc[:, 1:] = ((d_sc,), (d_v,))
        np.subtract.accumulate(soc, axis=1, out=soc)
        sc0, v0 = soc[:, :-1]  # each step's start state
        ok = np.ones(end - i, dtype=bool)
        for row, d, cap in ((soc[0, 1:], d_sc, cap_sc), (soc[1, 1:], d_v, cap_v)):
            # a series that only falls (rises) can only meet the clamp at 0 (capacity)
            if d > 0.0:
                ok &= row >= 0.0
            elif d < 0.0:
                ok &= row <= cap
        if m == _RECHARGE:
            r_sc = min(dev.sc_recharge_kw, dev.sc_power_kw)
            room = (cap_sc - sc0) / step_kwh / eff_sc
            ok &= _bits(-np.where(room < r_sc, room, r_sc)) == _bits(p_sc)
            r_v = dev.vrfb_recharge_kw
            room = (cap_v - v0) / step_kwh / eff_v
            target = np.where(sc0 >= cap_sc, -np.where(room < r_v, room, r_v), 0.0)
        else:
            if m == _ENGAGED:
                x = min(max(p_load - thr_kw, 0.0), dev.sc_power_kw)
                avail = sc0 / step_kwh * eff_sc
                ok &= _bits(np.where(avail < x, avail, x)) == _bits(p_sc)
            target = max(p_load - p_sc - rth_kw, 0.0)
        ok &= _bits(_vrfb_clamps(target, p_v, pow_v, q)) == _bits(p_v)
        if p_v > 0.0:  # so is the clamped power of every step kept
            k = int(p_v // q)
            need = p_v if k == 0 else (k + 1) * p_v - q * (k * (k + 1) / 2.0)
            ok &= v0 / step_kwh * eff_v >= need  # not need > u: u is never nan

    k = int(ok.argmin())
    if ok[k]:
        k = ok.size
    end = i + k
    out[0, i:end] = p_sc
    out[1, i:end] = p_v
    out[2:, i:end] = soc[:, 1:k + 1]
    return end


def _vrfb_clamps(target, prev_v: float, pow_v: float, q: float) -> np.ndarray:
    """The VRFB's power and ramp clamps of the contract, elementwise."""
    p = np.where(pow_v < target, pow_v, target)
    p = np.where(-pow_v > p, -pow_v, p)
    p = np.where(prev_v + q < p, prev_v + q, p)
    return np.where(prev_v - q > p, prev_v - q, p)


def _bits(x) -> np.ndarray:
    """The float64 bits of ``x``, as int64: -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


def threshold_sweep(
    norm: NormalizedProfile,
    thresholds: Sequence[float],
    cfg: EmsConfig = EmsConfig(),
    dev: DeviceParams = DeviceParams(),
) -> list[tuple[float, UtilizationStats]]:
    """Dispatch once per SC threshold and tabulate the utilization numbers.

    Each threshold is checked as :class:`EmsConfig` checks ``sc_threshold``
    (a real number in (0, 1)), and they must be given in ascending order;
    rows come back in the same order. An empty list yields an empty table.
    Each row equals ``dispatch(norm, replace(cfg, sc_threshold=t), dev).stats``.
    The load in kW, the steep-derivative mask and the base-load estimate do
    not depend on the threshold, so they are computed once for the whole
    sweep; the SC flag, the recharge threshold and the loop run once per
    threshold. All runs share one set of output arrays, and no
    :class:`DispatchResult` is built. A run whose recharge threshold has the
    previous run's bits simulates only the steps where the two thresholds
    can differ (see :func:`_run`), so a sweep costs more the more of the
    profile lies above its lower thresholds.
    """
    configs = [replace(cfg, sc_threshold=thr) for thr in thresholds]
    if any(b.sc_threshold < a.sc_threshold for a, b in zip(configs, configs[1:])):
        raise InvalidConfigError("sweep thresholds must be ascending")
    if not configs:
        return []
    load, steep, base = _prep(norm, cfg)
    out = np.empty((4, norm.n_samples))
    rows, prev_thr_kw, prev_rth = [], None, None
    for thr_cfg in configs:
        thr = thr_cfg.sc_threshold  # a float, as _run reads it
        thr_cfg = replace(thr_cfg, recharge_threshold=_recharge_threshold(thr_cfg, base))
        rth = thr_cfg.recharge_threshold.hex()  # tells -0.0 from 0.0
        engaged = _run(norm, thr_cfg, dev, load, steep, out,
                       prev_thr_kw if rth == prev_rth else None)[1]
        rows.append((thr, _summarize(load, engaged, out, norm.base_power_kw)[1]))
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
    InvalidConfigError
        If the combined power rating or stored energy is not finite.
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

    offsets = _sample_times(0.0, profile.dt, profile.n_samples)
    in_window = (offsets >= outage_start_s) & (offsets < outage_start_s + outage_duration_s)
    demand = np.where(in_window, profile.samples, 0.0)

    window_peak = float(profile.samples[in_window].max()) if in_window.any() else 0.0
    window_energy = float(profile.samples[in_window].sum() * profile.dt / 3600.0)
    power_cap = dev.vrfb_power_kw + dev.sc_power_kw
    energy_avail = (
        dev.vrfb_energy_kwh * dev.vrfb_initial_soc_fraction
        + dev.sc_energy_kwh * dev.sc_initial_soc_fraction
    )
    if not (math.isfinite(power_cap) and math.isfinite(energy_avail)):  # inf * 0.0 is nan
        raise InvalidConfigError(f"combined ratings must be finite: {power_cap} kW, "
                                 f"{energy_avail} kWh")
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

    Columns: ``t`` in seconds from the run start, the float arrays in field
    order, and ``flag_sc`` as 0 or 1.
    """
    write_csv(target, ("t", *_TRACE_FIELDS, "flag_sc"), [
        _TimeColumn(0.0, result.dt, result.n_steps),
        *(getattr(result, name) for name in _TRACE_FIELDS),
        result.flag_sc.view(np.int8),
    ])


def write_sweep_csv(
    rows: Sequence[tuple[float, UtilizationStats]], target: Union[str, Path, IO]
) -> None:
    """Write a threshold sweep table as CSV.

    Columns: ``threshold``, then each :class:`UtilizationStats` field but
    ``grid_peak_reduction_fraction``.
    """
    names = ("sc_engaged_fraction", "sc_energy_share", "vrfb_energy_share", "grid_peak_kw")
    table = np.array([
        [thr, *(getattr(stats, name) for name in names)] for thr, stats in rows
    ], dtype=np.float64).reshape(-1, 1 + len(names))  # an empty sweep still has its columns
    write_csv(target, ("threshold", *names), table.T)
