"""Brute-force reference implementations used to cross-check the library.

The dispatch oracle below follows the step rules exactly as documented on
``hessplit.ems.dispatch`` (the float expressions in the docstring are the
behavioral contract), but is written as a naive step-by-step simulator:
plain Python floats, no arrays, no shared helpers with the package, state
carried in local variables, derivative recomputed longhand.
"""

from __future__ import annotations

import math


def naive_dispatch(pu, dt, p_max, cfg, dev):
    """Simulate the power split step by step.

    Parameters mirror the library call: ``pu`` is a list of per-unit
    samples, ``cfg`` an EmsConfig, ``dev`` a DeviceParams. The recharge
    threshold must be explicit in ``cfg`` (no derived default here).
    Returns per-step lists: (p_sc, p_vrfb, p_grid, soc_sc, soc_vrfb).
    """
    assert cfg.recharge_threshold is not None, "oracle needs an explicit recharge threshold"
    n = len(pu)
    step_kwh = dt / 3600.0
    q = dev.vrfb_ramp_kw_per_s * dt
    thr_kw = cfg.sc_threshold * p_max
    rth = cfg.recharge_threshold
    rth_kw = rth * p_max
    engaged_at = naive_engaged(pu, dt, cfg)

    r_sc = dev.sc_power_kw if dev.sc_recharge_power_kw is None else dev.sc_recharge_power_kw
    r_v = dev.vrfb_power_kw if dev.vrfb_recharge_power_kw is None else dev.vrfb_recharge_power_kw
    cap_sc = dev.sc_energy_kwh
    cap_v = dev.vrfb_energy_kwh
    eff_sc = dev.sc_efficiency
    eff_v = dev.vrfb_efficiency
    soc_sc = dev.sc_initial_soc_fraction * cap_sc
    soc_v = dev.vrfb_initial_soc_fraction * cap_v
    prev = 0.0

    out_sc, out_v, out_g, out_soc_sc, out_soc_v = [], [], [], [], []
    for t in range(n):
        x = pu[t]
        p_load = x * p_max
        engaged = engaged_at[t]
        recharging = x < rth
        sc_was_full = soc_sc >= cap_sc

        if recharging:
            p_sc = -min(r_sc, dev.sc_power_kw, (cap_sc - soc_sc) / step_kwh / eff_sc)
        elif engaged:
            excess = p_load - thr_kw
            if excess < 0.0:
                excess = 0.0
            p_sc = min(excess, dev.sc_power_kw, soc_sc / step_kwh * eff_sc)
        else:
            p_sc = 0.0

        if recharging:
            if sc_was_full:
                target = -min(r_v, (cap_v - soc_v) / step_kwh / eff_v)
            else:
                target = 0.0
        else:
            sc_serving = max(p_sc, 0.0)
            target = p_load - sc_serving - rth_kw
            if target < 0.0:
                target = 0.0
        p_v = min(target, dev.vrfb_power_kw)
        p_v = max(p_v, -dev.vrfb_power_kw)
        p_v = min(p_v, prev + q)
        p_v = max(p_v, prev - q)
        if p_v > 0.0:
            u = soc_v / step_kwh * eff_v
            if _wind_down_sum(p_v, q) > u:
                p_v = _largest_sustainable(u, q)
                p_v = max(p_v, prev - q)

        p_grid = p_load - p_sc - p_v

        if p_sc >= 0.0:
            d_sc = (p_sc / eff_sc) * step_kwh
        else:
            d_sc = (p_sc * eff_sc) * step_kwh
        if p_v >= 0.0:
            d_v = (p_v / eff_v) * step_kwh
        else:
            d_v = (p_v * eff_v) * step_kwh
        soc_sc = min(max(soc_sc - d_sc, 0.0), cap_sc)
        soc_v = min(max(soc_v - d_v, 0.0), cap_v)

        out_sc.append(p_sc)
        out_v.append(p_v)
        out_g.append(p_grid)
        out_soc_sc.append(soc_sc)
        out_soc_v.append(soc_v)
        prev = p_v

    return out_sc, out_v, out_g, out_soc_sc, out_soc_v


def naive_engaged(pu, dt, cfg):
    """Per step, whether the SC engages: above the threshold or, in
    ThresholdOrDerivative mode, on a steep normalized forward derivative."""
    n = len(pu)
    use_deriv = cfg.sc_engage_mode.value == "ThresholdOrDerivative"

    # forward differences, normalized by the largest magnitude, zero-padded
    diffs = []
    for i in range(n - 1):
        diffs.append((pu[i + 1] - pu[i]) / dt)
    peak = 0.0
    for d in diffs:
        if abs(d) > peak:
            peak = abs(d)
    if peak > 0.0:
        dnorm = [d / peak for d in diffs]
    else:
        dnorm = [0.0] * (n - 1)
    dnorm.append(0.0)

    out = []
    for t in range(n):
        engaged = pu[t] > cfg.sc_threshold
        if use_deriv and abs(dnorm[t]) > cfg.derivative_threshold:
            engaged = True
        out.append(engaged)
    return out


def _wind_down_sum(p, q):
    """sum over k >= 0 of max(p - k*q, 0), via the contractual expression."""
    if p <= 0.0:
        return 0.0
    if math.isinf(q):
        return p
    m = int(p // q)
    return (m + 1) * p - q * (m * (m + 1) / 2.0)


def _largest_sustainable(u, q):
    """Largest p whose wind-down sum stays within u."""
    if math.isinf(u):
        return math.inf
    if u <= 0.0:
        return 0.0
    if math.isinf(q):
        return u
    m = 0
    while q * ((m + 1) * (m + 2) / 2.0) <= u:
        m += 1
    return (u + q * (m * (m + 1) / 2.0)) / (m + 1)


def naive_window_check(samples, dt, start_s, duration_s, power_cap, energy_cap):
    """Independent outage feasibility scan: walk every sample, track max/sum."""
    peak = 0.0
    total_kwh = 0.0
    for i, p in enumerate(samples):
        t = i * dt
        if start_s <= t < start_s + duration_s:
            if p > peak:
                peak = p
            total_kwh += p * dt / 3600.0
    if peak > power_cap:
        return False, "Power"
    if total_kwh > energy_cap:
        return False, "Energy"
    return True, "None"
