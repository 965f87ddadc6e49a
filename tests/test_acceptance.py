"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Every test wraps its checks in :func:`criterion`, which times the body,
enforces the stated runtime budget, and prints ``criterion N: PASS/FAIL``
to the real stdout so the ledger survives pytest's capture.

Shared synthetic inputs are generated once per session and cached, so the
criteria stay independently runnable without paying for regeneration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from hessplit import (
    DeviceParams,
    EmsConfig,
    EngageMode,
    EvParkSpec,
    Limiting,
    LoadProfile,
    MachineSpec,
    MunicipalSpec,
    Relevance,
    analyze_profile,
    compute_metrics,
    dispatch,
    gen_ev_park,
    gen_machine,
    gen_municipal,
    make_ups_scenario,
    normalize,
    threshold_sweep,
    validate_resolution,
)
from hessplit.rules import classify
from hessplit.transient import DERIVATIVE_BINS, LOAD_BINS, derivative, histogram, symmetry_report
from conftest import dyadic_factor, dyadic_samples
from oracle import naive_dispatch


@contextmanager
def criterion(capsys, num, budget_s, title):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"budget {budget_s}s exceeded: {elapsed:.2f}s"
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} "
                  f"({elapsed:.2f}s) - {title}")


_cache: dict = {}


def muni_report():
    if "muni" not in _cache:
        profile, _ = gen_municipal(MunicipalSpec())  # 12 days, 1 s, seed 42
        _cache["muni"] = analyze_profile(profile)
    return _cache["muni"]


def machine_profile():
    if "machine" not in _cache:
        _cache["machine"], _ = gen_machine(MachineSpec())
    return _cache["machine"]


def ev_profile():
    if "ev" not in _cache:
        _cache["ev"], _ = gen_ev_park(EvParkSpec())
    return _cache["ev"]


def flag_sc(norm, thr):
    """``dispatch(...).flag_sc`` at ``thr`` from the cheapest dispatch: the flag
    depends neither on the engage mode nor on the recharge threshold."""
    cfg = EmsConfig(sc_threshold=thr, recharge_threshold=0.0,
                    sc_engage_mode=EngageMode.THRESHOLD_ONLY)
    return dispatch(norm, cfg).flag_sc


def test_criterion_1_flag_partition(capsys):
    with criterion(capsys, 1, 1.0, "the SC flag is pu > threshold; boundary goes to the battery"):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            samples = rng.uniform(0.1, 10.0, size=40)
            norm = normalize(LoadProfile(site_id="r", t0=0.0, dt=1.0, samples=samples))
            # plant an exact boundary hit: a threshold equal to a sample
            inner = np.flatnonzero((norm.pu > 0.0) & (norm.pu < 1.0))
            idx = int(inner[0])
            thr = float(norm.pu[idx])
            flags = flag_sc(norm, thr)
            assert flags.tolist() == [p > thr for p in norm.pu.tolist()]
            assert not flags[idx]


def test_criterion_2_scale_invariance(capsys):
    with criterion(capsys, 2, 1.0, "scaling a profile changes nothing per-unit"):
        rng = np.random.default_rng(202)
        for _ in range(100):
            base = dyadic_samples(rng, 150)
            k = dyadic_factor(rng)  # in (0, 1e6], exactly representable
            p1 = LoadProfile(site_id="s", t0=0.0, dt=1.0, samples=base)
            p2 = LoadProfile(site_id="s", t0=0.0, dt=1.0, samples=base * k)

            n1, n2 = normalize(p1), normalize(p2)
            assert np.array_equal(n1.pu, n2.pu)
            assert n2.base_power_kw == n1.base_power_kw * k

            m1, m2 = compute_metrics(p1), compute_metrics(p2)
            # absolute fields scale; everything per-unit must be identical
            assert m2.load_factor == m1.load_factor
            assert m2.base_load_pu == m1.base_load_pu
            assert m2.peak_count == m1.peak_count
            assert m2.mean_peak_duration_s == m1.mean_peak_duration_s
            assert m2.max_peak_duration_s == m1.max_peak_duration_s
            assert m2.time_above_base_fraction == m1.time_above_base_fraction
            assert m2.energy_above_base_pu_h == m1.energy_above_base_pu_h

            cfg = EmsConfig()
            assert np.array_equal(dispatch(n1, cfg).flag_sc, dispatch(n2, cfg).flag_sc)

            reports = []
            for norm, metrics in ((n1, m1), (n2, m2)):
                load_hist = histogram(norm.pu, bins=LOAD_BINS, range=(0.0, 1.0))
                dh = histogram(derivative(norm).normalized,
                               bins=DERIVATIVE_BINS, symmetric=True)
                reports.append(classify(metrics, symmetry_report(dh), load_hist))
            assert reports[0] == reports[1]


def test_criterion_3_balance_and_soc_bounds(capsys):
    with criterion(capsys, 3, 5.0, "power balance within 1e-9 kW, SoC inside [0, cap]"):
        rng = np.random.default_rng(303)
        devices = [
            DeviceParams(),
            DeviceParams(vrfb_energy_kwh=0.02, sc_energy_kwh=0.005,
                         sc_initial_soc_fraction=0.3, vrfb_initial_soc_fraction=0.1),
            DeviceParams(vrfb_ramp_kw_per_s=0.2, sc_efficiency=0.9, vrfb_efficiency=0.85),
            DeviceParams(vrfb_power_kw=1.5, sc_power_kw=0.5),
            DeviceParams(sc_recharge_power_kw=0.5, vrfb_recharge_power_kw=1.0),
        ]
        for i, dev in enumerate(devices):
            pu = rng.uniform(0.0, 1.0, size=10_000)
            pu[int(rng.integers(10_000))] = 1.0
            profile = LoadProfile(site_id=f"r{i}", t0=0.0, dt=1.0, samples=pu * 12.0)
            cfg = EmsConfig() if i % 2 else EmsConfig(recharge_threshold=0.2)
            res = dispatch(normalize(profile), cfg, dev)
            residual = res.p_load_kw - res.p_sc_kw - res.p_vrfb_kw - res.p_grid_kw
            assert np.abs(residual).max() <= 1e-9
            assert res.soc_sc_kwh.min() >= 0.0
            assert res.soc_sc_kwh.max() <= dev.sc_energy_kwh
            assert res.soc_vrfb_kwh.min() >= 0.0
            assert res.soc_vrfb_kwh.max() <= dev.vrfb_energy_kwh


def test_criterion_4_oracle_equivalence(capsys):
    with criterion(capsys, 4, 1.0, "dispatch equals the brute-force step simulator exactly"):
        rng = np.random.default_rng(404)
        for trial in range(20):
            pu = rng.uniform(0.0, 1.0, size=100)
            pu[int(rng.integers(100))] = 1.0
            dt = float(rng.choice([1.0, 2.0, 10.0]))
            mode = (EngageMode.THRESHOLD_ONLY if trial % 2
                    else EngageMode.THRESHOLD_OR_DERIVATIVE)
            cfg = EmsConfig(
                sc_threshold=float(rng.uniform(0.4, 0.95)),
                derivative_threshold=float(rng.uniform(0.1, 1.0)),
                recharge_threshold=float(rng.uniform(0.0, 0.35)),
                sc_engage_mode=mode,
            )
            dev = DeviceParams(
                vrfb_power_kw=float(rng.uniform(1.0, 8.0)),
                vrfb_energy_kwh=float(rng.uniform(0.0005, 0.2)),
                vrfb_ramp_kw_per_s=float(rng.uniform(0.05, 4.0)),
                sc_power_kw=float(rng.uniform(0.5, 6.0)),
                sc_energy_kwh=float(rng.uniform(0.0005, 0.05)),
                sc_initial_soc_fraction=float(rng.uniform(0.0, 1.0)),
                vrfb_initial_soc_fraction=float(rng.uniform(0.0, 1.0)),
                sc_efficiency=float(rng.uniform(0.7, 1.0)),
                vrfb_efficiency=float(rng.uniform(0.7, 1.0)),
            )
            norm = normalize(LoadProfile(site_id="o", t0=0.0, dt=dt, samples=pu * 9.0))
            res = dispatch(norm, cfg, dev)
            o_sc, o_v, o_g, o_ssc, o_sv = naive_dispatch(
                norm.pu.tolist(), dt, norm.base_power_kw, cfg, dev)
            # bytes, not ==: -0.0 == 0.0, but the trace CSV tells them apart
            assert res.p_sc_kw.tobytes() == np.array(o_sc).tobytes()
            assert res.p_vrfb_kw.tobytes() == np.array(o_v).tobytes()
            assert res.p_grid_kw.tobytes() == np.array(o_g).tobytes()
            assert res.soc_sc_kwh.tobytes() == np.array(o_ssc).tobytes()
            assert res.soc_vrfb_kwh.tobytes() == np.array(o_sv).tobytes()


def test_criterion_5_municipal_profile(capsys):
    with criterion(capsys, 5, 10.0,
                   "municipal: base near half load, symmetric transients, compliant + SC Low"):
        rep = muni_report()
        assert 0.4 <= rep.metrics.base_load_pu <= 0.6
        assert rep.symmetry.symmetry_index >= 0.8
        assert rep.classification.hess_compliant
        assert rep.classification.sc_relevance is Relevance.LOW


def test_criterion_6_machine_profile(capsys):
    with criterion(capsys, 6, 10.0,
                   "machine: half-time off, bimodal load piles, SC High"):
        profile = machine_profile()
        off_fraction = float(np.mean(profile.samples == 0.0))
        assert abs(off_fraction - 0.5) <= 0.02
        rep = analyze_profile(profile)
        centers = rep.load_hist.centers
        fractions = rep.load_hist.fractions
        low_pile = float(fractions[centers < 0.1].sum())
        high_pile = float(fractions[centers > rep.load_hist.edges[-1] - 0.1].sum())
        assert low_pile > 0.15 and high_pile > 0.15
        fast_mass = rep.symmetry.positive_tail_mass + rep.symmetry.negative_tail_mass
        assert fast_mass > 5e-4
        assert rep.classification.sc_relevance is Relevance.HIGH


def test_criterion_7_ev_park_profile(capsys):
    with criterion(capsys, 7, 10.0,
                   "EV park: one-sided ramps, less symmetric than municipal, SC barely engages"):
        profile = ev_profile()
        rep = analyze_profile(profile)
        assert rep.symmetry.positive_tail_mass > 2.0 * rep.symmetry.negative_tail_mass
        assert rep.symmetry.symmetry_index < muni_report().symmetry.symmetry_index
        res = dispatch(normalize(profile))  # defaults: sc_threshold 0.8
        engaged = res.stats.sc_engaged_fraction
        assert engaged < 0.05
        # band frozen from a one-time run of the brute-force oracle
        assert abs(engaged - 0.016226851851851853) < 0.002


def test_criterion_8_resolution_gate(capsys):
    with criterion(capsys, 8, 1.0, "1 s and 10 s pass the SC gate, 900 s is battery-only"):
        for dt in (1.0, 10.0):
            verdict = validate_resolution(
                LoadProfile(site_id="g", t0=0.0, dt=dt, samples=np.array([1.0, 2.0])))
            assert verdict.sc_suitable and not verdict.vrfb_only
        coarse = validate_resolution(
            LoadProfile(site_id="g", t0=0.0, dt=900.0, samples=np.array([1.0, 2.0])))
        assert coarse.vrfb_only and not coarse.sc_suitable


def test_criterion_9_ups_sizing(capsys):
    with criterion(capsys, 9, 1.0, "5 kW / 10 kWh sizing: 1 kW x 1 h ok, 5 kW x 10 h energy-bound"):
        small = LoadProfile(site_id="u1", t0=0.0, dt=1.0, samples=np.full(7200, 1.0))
        sc = make_ups_scenario(small, 0.0, 3600.0)
        assert sc.feasible and sc.limiting is Limiting.NONE

        big = LoadProfile(site_id="u2", t0=0.0, dt=1.0,
                          samples=np.full(int(10.5 * 3600), 5.0))
        sc = make_ups_scenario(big, 0.0, 10 * 3600.0)
        assert not sc.feasible
        assert sc.limiting is Limiting.ENERGY


def test_criterion_10_sweep_monotonicity(capsys):
    with criterion(capsys, 10, 10.0,
                   "engaged fraction never grows as the threshold rises (all synthetics)"):
        cfg = EmsConfig(sc_engage_mode=EngageMode.THRESHOLD_ONLY)
        thresholds = [0.5, 0.6, 0.7, 0.8, 0.9]
        sources = [
            gen_municipal(MunicipalSpec(days=1, dt=5.0))[0],
            gen_machine(MachineSpec(dt=5.0))[0],
            gen_ev_park(EvParkSpec(dt=5.0))[0],
        ]
        for profile in sources:
            rows = threshold_sweep(normalize(profile), thresholds, cfg)
            fractions = [stats.sc_engaged_fraction for _, stats in rows]
            assert all(a >= b for a, b in zip(fractions, fractions[1:]))
