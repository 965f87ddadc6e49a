"""Dispatch and sweeps at the north-star size, 12 days at 1 s, against the oracle.

The repeated-step windows and the sweep re-sync do most of their work at this
size, which the rest of the suite does not reach. Each oracle run takes a few
seconds and a few hundred MB, so the module runs only when asked:

    HESSPLIT_NORTH_STAR=1 PYTHONPATH=src python -m pytest -q tests/test_north_star.py
"""

from __future__ import annotations

import os
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from hessplit import (
    DeviceParams,
    EmsConfig,
    EngageMode,
    EvParkSpec,
    MachineSpec,
    MunicipalSpec,
    dispatch,
    generate,
    normalize,
    threshold_sweep,
)
from hessplit.cli import _parse_range
from oracle import naive_dispatch

pytestmark = pytest.mark.skipif(
    os.environ.get("HESSPLIT_NORTH_STAR") != "1",
    reason="12-day oracle checks run with HESSPLIT_NORTH_STAR=1",
)

DAYS = 12
SPECS = {"municipal": MunicipalSpec, "machine": MachineSpec, "ev_park": EvParkSpec}
SWEEP_RANGE = "0.5:0.9:0.1"


@lru_cache(maxsize=None)
def _norm(kind):
    return normalize(generate(SPECS[kind](days=DAYS))[0])


def _check_against_oracle(norm, cfg, dev):
    res = dispatch(norm, cfg, dev)
    assert res.n_steps == DAYS * 86_400
    # the oracle needs the recharge threshold dispatch resolved
    cfg = replace(cfg, recharge_threshold=res.recharge_threshold)
    expected = naive_dispatch(norm.pu.tolist(), norm.dt, norm.base_power_kw, cfg, dev)
    got = (res.p_sc_kw, res.p_vrfb_kw, res.p_grid_kw, res.soc_sc_kwh, res.soc_vrfb_kwh)
    for name, ours, theirs in zip(("p_sc", "p_vrfb", "p_grid", "soc_sc", "soc_vrfb"),
                                  got, expected):
        assert ours.tobytes() == np.array(theirs).tobytes(), name


@pytest.mark.parametrize("mode", list(EngageMode), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", list(SPECS))
def test_dispatch_matches_oracle(kind, mode):
    _check_against_oracle(_norm(kind), EmsConfig(sc_engage_mode=mode), DeviceParams())


@pytest.mark.parametrize("dev", [
    DeviceParams(sc_efficiency=0.9, vrfb_efficiency=0.9, vrfb_initial_soc_fraction=0.3),
    DeviceParams(vrfb_ramp_kw_per_s=float("inf")),
], ids=["lossy", "infinite-ramp"])
def test_municipal_devices_match_oracle(dev):
    _check_against_oracle(_norm("municipal"), EmsConfig(), dev)


@pytest.mark.parametrize("kind", ["municipal", "ev_park"])
def test_sweep_rows_equal_dispatch(kind):
    norm, cfg = _norm(kind), EmsConfig()
    rows = threshold_sweep(norm, _parse_range(SWEEP_RANGE), cfg)
    assert len(rows) == 5
    for thr, stats in rows:
        assert repr(stats) == repr(dispatch(norm, replace(cfg, sc_threshold=thr)).stats), thr
