"""Number fields: each is stored as a float before its class's check reads it."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessplit import (
    DeviceParams,
    EmsConfig,
    EvParkSpec,
    LoadProfile,
    MachineSpec,
    MunicipalSpec,
    dispatch,
    gen_machine,
    normalize,
)
from hessplit.errors import InvalidConfigError, InvalidProfileError, InvalidSpecError

#: Each class with float fields, its own error, and the other arguments it needs.
_CLASSES = {
    EmsConfig: (InvalidConfigError, {}),
    DeviceParams: (InvalidConfigError, {}),
    MunicipalSpec: (InvalidSpecError, {}),
    MachineSpec: (InvalidSpecError, {}),
    EvParkSpec: (InvalidSpecError, {}),
    LoadProfile: (InvalidProfileError, dict(site_id="x", t0=0.0, dt=1.0, samples=np.ones(3))),
}

_REALS = [0.0, -0.0, 5e-324, 1e-310, 1e-300, 0.1, 0.5, 1.0 - 2 ** -53, 1.0, 2.5, 18.0,
          600.0, 3600.0, 1e9, 1e300, 1.7e308, -1.0, math.inf, -math.inf, math.nan]
with np.errstate(over="ignore", under="ignore"):  # np.float32(1e300) is inf
    _VALUES = (
        [t(x) for x in _REALS for t in (np.float32, np.float64, np.longdouble)]
        + [t(x) for x in _REALS if math.isfinite(x) for t in (int, Fraction)]
        + [10 ** 400, Fraction(1, 10 ** 400), Fraction(10 ** 20 - 1, 10 ** 20),
           np.longdouble(10) ** -400, np.longdouble(10) ** 400, True]
    )


def _float_fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.type in ("float", "Optional[float]")]


def _build(cls, numbers):
    # an int, np.float32, np.float64, Fraction or np.longdouble either raises
    # the class's own error (no RuntimeWarning, ZeroDivisionError or
    # OverflowError) or is stored as a Python float that passes the check again
    error, base = _CLASSES[cls]
    try:
        obj = cls(**{**base, **numbers})
    except error:
        return
    assert {type(getattr(obj, name)) for name in _float_fields(cls)} <= {float, type(None)}
    assert dataclasses.replace(obj) == obj


def test_every_float_field_is_checked_as_its_float():
    for cls in _CLASSES:
        for name in _float_fields(cls):
            for value in _VALUES:
                _build(cls, {name: value})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_float_fields_together_are_checked_as_their_floats(data):
    cls = data.draw(st.sampled_from(list(_CLASSES)))
    _build(cls, data.draw(st.dictionaries(st.sampled_from(_float_fields(cls)),
                                          st.sampled_from(_VALUES), min_size=2, max_size=3)))


def _profile(dt):
    return LoadProfile(site_id="x", t0=0.0, dt=dt, samples=np.ones(3))


@pytest.mark.parametrize("make, error, message", [
    # each is stored as a float that breaks the rule it passes as given
    (lambda: EmsConfig(sc_threshold=Fraction(10 ** 20 - 1, 10 ** 20)),
     InvalidConfigError, "sc_threshold must be in (0, 1), got 1.0"),
    (lambda: EmsConfig(sc_threshold=Fraction(1, 2),
                       recharge_threshold=Fraction(10 ** 20 - 1, 2 * 10 ** 20)),
     InvalidConfigError, "got 0.5 vs 0.5"),
    (lambda: DeviceParams(sc_efficiency=Fraction(1, 10 ** 400)),
     InvalidConfigError, "sc_efficiency must be in (0, 1], got 0.0"),
    (lambda: DeviceParams(vrfb_power_kw=Fraction(1, 10 ** 400)),
     InvalidConfigError, "vrfb_power_kw must be > 0, got 0.0"),
    (lambda: _profile(Fraction(1, 10 ** 400)),
     InvalidProfileError, "dt must be a positive number of seconds, got 0.0"),
    (lambda: _profile(np.longdouble(10) ** -400),
     InvalidProfileError, "dt must be a positive number of seconds, got 0.0"),
    # np.float64 arithmetic in the session bound would overflow with a warning
    (lambda: EvParkSpec(arrival_rate_per_h=np.float64(1e308)),
     InvalidSpecError, "expect more than"),
    # a 0.0 efficiency would divide by zero in the run
    (lambda: dispatch(normalize(gen_machine(MachineSpec(days=1))[0]), EmsConfig(),
                      DeviceParams(sc_efficiency=Fraction(1, 10 ** 400))),
     InvalidConfigError, "sc_efficiency must be in (0, 1], got 0.0"),
], ids=["sc_threshold", "recharge_threshold", "sc_efficiency", "vrfb_power_kw",
        "dt_fraction", "dt_longdouble", "arrival_rate", "dispatch"])
def test_stored_float_breaks_the_check(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert message in str(info.value)

