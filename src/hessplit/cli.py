"""Command-line front end.

Subcommands::

    hessplit analyze  INPUT.csv|manifest.json  [--bins N] [--tail-level X] [--out R.json]
    hessplit dispatch INPUT.csv [--config C.json] [--trace T.csv] [--out S.json]
    hessplit sweep    INPUT.csv --range lo:hi:step [--config C.json] [--out S.csv]
    hessplit ups      INPUT.csv --start S --duration D [device flags] [--out F.json]
    hessplit synth    --kind municipal|machine|ev_park --out P.csv [--events E.json] [...]

The environment variable ``HESSPLIT_CONFIG`` supplies a default ``--config``
path for the commands that take one. Config files are flat JSON objects
whose keys are :class:`~hessplit.ems.EmsConfig` and
:class:`~hessplit.ems.DeviceParams` field names.

Exit codes: 0 on success, 2 for input or configuration problems,
3 for internal errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Optional

from . import __version__
from .ems import (
    DeviceParams,
    EmsConfig,
    EngageMode,
    dispatch,
    make_ups_scenario,
    threshold_sweep,
    write_dispatch_csv,
    write_sweep_csv,
)
from .errors import HessplitError, InvalidConfigError, InvalidRangeError
from .metrics import normalize
from .profiles import load_catalog, parse_profile_file, write_profile_csv
from .report import analyze_profile, report_to_dict, write_json
from .synth import EvParkSpec, MachineSpec, MunicipalSpec, generate
from .transient import DERIVATIVE_BINS, LOAD_BINS, TAIL_LEVEL

CONFIG_ENV_VAR = "HESSPLIT_CONFIG"
#: Most thresholds one ``--range`` may name; each is a full dispatch run.
MAX_RANGE_POINTS = 1000

_EMS_FIELDS = {f.name for f in dataclasses.fields(EmsConfig)}
_DEV_FIELDS = {f.name for f in dataclasses.fields(DeviceParams)}


def _load_config(path: Optional[str]) -> tuple[EmsConfig, DeviceParams]:
    """Split a flat JSON config into the EMS and device parameter sets."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return EmsConfig(), DeviceParams()
    p = Path(path)
    if not p.is_file():
        raise InvalidConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"config file {path} must hold a JSON object")
    cfg_kwargs, dev_kwargs = {}, {}
    for key, value in raw.items():
        if key == "sc_engage_mode":
            try:
                cfg_kwargs[key] = EngageMode(value)
            except ValueError:
                modes = [m.value for m in EngageMode]
                raise InvalidConfigError(f"{key} must be one of {modes}, got {value!r}") from None
        elif key in _EMS_FIELDS:
            cfg_kwargs[key] = value
        elif key in _DEV_FIELDS:
            dev_kwargs[key] = value
        else:
            raise InvalidConfigError(f"unknown config key {key!r} in {path}")
    return EmsConfig(**cfg_kwargs), DeviceParams(**dev_kwargs)


def _parse_range(text: str) -> list[float]:
    """``lo:hi:step`` into an inclusive ascending threshold list."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidRangeError(f"range must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(x) for x in parts)
    except ValueError:
        raise InvalidRangeError(f"range parts must be numbers, got {text!r}") from None
    if not 0.0 < step < math.inf:
        raise InvalidRangeError(f"range step must be finite and > 0, got {step}")
    if lo > hi:
        raise InvalidRangeError(f"range lo {lo} exceeds hi {hi}")
    if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
        raise InvalidRangeError(f"range bounds must be in (0, 1), got {lo}..{hi}")
    last = (hi - lo) / step + 1e-9  # index of hi, with slack for float error
    if last >= MAX_RANGE_POINTS:
        raise InvalidRangeError(f"range {text!r} names more than {MAX_RANGE_POINTS} thresholds")
    thresholds = [round(lo + i * step, 12) for i in range(int(last) + 1)]
    if not (0.0 < thresholds[0] and thresholds[-1] < 1.0):  # rounding keeps the order
        raise InvalidRangeError(f"range {text!r} rounds to thresholds outside (0, 1): "
                                f"{thresholds[0]}..{thresholds[-1]}")
    return thresholds


def _warn(message, *_) -> None:
    """Print one warning line; also stands in for ``warnings.showwarning``."""
    print(f"warning: {message}", file=sys.stderr)


def _cmd_analyze(args: argparse.Namespace) -> int:
    path = Path(args.input)
    if args.manifest or path.suffix.lower() == ".json":
        profiles = load_catalog(path, clamp_negative=args.clamp_negative)
    else:
        profiles = [parse_profile_file(path, clamp_negative=args.clamp_negative)]
    reports = []
    for profile in profiles:
        report = analyze_profile(
            profile,
            bins=args.bins,
            derivative_bins=args.derivative_bins,
            tail_level=args.tail_level,
        )
        if report.resolution.vrfb_only:
            _warn(f"{profile.site_id}: {report.resolution.reason}; transient analysis skipped")
        reports.append(report_to_dict(report))
    write_json(reports[0] if len(reports) == 1 and not args.manifest else reports,
               args.out or sys.stdout)
    return 0


def _cmd_dispatch(args: argparse.Namespace) -> int:
    cfg, dev = _load_config(args.config)
    profile = parse_profile_file(args.input, clamp_negative=args.clamp_negative)
    result = dispatch(normalize(profile), cfg, dev)
    if args.trace:
        write_dispatch_csv(result, args.trace)
    summary = dataclasses.asdict(result.stats)
    summary["site_id"] = profile.site_id
    summary["n_steps"] = result.n_steps
    summary["recharge_threshold"] = result.recharge_threshold
    write_json(summary, args.out or sys.stdout)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg, dev = _load_config(args.config)
    thresholds = _parse_range(args.range)
    profile = parse_profile_file(args.input, clamp_negative=args.clamp_negative)
    rows = threshold_sweep(normalize(profile), thresholds, cfg, dev)
    if args.out:
        write_sweep_csv(rows, args.out)
    else:
        write_sweep_csv(rows, sys.stdout)
    return 0


def _cmd_ups(args: argparse.Namespace) -> int:
    _, dev = _load_config(args.config)
    overrides = {}
    for flag, field in [
        ("vrfb_power", "vrfb_power_kw"), ("vrfb_energy", "vrfb_energy_kwh"),
        ("sc_power", "sc_power_kw"), ("sc_energy", "sc_energy_kwh"),
        ("vrfb_soc", "vrfb_initial_soc_fraction"), ("sc_soc", "sc_initial_soc_fraction"),
    ]:
        value = getattr(args, flag)
        if value is not None:
            overrides[field] = value
    if overrides:
        dev = dataclasses.replace(dev, **overrides)
    profile = parse_profile_file(args.input, clamp_negative=args.clamp_negative)
    scenario = make_ups_scenario(profile, args.start, args.duration, dev)
    write_json({
        "site_id": profile.site_id,
        "outage_start_s": args.start,
        "outage_duration_s": args.duration,
        "feasible": scenario.feasible,
        "limiting": scenario.limiting.value,
        "window_peak_kw": scenario.window_peak_kw,
        "window_energy_kwh": scenario.window_energy_kwh,
        "power_cap_kw": scenario.power_cap_kw,
        "energy_available_kwh": scenario.energy_available_kwh,
    }, args.out or sys.stdout)
    if args.demand_out:
        write_profile_csv(scenario.hess_demand, args.demand_out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    common = {"days": args.days, "dt": args.dt, "seed": args.seed}
    if args.scale_kw is not None:
        scale = {"scale_kw": args.scale_kw}
    else:
        scale = {}
    if args.kind == "municipal":
        spec = MunicipalSpec(**common, **scale, noise_sigma=args.noise_sigma)
    elif args.kind == "machine":
        spec = MachineSpec(
            **common, **scale, duty_cycle=args.duty_cycle, on_level=args.on_level,
        )
    else:
        spec = EvParkSpec(
            **common,
            arrival_rate_per_h=args.arrival_rate,
            charge_power_kw=args.charge_power,
        )
    profile, events = generate(spec)
    write_profile_csv(profile, args.out)
    if args.events:
        write_json({"spec": dataclasses.asdict(spec) | {"kind": args.kind}, "events": events},
                   args.events)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessplit",
        description="Analyze load profiles for hybrid-storage fit and simulate threshold dispatch.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="profile CSV (timestamp,power_kw)")
        p.add_argument("--clamp-negative", action="store_true",
                       help="zero negative powers instead of rejecting them")

    p = sub.add_parser("analyze", help="full analysis report as JSON")
    add_input(p)
    p.add_argument("--manifest", action="store_true",
                   help="treat input as a JSON catalog manifest")
    p.add_argument("--bins", type=int, default=LOAD_BINS)
    p.add_argument("--derivative-bins", type=int, default=DERIVATIVE_BINS)
    p.add_argument("--tail-level", type=float, default=TAIL_LEVEL)
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("dispatch", help="simulate the power split, write trace + summary")
    add_input(p)
    p.add_argument("--config", help=f"JSON config (default: ${CONFIG_ENV_VAR} or built-ins)")
    p.add_argument("--trace", help="write per-step trace CSV here")
    p.add_argument("--out", help="summary JSON path (default: stdout)")

    p = sub.add_parser("sweep", help="dispatch across a threshold range, write table CSV")
    add_input(p)
    p.add_argument("--range", required=True, metavar="LO:HI:STEP",
                   help="inclusive threshold range, e.g. 0.5:0.9:0.1")
    p.add_argument("--config", help=f"JSON config (default: ${CONFIG_ENV_VAR} or built-ins)")
    p.add_argument("--out", help="sweep CSV path (default: stdout)")

    p = sub.add_parser("ups", help="outage coverage feasibility for a time window")
    add_input(p)
    p.add_argument("--start", type=float, required=True, help="outage start, seconds from t0")
    p.add_argument("--duration", type=float, required=True, help="outage length in seconds")
    p.add_argument("--config", help=f"JSON config (default: ${CONFIG_ENV_VAR} or built-ins)")
    p.add_argument("--vrfb-power", type=float, help="override battery power rating (kW)")
    p.add_argument("--vrfb-energy", type=float, help="override battery capacity (kWh)")
    p.add_argument("--sc-power", type=float, help="override supercapacitor power (kW)")
    p.add_argument("--sc-energy", type=float, help="override supercapacitor capacity (kWh)")
    p.add_argument("--vrfb-soc", type=float, help="override battery initial SoC fraction")
    p.add_argument("--sc-soc", type=float, help="override supercapacitor initial SoC fraction")
    p.add_argument("--demand-out", help="also write the in-window demand profile CSV here")
    p.add_argument("--out", help="feasibility JSON path (default: stdout)")

    p = sub.add_parser("synth", help="generate a synthetic profile CSV (+ event log)")
    p.add_argument("--kind", required=True, choices=["municipal", "machine", "ev_park"])
    p.add_argument("--out", required=True, help="profile CSV path")
    p.add_argument("--events", help="also write the generator event log JSON here")
    p.add_argument("--days", type=int, default=1, help="profile length in days")
    p.add_argument("--dt", type=float, default=1.0, help="sample interval in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=0.01, help="municipal only")
    p.add_argument("--duty-cycle", type=float, default=0.5, help="machine only: off fraction")
    p.add_argument("--on-level", type=float, default=0.95, help="machine only")
    p.add_argument("--arrival-rate", type=float, default=3.0, help="ev_park only: sessions/hour")
    p.add_argument("--charge-power", type=float, default=11.0, help="ev_park only: kW")
    p.add_argument("--scale-kw", type=float,
                   help="municipal/machine output scale in kW (defaults per kind)")

    return parser


_HANDLERS = {
    "analyze": _cmd_analyze,
    "dispatch": _cmd_dispatch,
    "sweep": _cmd_sweep,
    "ups": _cmd_ups,
    "synth": _cmd_synth,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warn
            return _HANDLERS[args.command](args)
    except (HessplitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violations
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
