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
:class:`~hessplit.ems.DeviceParams` field names. The ``ups`` device flags and
the ``synth`` kind flags each set the field their dest names, so each default
and check is the dataclass's own.

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
from typing import TYPE_CHECKING, Optional

# numpy's bundled OpenBLAS starts a worker thread per extra CPU when numpy
# loads, and each spins for about 0.12 s of CPU before it sleeps. No command
# makes a BLAS call, so one thread will do. On 2 vCPUs that saves each run
# the spin's CPU, and its wall time when the other vCPU is busy, as it was
# when `import numpy` took 235-254 ms by default and 158-184 ms with one
# thread (medians of 21 child runs). A user's own value is kept, and a numpy
# already loaded has read the variable.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .errors import HessplitError, InvalidConfigError, InvalidRangeError, InvalidSpecError
from .metrics import normalize
from .profiles import _catalog_profiles, parse_profile_file, write_json, write_profile_csv
from .transient import DERIVATIVE_BINS, LOAD_BINS, TAIL_LEVEL

if TYPE_CHECKING:
    from .ems import DeviceParams, EmsConfig

CONFIG_ENV_VAR = "HESSPLIT_CONFIG"
#: Most thresholds one ``--range`` may name; each is a full dispatch run.
MAX_RANGE_POINTS = 1000


def _load_config(path: Optional[str]) -> tuple[EmsConfig, DeviceParams]:
    """Split a flat JSON config into the EMS and device parameter sets."""
    from .ems import DeviceParams, EmsConfig  # analyze and synth never load ems

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
    ems_fields = {f.name for f in dataclasses.fields(EmsConfig)}
    dev_fields = {f.name for f in dataclasses.fields(DeviceParams)}
    cfg_kwargs, dev_kwargs = {}, {}
    for key, value in raw.items():
        if key in ems_fields:
            cfg_kwargs[key] = value
        elif key in dev_fields:
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
    from .report import analyze_profile, report_to_dict  # no other command loads report

    path = Path(args.input)
    manifest = args.manifest or path.suffix.lower() == ".json"
    if manifest:
        profiles = _catalog_profiles(path, args.clamp_negative)  # parsed one at a time
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
    write_json(reports if manifest else reports[0], args.out or sys.stdout)
    return 0


def _cmd_dispatch(args: argparse.Namespace) -> int:
    from .ems import dispatch, write_dispatch_csv

    cfg, dev = _load_config(args.config)
    norm = normalize(parse_profile_file(args.input, clamp_negative=args.clamp_negative))
    result = dispatch(norm, cfg, dev)
    summary = dataclasses.asdict(result.stats)
    summary["site_id"] = norm.site_id
    summary["n_steps"] = result.n_steps
    summary["recharge_threshold"] = result.recharge_threshold
    del norm  # the trace write needs only the result
    if args.trace:
        write_dispatch_csv(result, args.trace)
    write_json(summary, args.out or sys.stdout)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .ems import threshold_sweep, write_sweep_csv

    cfg, dev = _load_config(args.config)
    thresholds = _parse_range(args.range)
    norm = normalize(parse_profile_file(args.input, clamp_negative=args.clamp_negative))
    rows = threshold_sweep(norm, thresholds, cfg, dev)
    write_sweep_csv(rows, args.out or sys.stdout)
    return 0


def _cmd_ups(args: argparse.Namespace) -> int:
    from .ems import DeviceParams, make_ups_scenario

    _, dev = _load_config(args.config)
    dev_fields = {f.name for f in dataclasses.fields(DeviceParams)}
    dev = dataclasses.replace(dev, **{
        k: v for k, v in vars(args).items() if k in dev_fields and v is not None})
    profile = parse_profile_file(args.input, clamp_negative=args.clamp_negative)
    scenario = make_ups_scenario(profile, args.start, args.duration, dev)
    result = {"site_id": profile.site_id, "outage_start_s": args.start,
              "outage_duration_s": args.duration}
    result |= {f.name: getattr(scenario, f.name) for f in dataclasses.fields(scenario)
               if f.name != "hess_demand"}
    result["limiting"] = scenario.limiting.value
    write_json(result, args.out or sys.stdout)
    if args.demand_out:
        write_profile_csv(scenario.hess_demand, args.demand_out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .synth import EvParkSpec, MachineSpec, MunicipalSpec, generate  # nor synth

    specs = {"municipal": MunicipalSpec, "machine": MachineSpec, "ev_park": EvParkSpec}
    params = {f.name for spec in specs.values() for f in dataclasses.fields(spec)}
    given = {k: v for k, v in vars(args).items() if k in params and v is not None}
    foreign = sorted(given.keys() - {f.name for f in dataclasses.fields(specs[args.kind])})
    if foreign:
        raise InvalidSpecError(f"{args.kind}: no such parameter: {', '.join(foreign)}")
    spec = specs[args.kind](**given)
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
    p.set_defaults(handler=_cmd_analyze)
    add_input(p)
    p.add_argument("--manifest", action="store_true",
                   help="treat input as a JSON catalog manifest")
    p.add_argument("--bins", type=int, default=LOAD_BINS)
    p.add_argument("--derivative-bins", type=int, default=DERIVATIVE_BINS)
    p.add_argument("--tail-level", type=float, default=TAIL_LEVEL)
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("dispatch", help="simulate the power split, write trace + summary")
    p.set_defaults(handler=_cmd_dispatch)
    add_input(p)
    p.add_argument("--config", help=f"JSON config (default: ${CONFIG_ENV_VAR} or built-ins)")
    p.add_argument("--trace", help="write per-step trace CSV here")
    p.add_argument("--out", help="summary JSON path (default: stdout)")

    p = sub.add_parser("sweep", help="dispatch across a threshold range, write table CSV")
    p.set_defaults(handler=_cmd_sweep)
    add_input(p)
    p.add_argument("--range", required=True, metavar="LO:HI:STEP",
                   help="inclusive threshold range, e.g. 0.5:0.9:0.1")
    p.add_argument("--config", help=f"JSON config (default: ${CONFIG_ENV_VAR} or built-ins)")
    p.add_argument("--out", help="sweep CSV path (default: stdout)")

    p = sub.add_parser("ups", help="outage coverage feasibility for a time window")
    p.set_defaults(handler=_cmd_ups)
    add_input(p)
    p.add_argument("--start", type=float, required=True, help="outage start, seconds from t0")
    p.add_argument("--duration", type=float, required=True, help="outage length in seconds")
    p.add_argument("--config", help=f"JSON config (default: ${CONFIG_ENV_VAR} or built-ins)")
    p.add_argument("--vrfb-power", type=float, dest="vrfb_power_kw",
                   help="override battery power rating (kW)")
    p.add_argument("--vrfb-energy", type=float, dest="vrfb_energy_kwh",
                   help="override battery capacity (kWh)")
    p.add_argument("--sc-power", type=float, dest="sc_power_kw",
                   help="override supercapacitor power (kW)")
    p.add_argument("--sc-energy", type=float, dest="sc_energy_kwh",
                   help="override supercapacitor capacity (kWh)")
    p.add_argument("--vrfb-soc", type=float, dest="vrfb_initial_soc_fraction",
                   help="override battery initial SoC fraction")
    p.add_argument("--sc-soc", type=float, dest="sc_initial_soc_fraction",
                   help="override supercapacitor initial SoC fraction")
    p.add_argument("--demand-out", help="also write the in-window demand profile CSV here")
    p.add_argument("--out", help="feasibility JSON path (default: stdout)")

    p = sub.add_parser("synth", help="generate a synthetic profile CSV (+ event log)")
    p.set_defaults(handler=_cmd_synth)
    p.add_argument("--kind", required=True, choices=["municipal", "machine", "ev_park"])
    p.add_argument("--out", required=True, help="profile CSV path")
    p.add_argument("--events", help="also write the generator event log JSON here")
    p.add_argument("--days", type=int, default=1, help="profile length in days")
    p.add_argument("--dt", type=float, default=1.0, help="sample interval in seconds")
    p.add_argument("--seed", type=int, default=0)
    # a kind flag sets the spec field named by its dest; left out, the spec's default holds
    p.add_argument("--noise-sigma", type=float, dest="noise_sigma", help="municipal only")
    p.add_argument("--duty-cycle", type=float, dest="duty_cycle",
                   help="machine only: off fraction")
    p.add_argument("--on-level", type=float, dest="on_level", help="machine only")
    p.add_argument("--arrival-rate", type=float, dest="arrival_rate_per_h",
                   help="ev_park only: sessions/hour")
    p.add_argument("--charge-power", type=float, dest="charge_power_kw", help="ev_park only: kW")
    p.add_argument("--scale-kw", type=float, dest="scale_kw", help="municipal/machine: kW scale")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warn
            return args.handler(args)
    except (HessplitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violations
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
