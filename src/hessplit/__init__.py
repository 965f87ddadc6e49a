"""Load-profile analysis and dispatch simulation for hybrid storage.

The package answers two questions about an electrical load profile:

1. Is this site a good fit for a hybrid store pairing a supercapacitor
   (fast, tiny) with a vanadium redox flow battery (slow, deep)? —
   resolution gate, per-unit metrics, transient histograms, rule-based
   classification.
2. What would a simple threshold split actually do? — step-by-step
   dispatch simulation with state-of-charge, ramp, and recharge rules,
   threshold sweeps, and outage-coverage checks.

Each public name loads on first use (PEP 562), so a CLI command imports
only the modules it runs: ``dispatch`` loads neither the report (nor its
``hashlib``), the classifier nor the generators, and ``import hessplit``
alone loads no numpy. Start-up is a large share of a short run.
"""

import importlib

__version__ = "0.1.0"

#: Each public name, under the submodule that defines it.
_EXPORTS = {
    "ems": [
        "DeviceParams", "DispatchResult", "EmsConfig", "EngageMode", "Limiting", "UpsScenario",
        "UtilizationStats", "dispatch", "make_ups_scenario", "threshold_sweep",
        "write_dispatch_csv", "write_sweep_csv",
    ],
    "errors": ["HessplitError"],
    "metrics": [
        "NormalizedProfile", "PeakStats", "ProfileMetrics", "base_load_estimate",
        "compute_metrics", "load_factor", "normalize", "peak_stats",
    ],
    "profiles": [
        "CatalogEntry", "Category", "LoadProfile", "ResolutionVerdict", "parse_profile",
        "parse_profile_file", "read_catalog", "resample", "validate_resolution",
        "write_profile_csv",
    ],
    "report": ["AnalysisReport", "analyze_profile", "read_report_json", "write_report_json"],
    "rules": ["ClassificationReport", "Relevance", "RuleThresholds", "classify"],
    "synth": [
        "EvParkSpec", "MachineSpec", "MunicipalSpec", "gen_ev_park", "gen_machine",
        "gen_municipal", "generate",
    ],
    "transient": [
        "DerivativeSeries", "Histogram", "SymmetryReport", "derivative", "histogram",
        "symmetry_report", "write_histogram_csv",
    ],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _MODULE_OF:
        globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        return globals()[name]
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})

