"""The package surface, what each command imports, and the thread count the
CLI gives OpenBLAS, in fresh interpreters.

Import order decides what a lazy attribute lookup returns, so every check
here runs in a child process that starts with nothing of hessplit loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hessplit import MachineSpec, gen_machine, write_profile_csv

SRC = Path(__file__).resolve().parent.parent / "src"

#: The public names, by defining submodule, as the eager package exported them.
SURFACE = {
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
#: Names removed from the surface at 0.1.0, which neither the package nor their
#: old module may still define.
REMOVED = {"ems": ["FlagSeries", "compute_flags"], "profiles": ["load_catalog"]}


def _child(code: str, openblas_threads: str | None = None):
    """Run ``code`` in a fresh interpreter importing hessplit from ``src``; return
    the JSON value it prints last. ``OPENBLAS_NUM_THREADS`` is set to
    ``openblas_threads`` if that is given, else left unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_surface_keeps_every_public_name():
    result = _child(f"""
import importlib, json, sys
import hessplit
assert hessplit.__file__.startswith({str(SRC)!r}), hessplit.__file__
surface = {SURFACE!r}
names = [n for ns in surface.values() for n in ns]
r = {{"all": sorted(hessplit.__all__), "n_all": len(hessplit.__all__)}}
r["not_in_dir"] = sorted(set(names) - set(dir(hessplit)))
r["synth"] = hessplit.synth.gen_machine is sys.modules["hessplit.synth"].gen_machine
r["not_same"] = []
for module, ns in surface.items():
    for name in ns:
        scope = {{}}
        exec(f"from hessplit import {{name}}", scope)
        if scope[name] is not getattr(importlib.import_module("hessplit." + module), name):
            r["not_same"].append(name)
scope = {{}}
exec("from hessplit import *", scope)
r["not_starred"] = sorted(set(hessplit.__all__) - set(scope))
r["removed"] = sorted(name for module, ns in {REMOVED!r}.items() for name in ns
                      if hasattr(hessplit, name)
                      or hasattr(importlib.import_module("hessplit." + module), name))
print(json.dumps(r))
""")
    names = sorted(["__version__", *(n for ns in SURFACE.values() for n in ns)])
    assert len(names) == 54
    assert result["all"] == names and result["n_all"] == 54
    assert result["not_in_dir"] == []
    assert result["synth"]
    assert result["not_same"] == []
    assert result["not_starred"] == []
    assert result["removed"] == []


@pytest.mark.parametrize("first", [
    "import hessplit.report", "from hessplit import report", "import hessplit.rules",
])
def test_classify_is_the_function_whatever_loads_first(first):
    result = _child(f"""
import json, types
{first}
from hessplit import classify
import hessplit
print(json.dumps([isinstance(classify, types.FunctionType), classify is hessplit.classify,
                  classify.__module__]))
""")
    assert result == [True, True, "hessplit.rules"]


def test_classify_names_no_submodule():
    assert _child("""
import json
try:
    import hessplit.classify
    missing = None
except ModuleNotFoundError as exc:
    missing = exc.name
print(json.dumps(missing))
""") == "hessplit.classify"


def test_import_loads_no_numpy():
    assert _child("import json, sys, hessplit; print(json.dumps('numpy' in sys.modules))") is False


@pytest.mark.parametrize("imports, given, expected", [
    ("import hessplit.cli", None, "1"),
    ("import hessplit.cli", "2", "2"),
    ("import numpy; import hessplit.cli", None, None),
    ("import hessplit", None, None),
], ids=["cli", "cli-user-value", "numpy-first", "package"])
def test_cli_sets_openblas_threads_only_before_numpy(imports, given, expected):
    code = f"import json, os; {imports}; print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"
    assert _child(code, given) == expected


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
def test_cli_starts_no_openblas_workers():
    count = "import json, os; print(json.dumps(len(os.listdir('/proc/self/task'))))"
    if _child(f"import numpy; {count}") == 1:
        pytest.skip("numpy alone starts a single thread here")
    assert _child(f"import hessplit.cli; {count}") == 1


@pytest.fixture(scope="module")
def machine_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "machine.csv"
    write_profile_csv(gen_machine(MachineSpec(days=1, dt=5.0))[0], path)
    return path


_NOT_RUN = ["hessplit.report", "hessplit.synth", "hashlib", "hessplit.rules"]


@pytest.mark.parametrize("argv, unloaded", [
    (["dispatch", "{csv}", "--trace", "{out}.csv", "--out", "{out}.json"], _NOT_RUN),
    (["sweep", "{csv}", "--range", "0.5:0.9:0.1", "--out", "{out}.csv"], _NOT_RUN),
    (["ups", "{csv}", "--start", "600", "--duration", "60", "--out", "{out}.json"], _NOT_RUN),
    (["analyze", "{csv}", "--out", "{out}.json"], ["hessplit.ems", "hessplit.synth"]),
], ids=["dispatch", "sweep", "ups", "analyze"])
def test_command_loads_only_what_it_runs(machine_csv, argv, unloaded):
    argv = [a.format(csv=machine_csv, out=machine_csv.with_name(argv[0])) for a in argv]
    code, loaded = _child(f"""
import json, sys
from hessplit.cli import main
code = main({argv!r})
print(json.dumps([code, sorted(m for m in {unloaded!r} if m in sys.modules)]))
""")
    assert code == 0
    assert loaded == []
