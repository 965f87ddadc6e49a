"""Output checks: recorded digests, independent anchors, workload properties.

Three layers of checking, cheapest first:

* every timed run must exit 0, write every output afresh (``run_cli``
  deletes them before the spawn) and reproduce, byte for byte, the SHA-256 of
  each output recorded in ``digests.json`` for that workload, input size and
  seed (for a seed with no record, the digests of the untimed warm-up run,
  after that run has passed the anchors below);
* once per invocation and outside the timed runs, the outputs are anchored to
  references that share no code with the command under test: the dispatch
  trace must equal, byte for byte, the CSV rendered here from
  ``tests/oracle.py::naive_dispatch``; one sweep row must equal the statistics
  of a dispatch that matches the oracle bit for bit; and the analysis
  report's ``input_sha256`` must equal the SHA-256 of the input file (the
  file is the canonical CSV rendering);
* workload-property counts are read from the checked dispatch arrays, so a
  later change can show that its mechanism was exercised.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np

from workloads import INPUT_NAME, ORACLE, SWEEP_THRESHOLDS, Workload

DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: The sweep threshold replayed against the oracle: the default ``sc_threshold``.
ORACLE_THRESHOLD = 0.8


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(workload: Workload, workdir: Path) -> dict[str, str | None]:
    """SHA-256 of each output; None for an output the run did not write."""
    return {name: sha256_file(p) if p.is_file() else None
            for name, p in workload.outputs(workdir).items()}


def recorded_digests(workload: Workload, samples: int, seed: int) -> dict[str, str] | None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table["digests"].get(workload.name, {}).get(str(samples), {}).get(str(seed))


def _load_oracle():
    spec = importlib.util.spec_from_file_location("hessplit_bench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _same_bits(a, b) -> bool:
    a, b = _bits(a), _bits(b)
    return a.shape == b.shape and bool(np.all(a == b))


def _oracle_dispatch(norm, sc_threshold: float, problems: list[str]):
    """Library dispatch with the resolved recharge threshold passed explicitly,
    required to equal the naive oracle bit for bit.

    Returns the library result and the oracle's per-step lists.
    """
    from hessplit.ems import DeviceParams, EmsConfig, dispatch, resolve_recharge_threshold

    base = EmsConfig(sc_threshold=sc_threshold)
    cfg = EmsConfig(
        sc_threshold=sc_threshold,
        recharge_threshold=resolve_recharge_threshold(norm, base),
    )
    dev = DeviceParams()
    result = dispatch(norm, cfg, dev)
    oracle = _load_oracle().naive_dispatch(
        norm.pu.tolist(), norm.dt, norm.base_power_kw, cfg, dev
    )
    for name, ref in zip(("p_sc_kw", "p_vrfb_kw", "p_grid_kw", "soc_sc_kwh", "soc_vrfb_kwh"),
                         oracle):
        if not _same_bits(getattr(result, name), ref):
            problems.append(f"dispatch {name} differs from the naive oracle")
    return result, oracle


def _expected_trace(norm, sc_threshold: float, oracle) -> bytes:
    """The ``--trace`` CSV rendered from the oracle's lists, not the library's:
    ``repr`` of every float, the flag as 0/1, ``csv`` module line endings."""
    p_sc, p_v, p_grid, soc_sc, soc_v = oracle
    p_max, dt = norm.base_power_kw, norm.dt
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "p_load_kw", "p_grid_kw", "p_sc_kw", "p_vrfb_kw",
                     "soc_sc_kwh", "soc_vrfb_kwh", "flag_sc"])
    for i, x in enumerate(norm.pu.tolist()):
        writer.writerow([repr(i * dt), repr(x * p_max), repr(p_grid[i]), repr(p_sc[i]),
                         repr(p_v[i]), repr(soc_sc[i]), repr(soc_v[i]), int(x > sc_threshold)])
    return buf.getvalue().encode("utf-8")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _stats_row(stats) -> list[float]:
    return [stats.sc_engaged_fraction, stats.sc_energy_share,
            stats.vrfb_energy_share, stats.grid_peak_kw]


def properties(result) -> dict[str, float]:
    """Counts that repeat exactly for a given input, read from a dispatch."""
    soc_sc, soc_v, p_v = result.soc_sc_kwh, result.soc_vrfb_kwh, result.p_vrfb_kw
    fixed = (soc_sc[1:] == soc_sc[:-1]) & (soc_v[1:] == soc_v[:-1]) & (p_v[1:] == p_v[:-1])
    return {
        "ems.fixed_point_step_fraction": float(fixed.mean()),
        "ems.vrfb_empty_step_fraction": float(np.mean(soc_v == 0.0)),
        "ems.sc_engaged_fraction": result.stats.sc_engaged_fraction,
    }


def anchor(workload: Workload, workdir: Path) -> tuple[list[str], dict[str, float]]:
    """Check one run's outputs against the independent references.

    Returns the problems found (empty when the outputs are right) and the
    workload-property counts.
    """
    from hessplit.metrics import normalize
    from hessplit.profiles import parse_profile_file

    problems: list[str] = []
    inp = workdir / INPUT_NAME
    outputs = workload.outputs(workdir)
    props: dict[str, float] = {}
    try:
        if workload.command == "analyze":
            report = json.loads(outputs["stdout"].read_text(encoding="utf-8"))
            if report.get("input_sha256") != sha256_file(inp):
                problems.append("input_sha256 is not the SHA-256 of the canonical input CSV")
            return problems, props

        norm = normalize(parse_profile_file(inp))
        result, oracle = _oracle_dispatch(norm, ORACLE_THRESHOLD, problems)
        props = properties(result)
        if workload.command == "dispatch":
            if outputs["trace"].read_bytes() != _expected_trace(norm, ORACLE_THRESHOLD, oracle):
                problems.append("trace CSV differs from the oracle's trace")
            props["ems.trace_bytes"] = outputs["trace"].stat().st_size
            summary = json.loads(outputs["stdout"].read_text(encoding="utf-8"))
            got = [summary.get(k) for k in ("sc_engaged_fraction", "sc_energy_share",
                                             "vrfb_energy_share", "grid_peak_kw")]
            if got != _stats_row(result.stats) or summary.get("n_steps") != result.n_steps:
                problems.append("dispatch summary differs from the oracle-checked dispatch")
            if summary.get("recharge_threshold") != result.recharge_threshold:
                problems.append("dispatch summary recharge_threshold differs")
        else:
            _, rows = _read_csv(outputs["stdout"])
            thresholds = [float(r[0]) for r in rows]
            if thresholds != list(SWEEP_THRESHOLDS):
                problems.append(f"sweep thresholds are {thresholds}")
            else:
                row = rows[thresholds.index(ORACLE_THRESHOLD)]
                if [float(x) for x in row[1:]] != _stats_row(result.stats):
                    problems.append("sweep row differs from the oracle-checked dispatch")
    except Exception as exc:  # a crash while checking is a failed check
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    return problems, props
