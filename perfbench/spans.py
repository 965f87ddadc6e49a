"""In-process traced run: spans around the public calls of each module.

The pipeline first replays the workload's CLI command in the order the CLI
makes its calls (span ``cli.chain``), then every other stage on the same
input (span ``bench.replay``), so each per-layer metric exists on each
workload. The analysis stages are also replayed one public call at a time
under ``report.analyze_stages``; ``analyze_profile`` minus their sum is
``report.unattributed_s``. Spans are recorded from here only; nothing in
``src/`` is instrumented.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from workloads import INPUT_NAME, SWEEP_THRESHOLDS, Workload


@dataclass
class Span:
    name: str
    rep: int
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Holds spans in memory; ``dump`` writes them once, at the end."""

    spans: list[Span] = field(default_factory=list)
    rep: int = 0
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append(Span(name, self.rep, time.perf_counter(), parent=parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def totals(self, rep: int) -> dict[str, float]:
        """Seconds per span name within one rep (repeated calls are summed)."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s.rep == rep:
                out[s.name] = out.get(s.name, 0.0) + s.duration
        return out

    def children_total(self, rep: int, parent_name: str) -> float:
        parents = {i for i, s in enumerate(self.spans) if s.rep == rep and s.name == parent_name}
        return sum(s.duration for s in self.spans if s.parent in parents)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([vars(s) for s in self.spans]) + "\n", encoding="utf-8")


class NullTracer:
    """Same interface, records nothing: the untraced in-process run."""

    def span(self, name: str):
        return nullcontext()


def _analyze(profile):
    from hessplit.report import analyze_profile

    return analyze_profile(profile)


def _report_json(report) -> str:
    from hessplit.report import report_to_dict

    return json.dumps(report_to_dict(report), indent=2) + "\n"


def chain(workload: Workload, workdir: Path, tr) -> object:
    """The calls the CLI makes for this workload, in its order.

    Returns the dispatch result when the command dispatches once, else None.
    """
    from hessplit import dispatch, normalize, parse_profile_file, threshold_sweep
    from hessplit import write_dispatch_csv, write_sweep_csv

    with tr.span("profiles.parse"):
        profile = parse_profile_file(workdir / INPUT_NAME)
    if workload.command == "analyze":
        with tr.span("report.analyze_profile"):
            report = _analyze(profile)
        with tr.span("report.json"):
            (workdir / "inproc_stdout.txt").write_text(_report_json(report), encoding="utf-8")
        return None
    with tr.span("metrics.normalize"):
        norm = normalize(profile)
    if workload.command == "dispatch":
        with tr.span("ems.dispatch"):
            result = dispatch(norm)
        with tr.span("ems.trace_write"):
            write_dispatch_csv(result, workdir / "inproc_trace.csv")
        return result
    with tr.span("ems.sweep"):
        rows = threshold_sweep(norm, SWEEP_THRESHOLDS)
    with tr.span("ems.sweep_write"):
        write_sweep_csv(rows, workdir / "inproc_sweep.csv")
    return None


def replay(workload: Workload, workdir: Path, tr):
    """Every stage the workload's command does not call, on the same input.

    Returns the default-config dispatch result (run here or in the chain).
    """
    from hessplit import (
        base_load_estimate, classify, compute_metrics, dispatch, normalize,
        parse_profile_file, threshold_sweep, validate_resolution,
        write_dispatch_csv, write_sweep_csv,
    )
    from hessplit.profiles import profile_to_csv
    from hessplit.transient import (
        DERIVATIVE_BINS, LOAD_BINS, derivative, histogram, symmetry_report,
    )

    profile = parse_profile_file(workdir / INPUT_NAME)
    if workload.command != "analyze":
        with tr.span("report.analyze_profile"):
            report = _analyze(profile)
        with tr.span("report.json"):
            _report_json(report)

    with tr.span("report.analyze_stages"):
        with tr.span("profiles.validate_resolution"):
            validate_resolution(profile)
        # ``metrics.normalize`` times one call: the CLI's own where the
        # command makes it, else this replayed stage.
        normalize_span = ("metrics.normalize" if workload.command == "analyze"
                          else "report.stage_normalize")
        with tr.span(normalize_span):
            norm = normalize(profile)
        with tr.span("metrics.compute_metrics"):
            metrics = compute_metrics(profile)
        with tr.span("transient.histogram"):
            load_hist = histogram(norm.pu, bins=LOAD_BINS, range=(0.0, 1.0))
        with tr.span("transient.derivative"):
            deriv = derivative(norm)
        with tr.span("transient.histogram"):
            deriv_hist = histogram(deriv.normalized, bins=DERIVATIVE_BINS, symmetric=True)
        with tr.span("transient.symmetry"):
            symmetry = symmetry_report(deriv_hist)
        with tr.span("classify.classify"):
            classify(metrics, symmetry, load_hist)
        with tr.span("report.input_hash"):
            hashlib.sha256(profile_to_csv(profile).encode("utf-8")).hexdigest()

    with tr.span("metrics.base_load"):
        base_load_estimate(norm)
    with tr.span("profiles.to_csv"):
        profile_to_csv(profile)

    result = None
    if workload.command != "dispatch":
        with tr.span("ems.dispatch"):
            result = dispatch(norm)
        with tr.span("ems.trace_write"):
            write_dispatch_csv(result, workdir / "inproc_trace.csv")
    if workload.command != "sweep":
        with tr.span("ems.sweep"):
            rows = threshold_sweep(norm, SWEEP_THRESHOLDS)
        with tr.span("ems.sweep_write"):
            write_sweep_csv(rows, workdir / "inproc_sweep.csv")
    return result


def traced_rep(workload: Workload, workdir: Path, tr: Tracer):
    """One traced pass; returns the default-config dispatch result."""
    with tr.span("bench.rep"):
        with tr.span("cli.chain"):
            result = chain(workload, workdir, tr)
        with tr.span("bench.replay"):
            replayed = replay(workload, workdir, tr)
    return result if result is not None else replayed


def untraced_chain(workload: Workload, workdir: Path) -> float:
    """Seconds for the workload's CLI chain with span recording off."""
    start = time.perf_counter()
    chain(workload, workdir, NullTracer())
    return time.perf_counter() - start
