"""hessplit benchmark: one CLI workload, timed end to end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload analyze-municipal --seed 42 --seconds 20 --trace 0

``--trace 0`` times the workload's ``hessplit`` command as a child process,
repeated until ``--seconds`` have passed, and reports the end-to-end metrics.
``--trace 1`` runs the in-process traced pipeline (see ``spans.py``) and
reports the per-layer metrics. Every run checks the program's outputs (see
``checks.py``). The last line of stdout is the result object; the line before
it records the machine, the generator spec and the full statistics. Work
files go to ``.bench_work/<workload>/``. See ``README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import checks
from spans import Tracer, traced_rep, untraced_chain
from workloads import (
    HELD_OUT_OFFSET, INPROC_OUTPUTS, INPUT_NAME, ORACLE, ROOT, SRC, SWEEP_THRESHOLDS, WORK,
    WORKLOADS, child_env, make_spec, run_child, run_cli, spec_record, write_input,
)

#: Length of the timed loop when ``--seconds`` is not given.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
#: Input generations per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Fewest timed child runs per invocation, however short ``--seconds`` is.
MIN_REPS = 3
#: Child runs made in a traced invocation, for ``cli.overhead_s``.
TRACE_CHILD_REPS = 5

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hessplit.cli; "
    "print(repr(time.perf_counter() - t))"
)


def summarize(values: list[float]) -> dict:
    """Median with quartiles, extremes and the sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values),
    }


def machine_record() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def cpu_ticks() -> list[int]:
    """Aggregate CPU ticks from /proc/stat (user, nice, system, idle, iowait,
    irq, softirq, steal, ...); empty where the file does not exist."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return []


def steal_fraction(before: list[int], after: list[int]) -> float | None:
    """Share of the machine's CPU time the hypervisor gave to others."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta[:8])
    return delta[7] / total if total else None


class Run:
    """One invocation: inputs, correctness bookkeeping and child runs."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.workdir = WORK / workload.name
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.spec = make_spec(workload, seed)
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected: dict[str, str] | None = None
        self.digest_source = ""
        self.properties: dict[str, float] = {}

    def setup(self, repeats: int) -> list[float]:
        path = self.workdir / INPUT_NAME
        times = []
        for _ in range(repeats):
            seconds, self.samples = write_input(self.spec, path)
            times.append(seconds)
        self.input_bytes = path.stat().st_size
        return times

    def warm_up_and_anchor(self) -> None:
        """Untimed first run: fixes the expected digests and anchors them."""
        first = run_cli(self.workload, self.workdir, self.env)
        if first.returncode != 0:
            self.problems.append(f"warm-up run exited with {first.returncode}")
            return
        got = checks.output_digests(self.workload, self.workdir)
        missing = [name for name, digest in got.items() if digest is None]
        if missing:
            self.problems.append(f"warm-up run did not write {', '.join(missing)}")
            return
        recorded = checks.recorded_digests(self.workload, self.samples, self.spec.seed)
        if recorded is not None:
            self.digest_source = "recorded"
            self.expected = recorded
            if got != recorded:
                self.problems.append("warm-up outputs differ from the recorded digests")
        else:
            self.digest_source = "unrecorded seed: warm-up run, anchored only"
            self.expected = got
        anchor_problems, self.properties = checks.anchor(self.workload, self.workdir)
        self.problems.extend(anchor_problems)
        if self.problems:  # no digest to hold the timed runs to
            self.expected = None
        self.properties["profiles.input_samples"] = self.samples
        self.properties["profiles.input_bytes"] = self.input_bytes

    def timed_child(self):
        """One child run; a non-zero exit or an output mismatch counts as failed."""
        run = run_cli(self.workload, self.workdir, self.env)
        self.attempted += 1
        ok = (
            run.returncode == 0
            and self.expected is not None
            and checks.output_digests(self.workload, self.workdir) == self.expected
        )
        if not ok:
            self.failed += 1
        return run

    def info(self, **extra) -> dict:
        return {
            "workload": self.workload.name,
            "generator": spec_record(self.workload, self.spec),
            "samples": self.samples,
            "input_bytes": self.input_bytes,
            "machine": machine_record(),
            "digest_source": self.digest_source,
            "problems": self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_fraction": self.failed / self.attempted if self.attempted else None,
            "properties": self.properties,
            **extra,
        }

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setup = run.setup(SETUP_REPEATS)
    run.warm_up_and_anchor()
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        reps.append(run.timed_child())
    wall = [r.wall_s for r in reps]
    cpu = [r.cpu_s for r in reps]
    rss = [r.peak_rss_mb for r in reps]
    # Times are the median run of the window: on a shared host single runs
    # are both slowed and, less often, sped up by co-tenants (see README.md).
    metrics = {
        "wall_s": {"value": statistics.median(wall), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpu), "unit": "s"},
        "samples_per_s": {"value": run.samples / statistics.median(wall), "unit": "samples/s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    detail = {
        "wall_s": summarize(wall), "cpu_s": summarize(cpu),
        "peak_rss_mb": summarize(rss), "setup_s": summarize(setup),
    }
    return metrics, detail


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    run.setup(1)
    run.warm_up_and_anchor()
    child_wall = [run.timed_child().wall_s for _ in range(TRACE_CHILD_REPS)]
    imports = []
    for _ in range(TRACE_CHILD_REPS):
        probe = run_child([IMPORT_PROBE], run.workdir / "import_probe.txt", run.env)
        if probe.returncode != 0:
            run.problems.append("import probe failed")
            continue
        imports.append(float((run.workdir / "import_probe.txt").read_text()))

    tracer = Tracer()
    untraced: list[float] = []
    per_rep: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while len(per_rep) < 2 or time.perf_counter() < deadline:
        for path in INPROC_OUTPUTS:
            (run.workdir / path).unlink(missing_ok=True)
        untraced.append(untraced_chain(run.workload, run.workdir))
        tracer.rep = len(per_rep)
        result = traced_rep(run.workload, run.workdir, tracer)
        totals = tracer.totals(tracer.rep)
        totals["report.unattributed"] = (
            totals["report.analyze_profile"]
            - tracer.children_total(tracer.rep, "report.analyze_stages")
        )
        per_rep.append(totals)
    tracer.dump(run.workdir / "spans.json")

    def med(name: str) -> float:
        return statistics.median(t[name] for t in per_rep)

    samples = run.samples
    chain_traced = min(t["cli.chain"] for t in per_rep)
    props = checks.properties(result)
    props["ems.trace_bytes"] = (run.workdir / "inproc_trace.csv").stat().st_size
    values = {
        "profiles.parse_s": (med("profiles.parse"), "s"),
        "profiles.parse_rows_per_s": (samples / med("profiles.parse"), "rows/s"),
        "profiles.to_csv_s": (med("profiles.to_csv"), "s"),
        "report.input_hash_s": (med("report.input_hash"), "s"),
        "report.analyze_profile_s": (med("report.analyze_profile"), "s"),
        "report.json_s": (med("report.json"), "s"),
        "report.unattributed_s": (med("report.unattributed"), "s"),
        "metrics.normalize_s": (med("metrics.normalize"), "s"),
        "metrics.compute_metrics_s": (med("metrics.compute_metrics"), "s"),
        "metrics.base_load_s": (med("metrics.base_load"), "s"),
        "transient.derivative_s": (med("transient.derivative"), "s"),
        "transient.histogram_s": (med("transient.histogram"), "s"),
        "transient.symmetry_s": (med("transient.symmetry"), "s"),
        "classify.classify_s": (med("classify.classify"), "s"),
        "ems.dispatch_s": (med("ems.dispatch"), "s"),
        "ems.dispatch_steps_per_s": (samples / med("ems.dispatch"), "steps/s"),
        "ems.sweep_s": (med("ems.sweep"), "s"),
        "ems.sweep_point_s": (med("ems.sweep") / len(SWEEP_THRESHOLDS), "s"),
        "ems.trace_write_s": (med("ems.trace_write"), "s"),
        "ems.sweep_write_s": (med("ems.sweep_write"), "s"),
        "cli.import_s": (min(imports), "s"),
        "cli.overhead_s": (min(child_wall) - chain_traced, "s"),
        "bench.trace_overhead_ratio": (chain_traced / min(untraced), "ratio"),
        "profiles.input_samples": (samples, "count"),
        "profiles.input_bytes": (run.input_bytes, "bytes"),
        "ems.fixed_point_step_fraction": (props["ems.fixed_point_step_fraction"], "fraction"),
        "ems.sc_engaged_fraction": (props["ems.sc_engaged_fraction"], "fraction"),
        "ems.trace_bytes": (props["ems.trace_bytes"], "bytes"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    detail = {
        "traced_reps": len(per_rep),
        "child_wall_s": summarize(child_wall),
        "cli.chain_traced_s": summarize([t["cli.chain"] for t in per_rep]),
        "cli.chain_untraced_s": summarize(untraced),
        "ems.vrfb_empty_step_fraction": props["ems.vrfb_empty_step_fraction"],
        "spans_file": str((run.workdir / "spans.json").relative_to(ROOT)),
    }
    return metrics, detail


def preflight() -> str | None:
    """Why the benchmark cannot run here, or None."""
    if not (SRC / "hessplit" / "cli.py").is_file():
        return f"no hessplit sources under {SRC}"
    if not ORACLE.is_file():
        return f"no dispatch oracle at {ORACLE}"
    sys.path.insert(0, str(SRC))
    import hessplit

    if Path(hessplit.__file__).resolve().parent != (SRC / "hessplit").resolve():
        return f"imported hessplit from {hessplit.__file__}, not from {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int,
                        help="generator seed (default: the archetype's own, 42 or 11)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed loop runs (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of the traced run")
    parser.add_argument("--held-out", action="store_true",
                        help=f"use seed + {HELD_OUT_OFFSET}, a range never recorded or tuned on")
    args = parser.parse_args(argv)

    problem = preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    if args.held_out:
        seed += HELD_OUT_OFFSET

    run = Run(workload, seed)
    measure = per_layer if args.trace else end_to_end
    ticks = cpu_ticks()
    metrics, detail = measure(run, args.seconds)
    info = run.info(trace=args.trace, held_out=args.held_out, seconds=args.seconds,
                    steal_fraction=steal_fraction(ticks, cpu_ticks()), detail=detail)
    result = run.result(metrics)
    (run.workdir / "result.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
