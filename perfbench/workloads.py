"""Workload table, input generation and the CLI child process.

Every workload is one ``hessplit`` command on one seeded synthetic
archetype. The workload seed is the generator seed; the program itself only
ever sees the CSV file written here.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
WORK = ROOT / ".bench_work"

#: ``--held-out`` adds this to the seed: a range no recorded digest and no
#: tuning run has used, so a claim can be re-checked on unseen inputs.
HELD_OUT_OFFSET = 1_000_000

#: File the input profile is written to; its stem is the report's site_id,
#: so it is part of the recorded output digests.
INPUT_NAME = "profile.csv"

#: Files the in-process traced run writes into the work directory.
INPROC_OUTPUTS = ("inproc_stdout.txt", "inproc_trace.csv", "inproc_sweep.csv")

SWEEP_RANGE = "0.5:0.9:0.1"
SWEEP_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)

#: Starts the CLI the way the ``hessplit`` console script does.
CLI_STUB = "import sys; from hessplit.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # generator archetype
    days: int
    default_seed: int
    command: str  # hessplit subcommand

    def argv(self, workdir: Path) -> list[str]:
        """CLI arguments; every output except stdout goes into ``workdir``."""
        inp = str(workdir / INPUT_NAME)
        if self.command == "analyze":
            return ["analyze", inp]
        if self.command == "dispatch":
            return ["dispatch", inp, "--trace", str(workdir / "trace.csv")]
        return ["sweep", inp, "--range", SWEEP_RANGE]

    def outputs(self, workdir: Path) -> dict[str, Path]:
        """Every file the command writes, stdout included, by output name."""
        out = {"stdout": workdir / "stdout.txt"}
        if self.command == "dispatch":
            out["trace"] = workdir / "trace.csv"
        return out


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload exists is in BENCHMARK.json and README.md.
        Workload("analyze-municipal", "municipal", 2, 42, "analyze"),
        Workload("dispatch-machine", "machine", 1, 11, "dispatch"),
        Workload("sweep-municipal", "municipal", 1, 42, "sweep"),
    )
}


def make_spec(workload: Workload, seed: int):
    from hessplit.synth import MachineSpec, MunicipalSpec

    cls = MunicipalSpec if workload.kind == "municipal" else MachineSpec
    return cls(days=workload.days, seed=seed)


def spec_record(workload: Workload, spec) -> dict:
    return {"kind": workload.kind, **dataclasses.asdict(spec)}


def write_input(spec, path: Path) -> tuple[float, int]:
    """Generate the profile and write its CSV; returns seconds and samples."""
    from hessplit.profiles import write_profile_csv
    from hessplit.synth import generate

    start = time.perf_counter()
    profile, _ = generate(spec)
    write_profile_csv(profile, path)
    return time.perf_counter() - start, profile.n_samples


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@dataclass(frozen=True)
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


#: Spawns the measured child and reports its exit code, wall time, CPU time
#: and peak RSS. Linux carries the spawning process's peak RSS into a child
#: that it execs, so the benchmark process, which holds profiles in memory,
#: must not spawn the child itself: this small launcher (no site, no numpy)
#: does, and only its own few megabytes can leak into the figure.
LAUNCHER = """
import os, sys, time
out, err, *argv = sys.argv[1:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
           (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(os.waitstatus_to_exitcode(status), repr(wall),
      repr(usage.ru_utime + usage.ru_stime), usage.ru_maxrss)
"""


def run_child(args: list[str], stdout_path: Path, env: dict[str, str]) -> ChildRun:
    """Run ``python -c <code> args`` to completion, timed from spawn to exit.

    ``os.wait4`` in the launcher reaps the child and returns its own resource
    usage, so CPU time and peak RSS are the child's alone.
    """
    report = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, str(stdout_path),
         str(stdout_path.with_suffix(".err")), sys.executable, "-c", *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True,
    ).stdout.split()
    return ChildRun(
        returncode=int(report[0]),
        wall_s=float(report[1]),
        cpu_s=float(report[2]),
        peak_rss_mb=int(report[3]) / 1024.0,
    )


def run_cli(workload: Workload, workdir: Path, env: dict[str, str]) -> ChildRun:
    """Run the workload's command once; its output files are deleted first, so
    a run that fails to write one leaves it missing rather than stale."""
    outputs = workload.outputs(workdir)
    for path in outputs.values():
        path.unlink(missing_ok=True)
    return run_child([CLI_STUB, *workload.argv(workdir)], outputs["stdout"], env)
