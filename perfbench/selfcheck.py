"""Steadiness self-check: two sets of runs of the same code must agree.

Run from the repository root::

    python3 perfbench/selfcheck.py

Both sets run ``perfbench/run.py --trace 0`` on every workload in
``BENCHMARK.json``, once per seed of ``SEEDS``. The sets alternate run by
run (set 1, set 2, set 1, ...) on the same seed, so a slow phase of the host
falls on both sets alike. For every workload and end-to-end metric it prints
the metric's name and unit and, per set, the median and the quartile spread
``(q3 - q1) / median``; then whether each spread stays within the metric's
bound (``setup_s`` is exempt, as in the benchmark contract, which bounds
only its median) and whether the two medians agree within the bound. It also
prints the failed fraction of the timed runs. Exit code 0 means every check
passed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from workloads import ROOT, WORK

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    workloads = [w["name"] for w in BENCH["workloads"]]
    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            for k in range(SETS):
                res = run_once(w, seed)
                results[w][k].append(res)
                print(f"set {k + 1} seed {seed} {w}: correct={res['correct']} "
                      + " ".join(f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()),
                      flush=True)

    ok = True
    print()
    for w in workloads:
        runs = [r for s in results[w] for r in s]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        ok &= correct and failed == 0
        print(f"{w}: correct={correct} failed_fraction={failed / attempted:.6g} "
              f"({failed}/{attempted} timed runs)")
        for metric in BENCH["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [spread([r["metrics"][name]["value"] for r in s]) for s in results[w]]
            cells = "  ".join(f"set{k + 1} median={m:.6g} spread={sp:.4f}"
                              for k, (m, sp) in enumerate(per_set))
            steady = name == "setup_s" or all(sp <= bound for _, sp in per_set)
            (first, _), (second, _) = per_set
            agree = abs(second - first) / first <= bound
            ok &= steady and agree
            print(f"  {name} [{metric['unit']}] bound={bound}: {cells}  "
                  f"spread_ok={steady} agree={agree}")
    WORK.mkdir(exist_ok=True)
    (WORK / "selfcheck.json").write_text(json.dumps(results) + "\n", encoding="utf-8")
    print("\nselfcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
