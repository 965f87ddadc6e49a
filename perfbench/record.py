"""Record the expected output digests for a range of workload seeds.

Run from the repository root, on a commit whose outputs are known good::

    python3 perfbench/record.py --seeds 0:64

For every workload and seed it writes the input, runs the CLI once, checks
the outputs against the independent anchors in ``checks.py`` (the naive
dispatch oracle and the input hash) and stores the SHA-256 of each output in
``digests.json``, keyed by workload, input sample count and seed. A seed
whose outputs fail an anchor is not recorded, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from workloads import INPUT_NAME, SRC, WORK, WORKLOADS, child_env, make_spec, run_cli, write_input


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0:64", help="lo:hi, hi excluded")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split(":"))

    sys.path.insert(0, str(SRC))
    import checks

    table = json.loads(checks.DIGESTS.read_text(encoding="utf-8"))
    env = child_env()
    status = 0
    for name, workload in WORKLOADS.items():
        workdir = WORK / "record" / name
        workdir.mkdir(parents=True, exist_ok=True)
        for seed in range(lo, hi):
            _, samples = write_input(make_spec(workload, seed), workdir / INPUT_NAME)
            run = run_cli(workload, workdir, env)
            problems, _ = checks.anchor(workload, workdir)
            if run.returncode != 0 or problems:
                print(f"{name} seed {seed}: exit {run.returncode} {problems}", file=sys.stderr)
                status = 1
                continue
            by_size = table["digests"].setdefault(name, {}).setdefault(str(samples), {})
            by_size[str(seed)] = checks.output_digests(workload, workdir)
            print(f"{name} seed {seed}: recorded", flush=True)
    checks.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
