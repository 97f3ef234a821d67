#!/usr/bin/env python3
"""Run every workload once and print its metrics as one table.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in its own process
through run.py; the table shows each metric with its unit and, for the
end-to-end metrics, its sample count. Exits 1 if any workload's outputs
failed a check.
"""

import argparse
import json
import os
import subprocess
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = {}
    for workload in workloads.NAMES:
        subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        path = os.path.join(run.RESULTS, f"{workload}-s{args.seed}-t{args.trace}.json")
        with open(path) as fh:
            results[workload] = json.load(fh)

    width = 22
    print(f"{'metric':<46} {'unit':<6}" + "".join(f"{w:>{width}}" for w in results))
    for name in next(iter(results.values()))["metrics"]:
        cells = []
        for res in results.values():
            n = res["samples"].get(name)
            cell = f"{res['metrics'][name]:.5g}" + (f" (n={n})" if n is not None else "")
            cells.append(f"{cell:>{width}}")
        print(f"{name:<46} {run.unit(name, bool(args.trace)):<6}" + "".join(cells))
    print(f"{'failed / attempted':<53}" + "".join(
        f"{str(r['failed']) + ' / ' + str(r['attempted']):>{width}}" for r in results.values()))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
