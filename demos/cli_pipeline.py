"""The whole pipeline through the command line, no Python API needed.

Writes the bundled instances and a handful of experiment configs into a
temporary directory (removed at the end), then drives everything through the `prefgame`
entry point: validate, self-play, gap reports, preset checks, and the
byte-identical rerun guarantee.
"""

import json
import os
import tempfile

from prefgame import write_bundled
from prefgame.cli import main as cli


def run(argv):
    print(f"\n$ prefgame {' '.join(argv)}")
    code = cli(argv)
    print(f"[exit {code}]")
    return code


def main():
    with tempfile.TemporaryDirectory(prefix="prefgame_demo_") as root:
        pipeline(root)


def pipeline(root):
    paths = write_bundled(os.path.join(root, "instances"))
    print(f"workspace: {root}")

    run(["validate", paths["rps"]])

    selfplay = {
        "mode": "selfplay",
        "instance": paths["rps"],
        "out_dir": os.path.join(root, "selfplay"),
        "seed": 1,
        "eta": 0.5,
        "iterations": 2000,
        "metric_stride": 500,
    }
    cfg_path = os.path.join(root, "selfplay.json")
    with open(cfg_path, "w") as fh:
        json.dump(selfplay, fh, indent=1)
    run(["run", cfg_path])

    print("\nmetrics.csv:")
    with open(os.path.join(root, "selfplay", "metrics.csv")) as fh:
        for line in fh:
            print(f"  {line.rstrip()}")

    run(["gap", paths["rps"], os.path.join(root, "selfplay", "policy_average.json")])
    run(["presets", paths["mixed"], "--samples", "200"])

    # rerunning the same config rewrites the same bytes
    before = open(os.path.join(root, "selfplay", "metrics.csv"), "rb").read()
    run(["run", cfg_path])
    after = open(os.path.join(root, "selfplay", "metrics.csv"), "rb").read()
    print(f"\nrerun byte-identical: {before == after}")

    # failures use distinct exit codes instead of tracebacks
    bad = dict(selfplay)
    del bad["eta"]
    bad_path = os.path.join(root, "bad.json")
    with open(bad_path, "w") as fh:
        json.dump(bad, fh)
    run(["run", bad_path])
    run(["validate", os.path.join(root, "nonexistent.json")])


if __name__ == "__main__":
    main()
