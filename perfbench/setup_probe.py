"""One set-up sample: import prefgame and run one `prefgame run` op.

    python3 perfbench/setup_probe.py <config.json>

Run from the root of a checkout in a fresh process. numpy is imported
first, as the benchmark's input generation does, so the sample covers
what prefgame adds: its import and its first op. The calibration loop runs
just before, so the parent can scale the sample to reference speed.
Prints {"setup_s": seconds, "calibration_s": seconds} as one JSON line.
"""

import contextlib
import io
import json
import os
import statistics
import sys
import time

import calibrate  # imports numpy, outside the timed span on purpose

src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, src)
calibrate.calibration_s()  # first pass warms the loop's code paths
calibration = statistics.median(calibrate.calibration_s() for _ in range(3))

start = time.perf_counter()
from prefgame import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["run", sys.argv[1]])
elapsed = time.perf_counter() - start
if not os.path.abspath(cli.__file__).startswith(src + os.sep):
    sys.exit(f"imported prefgame from {cli.__file__}, not from {src}")
print(json.dumps({"setup_s": elapsed, "calibration_s": calibration}))
