#!/usr/bin/env python3
"""prefgame benchmark: a closed loop of `prefgame run` ops on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark writes the workload's input
files from --seed, then calls prefgame.cli.main(["run", config]) in this
process, one op after another with a single caller, for S seconds. BLAS
runs on one thread. Every op's output files must hash the same as the
warm-up op's, and the warm-up's outputs must pass the workload's
independent check (checks.py); an op that exits non-zero or misses
either counts as failed.

--trace 0 prints the end-to-end metrics:

    setup_s      median over fresh processes of: import prefgame + first op
    op_p50_s     median op time
    op_p90_s     90th-percentile op time
    ops_per_s    verified ops per second of op time
    ok_ratio     verified ops / attempted ops
    peak_rss_mb  peak resident memory of this process

Times are wall times scaled to a reference machine speed with the
calibration loop of calibrate.py, run before and after each op and before
each set-up sample; the raw wall times are printed and recorded beside
them.

--trace 1 alternates untraced and traced ops and prints the per-layer
metrics of tracing.py plus the tracing overhead (traced median op time
over untraced median op time).

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. A fuller record (environment, sample counts, set-up
samples, check problems) goes to .perfbench_work/results/, and the
traced run's spans next to it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the numpy import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
RESULTS = os.path.join(WORK_ROOT, "results")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


def _per_layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith((".self_share", ".accept_ratio", ".overhead")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Threads the bundled OpenBLAS will use, or the env setting if unknown."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def _cache_sizes():
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "blas_threads": _blas_threads(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one op


def import_prefgame():
    """prefgame.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    from prefgame import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"imported prefgame from {cli.__file__}, not from {SRC}")
    return cli


class _Op:
    """Runs `prefgame run config` and reports its exit code; never raises."""

    def __init__(self, cli, config):
        self.cli, self.config = cli, config
        self.reported = False

    def __call__(self) -> int:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(["run", self.config])
        except Exception:  # an op that crashes is a failed op, not a failed run
            if not self.reported:
                traceback.print_exc()
                self.reported = True
            return -1


def _outputs(out_dir) -> dict:
    """{file name: (sha256, bytes)} of every file the op wrote."""
    found = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            found[name] = (hashlib.sha256(data).hexdigest(), len(data))
    return found


def _probe(config) -> tuple[float, float]:
    """(set-up wall seconds, calibration seconds) from one fresh process."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), config],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["calibration_s"]


# ---------------------------------------------------------------------------
# one run


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result record (see module doc)."""
    work = os.path.join(WORK_ROOT, f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    env = environment(seed)
    tracer = tracing.Tracer() if trace else None
    try:
        config = workloads.generate(workload, seed, work)
        with open(config) as fh:
            out_dir = json.load(fh)["out_dir"]
        setup = [] if trace else [_probe(config) for _ in range(SETUP_PROBES)]

        op = _Op(import_prefgame(), config)
        shutil.rmtree(out_dir, ignore_errors=True)
        code = op()
        problems = checks.check(workload, config) if code == 0 else [f"warm-up exit {code}"]
        expected = _outputs(out_dir)

        plain, traced, calibrations, failed = [], [], [], 0
        calibrate.calibration_s()  # first pass warms the loop's code paths
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            shutil.rmtree(out_dir, ignore_errors=True)
            with_trace = tracer is not None and len(plain) > len(traced)
            if with_trace:
                tracer.op = len(traced)
                tracer.install()
            elif tracer is None:
                calibrations.append(calibrate.calibration_s())
            start = time.perf_counter()
            code = op()
            elapsed = time.perf_counter() - start
            if with_trace:
                tracer.uninstall()
            outputs = _outputs(out_dir)
            failed += code != 0 or bool(problems) or outputs != expected
            if with_trace:
                traced.append(elapsed)
                tracer.counts[tracer.op]["harness.out_bytes"] += sum(
                    size for _, size in outputs.values()
                )
            else:
                plain.append(elapsed)
        if tracer is None:
            calibrations.append(calibrate.calibration_s())  # after the last op
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(plain) + len(traced)
    verified = attempted - failed
    raw = {}
    if trace:
        metrics = tracer.metrics()
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
        samples = {"traced_ops": len(traced), "untraced_ops": len(plain)}
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write_spans(os.path.join(RESULTS, f"{workload}-s{seed}-t1-spans.csv.gz"))
    else:
        ops = [t * s for t, s in zip(plain, calibrate.scales(calibrations))]
        metrics = _timings([t * calibrate.scale(c) for t, c in setup], ops, verified)
        metrics["ok_ratio"] = verified / attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = _timings([t for t, _ in setup], plain, verified)
        raw["calibration_p50_s"] = statistics.median(calibrations)
        raw["op_s"] = plain
        raw["calibration_s"] = calibrations
        samples = {"setup_s": len(setup), "op_p50_s": len(plain), "op_p90_s": len(plain),
                   "ops_per_s": verified, "ok_ratio": attempted}
    return {
        "workload": workload,
        "trace": int(trace),
        "env": env,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup_samples": setup,
        "samples": samples,
        "metrics": metrics,
        "raw_wall": raw,
    }


def _timings(setup: list[float], ops: list[float], verified: int) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(ops),
        "op_p90_s": float(np.percentile(ops, 90)),
        "ops_per_s": verified / sum(ops),
    }


def unit(name, trace):
    return _per_layer_unit(name) if trace else END_TO_END_UNITS[name]


def report(result: dict) -> dict:
    """Write the result record; returns the final JSON line's object."""
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{result['workload']}-s{result['env']['seed']}-t{result['trace']}"
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    trace = bool(result["trace"])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit(name, trace)}
                    for name, value in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "prefgame")):
        print(f"no prefgame sources under {SRC}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(result["env"]))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    for name, value in result["metrics"].items():
        n = result["samples"].get(name)
        print(f"{name:<46} {value:>14.6g} {unit(name, bool(args.trace)):<6}"
              + (f" n={n}" if n is not None else ""))
    for name, value in result["raw_wall"].items():
        if not isinstance(value, list):
            print(f"raw wall {name:<37} {value:>14.6g}")
    if args.trace:
        print(f"traced ops {result['samples']['traced_ops']}, "
              f"untraced ops {result['samples']['untraced_ops']}")
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
