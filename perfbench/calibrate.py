"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed of one core drifts by up to 2x over minutes
as neighbours come and go, which buries any code change in noise. So the
benchmark runs a fixed calibration loop before and after each timed op and
reports op time scaled by REFERENCE_S / (calibration time): the time the op
would take on a machine that runs the loop in exactly REFERENCE_S. The loop
mixes what a prefgame op does (small numpy kernels, JSON parsing and
formatting, plain Python loops) and calls nothing from prefgame, so a
change to prefgame moves the scaled time and machine drift largely does
not. Raw wall times are recorded next to the scaled ones.
"""

import json
import time

import numpy as np

# About the loop's duration on an uncontended Xeon core (Python 3.11,
# numpy 2.4, one BLAS thread); it only fixes the unit of the scaled times.
REFERENCE_S = 0.005

_rng = np.random.default_rng(0)
_MATS = [_rng.random((k, k)) for k in range(3, 13)] * 30
_VECS = [_rng.random(len(m)) for m in _MATS]
_DOC = json.dumps({"rows": [v.tolist() for v in _VECS]})


def _loop() -> float:
    acc = 0.0
    for m, v in zip(_MATS, _VECS):
        w = np.exp(np.log(v) + 0.5 * (m @ v))
        w = w / w.sum()
        acc += float(np.max(np.abs(w - v)))
    acc += len(json.dumps(json.loads(_DOC)))
    acc += sum(i * i for i in range(5000))
    return acc


def calibration_s() -> float:
    """Wall time of one pass of the calibration loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def scale(calibration: float) -> float:
    """Factor turning a wall time measured next to `calibration` into reference seconds."""
    return REFERENCE_S / calibration


def scales(calibrations: list[float]) -> list[float]:
    """Scale factor for op i from calibrations[i] (before it) and [i + 1] (after).

    The slower of the two is used: a slowdown that starts or ends during
    the op shows in at least one of them, so it does not land in the op
    time tail as if the op itself had been slow.
    """
    return [scale(max(before, after)) for before, after in zip(calibrations, calibrations[1:])]
