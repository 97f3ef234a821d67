"""Seeded input generation for the four benchmark workloads.

Every workload is one `prefgame run <config>` op. The generator writes the
instance file, any policy file and the config file into a work directory;
the program under test sees only those files. The same (workload, seed)
always writes the same bytes.

Sizes are fixed where they set the amount of work (prompt counts, the
response counts of the Plackett-Luce game, comparison and step budgets),
so that op time does not swing with the seed; the seed picks the values
inside those shapes.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

# Why each workload is in the benchmark; BENCHMARK.json repeats these.
WHY = {
    "selfplay_wide": "100 prompts with uneven 3-12 responses: the per-prompt "
    "loops in solvers.mwu_step and mean-pairwise win rates dominate",
    "gap_pl": "5-player Plackett-Luce exploitability: tuple enumeration in "
    "objectives dominates, no solver work",
    "lossmin": "backtracking descent on the update-matching loss: only the "
    "losses module does real work",
    "rewardfit": "800 ranked comparisons and a 60-step reward fit: "
    "reward_learning does all the work",
}

SELFPLAY = {"prompts": 100, "k_min": 3, "k_max": 12, "eta": 0.5,
            "iterations": 20, "metric_stride": 10}
GAP_PL = {"prompts": 3, "k": 6, "n_players": 5, "tau": 0.1}
LOSSMIN = {"sizes": (3, 12), "eta": 0.5, "inits": 3, "steps": 800}
REWARDFIT = {"prompts": 4, "k_min": 4, "k_max": 12, "comparisons": 800,
             "pool_size": 2, "steps": 60, "step_size": 2.0}


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(zlib.crc32(workload.encode()),))
    )


def _interior_rows(rng, sizes) -> list[list[float]]:
    rows = []
    for k in sizes:
        row = rng.random(k) + 0.05
        rows.append((row / row.sum()).tolist())
    return rows


def _weights(rng, n) -> list[float]:
    w = rng.random(n) + 0.5
    return (w / w.sum()).tolist()


def _antisymmetric(upper: np.ndarray) -> np.ndarray:
    """Matrix with the given strict upper triangle, M + M^T = 1, 0.5 diagonal."""
    k = len(upper)
    m = np.full((k, k), 0.5)
    iu = np.triu_indices(k, 1)
    m[iu] = upper[iu]
    m[iu[1], iu[0]] = 1.0 - upper[iu]
    return m


def _bt_matrix(rng, k) -> np.ndarray:
    r = rng.normal(0.0, 1.0, k)
    return _antisymmetric(1.0 / (1.0 + np.exp(-(r[:, None] - r[None, :]))))


def _cyclic_matrix(rng, k) -> np.ndarray:
    s = rng.uniform(0.6, 1.0)
    upper = np.full((k, k), 0.5)
    for i in range(k - 1):
        upper[i, i + 1] = s
    upper[0, k - 1] = 1.0 - s  # k-1 beats 0 closes the cycle
    return _antisymmetric(upper)


def _random_matrix(rng, k) -> np.ndarray:
    return _antisymmetric(rng.random((k, k)))


_ORACLES = (_bt_matrix, _cyclic_matrix, _random_matrix)


def _write(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _labels(sizes):
    return [[f"r{y}" for y in range(k)] for k in sizes]


def _selfplay_wide(rng, work):
    c = SELFPLAY
    p = c["prompts"]
    sizes = rng.integers(c["k_min"], c["k_max"] + 1, p).tolist()
    kinds = rng.permutation(np.arange(p) % len(_ORACLES))
    mats = [_ORACLES[kind](rng, k).tolist() for kind, k in zip(kinds, sizes)]
    instance = {
        "prompt_weights": _weights(rng, p),
        "responses": _labels(sizes),
        "reference": _interior_rows(rng, sizes),
        "preference": {"kind": "matrix", "matrices": mats},
    }
    config = {"mode": "selfplay", "eta": c["eta"], "iterations": c["iterations"],
              "metric_stride": c["metric_stride"], "n_players": 2}
    return instance, config, {}


def _gap_pl(rng, work):
    c = GAP_PL
    sizes = [c["k"]] * c["prompts"]
    instance = {
        "prompt_weights": _weights(rng, c["prompts"]),
        "responses": _labels(sizes),
        "reference": _interior_rows(rng, sizes),
        "preference": {"kind": "bradley_terry"},
        "rewards": [rng.normal(0.0, 1.5, k).tolist() for k in sizes],
    }
    policy_path = os.path.join(work, "policy.json")
    config = {"mode": "gap", "policy": policy_path, "n_players": c["n_players"],
              "aggregator": "plackett_luce", "tau": c["tau"]}
    return instance, config, {policy_path: {"rows": _interior_rows(rng, sizes)}}


def _lossmin(rng, work):
    c = LOSSMIN
    sizes = list(c["sizes"])
    # Equal prompt weights and a uniform reference fix the loss's curvature,
    # so descent takes about the same number of steps on every seed; the
    # seed still draws the oracle and, through the config, the initial logits.
    instance = {
        "prompt_weights": [1.0 / len(sizes)] * len(sizes),
        "responses": _labels(sizes),
        "reference": [[1.0 / k] * k for k in sizes],
        "preference": {"kind": "matrix",
                       "matrices": [_random_matrix(rng, k).tolist() for k in sizes]},
    }
    config = {"mode": "lossmin", "eta": c["eta"], "inits": c["inits"],
              "steps": c["steps"], "n_players": 2}
    return instance, config, {}


def _rewardfit(rng, work):
    c = REWARDFIT
    sizes = rng.integers(c["k_min"], c["k_max"] + 1, c["prompts"]).tolist()
    instance = {
        "prompt_weights": _weights(rng, c["prompts"]),
        "responses": _labels(sizes),
        "reference": _interior_rows(rng, sizes),
        "preference": {"kind": "bradley_terry"},
        "rewards": [rng.normal(0.0, 1.0, k).tolist() for k in sizes],
    }
    config = {"mode": "rewardfit", "comparisons": c["comparisons"],
              "pool_size": c["pool_size"], "steps": c["steps"],
              "step_size": c["step_size"]}
    return instance, config, {}


_GENERATORS = {
    "selfplay_wide": _selfplay_wide,
    "gap_pl": _gap_pl,
    "lossmin": _lossmin,
    "rewardfit": _rewardfit,
}
NAMES = tuple(_GENERATORS)


def generate(workload: str, seed: int, work: str) -> str:
    """Write the workload's input files under `work`; returns the config path.

    The config's seed is the benchmark seed, so the program's own random
    streams (initial logits, sampled rankings) also follow `--seed`.
    """
    rng = _rng(seed, workload)
    instance, config, extra = _GENERATORS[workload](rng, work)
    os.makedirs(work, exist_ok=True)
    instance_path = os.path.join(work, "instance.json")
    config_path = os.path.join(work, "config.json")
    _write(instance, instance_path)
    for path, doc in extra.items():
        _write(doc, path)
    config.update(instance=instance_path, out_dir=os.path.join(work, "out"),
                  seed=int(seed))
    _write(config, config_path)
    return config_path
