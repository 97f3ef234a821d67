"""The benchmark's own tests: checks pass on right answers, fail on wrong ones.

    python3 -m pytest perfbench -q

Each test runs a workload for a fraction of a second in this process, with
prefgame patched where a test needs a wrong answer or a corrupted file.
"""

import sys

import numpy as np
import pytest

import run as bench
import tracing
import workloads

HELD_OUT_SEED = 104729
SECONDS = 0.3


def _run(workload, trace=False):
    return bench.run(workload, HELD_OUT_SEED, SECONDS, trace)


@pytest.fixture
def prefgame():
    bench.import_prefgame()
    return sys.modules["prefgame"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_right_answers_pass(workload):
    result = _run(workload)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"] == 1.0


def test_corrupted_output_file_fails(prefgame, monkeypatch):
    original = prefgame.harness._write_json
    calls = []

    def write_then_corrupt(doc, path):
        original(doc, path)
        calls.append(path)
        if len(calls) > 1:  # the warm-up op writes clean output
            with open(path, "a") as fh:
                fh.write(" ")

    monkeypatch.setattr(prefgame.harness, "_write_json", write_then_corrupt)
    result = _run("gap_pl")
    assert result["problems"] == []
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"] == 0.0


def _tilt_policy(prefgame):
    original = prefgame.solvers.mwu_step

    def tilted(*args, **kwargs):
        rows = [r * (1.0 + 1e-6 * np.arange(len(r))) for r in original(*args, **kwargs).rows]
        return prefgame.TabularPolicy(tuple(r / r.sum() for r in rows))

    return prefgame.solvers, "mwu_step", tilted


def _scale_pl_table(prefgame):
    original = prefgame.objectives._pl_win_row
    return prefgame.objectives, "_pl_win_row", lambda *a: original(*a) * (1.0 + 1e-7)


def _stop_descent_early(prefgame):
    original = prefgame.harness.minimize_loss

    def early(problem, init, steps=4000, **kwargs):
        return original(problem, init, steps=min(steps, 20), **kwargs)

    return prefgame.harness, "minimize_loss", early


def _scale_reward_gradient(prefgame):
    original = prefgame.reward_learning.pl_nll_gradient

    def scaled(*args):
        return tuple(g * 1.0001 for g in original(*args))

    return prefgame.reward_learning, "pl_nll_gradient", scaled


@pytest.mark.parametrize("workload, perturb", [
    ("selfplay_wide", _tilt_policy),
    ("gap_pl", _scale_pl_table),
    ("lossmin", _stop_descent_early),
    ("rewardfit", _scale_reward_gradient),
])
def test_perturbed_answer_fails(prefgame, monkeypatch, workload, perturb):
    monkeypatch.setattr(*perturb(prefgame))
    result = _run(workload)
    assert result["problems"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"] == 0.0


def test_traced_run_counts_and_restores(prefgame):
    originals = {name: getattr(prefgame.cli, name) for name in ("main", "run_experiment")}
    result = _run("gap_pl", trace=True)
    assert result["correct"]
    m = result["metrics"]
    assert m["cli.main.calls"] == 1.0 and m["harness.gap_report.calls"] == 1.0
    assert m["losses.minimize_loss.calls"] == 0.0
    per_call = 3 * 6 * 6 ** 4  # prompts * responses * opponent tuples (4 opponents)
    assert m["objectives.pl_tuples"] == m["objectives.expected_win_rates.calls"] * per_call
    assert m["objectives.self_share"] > 0.5
    assert m["trace.overhead"] > 0.0
    assert set(m) >= {f"{n}.{s}" for n in tracing.SPAN_NAMES for s in ("calls", "self_ms")}
    for name, fn in originals.items():
        assert getattr(prefgame.cli, name) is fn
