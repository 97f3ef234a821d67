"""End-to-end acceptance checks.

Each test exercises one verifiable property of the library at full
strength: exact value identities, convergence of averaged self-play,
closed-form agreement of the loss minimizers, preset reductions, gradient
integrity, gap calibration, reward recovery, and byte-level determinism.
Every test asserts its own runtime budget and prints one PASS line
straight to the terminal when it survives.
"""

import json
import time

import numpy as np
import pytest

from helpers import (
    fd_logit_gradient,
    fd_reward_gradient,
    max_grad_rel_error,
    random_instance,
    random_policy,
)
from prefgame import (
    GameInstance,
    LossConfig,
    PLACKETT_LUCE,
    PairMarginProblem,
    PolicyLogits,
    ResponseSpace,
    RewardTable,
    SolverConfig,
    TabularPolicy,
    UpdateMatchingProblem,
    bt_instance,
    closed_form_multi_teacher_optimum,
    compare_presets,
    config_from_dict,
    dual_gap_two_player,
    fit_pl_reward,
    generate_rankings,
    make_bt_oracle,
    minimize_loss,
    mixed_instance,
    multi_teacher_objective,
    multiplayer_objective,
    mwu_step,
    pair_margin_loss,
    pl_nll,
    pl_nll_gradient,
    point_mass_policy,
    rps_instance,
    run_experiment,
    self_play_run,
    two_player_objective,
    uniform_policy,
    update_matching_loss,
    write_bundled,
)


def report(capsys, num, label, elapsed, limit):
    assert elapsed < limit, f"criterion {num} overran: {elapsed:.2f}s >= {limit}s"
    with capsys.disabled():
        print(f"criterion {num:02d}: PASS {label} [{elapsed:.2f}s < {limit:.0f}s]")


def linf(p, q):
    return max(
        float(np.max(np.abs(a - b))) for a, b in zip(p.rows, q.rows)
    )


def test_criterion_01_self_play_value_identities(capsys):
    """Playing a policy against itself is worth exactly 1/2, and the
    one-vs-many softmax value of n identical players is exactly 1/n."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
        inst = random_instance(rng, max_responses=5)
        p = random_policy(rng, inst.space.sizes)
        assert abs(two_player_objective(p, p, inst, 0.0) - 0.5) <= 1e-12

    for n in (2, 3, 4):
        inst = random_instance(rng, max_responses=5, with_rewards=True)
        p = random_policy(rng, inst.space.sizes)
        value = multiplayer_objective(p, [p] * (n - 1), inst, 0.0, PLACKETT_LUCE)
        assert abs(value - 1.0 / n) <= 1e-12

    report(capsys, 1, "self-play value identities", time.perf_counter() - start, 1.0)


def test_criterion_02_averaged_self_play_converges(capsys):
    """On the cyclic 3-response game the averaged iterate closes in on the
    uniform equilibrium, with the gap shrinking at the expected rate."""
    start = time.perf_counter()
    inst = rps_instance()
    cfg = SolverConfig(eta=0.5, iterations=5000, metric_stride=250)
    result = self_play_run(inst, cfg)
    gaps = {r.iteration: r.gap for r in result.log.records}

    assert gaps[5000] <= 1e-2
    assert linf(result.average, uniform_policy(inst.space)) <= 1e-2
    assert gaps[1000] <= 0.6 * gaps[250]
    assert gaps[4000] <= 0.6 * gaps[1000]

    report(capsys, 2, "averaged self-play convergence", time.perf_counter() - start, 10.0)


def test_criterion_03_loss_minimizer_is_the_update(capsys):
    """Gradient descent on the update-matching loss lands on the closed
    multiplicative-weights step from every initialization."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for trial in range(5):
        inst = random_instance(rng, max_responses=5)
        n = 2 + trial % 2
        current = random_policy(rng, inst.space.sizes)
        opponents = [random_policy(rng, inst.space.sizes) for _ in range(n - 1)]
        eta = float(rng.uniform(0.4, 1.2))
        closed = mwu_step(opponents, inst, eta)
        problem = UpdateMatchingProblem(inst, current, opponents, eta)
        for _ in range(3):
            z0 = PolicyLogits(
                tuple(rng.standard_normal(k) for k in inst.space.sizes)
            )
            res = minimize_loss(problem, z0, steps=3000, step_size=0.5)
            assert linf(res.policy, closed) <= 1e-4
            assert update_matching_loss(res.policy, inst, current, opponents, eta) <= 1e-10

    report(capsys, 3, "loss minimizer matches closed update", time.perf_counter() - start, 30.0)


def test_criterion_04_winner_target_differs_by_a_constant(capsys):
    """At unit step size the winner-targeted loss and the update-matching
    loss disagree by the same additive constant at every policy."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for inst in (rps_instance(), bt_instance(), mixed_instance()):
        ref = inst.reference
        winner = LossConfig((ref,), (1.0,), "sq", 0.5)  # target 1 / (2 eta)
        diffs = []
        for _ in range(10):
            p = random_policy(rng, inst.space.sizes)
            diffs.append(
                pair_margin_loss(p, [ref], winner, inst)
                - update_matching_loss(p, inst, ref, [ref], 1.0)
            )
        assert max(diffs) - min(diffs) <= 1e-9

    report(capsys, 4, "winner target differs by a constant", time.perf_counter() - start, 5.0)


def test_criterion_05_preset_reduction_identities(capsys):
    """Every named preset of the loss family reproduces its published
    per-pair formula to machine precision over 1000 random draws."""
    start = time.perf_counter()
    table = compare_presets(mixed_instance(), samples=1000, seed=0)
    assert set(table) == {
        "dpo", "ipo", "sppo", "spin", "dno", "inpo", "distill_dpo", "simpo",
    }
    for name, deviation in table.items():
        assert deviation <= 1e-12, f"{name} deviates by {deviation}"

    report(capsys, 5, "preset reduction identities", time.perf_counter() - start, 5.0)


def test_criterion_06_gradient_integrity(capsys):
    """Analytic gradients of the pair-margin loss and the ranking
    likelihood agree with central finite differences."""
    start = time.perf_counter()
    rng = np.random.default_rng(606)

    for _ in range(20):
        inst = random_instance(rng, max_responses=5)
        history = [random_policy(rng, inst.space.sizes)]
        metric = ("sq", "bwd")[int(rng.integers(2))]
        if metric == "bwd":
            target = float("inf") if rng.random() < 0.5 else float(rng.uniform(-1, 1))
        elif rng.random() < 0.5:
            target = "win_rate_gap"
        else:
            target = float(rng.uniform(-1, 1))
        n = 2 + int(rng.integers(2))
        offsets = ((0,), (0, "ref"))[n - 2]
        w = rng.uniform(0.2, 0.8, size=n - 1)
        w = tuple(w / w.sum())
        cfg = LossConfig(
            offsets, w, metric, target,
            eta=float(rng.uniform(0.3, 2.0)),
            beta=float(rng.uniform(0.5, 2.0)),
        )
        problem = PairMarginProblem(inst, history, cfg)
        z = PolicyLogits(tuple(rng.standard_normal(k) for k in inst.space.sizes))
        analytic = problem.gradient(z).rows
        numeric = fd_logit_gradient(problem, z, step=1e-5)
        assert max_grad_rel_error(analytic, numeric) <= 1e-5

    for _ in range(20):
        inst = random_instance(rng, max_responses=5)
        data = generate_rankings(inst.reward, inst, 60, 1, rng)
        probe = RewardTable(tuple(rng.normal(size=k) for k in inst.space.sizes))
        grad = pl_nll_gradient(probe, data)
        analytic = [grad[x, :k] for x, k in enumerate(probe.sizes)]
        numeric = fd_reward_gradient(probe, data, step=1e-5)
        assert max_grad_rel_error(analytic, numeric) <= 1e-5

    report(capsys, 6, "gradient integrity", time.perf_counter() - start, 10.0)


def test_criterion_07_duality_gap_calibration(capsys):
    """The duality gap vanishes at the cyclic game's equilibrium and
    equals exactly one at a deterministic policy."""
    start = time.perf_counter()
    inst = rps_instance()
    assert abs(dual_gap_two_player(uniform_policy(inst.space), inst, 0.0)) <= 1e-10
    rock = point_mass_policy(inst.space, [0])
    assert abs(dual_gap_two_player(rock, inst, 0.0) - 1.0) <= 1e-10

    report(capsys, 7, "duality gap calibration", time.perf_counter() - start, 1.0)


def test_criterion_08_closed_form_beats_random_probes(capsys):
    """The closed-form optimum of the multi-anchor regularized reward
    objective strictly beats every random probe policy."""
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(5):
        inst = random_instance(rng, max_responses=5, with_rewards=True)
        teachers = [
            random_policy(rng, inst.space.sizes)
            for _ in range(1 + int(rng.integers(2)))
        ]
        tau_ref = float(rng.uniform(0.2, 1.5))
        taus = [float(rng.uniform(0.2, 1.5)) for _ in teachers]
        star = closed_form_multi_teacher_optimum(
            inst.reward, inst.reference, teachers, tau_ref, taus
        )
        best = multi_teacher_objective(
            star, inst.reward, inst.reference, teachers, tau_ref, taus, inst
        )
        for _ in range(100):
            probe = random_policy(rng, inst.space.sizes)
            value = multi_teacher_objective(
                probe, inst.reward, inst.reference, teachers, tau_ref, taus, inst
            )
            assert best - value >= 1e-9

    report(capsys, 8, "closed-form optimum beats probes", time.perf_counter() - start, 5.0)


def test_criterion_09_ranking_reward_recovery(capsys):
    """Fitting the ranking likelihood on 10^4 top-1-of-3 observations
    recovers unit reward gaps within 0.1, and the likelihood is invariant
    to per-prompt reward shifts."""
    start = time.perf_counter()
    rewards = RewardTable((np.array([1.0, 0.0, -1.0]),))
    inst = GameInstance(
        prompt_weights=np.array([1.0]),
        space=ResponseSpace((("a", "b", "c"),)),
        reference=TabularPolicy([[1 / 3, 1 / 3, 1 / 3]]),
        preference=make_bt_oracle(rewards),
        reward=rewards,
    )
    rng = np.random.default_rng(42)
    data = generate_rankings(rewards, inst, 10_000, 2, rng)
    fit = fit_pl_reward(data, inst)
    row = fit.rewards.rows[0]
    assert abs(float(row[0] - row[1]) - 1.0) <= 0.1
    assert abs(float(row[1] - row[2]) - 1.0) <= 0.1

    base = pl_nll(rewards, data)
    shifted = RewardTable((rewards.rows[0] + 77.7,))
    assert abs(pl_nll(shifted, data) - base) <= 1e-12

    report(capsys, 9, "ranking reward recovery", time.perf_counter() - start, 30.0)


def test_criterion_10_reruns_are_byte_identical(capsys, tmp_path):
    """Running the same experiment config twice writes byte-identical
    output files, CSVs included."""
    start = time.perf_counter()
    paths = write_bundled(tmp_path / "instances")

    def run_into(tag):
        out = {}
        sp = {
            "mode": "selfplay",
            "instance": paths["rps"],
            "out_dir": str(tmp_path / tag / "sp"),
            "seed": 17,
            "eta": 0.5,
            "iterations": 400,
            "metric_stride": 100,
        }
        run_experiment(config_from_dict(sp))
        rf = {
            "mode": "rewardfit",
            "instance": paths["bt"],
            "out_dir": str(tmp_path / tag / "rf"),
            "seed": 17,
            "comparisons": 500,
        }
        run_experiment(config_from_dict(rf))
        for name in ("sp/metrics.csv", "sp/policy_final.json", "sp/policy_average.json"):
            out[name] = (tmp_path / tag / name).read_bytes()
        for name in ("rf/rankings.csv", "rf/fitted.json", "rf/report.json"):
            out[name] = (tmp_path / tag / name).read_bytes()
        return out

    assert run_into("first") == run_into("second")

    report(capsys, 10, "byte-identical reruns", time.perf_counter() - start, 10.0)
