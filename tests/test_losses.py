import contextlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bernoulli_kl_distance,
    fd_logit_gradient,
    log_ratio_margin,
    max_grad_rel_error,
    mean_pairwise_one_vs_many,
    random_instance,
    random_policy,
    reference_minimize_loss,
    reference_sq_slope,
    sparse_game,
    squared_distance,
)
from prefgame import (
    GameInstance,
    LossConfig,
    PairMarginProblem,
    PolicyLogits,
    SupportViolation,
    TabularPolicy,
    UpdateMatchingProblem,
    closed_form_multi_teacher_optimum,
    kl_divergence,
    logits_to_policy,
    minimize_loss,
    mwu_step,
    pair_margin_loss,
    point_mass_policy,
    policy_in_support,
    preset,
    sample_preference_dataset,
    uniform_policy,
    update_matching_loss,
)
from prefgame.losses import PRESET_NAMES


def softplus(x):
    return math.log1p(math.exp(-abs(x))) + max(x, 0.0)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


# ---------------------------------------------------------------------------
# distance metrics


def test_squared_distance_basics():
    assert squared_distance(0.3, 0.3) == 0.0
    assert squared_distance(2.0, -1.0) == 9.0
    assert squared_distance(2.0, -1.0) == squared_distance(-1.0, 2.0)


def test_bernoulli_kl_vanishes_only_at_match(rng):
    for _ in range(20):
        a = float(rng.normal())
        b = float(rng.normal())
        assert bernoulli_kl_distance(a, a) == pytest.approx(0.0, abs=1e-15)
        if abs(a - b) > 1e-6:
            assert bernoulli_kl_distance(a, b) > 0.0


def test_bernoulli_kl_is_asymmetric():
    ab = bernoulli_kl_distance(2.0, 0.5)
    ba = bernoulli_kl_distance(0.5, 2.0)
    assert abs(ab - ba) > 1e-3


def test_bernoulli_kl_infinite_target_is_logistic_loss(rng):
    for _ in range(20):
        m = float(rng.normal() * 3)
        assert bernoulli_kl_distance(m, math.inf) == pytest.approx(
            softplus(-m), rel=1e-12
        )


def test_bernoulli_kl_survives_extreme_margins():
    assert np.isfinite(bernoulli_kl_distance(800.0, 0.0))
    assert np.isfinite(bernoulli_kl_distance(-800.0, math.inf))


def test_bernoulli_kl_rejects_negative_infinity():
    with pytest.raises(ValueError):
        bernoulli_kl_distance(0.0, -math.inf)


# ---------------------------------------------------------------------------
# the reference margin (helpers.log_ratio_margin) that the tests below score
# the packed evaluator against


def test_margin_is_antisymmetric(rng):
    inst = random_instance(rng)
    pol = random_policy(rng, inst.space.sizes)
    opp = random_policy(rng, inst.space.sizes)
    for x in range(inst.num_prompts):
        k = inst.space.sizes[x]
        for a in range(k):
            for b in range(k):
                lhs = log_ratio_margin(pol, [opp], x, a, b)
                rhs = log_ratio_margin(pol, [opp], x, b, a)
                assert lhs == -rhs  # exact: same subtraction, swapped


def test_margin_zero_at_geometric_mean_of_opponents(rng):
    sizes = (4,)
    a = random_policy(rng, sizes)
    b = random_policy(rng, sizes)
    geo = np.sqrt(a.rows[0] * b.rows[0])
    pol = TabularPolicy([geo / geo.sum()])
    for y1 in range(4):
        for y2 in range(4):
            assert log_ratio_margin(pol, [a, b], 0, y1, y2) == pytest.approx(
                0.0, abs=1e-12
            )


def test_margin_unit_for_e_scaled_ratio():
    opp = TabularPolicy([[0.5, 0.5]])
    pol = TabularPolicy([[math.e / (1 + math.e), 1 / (1 + math.e)]])
    assert log_ratio_margin(pol, [opp], 0, 0, 1) == pytest.approx(1.0, abs=1e-12)


def test_margin_rejects_zero_probability():
    # the packed evaluator refuses a judged pair to which the policy or an
    # opponent gives no mass, where the reference margin would take log 0
    inst = _two_prompt_instance([[0.5, 0.5], [0.5, 0.5]])
    opp = TabularPolicy([[0.5, 0.5], [0.5, 0.5]])
    dead = TabularPolicy([[1.0, 0.0], [0.5, 0.5]])
    cfg = LossConfig((0,), (1.0,), "sq", 0.0)
    with pytest.raises(SupportViolation, match="policy has zero mass"):
        pair_margin_loss(dead, [opp], cfg, inst, data=[(0, 0, 1)])
    with pytest.raises(SupportViolation, match="opponent has zero mass"):
        pair_margin_loss(opp, [dead], cfg, inst, data=[(0, 0, 1)])


# ---------------------------------------------------------------------------
# update-matching loss


def test_update_matching_loss_zero_at_the_update(rng):
    for _ in range(10):
        inst = random_instance(rng)
        cur = random_policy(rng, inst.space.sizes)
        opps = [random_policy(rng, inst.space.sizes) for _ in range(2)]
        eta = float(rng.uniform(0.2, 2.0))
        nxt = mwu_step(opps, inst, eta)
        assert update_matching_loss(nxt, inst, cur, opps, eta) <= 1e-18


def test_update_matching_loss_zero_at_fixed_point(rng):
    # opponents' geometric mean equal to the current policy and a vanishing
    # step leave nothing to move: the current policy already matches
    inst = random_instance(rng)
    cur = random_policy(rng, inst.space.sizes)
    assert update_matching_loss(cur, inst, cur, [cur], eta=0.0) == 0.0


def test_update_matching_loss_positive_off_optimum(rng):
    inst = random_instance(rng)
    cur = random_policy(rng, inst.space.sizes)
    probe = random_policy(rng, inst.space.sizes)
    nxt = mwu_step([cur], inst, 1.0)
    gap = max(np.abs(probe.rows[0] - nxt.rows[0]).max(), 0.0)
    if gap > 1e-3:
        assert update_matching_loss(probe, inst, cur, [cur], 1.0) > 0.0


def test_update_matching_loss_needs_opponents(rng):
    inst = random_instance(rng)
    with pytest.raises(ValueError, match="opponent"):
        update_matching_loss(inst.reference, inst, inst.reference, [], 1.0)


# ---------------------------------------------------------------------------
# winner-target loss: the update-matching margin regressed onto 1 / (2 eta)


def winner_config(opponents, eta):
    n = len(opponents)
    return LossConfig(tuple(opponents), (1.0 / n,) * n, "sq", 1.0 / (2.0 * eta))


def test_winner_target_loss_nonnegative(rng):
    for _ in range(10):
        inst = random_instance(rng)
        cur = random_policy(rng, inst.space.sizes)
        pol = random_policy(rng, inst.space.sizes)
        assert pair_margin_loss(pol, [cur], winner_config([cur], 1.0), inst) >= 0.0


def test_winner_and_update_losses_share_their_minimizer_at_unit_step(rng):
    # at eta = 1 the two losses differ by a policy-independent constant,
    # so gradient descent on either lands on the same closed-form update
    inst = random_instance(rng, num_prompts=1, max_responses=4)
    cur = random_policy(rng, inst.space.sizes)
    closed = mwu_step([cur], inst, 1.0)
    z0 = PolicyLogits(tuple(rng.standard_normal(k) for k in inst.space.sizes))
    problems = (
        UpdateMatchingProblem(inst, cur, [cur], 1.0),
        PairMarginProblem(inst, [cur], winner_config([cur], 1.0)),
    )
    for problem in problems:
        res = minimize_loss(problem, z0, steps=6000)
        assert np.abs(res.policy.rows[0] - closed.rows[0]).max() <= 1e-5


def test_winner_minus_update_loss_is_constant_at_unit_step(rng):
    inst = random_instance(rng)
    cur = random_policy(rng, inst.space.sizes)
    opps = [cur]
    diffs = []
    for _ in range(10):
        pol = random_policy(rng, inst.space.sizes)
        diffs.append(
            pair_margin_loss(pol, [cur], winner_config(opps, 1.0), inst)
            - update_matching_loss(pol, inst, cur, opps, 1.0)
        )
    assert max(diffs) - min(diffs) <= 1e-12


# ---------------------------------------------------------------------------
# the unified family


def test_family_exact_mode_matches_scalar_reference(rng):
    # cross-check the vectorized tables against a plain double loop
    inst = random_instance(rng, num_prompts=1, max_responses=4)
    pol = random_policy(rng, inst.space.sizes)
    prev = random_policy(rng, inst.space.sizes)
    for metric, target in (("sq", 0.7), ("bwd", 0.3), ("bwd", math.inf)):
        cfg = LossConfig((0,), (1.0,), metric, target, eta=1.3, beta=0.8)
        got = pair_margin_loss(pol, [prev], cfg, inst)
        k = inst.space.sizes[0]
        m = inst.preference.matrices[0]
        want = 0.0
        for a in range(k):
            for b in range(k):
                if a == b:
                    continue  # a judged pair is two distinct responses
                margin = log_ratio_margin(pol, [prev], 0, a, b)
                w = prev.rows[0][a] * prev.rows[0][b] * m[a, b]
                if metric == "sq":
                    want += w * squared_distance(margin, 1.3 * target)
                else:
                    want += w * bernoulli_kl_distance(
                        0.8 * margin, math.inf if math.isinf(target) else 1.3 * target
                    )
        assert got == pytest.approx(want, rel=1e-12)


def test_family_sampled_mode_is_the_dataset_mean(rng):
    inst = random_instance(rng, num_prompts=2, max_responses=3)
    pol = random_policy(rng, inst.space.sizes)
    prev = random_policy(rng, inst.space.sizes)
    cfg = preset("dpo", beta=1.7)
    data = [(0, 0, 1), (1, 1, 0), (0, 1, 0)]
    got = pair_margin_loss(pol, [prev], cfg, inst, data=data)
    singles = [
        pair_margin_loss(pol, [prev], cfg, inst, data=[trip]) for trip in data
    ]
    assert got == pytest.approx(float(np.mean(singles)), rel=1e-14)


def test_family_zero_weights_reduce_to_raw_log_ratio(rng):
    # with the opponent weight at zero the margin is the bare policy ratio
    inst = random_instance(rng, num_prompts=1, max_responses=3)
    pol = random_policy(rng, inst.space.sizes)
    cur = random_policy(rng, inst.space.sizes)
    cfg = LossConfig((0,), (0.0,), "sq", 0.0, eta=1.0)
    got = pair_margin_loss(pol, [cur], cfg, inst)
    k = inst.space.sizes[0]
    m = inst.preference.matrices[0]
    lp = np.log(pol.rows[0])
    want = sum(
        cur.rows[0][a] * cur.rows[0][b] * m[a, b] * (lp[a] - lp[b]) ** 2
        for a in range(k)
        for b in range(k)
        if a != b
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_family_sampled_target_match_gives_zero_loss():
    # a dataset whose every margin hits eta * target exactly has no residual
    ref = TabularPolicy([[0.5, 0.5]])
    inst = random_instance(np.random.default_rng(1), num_prompts=1, max_responses=2)
    target, eta = 0.8, 1.5
    want_margin = eta * target
    pol = TabularPolicy(
        [[sigmoid(want_margin), sigmoid(-want_margin)]]
    )
    cfg = LossConfig((0,), (1.0,), "sq", target, eta=eta)
    got = pair_margin_loss(pol, [ref], cfg, inst, data=[(0, 0, 1)])
    assert got <= 1e-25


def test_family_singleton_equals_metric_of_margin():
    # on one recorded pair the family is exactly distance(margin, eta*target)
    ref = TabularPolicy([[0.6, 0.4]])
    inst = random_instance(np.random.default_rng(2), num_prompts=1, max_responses=2)
    pol = TabularPolicy([[0.3, 0.7]])
    cfg = LossConfig((ref,), (1.0,), "sq", 0.25, eta=2.0)
    got = pair_margin_loss(pol, [pol], cfg, inst, data=[(0, 0, 1)])
    margin = log_ratio_margin(pol, [ref], 0, 0, 1)
    assert got == squared_distance(margin, 2.0 * 0.25)


def test_family_needs_nonempty_history_and_data(rng):
    inst = random_instance(rng)
    cfg = preset("dpo")
    pol = random_policy(rng, inst.space.sizes)
    with pytest.raises(ValueError, match="history"):
        pair_margin_loss(pol, [], cfg, inst)
    with pytest.raises(ValueError, match="empty"):
        pair_margin_loss(pol, [pol], cfg, inst, data=[])


def test_family_target_rules_need_their_tables(rng):
    inst = random_instance(rng)
    pol = random_policy(rng, inst.space.sizes)
    bare = GameInstance(
        prompt_weights=inst.prompt_weights,
        space=inst.space,
        reference=inst.reference,
        preference=inst.preference,
        reward=None,
    )
    with pytest.raises(ValueError, match="'reward_gap' needs a reward table"):
        pair_margin_loss(pol, [pol], LossConfig(("ref",), (1.0,), "sq", "reward_gap"), bare)
    with pytest.raises(ValueError, match="'win_rate_gap' needs opponents"):
        pair_margin_loss(pol, [pol], LossConfig((), (), "sq", "win_rate_gap"), inst)


def test_family_rejects_malformed_dataset(rng):
    inst = random_instance(rng)
    pol = random_policy(rng, inst.space.sizes)
    cfg = preset("dpo")
    short = int(np.argmin(inst.space.sizes))
    bad = (
        [(0, 1), (0, 1), (0, 1)],  # pairs whose count divides by 3
        [(0, 1.0, 0)],  # float index
        [(0, 1, 0, 1)],
        [(0, 1, 0), (0, 1)],  # ragged
        [(-1, 0, 1)],  # negative prompt
        [(0, -1, 0)],  # negative response
        [(short, inst.space.sizes[short], 0)],  # response past its prompt's count
        [(inst.num_prompts, 0, 1)],  # prompt past the last
    )
    for data in bad:
        with pytest.raises(ValueError):
            pair_margin_loss(pol, [pol], cfg, inst, data=data)
        with pytest.raises(ValueError):
            PairMarginProblem(inst, [pol], cfg, data)


def test_family_history_offset_out_of_range(rng):
    inst = random_instance(rng)
    pol = random_policy(rng, inst.space.sizes)
    cfg = LossConfig((3,), (1.0,), "sq", 0.0)
    with pytest.raises(ValueError, match="history"):
        pair_margin_loss(pol, [pol], cfg, inst)


def test_named_losses_and_dataset_mode_are_family_configurations(rng):
    # update matching is pair_margin_loss under a fixed config, values and
    # gradients alike; dataset mode is the mean of the per-triple metric of
    # the equal-weight margin, repeats and ties included
    for _ in range(6):
        inst = random_instance(rng, num_prompts=3, max_responses=4)
        sizes = inst.space.sizes
        n = int(rng.integers(2, 5))
        opps = [random_policy(rng, sizes) for _ in range(n - 1)]
        weights = (1.0 / (n - 1),) * (n - 1)
        cur, pol = random_policy(rng, sizes), random_policy(rng, sizes)
        eta = float(rng.uniform(0.2, 2.0))
        z = PolicyLogits(tuple(rng.standard_normal(k) for k in sizes))
        matching = LossConfig(tuple(opps), weights, "sq", "win_rate_gap", eta)
        want = pair_margin_loss(pol, [cur], matching, inst)
        got = update_matching_loss(pol, inst, cur, opps, eta)
        assert got == pytest.approx(want, rel=1e-12)
        got = UpdateMatchingProblem(inst, cur, opps, eta).gradient(z).rows
        ref = PairMarginProblem(inst, [cur], matching).gradient(z).rows
        assert max_grad_rel_error(got, ref) <= 1e-12

        data = [
            (x, int(rng.integers(sizes[x])), int(rng.integers(sizes[x])))
            for x in rng.integers(0, 3, size=8)
        ]
        data += [data[0], data[0], (1, 0, 0)]
        # a target rule's pair target is eta (v_a - v_b): sq folds v into the
        # margin offsets, bwd keeps the pair table
        rewards = inst.reward.rows
        wins = [
            [mean_pairwise_one_vs_many(inst.preference, x, a, opps) for a in range(k)]
            for x, k in enumerate(sizes)
        ]
        members = (
            (LossConfig(tuple(opps), weights, "sq", 0.7, eta=1.3), 1.0,
             lambda x, a, b: 0.91),
            (LossConfig(tuple(opps), weights, "bwd", 0.4, eta=1.5, beta=0.8), 0.8,
             lambda x, a, b: 0.6),
            (LossConfig(tuple(opps), weights, "bwd", math.inf, beta=1.7), 1.7,
             lambda x, a, b: math.inf),
            (LossConfig(tuple(opps), weights, "sq", "reward_gap", eta=0.6), 1.0,
             lambda x, a, b: 0.6 * (rewards[x][a] - rewards[x][b])),
            (LossConfig(tuple(opps), weights, "bwd", "win_rate_gap", eta=1.2, beta=0.7), 0.7,
             lambda x, a, b: 1.2 * (wins[x][a] - wins[x][b])),
        )
        for cfg, beta, target in members:
            metric = squared_distance if cfg.metric == "sq" else bernoulli_kl_distance
            want = np.mean(
                [
                    metric(beta * log_ratio_margin(pol, opps, int(x), a, b), target(x, a, b))
                    for x, a, b in data
                ]
            )
            got = pair_margin_loss(pol, [cur], cfg, inst, data=data)
            assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# presets


def test_preset_names_are_complete():
    assert PRESET_NAMES == (
        "dpo",
        "distill_dpo",
        "simpo",
        "dno",
        "spin",
        "sppo",
        "ipo",
        "inpo",
    )
    for name in PRESET_NAMES:
        assert isinstance(preset(name, eta=1.0, tau=0.5, beta=2.0), LossConfig)


def test_preset_unknown_name():
    with pytest.raises(ValueError, match="preset"):
        preset("rlhf")


def test_preset_dpo_fields():
    cfg = preset("dpo", beta=2.5)
    assert cfg.opponents == ("ref",)
    assert cfg.metric == "bwd"
    assert math.isinf(cfg.target)
    assert cfg.beta == 2.5


def test_preset_simpo_has_no_opponents():
    cfg = preset("simpo", beta=2.0)
    assert cfg.n_players == 1
    assert cfg.opponents == ()


def test_preset_ipo_target_is_half_inverse_tau():
    cfg = preset("ipo", tau=0.25)
    assert cfg.target == 1.0 / (2.0 * 0.25)
    assert cfg.metric == "sq"
    assert cfg.eta == 1.0
    for tau in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="ipo needs a finite tau"):
            preset("ipo", tau=tau)


def test_preset_inpo_weights_mix_previous_and_reference():
    cfg = preset("inpo", eta=2.0, tau=0.5)
    assert cfg.opponents == (0, "ref")
    assert cfg.weights == ((2.0 - 0.5) / 2.0, 0.5 / 2.0)
    assert sum(cfg.weights) == pytest.approx(1.0, abs=1e-15)
    assert cfg.target == 1.0
    with pytest.raises(ValueError, match="inpo"):
        preset("inpo", eta=0.5, tau=1.0)
    for eta, tau in ((math.inf, 1.0), (math.inf, math.inf), (math.nan, 0.5)):
        with pytest.raises(ValueError, match="inpo needs a finite eta"):
            preset("inpo", eta=eta, tau=tau)
    for tau in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="inpo needs 0 < tau <= eta"):
            preset("inpo", eta=2.0, tau=tau)


def test_preset_sppo_regresses_on_win_rate_gap():
    cfg = preset("sppo", eta=0.7)
    assert cfg.target == "win_rate_gap"
    assert cfg.eta == 0.7


def test_preset_dpo_singleton_is_logistic_loss(rng):
    inst = random_instance(rng, num_prompts=1, max_responses=3)
    pol = random_policy(rng, inst.space.sizes)
    beta = 1.9
    cfg = preset("dpo", beta=beta)
    got = pair_margin_loss(pol, [pol], cfg, inst, data=[(0, 0, 1)])
    margin = log_ratio_margin(pol, [inst.reference], 0, 0, 1)
    assert got == pytest.approx(softplus(-beta * margin), rel=1e-13)


def test_preset_ipo_singleton_is_squared_anchor_loss(rng):
    inst = random_instance(rng, num_prompts=1, max_responses=3)
    pol = random_policy(rng, inst.space.sizes)
    tau = 0.4
    cfg = preset("ipo", tau=tau)
    got = pair_margin_loss(pol, [pol], cfg, inst, data=[(0, 1, 0)])
    margin = log_ratio_margin(pol, [inst.reference], 0, 1, 0)
    assert got == pytest.approx((margin - 1.0 / (2.0 * tau)) ** 2, rel=1e-13)


# ---------------------------------------------------------------------------
# loss config validation


def test_loss_config_validation():
    with pytest.raises(ValueError, match="weight"):
        LossConfig((0,), (), "sq", 0.0)
    with pytest.raises(ValueError, match="metric"):
        LossConfig((0,), (1.0,), "huber", 0.0)
    with pytest.raises(ValueError, match="target"):
        LossConfig((0,), (1.0,), "sq", "margin_gap")
    with pytest.raises(ValueError, match="infinite"):
        LossConfig((0,), (1.0,), "sq", math.inf)
    with pytest.raises(ValueError, match="target"):
        LossConfig((0,), (1.0,), "bwd", -math.inf)
    with pytest.raises(ValueError, match="sum"):
        LossConfig((0, "ref"), (0.8, 0.8), "sq", 0.0)
    with pytest.raises(ValueError, match="weights"):
        LossConfig((0,), (float("nan"),), "sq", 0.0)
    with pytest.raises(ValueError, match="offsets"):
        LossConfig((-1,), (1.0,), "sq", 0.0)
    with pytest.raises(ValueError, match="opponent name"):
        LossConfig(("previous",), (1.0,), "sq", 0.0)
    with pytest.raises(ValueError, match="opponent reference"):
        LossConfig((True,), (1.0,), "sq", 0.0)
    with pytest.raises(ValueError, match="eta"):
        LossConfig((0,), (1.0,), "sq", 0.0, eta=0.0)
    with pytest.raises(ValueError, match="beta"):
        LossConfig((0,), (1.0,), "sq", 0.0, beta=-1.0)


# ---------------------------------------------------------------------------
# external anchors: explicit opponent policies, pairs from an explicit source


def test_explicit_reference_opponent_equals_ref(rng):
    inst = random_instance(rng, num_prompts=1, max_responses=3)
    pol = random_policy(rng, inst.space.sizes)
    by_name = LossConfig(("ref",), (1.0,), "sq", 0.3, eta=1.0)
    explicit = LossConfig((inst.reference,), (1.0,), "sq", 0.3, eta=1.0)
    data = [(0, 0, 1), (0, 2, 1)]
    via_name = pair_margin_loss(pol, [inst.reference], by_name, inst, data=data)
    via_explicit = pair_margin_loss(pol, [inst.reference], explicit, inst, data=data)
    assert via_explicit == pytest.approx(via_name, rel=1e-14)


def test_external_loss_identical_anchors_ignore_the_split(rng):
    inst = random_instance(rng, num_prompts=1, max_responses=4)
    pol = random_policy(rng, inst.space.sizes)
    anchor = random_policy(rng, inst.space.sizes)
    a = pair_margin_loss(
        pol, [inst.reference], LossConfig((anchor, anchor), (0.3, 0.7), "sq", 0.2), inst
    )
    b = pair_margin_loss(
        pol, [inst.reference], LossConfig((anchor, anchor), (0.5, 0.5), "sq", 0.2), inst
    )
    assert a == pytest.approx(b, rel=1e-13)


def test_external_loss_minimized_by_multi_teacher_optimum(rng):
    # regressing the anchored margin onto the reward gap with eta = 1/tau
    # is exactly the KL-anchored reward problem, so its closed-form optimum
    # must reach (near) zero loss and beat arbitrary policies
    for _ in range(3):
        inst = random_instance(rng, max_responses=4)
        teacher = random_policy(rng, inst.space.sizes)
        tau_ref, tau_t = float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.3, 1.5))
        tau = tau_ref + tau_t
        optimum = closed_form_multi_teacher_optimum(
            inst.reward, inst.reference, [teacher], tau_ref, [tau_t]
        )
        cfg = LossConfig(
            (inst.reference, teacher),
            (tau_ref / tau, tau_t / tau),
            "sq",
            "reward_gap",
            eta=1.0 / tau,
        )
        at_optimum = pair_margin_loss(optimum, [inst.reference], cfg, inst)
        assert at_optimum <= 1e-20
        for _ in range(100):
            probe = random_policy(rng, inst.space.sizes)
            assert pair_margin_loss(probe, [inst.reference], cfg, inst) >= at_optimum


# ---------------------------------------------------------------------------
# gradients


def test_logits_to_policy_softmax_on_support():
    ref = TabularPolicy([[0.5, 0.5, 0.0]])
    z = PolicyLogits((np.array([1.0, 0.0, 99.0]),))
    pol = logits_to_policy(z, ref)
    assert pol.rows[0][2] == 0.0  # outside the reference support
    assert pol.rows[0][0] == pytest.approx(sigmoid(1.0), abs=1e-12)


def test_logits_to_policy_shape_checks():
    ref = TabularPolicy([[0.5, 0.5]])
    with pytest.raises(ValueError, match="prompt"):
        logits_to_policy(PolicyLogits((np.zeros(2), np.zeros(2))), ref)
    with pytest.raises(ValueError, match="length"):
        logits_to_policy(PolicyLogits((np.zeros(3),)), ref)


def make_problem(inst, rng, kind):
    cur = random_policy(rng, inst.space.sizes)
    if kind == "update":
        return UpdateMatchingProblem(inst, cur, [cur], 0.9)
    if kind == "winner":
        return PairMarginProblem(inst, [cur], winner_config([cur], 0.9))
    if kind == "pair_bwd":
        return PairMarginProblem(inst, [cur], preset("dpo", beta=1.4))
    if kind == "pair_sq":
        return PairMarginProblem(inst, [cur], preset("sppo", eta=0.8))
    if kind == "pair_sampled":
        data = [(0, 0, 1), (0, 1, 0)]
        return PairMarginProblem(inst, [cur], preset("ipo", tau=0.3), data)
    return PairMarginProblem(inst, [inst.reference], LossConfig((cur,), (1.0,), "sq", 0.1))


@pytest.mark.parametrize(
    "kind", ["update", "winner", "pair_bwd", "pair_sq", "pair_sampled", "external"]
)
def test_analytic_gradient_matches_finite_differences(rng, kind):
    for _ in range(3):
        inst = random_instance(rng, num_prompts=1, max_responses=4)
        problem = make_problem(inst, rng, kind)
        z = PolicyLogits(tuple(rng.standard_normal(k) for k in inst.space.sizes))
        analytic = problem.gradient(z).rows
        numeric = fd_logit_gradient(problem, z, step=1e-6)
        assert max_grad_rel_error(analytic, numeric) <= 1e-6


def test_gradient_is_shift_invariant(rng):
    inst = random_instance(rng, num_prompts=2, max_responses=4)
    cur = random_policy(rng, inst.space.sizes)
    problem = UpdateMatchingProblem(inst, cur, [cur], 1.0)
    z = PolicyLogits(tuple(rng.standard_normal(k) for k in inst.space.sizes))
    shifted = PolicyLogits(tuple(r + 11.25 for r in z.rows))
    a = problem.gradient(z).rows
    b = problem.gradient(shifted).rows
    assert max(np.abs(x - y).max() for x, y in zip(a, b)) <= 1e-10
    assert problem.value(z) == pytest.approx(problem.value(shifted), rel=1e-10)


def test_gradient_vanishes_at_the_closed_form_minimizer(rng):
    inst = random_instance(rng, num_prompts=1, max_responses=4)
    cur = random_policy(rng, inst.space.sizes)
    eta = 1.1
    problem = UpdateMatchingProblem(inst, cur, [cur], eta)
    nxt = mwu_step([cur], inst, eta)
    z = PolicyLogits((np.log(nxt.rows[0]),))
    grad = problem.gradient(z).rows
    assert max(np.abs(g).max() for g in grad) <= 1e-8


_SQ_KINDS = ["matching", "sppo", "ipo", "inpo", "distill_dpo"]
_EPS = np.finfo(np.float64).eps


def _sq_problem(seed, kind, sampled):
    """An sq problem, its tables and random logits on an uneven sparse game.

    About a third of each reference row is zero; the current and the other
    policy live on the reference support. A sampled problem reads triples
    drawn from the current policy, self-pairs included.
    """
    rng = np.random.default_rng(seed)
    inst, (cur, other) = sparse_game(rng, 2)
    eta = float(rng.uniform(0.1, 3.0))
    tau = float(rng.uniform(0.05, 1.0)) * eta
    history = [cur, other]
    config = {
        "matching": lambda: LossConfig((cur, other), (0.5, 0.5), "sq", "win_rate_gap", eta),
        "sppo": lambda: preset("sppo", eta=eta),
        "ipo": lambda: preset("ipo", tau=tau),
        "inpo": lambda: preset("inpo", eta=eta, tau=tau),
        "distill_dpo": lambda: preset("distill_dpo"),
    }[kind]()
    data = sample_preference_dataset(inst, cur, int(rng.integers(1, 40)), rng) if sampled else None
    problem = PairMarginProblem(inst, history, config, data)
    spread = float(rng.choice([1.0, 10.0, 100.0]))
    z = PolicyLogits(tuple(rng.normal(0.0, spread, k) for k in inst.space.sizes))
    return rng, problem, problem._tables, z


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_SQ_KINDS),
    sampled=st.booleans(),
)
def test_laplacian_gradient_matches_the_residual_gradient(seed, kind, sampled):
    # the gradient is the pair table's Laplacian times the offset logits u
    # (plus a constant row for a scalar target); the reference sums the
    # weighted residual W r a pair at a time. Both round each entry within a
    # few eps of (1 + |u| + |c|) times a row of S = W + W^T; 3000 random cases
    # read at most 5 of the 64 allowed here.
    import prefgame.losses as losses

    _, problem, tables, z = _sq_problem(seed, kind, sampled)
    u, _ = losses._margins(tables, z.packed[None])
    pair_w, target = tables[1], tables[3]
    got = problem.gradient(z).packed
    want = reference_sq_slope(pair_w, target, u)[0]
    sym = pair_w + pair_w.transpose(0, 2, 1)
    scale = (1.0 + np.abs(u).max() + abs(target)) * sym.sum(axis=2).max()
    assert np.abs(got - want).max() <= 64 * _EPS * scale
    assert np.all(got[~tables[0]] == 0.0)  # untouched responses move nothing


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(_SQ_KINDS),
    sampled=st.booleans(),
)
def test_sq_loss_is_exactly_quadratic_with_the_table_as_hessian(seed, kind, sampled):
    # value(z + d) - value(z) - <grad(z), d> = d^T lap d / 2 for any step d on
    # the touched mask; the bound is 64 eps times the sum of the magnitudes
    # of the four terms (3000 random cases read at most 3 eps)
    rng, problem, tables, z = _sq_problem(seed, kind, sampled)
    touched, lap = tables[0], tables[5]
    d = np.where(touched, rng.normal(0.0, float(rng.choice([0.1, 1.0, 10.0])), touched.shape), 0.0)
    v0 = problem.value(z)
    v1 = problem.value(PolicyLogits._wrap(z.packed + d, z.sizes))
    grad = problem.gradient(z).packed
    half = 0.5 * float(np.einsum("pa,pab,pb->", d, lap, d))
    scale = v0 + v1 + float(np.sum(np.abs(grad * d))) + 0.5 * float(
        np.einsum("pa,pab,pb->", np.abs(d), np.abs(lap), np.abs(d))
    )
    assert abs(v1 - v0 - float(np.sum(grad * d)) - half) <= 64 * _EPS * scale
    # the Hessian is a Laplacian: symmetric, rows summing to 0, zero off the mask
    assert np.array_equal(lap, lap.transpose(0, 2, 1))
    assert np.abs(lap.sum(axis=2)).max() <= 16 * _EPS * np.abs(lap).max()
    assert not lap[~touched].any()


def _two_prompt_instance(reference_rows):
    import prefgame

    sizes = [len(r) for r in reference_rows]
    return prefgame.GameInstance(
        prompt_weights=np.full(len(sizes), 1.0 / len(sizes)),
        space=prefgame.ResponseSpace(
            tuple(tuple(f"r{y}" for y in range(k)) for k in sizes)
        ),
        reference=TabularPolicy(reference_rows),
        preference=prefgame.PairwisePreference(
            tuple(np.full((k, k), 0.5) for k in sizes)
        ),
    )


def test_problem_rejects_pairs_off_the_reference_support_at_construction():
    inst = _two_prompt_instance([[0.5, 0.5, 0.0], [0.5, 0.5]])
    cur = TabularPolicy([[0.25, 0.25, 0.5], [0.5, 0.5]])
    with pytest.raises(SupportViolation, match="reference support") as err:
        PairMarginProblem(inst, [cur], preset("sppo"))
    assert (err.value.prompt, err.value.response) == (0, 2)
    with pytest.raises(SupportViolation, match="reference support"):
        PairMarginProblem(inst, [cur], preset("simpo"), data=[(0, 2, 0)])
    # pairs that stay on the support are fine
    PairMarginProblem(inst, [cur], preset("simpo"), data=[(0, 1, 0)])


@pytest.mark.parametrize("call, detail", [
    (lambda inst, uni: kl_divergence(uni, inst.reference, inst),
     "KL against a zero-probability response"),
    (lambda inst, uni: policy_in_support(uni, inst.reference),
     "mass outside the base policy's support"),
    (lambda inst, uni: pair_margin_loss(inst.reference, [uni], preset("simpo"), inst),
     "policy has zero mass"),
    (lambda inst, uni: PairMarginProblem(inst, [uni], preset("sppo")),
     "pairs leave the reference support"),
], ids=["kl", "policy_in_support", "loss_logs", "problem"])
def test_support_violations_name_the_first_flagged_cell(call, detail):
    # two flagged cells, (0, 2) and (1, 0): every raise site reports the
    # first in prompt-major order, with its own message
    inst = _two_prompt_instance([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    with pytest.raises(SupportViolation) as err:
        call(inst, uniform_policy(inst.space))
    assert (err.value.prompt, err.value.response) == (0, 2)
    assert str(err.value) == f"support violation at prompt 0, response 2: {detail}"


def test_problem_rejects_a_prompt_without_reference_support_at_construction():
    inst = _two_prompt_instance([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ValueError, match="prompt 1: no reference support"):
        PairMarginProblem(inst, [inst.reference], preset("simpo"), data=[(0, 0, 1)])
    with pytest.raises(ValueError, match="prompt 1: no reference support"):
        PairMarginProblem(inst, [inst.reference], preset("simpo"))


def test_problem_reads_wide_logit_spreads_without_underflow(rng):
    # softmax would give the bottom response exactly zero probability here
    inst = random_instance(rng, num_prompts=2, max_responses=4)
    problem = UpdateMatchingProblem(inst, inst.reference, [inst.reference], 1.0)
    z = PolicyLogits(tuple(2000.0 * np.arange(k) for k in inst.space.sizes))
    assert np.any(logits_to_policy(z, inst.reference).packed[:, 0] == 0.0)
    assert math.isfinite(problem.value(z))
    assert np.all(np.isfinite(problem.gradient(z).packed))


@pytest.mark.parametrize("sampled", [False, True], ids=["exact", "dataset"])
@pytest.mark.parametrize("metric", ["sq", "bwd"])
def test_off_support_logits_never_reach_the_loss(rng, metric, sampled):
    # the margins pass reads logits on the touched mask only, so logits off
    # the reference support at alternating +-1e308 (finite, so PolicyLogits
    # takes them) give the bits they give at 0; an unmasked pass would
    # difference them to inf and weigh that by 0, which is NaN
    inst, (cur,) = sparse_game(rng, 1)
    if metric == "sq":  # a target rule folded into the margin offsets
        config = preset("sppo", eta=0.8)
    else:  # a target rule kept as a pair table
        config = LossConfig(("ref",), (1.0,), "bwd", "reward_gap", eta=0.7, beta=1.4)
    data = sample_preference_dataset(inst, cur, 12, rng) if sampled else None
    problem = PairMarginProblem(inst, [cur], config, data)
    dead = [ref == 0.0 for ref in inst.reference.rows]
    assert sum(d.sum() for d in dead) >= 2
    tame = [np.where(d, 0.0, rng.standard_normal(len(d))) for d in dead]
    wild = [row.copy() for row in tame]
    signs = itertools.cycle((1e308, -1e308))
    for row, d in zip(wild, dead):
        row[d] = [next(signs) for _ in range(d.sum())]
    tame, wild = PolicyLogits(tuple(tame)), PolicyLogits(tuple(wild))
    assert np.isfinite(problem.value(tame))
    assert _bits(problem.value(wild), problem.gradient(wild).packed) == _bits(
        problem.value(tame), problem.gradient(tame).packed
    )
    policy = logits_to_policy(wild, inst.reference)
    assert _bits(policy.packed) == _bits(logits_to_policy(tame, inst.reference).packed)
    assert _bits(pair_margin_loss(policy, [cur], config, inst, data)) == _bits(
        pair_margin_loss(logits_to_policy(tame, inst.reference), [cur], config, inst, data)
    )
    got, want = (minimize_loss(problem, z, steps=50) for z in (wild, tame))
    assert got.steps_taken == want.steps_taken
    assert _bits(got.loss, got.grad_max, got.policy.packed) == _bits(
        want.loss, want.grad_max, want.policy.packed
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    metric=st.sampled_from(["sq", "bwd"]),
    sampled=st.booleans(),
    spread=st.floats(0.0, 30.0),
)
def test_problem_value_is_the_loss_at_the_softmax_policy(seed, metric, sampled, spread):
    # the problem reads each margin off a logit difference; the loss takes
    # log pi of the softmax policy, whose normaliser that difference cancels
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_prompts=3, max_responses=5)
    cur = random_policy(rng, inst.space.sizes)
    config = preset("sppo", eta=0.8) if metric == "sq" else preset("dpo", beta=1.4)
    data = sample_preference_dataset(inst, cur, 12, rng) if sampled else None
    z = PolicyLogits(tuple(rng.uniform(-spread, spread, k) for k in inst.space.sizes))
    want = pair_margin_loss(logits_to_policy(z, inst.reference), [cur], config, inst, data)
    got = PairMarginProblem(inst, [cur], config, data).value(z)
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_benchmark_tracer_finds_every_traced_name_and_restores_it():
    # perfbench/tracing.py looks each traced function up by module and each
    # traced method in its class's own namespace (an inherited method would
    # go untraced); a rename here must fail in this suite, not only in the
    # benchmark's. The tracer module is executed from its source, unchanged.
    import sys
    from pathlib import Path

    import prefgame.cli  # noqa: F401  (the tracer wraps cli.main)

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tracing = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(), str(path), "exec"), tracing)
    traced = []
    for mod, attr, _, _ in tracing["TRACED"]:
        owner = sys.modules[f"prefgame.{mod}"]
        name = attr
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(owner, cls_name)
        original = vars(owner).get(name)  # a class's own namespace: nothing inherited
        assert callable(original), f"{mod}.{attr} is not where the tracer looks"
        traced.append((owner, name, original))
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "prefgame"]
    namespaces = modules + [owner for owner, _, _ in traced if isinstance(owner, type)]
    before = [dict(vars(ns)) for ns in namespaces]
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        for owner, name, original in traced:
            assert vars(owner)[name] is not original, f"{name} was not wrapped"
    finally:
        tracer.uninstall()
    for ns, was in zip(namespaces, before):
        now = dict(vars(ns))
        assert now.keys() == was.keys(), ns
        assert all(now[key] is was[key] for key in was), ns


def _random_logits(rng, sizes):
    return PolicyLogits(tuple(rng.standard_normal(k) for k in sizes))


def _problem_builder(rng, metric):
    inst = random_instance(rng, num_prompts=2, max_responses=4)
    cur = random_policy(rng, inst.space.sizes)
    config = preset("sppo", eta=0.8) if metric == "sq" else preset("dpo", beta=1.4)
    return inst, lambda: PairMarginProblem(inst, [cur], config)


def _bits(*values):
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


@pytest.mark.parametrize("metric", ["sq", "bwd"])
def test_value_and_gradient_depend_only_on_their_argument(rng, metric):
    # whatever a problem evaluated before (other logits, an object with
    # equal contents, the same object), value and gradient give the bits
    # of a freshly built problem's answer at their own argument
    inst, build = _problem_builder(rng, metric)
    z1 = _random_logits(rng, inst.space.sizes)
    twin = PolicyLogits(z1.rows)
    for z2 in (_random_logits(rng, inst.space.sizes), twin, z1):
        problem = build()
        got = (problem.value(z1), problem.gradient(z2).packed)
        want = (build().value(z1), build().gradient(z2).packed)
        assert _bits(*got) == _bits(*want)
        problem = build()
        got = (problem.gradient(z1).packed, problem.value(z2))
        assert _bits(*got) == _bits(build().gradient(z1).packed, build().value(z2))
    # nor does an object that CPython allocates at the address of one
    # evaluated and dropped just before
    problem = build()
    first, second = (_random_logits(rng, inst.space.sizes).packed for _ in range(2))
    problem.value(PolicyLogits._wrap(first, inst.space.sizes))
    z3 = PolicyLogits._wrap(second, inst.space.sizes)
    assert _bits(problem.gradient(z3).packed) == _bits(build().gradient(z3).packed)


@pytest.mark.parametrize("metric", ["sq", "bwd"])
def test_value_and_gradient_leave_the_problem_unchanged(rng, metric):
    # a problem keeps no per-call state: after value and gradient calls at
    # several logits its attributes are the very objects it was built with
    inst, build = _problem_builder(rng, metric)
    problem = build()
    before = dict(vars(problem))
    z1, z2 = (_random_logits(rng, inst.space.sizes) for _ in range(2))
    problem.value(z1)
    problem.gradient(z1)
    problem.gradient(z2)
    problem.value(z2)
    after = vars(problem)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())


# ---------------------------------------------------------------------------
# minimization


def test_minimize_zero_steps_returns_softmaxed_init(rng):
    inst = random_instance(rng, num_prompts=1, max_responses=3)
    cur = random_policy(rng, inst.space.sizes)
    problem = UpdateMatchingProblem(inst, cur, [cur], 1.0)
    z0 = PolicyLogits((np.array([0.3, -0.2, 1.0]),))
    res = minimize_loss(problem, z0, steps=0)
    want = logits_to_policy(z0, inst.reference)
    assert np.all(res.policy.rows[0] == want.rows[0])
    assert res.steps_taken == 0


def _counted(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_minimize_calls_value_per_proposal_and_gradient_per_acceptance(
    monkeypatch, rng
):
    # the lockstep makes one margins pass per round of proposals and one
    # gradient pass per round in which some init accepts, and together
    # they propose and accept exactly what the per-init descents do
    import prefgame.losses as losses

    inst = random_instance(rng, num_prompts=2, max_responses=4)
    cur = random_policy(rng, inst.space.sizes)
    inits = [
        PolicyLogits(tuple(5.0 * rng.standard_normal(k) for k in inst.space.sizes))
        for _ in range(2)
    ]
    # the update itself, where the gradient is already at its floor
    update = mwu_step([cur], inst, 0.9)
    inits.insert(1, PolicyLogits(tuple(np.log(r) for r in update.rows)))
    proposals = acceptances = 0
    for z0 in inits:
        own = UpdateMatchingProblem(inst, cur, [cur], 0.9)
        counts = {"value": 0, "gradient": 0}
        for name in counts:
            monkeypatch.setattr(own, name, _counted(counts, name, getattr(own, name)))
        reference_minimize_loss(own, z0, steps=30)
        proposals += counts["value"] - 1
        acceptances += counts["gradient"] - 1

    problem = UpdateMatchingProblem(inst, cur, [cur], 0.9)
    calls = {"value": 0, "gradient": 0, "logits_to_policy": 0}
    for name in ("value", "gradient"):
        monkeypatch.setattr(problem, name, _counted(calls, name, getattr(problem, name)))
    monkeypatch.setattr(
        losses, "logits_to_policy",
        _counted(calls, "logits_to_policy", losses.logits_to_policy),
    )
    passes = []
    margins_of, slope = losses._margins, losses._slope

    def margins_pass(tables, z):
        passes.append(("margins", len(z)))
        return margins_of(tables, z)

    def gradient_pass(tables, metric, margins):
        passes.append(("gradient", len(margins)))
        return slope(tables, metric, margins)

    monkeypatch.setattr(losses, "_margins", margins_pass)
    monkeypatch.setattr(losses, "_slope", gradient_pass)
    accepted = []
    results = minimize_loss(
        problem, inits, steps=30, trace=lambda s, v, g: accepted.append(s)
    )
    # the update stops at once; the gradient of the others never reached
    # the floor and 30 halvings cannot underflow the step, so each of them
    # made a proposal at every one of the 30 steps
    assert results[1].steps_taken == 1 and results[1].grad_max < 1e-13
    assert all(r.grad_max >= 1e-13 and r.steps_taken == 30 for r in results[::2])
    assert len(accepted) > 1
    # the public value and gradient stay unused
    assert calls == {"value": 0, "gradient": 0, "logits_to_policy": 3}
    assert passes[:2] == [("margins", 3), ("gradient", 3)]
    rounds = passes[2:]
    margins = [n for kind, n in rounds if kind == "margins"]
    gradients = [n for kind, n in rounds if kind == "gradient"]
    assert margins == [2] * 30 and sum(margins) == proposals
    assert sum(gradients) == acceptances
    # a round is one margins pass, then one gradient pass if any init accepted
    kinds = [kind for kind, _ in rounds]
    assert kinds[0] == "margins" and ("gradient", "gradient") not in zip(kinds, kinds[1:])


@pytest.mark.parametrize("metric", ["sq", "bwd"])
def test_kept_margins_change_no_bits_of_the_descent(rng, metric):
    # compared in-process: numpy's SIMD exp and log may differ by an ulp
    # between CPUs, so a stored hash would not carry over. The lockstep
    # takes each accepted candidate's gradient from that candidate's
    # margins; the per-init descent calls the public value and gradient,
    # each of which computes its own margins.
    inst, build = _problem_builder(rng, metric)
    z0 = PolicyLogits(tuple(3.0 * rng.standard_normal(k) for k in inst.space.sizes))
    def run(descend, init):
        rows = []
        res = descend(build(), init, steps=300, trace=lambda *r: rows.append(r))
        return res, rows

    (lockstep,), lockstep_rows = run(minimize_loss, [z0])
    assert len(lockstep_rows) > 10
    res, rows = run(reference_minimize_loss, z0)
    assert res.steps_taken == lockstep.steps_taken
    assert _bits(res.loss, res.grad_max, res.logits.packed) == _bits(
        lockstep.loss, lockstep.grad_max, lockstep.logits.packed
    )
    assert _bits(rows) == _bits(lockstep_rows)


def _lockstep_problem(rng, kind):
    # three prompts of 2-5 responses: the counts differ on most seeds
    inst = random_instance(rng, num_prompts=3, max_responses=5)
    cur = random_policy(rng, inst.space.sizes)
    data = sample_preference_dataset(inst, cur, 12, rng) if kind.endswith("data") else None
    if kind.startswith("sq"):
        return PairMarginProblem(inst, [cur], preset("sppo", eta=0.8), data)
    if kind.startswith("bwd"):
        return PairMarginProblem(inst, [cur], preset("dpo", beta=1.4), data)
    other = random_policy(rng, inst.space.sizes)
    config = LossConfig((cur, other), (0.3, 0.7), "bwd", 2.0)
    return PairMarginProblem(inst, [inst.reference], config)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["sq", "bwd", "sq_data", "bwd_data", "external"]),
    count=st.integers(1, 4),
    steps=st.sampled_from([0, 1, 5, 300]),
    descended=st.booleans(),
    chunk=st.sampled_from([None, 1, 2]),
    step_size=st.sampled_from([0.5, 1e300]),
)
def test_lockstep_descent_matches_per_init_descents_bit_for_bit(
    seed, kind, count, steps, descended, chunk, step_size
):
    # at step_size 1e300 the proposals overflow to inf or NaN losses, which
    # both descents must reject alike
    import prefgame.losses as losses

    rng = np.random.default_rng(seed)
    problem = _lockstep_problem(rng, kind)
    sizes = problem.instance.space.sizes
    inits = [PolicyLogits(tuple(3.0 * rng.standard_normal(k) for k in sizes)) for _ in range(count)]
    if descended:  # an init a long descent has brought to, or near, its floor
        where = int(rng.integers(0, count + 1))
        inits.insert(where, reference_minimize_loss(problem, inits[0], steps=400).logits)
    limit = contextlib.nullcontext()
    if chunk is not None:  # chunk inits to a stack
        table = 8 * problem.instance.preference.packed.size
        limit = mock.patch.object(losses, "_LOCKSTEP_BYTES", chunk * table)
    rows = []
    with limit:
        results = minimize_loss(
            problem, inits, steps=steps, step_size=step_size, trace=lambda *r: rows.append(r)
        )
    assert len(results) == len(inits)
    for i, (got, z0) in enumerate(zip(results, inits)):
        want_rows = []
        trace = (lambda *r: want_rows.append(r)) if i == 0 else None
        with np.errstate(over="ignore", invalid="ignore"):  # the public value warns
            want = reference_minimize_loss(
                problem, z0, steps=steps, step_size=step_size, trace=trace
            )
        assert got.steps_taken == want.steps_taken
        assert got.logits.sizes == got.policy.sizes == sizes
        assert _bits(got.loss, got.grad_max, got.logits.packed, got.policy.packed) == _bits(
            want.loss, want.grad_max, want.logits.packed, want.policy.packed
        )
        if i == 0:
            assert _bits(rows) == _bits(want_rows)


@pytest.mark.parametrize("inits, error, match", [
    (lambda z: [], ValueError, "at least one init"),
    (lambda z: [z, z.packed], TypeError, "init 1 is ndarray"),
    (lambda z: [z, z, PolicyLogits(z.rows[:1])], ValueError, "init 2: logits"),
    (lambda z: [PolicyLogits((np.zeros(1), *z.rows[1:])), z], ValueError, "init 0: logits"),
], ids=["empty", "not_logits", "fewer_prompts", "other_counts"])
def test_minimize_checks_every_init_before_evaluating(monkeypatch, rng, inits, error, match):
    import prefgame.losses as losses

    inst, build = _problem_builder(rng, "sq")
    problem = build()

    def refuse(*args):
        raise AssertionError("evaluated before checking the inits")

    monkeypatch.setattr(losses, "_margins", refuse)
    monkeypatch.setattr(losses, "_slope", refuse)
    with pytest.raises(error, match=match):
        minimize_loss(problem, inits(_random_logits(rng, inst.space.sizes)), steps=5)


def test_minimize_reaches_the_update_from_different_inits(rng):
    inst = random_instance(rng, num_prompts=1, max_responses=4)
    cur = random_policy(rng, inst.space.sizes)
    closed = mwu_step([cur], inst, 0.8)
    problem = UpdateMatchingProblem(inst, cur, [cur], 0.8)
    finals = []
    for _ in range(2):
        z0 = PolicyLogits(tuple(rng.standard_normal(k) for k in inst.space.sizes))
        res = minimize_loss(problem, z0, steps=6000)
        finals.append(res.policy.rows[0])
        assert np.abs(res.policy.rows[0] - closed.rows[0]).max() <= 1e-5
    assert np.abs(finals[0] - finals[1]).max() <= 2e-5


def test_minimize_records_trace_of_accepted_steps(rng):
    inst = random_instance(rng, num_prompts=1, max_responses=3)
    cur = random_policy(rng, inst.space.sizes)
    problem = UpdateMatchingProblem(inst, cur, [cur], 1.0)
    z0 = PolicyLogits(tuple(rng.standard_normal(k) for k in inst.space.sizes))
    rows = []
    minimize_loss(problem, z0, steps=200, trace=lambda s, v, g: rows.append((s, v, g)))
    assert rows[0][0] == 0
    steps = [s for s, _, _ in rows]
    assert steps == list(range(len(rows)))  # dense accepted counter
    losses = [v for _, v, _ in rows]
    assert all(b < a for a, b in zip(losses, losses[1:]))  # strict descent


def test_minimize_realizable_two_response_anchor_problem():
    # a two-response prompt with a degenerate 0/1 oracle makes the squared
    # anchor target exactly attainable, so the minimum is numerically zero
    import prefgame

    space = prefgame.ResponseSpace((("good", "bad"),))
    inst = prefgame.GameInstance(
        prompt_weights=np.array([1.0]),
        space=space,
        reference=TabularPolicy([[0.5, 0.5]]),
        preference=prefgame.PairwisePreference(
            (np.array([[0.5, 1.0], [0.0, 0.5]]),)
        ),
    )
    tau = 0.2
    problem = PairMarginProblem(
        inst, [inst.reference], preset("ipo", tau=tau)
    )
    res = minimize_loss(problem, PolicyLogits((np.zeros(2),)), steps=4000)
    assert res.loss <= 1e-8
    margin = log_ratio_margin(res.policy, [inst.reference], 0, 0, 1)
    assert margin == pytest.approx(1.0 / (2.0 * tau), abs=1e-3)
