import itertools
import math

import numpy as np
import pytest

import prefgame.objectives as objectives
from helpers import (
    mean_pairwise_one_vs_many,
    pl_one_vs_many,
    random_instance,
    random_policy,
    win_rate_vs_policy,
)
from prefgame import (
    ENUMERATION_CAP,
    MEAN_PAIRWISE,
    PLACKETT_LUCE,
    EnumerationCapExceeded,
    GameInstance,
    PairwisePreference,
    ResponseSpace,
    RewardTable,
    SupportViolation,
    closed_form_multi_teacher_optimum,
    expected_win_rates,
    kl_divergence,
    mwu_step,
    multi_teacher_objective,
    multiplayer_objective,
    point_mass_policy,
    policy_from_rows,
    regularized_reward_objective,
    two_player_objective,
    uniform_policy,
)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


# ---------------------------------------------------------------------------
# win rates and KL


def test_win_rate_on_rps_uniform(rps):
    uni = uniform_policy(rps.space)
    # each response wins one pairing, loses one, ties itself
    for y in range(3):
        assert win_rate_vs_policy(rps.preference, 0, y, uni) == pytest.approx(
            0.5, abs=1e-15
        )


def test_win_rate_against_point_mass(rps):
    pm = point_mass_policy(rps.space, [1])
    for y in range(3):
        assert win_rate_vs_policy(rps.preference, 0, y, pm) == (
            rps.preference.win_prob(0, y, 1)
        )


def test_kl_of_policy_with_itself_is_zero(rng):
    inst = random_instance(rng)
    pol = random_policy(rng, inst.space.sizes)
    assert kl_divergence(pol, pol, inst) == 0.0


def test_kl_point_mass_against_fair_coin():
    inst = GameInstance(
        prompt_weights=np.array([1.0]),
        space=ResponseSpace((("a", "b"),)),
        reference=policy_from_rows([[0.5, 0.5]]),
        preference=PairwisePreference((np.full((2, 2), 0.5),)),
    )
    pm = policy_from_rows([[1.0, 0.0]])
    assert kl_divergence(pm, inst.reference, inst) == pytest.approx(
        math.log(2.0), abs=1e-15
    )


def test_kl_is_nonnegative(rng):
    for _ in range(100):
        inst = random_instance(rng)
        p = random_policy(rng, inst.space.sizes)
        q = random_policy(rng, inst.space.sizes)
        assert kl_divergence(p, q, inst) >= 0.0


def test_kl_raises_on_support_violation(rps):
    pm = point_mass_policy(rps.space, [0])
    wide = uniform_policy(rps.space)
    with pytest.raises(SupportViolation) as err:
        kl_divergence(wide, pm, rps)
    assert err.value.prompt == 0
    # 0 log 0 convention: the narrow policy against the wide one is fine
    assert np.isfinite(kl_divergence(pm, wide, rps))


# ---------------------------------------------------------------------------
# one-vs-many win probabilities


def test_pl_equal_rewards_three_way_tie():
    r = RewardTable((np.zeros(3),))
    assert pl_one_vs_many(r, 0, 0, [1, 2]) == pytest.approx(1 / 3, abs=1e-15)


def test_pl_single_opponent_is_bradley_terry():
    r = RewardTable((np.array([1.0, 0.0]),))
    assert pl_one_vs_many(r, 0, 0, [1]) == pytest.approx(sigmoid(1.0), abs=1e-15)


def test_pl_dominant_reward():
    r = RewardTable((np.array([10.0, 0.0, 0.0]),))
    want = 1.0 / (1.0 + 2.0 * math.exp(-10.0))
    assert pl_one_vs_many(r, 0, 0, [1, 2]) == pytest.approx(want, rel=1e-14)


def test_pl_translation_invariance(rng):
    r = rng.normal(size=4)
    a = pl_one_vs_many(RewardTable((r,)), 0, 1, [0, 2, 3])
    b = pl_one_vs_many(RewardTable((r + 37.5,)), 0, 1, [0, 2, 3])
    assert abs(a - b) < 1e-12


def test_pl_large_rewards_stay_finite():
    r = RewardTable((np.array([700.0, 0.0]),))
    assert pl_one_vs_many(r, 0, 0, [1]) == pytest.approx(1.0, abs=1e-12)


def test_pl_pool_validation():
    r = RewardTable((np.zeros(3),))
    with pytest.raises(ValueError, match="nonempty"):
        pl_one_vs_many(r, 0, 0, [])
    with pytest.raises(ValueError, match="itself"):
        pl_one_vs_many(r, 0, 0, [0, 1])


def test_mean_pairwise_identical_opponents_collapse(rps, rng):
    opp = random_policy(rng, rps.space.sizes)
    one = mean_pairwise_one_vs_many(rps.preference, 0, 1, [opp])
    three = mean_pairwise_one_vs_many(rps.preference, 0, 1, [opp, opp, opp])
    assert one == pytest.approx(three, abs=1e-15)
    assert one == pytest.approx(
        win_rate_vs_policy(rps.preference, 0, 1, opp), abs=1e-15
    )


def test_mean_pairwise_two_point_masses(rps):
    a = point_mass_policy(rps.space, [1])
    b = point_mass_policy(rps.space, [2])
    got = mean_pairwise_one_vs_many(rps.preference, 0, 0, [a, b])
    want = 0.5 * (
        rps.preference.win_prob(0, 0, 1) + rps.preference.win_prob(0, 0, 2)
    )
    assert got == pytest.approx(want, abs=1e-15)


def test_padded_tables_match_per_prompt_loops(rng):
    # Uneven response counts pad every table; the padding must not leak.
    for _ in range(20):
        inst = random_instance(rng, num_prompts=4, max_responses=6)
        p, q = (random_policy(rng, inst.space.sizes) for _ in range(2))
        mats, w = inst.preference.matrices, inst.prompt_weights
        win = expected_win_rates(inst, [p, q])
        step = mwu_step([p, q], inst, 0.7)
        for x, m in enumerate(mats):
            k = len(m)
            mean = (m @ p.rows[x] + m @ q.rows[x]) / 2
            assert np.allclose(win[x][:k], mean, rtol=0, atol=1e-15)
            assert np.all(win[x][k:] == 0.0)
            logit = (np.log(p.rows[x]) + np.log(q.rows[x])) / 2 + 0.7 * mean
            want = np.exp(logit - logit.max())
            assert np.allclose(step.rows[x], want / want.sum(), rtol=0, atol=1e-14)
        kl = sum(w[x] * np.sum(p.rows[x] * np.log(p.rows[x] / q.rows[x])) for x in range(4))
        assert kl_divergence(p, q, inst) == pytest.approx(kl, abs=1e-14)
        value = sum(w[x] * p.rows[x] @ m @ q.rows[x] for x, m in enumerate(mats))
        assert two_player_objective(p, q, inst) == pytest.approx(value, abs=1e-14)


def test_expected_win_rates_enumeration_cap(bt, monkeypatch):
    uni = uniform_policy(bt.space)
    monkeypatch.setattr(objectives, "ENUMERATION_CAP", 100)
    with pytest.raises(EnumerationCapExceeded) as err:
        expected_win_rates(bt, [uni] * 4, PLACKETT_LUCE)
    assert err.value.size > err.value.cap == 100
    # mean_pairwise never enumerates, so the same cap is harmless there
    expected_win_rates(bt, [uni] * 4, MEAN_PAIRWISE)


def test_enumeration_cap_count_does_not_overflow():
    # 12 responses against 17 opponents: 12**18 tuples, past int64, whose
    # wrapped value would still be a positive number above the cap
    space = ResponseSpace((tuple(f"r{y}" for y in range(12)),))
    inst = GameInstance(
        prompt_weights=np.array([1.0]),
        space=space,
        reference=uniform_policy(space),
        preference=PairwisePreference((np.full((12, 12), 0.5),)),
        reward=RewardTable((np.zeros(12),)),
    )
    with pytest.raises(EnumerationCapExceeded) as err:
        expected_win_rates(inst, [inst.reference] * 17, PLACKETT_LUCE)
    assert err.value.size == 12**18


def _sparse_policy(rng, sizes):
    """Random rows with about 40% of the entries zeroed, each row still live."""
    rows = []
    for k in sizes:
        row = rng.random(k) + 0.01
        row[rng.random(k) < 0.4] = 0.0
        if not row.any():
            row[rng.integers(k)] = 1.0
        rows.append(row / row.sum())
    return policy_from_rows(rows)


def test_pl_table_matches_brute_force_enumeration(rng):
    # Each tuple is scored by pl_one_vs_many; the opponents draw from a
    # second copy of the response set, so a pool may repeat the response.
    for _ in range(15):
        base = random_instance(rng, num_prompts=3, max_responses=5)
        sizes = base.space.sizes
        spread = rng.uniform(0.0, 30.0)
        rewards = RewardTable(tuple(rng.uniform(-spread, spread, k) for k in sizes))
        inst = GameInstance(
            prompt_weights=base.prompt_weights,
            space=base.space,
            reference=base.reference,
            preference=base.preference,
            reward=rewards,
        )
        doubled = RewardTable(tuple(np.concatenate((r, r)) for r in rewards.rows))
        opponents = [_sparse_policy(rng, sizes) for _ in range(rng.integers(1, 5))]
        win = expected_win_rates(inst, opponents, PLACKETT_LUCE)
        for x, k in enumerate(sizes):
            supports = [np.flatnonzero(o.rows[x] > 0.0) for o in opponents]
            for y in range(k):
                want = 0.0
                for tup in itertools.product(*supports):
                    weight = math.prod(o.rows[x][j] for o, j in zip(opponents, tup))
                    pool = [k + int(j) for j in tup]
                    want += weight * pl_one_vs_many(doubled, x, y, pool)
                assert abs(win[x, y] - want) <= 1e-13
            assert np.all(win[x, k:] == 0.0)


def test_pl_table_at_the_cap_splits_evenly():
    # 10 responses, 6 opponents: 10 * 10**6 weighted tuples, exactly the cap
    rng = np.random.default_rng(7)
    space = ResponseSpace((tuple(f"r{y}" for y in range(10)),))
    inst = GameInstance(
        prompt_weights=np.array([1.0]),
        space=space,
        reference=uniform_policy(space),
        preference=PairwisePreference((np.full((10, 10), 0.5),)),
        reward=RewardTable((rng.normal(0.0, 3.0, 10),)),
    )
    row = rng.random(10) + 0.05
    pol = policy_from_rows([row / row.sum()])
    win = expected_win_rates(inst, [pol] * 6, PLACKETT_LUCE)
    # seven exchangeable players: each wins with probability 1/7
    assert float(pol.rows[0] @ win[0]) == pytest.approx(1.0 / 7.0, abs=1e-12)


def test_expected_win_rates_pl_needs_rewards(rps):
    inst = GameInstance(
        prompt_weights=rps.prompt_weights,
        space=rps.space,
        reference=rps.reference,
        preference=rps.preference,
        reward=None,
    )
    uni = uniform_policy(rps.space)
    with pytest.raises(ValueError, match="reward"):
        expected_win_rates(inst, [uni], PLACKETT_LUCE)


# ---------------------------------------------------------------------------
# two-player value


def test_self_play_value_is_half(rng):
    for _ in range(50):
        inst = random_instance(rng)
        pol = random_policy(rng, inst.space.sizes)
        assert two_player_objective(pol, pol, inst, 0.0) == pytest.approx(
            0.5, abs=1e-12
        )


def test_reference_self_play_is_half_for_any_tau(rng):
    inst = random_instance(rng)
    ref = inst.reference
    for tau in (0.0, 0.3, 2.0):
        assert two_player_objective(ref, ref, inst, tau) == pytest.approx(
            0.5, abs=1e-12
        )


def test_skew_duality(rng):
    for _ in range(30):
        inst = random_instance(rng)
        p = random_policy(rng, inst.space.sizes)
        q = random_policy(rng, inst.space.sizes)
        total = two_player_objective(p, q, inst) + two_player_objective(q, p, inst)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_rps_counter_wins_outright(rps):
    # paper (index 2) beats rock (index 0) with certainty
    rock = point_mass_policy(rps.space, [0])
    paper = point_mass_policy(rps.space, [2])
    assert two_player_objective(paper, rock, rps) == 1.0


def test_tau_penalizes_first_player_and_credits_second(rps):
    pm = point_mass_policy(rps.space, [0])
    ref = rps.reference
    base = two_player_objective(pm, ref, rps, 0.0)
    kl = kl_divergence(pm, ref, rps)
    assert two_player_objective(pm, ref, rps, 0.7) == pytest.approx(
        base - 0.7 * kl, abs=1e-12
    )
    assert two_player_objective(ref, pm, rps, 0.7) == pytest.approx(
        (1.0 - base) + 0.7 * kl, abs=1e-12
    )


# ---------------------------------------------------------------------------
# multiplayer value


def test_multiplayer_uniform_rps_three_players(rps):
    uni = uniform_policy(rps.space)
    got = multiplayer_objective(uni, [uni, uni], rps, 0.0, MEAN_PAIRWISE)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_multiplayer_two_players_matches_two_player_value(rng):
    for _ in range(20):
        inst = random_instance(rng)
        p = random_policy(rng, inst.space.sizes)
        q = random_policy(rng, inst.space.sizes)
        a = multiplayer_objective(p, [q], inst, 0.0, MEAN_PAIRWISE)
        b = two_player_objective(p, q, inst, 0.0)
        assert a == pytest.approx(b, abs=1e-12)


def test_multiplayer_pl_identical_players_split_evenly(rng):
    for n in (2, 3, 4):
        inst = random_instance(rng, max_responses=4)
        pol = random_policy(rng, inst.space.sizes)
        got = multiplayer_objective(pol, [pol] * (n - 1), inst, 0.0, PLACKETT_LUCE)
        assert got == pytest.approx(1.0 / n, abs=1e-12)


def test_multiplayer_respects_max_tuples(bt, monkeypatch):
    uni = uniform_policy(bt.space)
    monkeypatch.setattr(objectives, "ENUMERATION_CAP", 50)
    with pytest.raises(EnumerationCapExceeded):
        multiplayer_objective(uni, [uni] * 4, bt, 0.0, PLACKETT_LUCE)


# ---------------------------------------------------------------------------
# reward objectives


def test_constant_reward_at_reference(rng):
    inst = random_instance(rng)
    const = RewardTable(tuple(np.full(k, 2.5) for k in inst.space.sizes))
    got = regularized_reward_objective(inst.reference, const, inst, tau=1.3)
    assert got == pytest.approx(2.5, abs=1e-12)


def test_multi_teacher_with_no_teachers_matches_regularized(rng):
    inst = random_instance(rng)
    pol = random_policy(rng, inst.space.sizes)
    a = multi_teacher_objective(
        pol, inst.reward, inst.reference, [], 0.8, [], inst
    )
    b = regularized_reward_objective(pol, inst.reward, inst, 0.8)
    assert a == pytest.approx(b, abs=1e-12)


def test_multi_teacher_needs_one_tau_per_teacher(rng):
    inst = random_instance(rng)
    with pytest.raises(ValueError, match="tau"):
        multi_teacher_objective(
            inst.reference, inst.reward, inst.reference, [inst.reference], 1.0, [], inst
        )


def test_closed_form_zero_reward_single_anchor_returns_reference(rng):
    inst = random_instance(rng)
    zero = RewardTable(tuple(np.zeros(k) for k in inst.space.sizes))
    opt = closed_form_multi_teacher_optimum(zero, inst.reference, [], 1.0, [])
    for x in range(inst.num_prompts):
        assert np.allclose(opt.rows[x], inst.reference.rows[x], atol=1e-12)


def test_closed_form_two_response_logistic():
    ref = policy_from_rows([[0.5, 0.5]])
    r = RewardTable((np.array([1.0, 0.0]),))
    opt = closed_form_multi_teacher_optimum(r, ref, [], 1.0, [])
    assert opt.rows[0][0] == pytest.approx(sigmoid(1.0), abs=1e-12)
    assert opt.rows[0][1] == pytest.approx(sigmoid(-1.0), abs=1e-12)


def test_closed_form_is_the_argmax(rng):
    for _ in range(5):
        inst = random_instance(rng)
        teachers = [random_policy(rng, inst.space.sizes)]
        tau_ref, taus = 0.7, [0.4]
        opt = closed_form_multi_teacher_optimum(
            inst.reward, inst.reference, teachers, tau_ref, taus
        )
        best = multi_teacher_objective(
            opt, inst.reward, inst.reference, teachers, tau_ref, taus, inst
        )
        for _ in range(50):
            probe = random_policy(rng, inst.space.sizes)
            val = multi_teacher_objective(
                probe, inst.reward, inst.reference, teachers, tau_ref, taus, inst
            )
            assert best >= val - 1e-12


def test_closed_form_respects_anchor_supports(rng):
    ref = policy_from_rows([[0.5, 0.5, 0.0]])
    r = RewardTable((np.array([0.0, 0.0, 100.0]),))
    opt = closed_form_multi_teacher_optimum(r, ref, [], 1.0, [])
    assert opt.rows[0][2] == 0.0  # excluded by the anchor, reward is irrelevant


@pytest.mark.parametrize(
    "rewards, tau",
    [([1e300, 0.0], 1e-10), ([1.0, 0.0], 1e-310), ([np.nan, 0.0], 1.0)],
)
def test_closed_form_rejects_rewards_over_tau_past_the_float_range(rewards, tau):
    # an infinite logit used to read as an empty support: all mass moved
    # to the other response
    ref = policy_from_rows([[0.5, 0.5]])
    r = RewardTable((np.array(rewards),))
    with pytest.raises(ValueError, match="rewards / tau"):
        closed_form_multi_teacher_optimum(r, ref, [], tau, [])


@pytest.mark.parametrize("rewards, tau", [([-np.inf, 0.0], 1.0), ([-1e300, 0.0], 1e-10)])
def test_closed_form_gives_a_minus_inf_logit_zero_mass(rewards, tau):
    ref = policy_from_rows([[0.5, 0.5]])
    r = RewardTable((np.array(rewards),))
    opt = closed_form_multi_teacher_optimum(r, ref, [], tau, [])
    assert opt.rows[0].tolist() == [0.0, 1.0]


def test_closed_form_rejects_zero_total_coefficient(rng):
    inst = random_instance(rng)
    with pytest.raises(ValueError, match="positive"):
        closed_form_multi_teacher_optimum(
            inst.reward, inst.reference, [], 0.0, []
        )
    with pytest.raises(ValueError, match="nonnegative"):
        closed_form_multi_teacher_optimum(
            inst.reward, inst.reference, [], -1.0, []
        )


def test_enumeration_cap_constant_is_large():
    assert ENUMERATION_CAP == 10**7
