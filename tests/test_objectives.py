import decimal
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
    reference_pl_win_row,
    win_rate_vs_policy,
)
from prefgame import (
    MEAN_PAIRWISE,
    PLACKETT_LUCE,
    GameInstance,
    PairwisePreference,
    ResponseSpace,
    RewardTable,
    SupportViolation,
    TabularPolicy,
    closed_form_multi_teacher_optimum,
    expected_win_rates,
    kl_divergence,
    make_bt_oracle,
    mwu_step,
    multi_teacher_objective,
    multiplayer_objective,
    point_mass_policy,
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
            float(rps.preference.matrices[0][y, 1])
        )


def test_kl_of_policy_with_itself_is_zero(rng):
    inst = random_instance(rng)
    pol = random_policy(rng, inst.space.sizes)
    assert kl_divergence(pol, pol, inst) == 0.0


def test_kl_point_mass_against_fair_coin():
    inst = GameInstance(
        prompt_weights=np.array([1.0]),
        space=ResponseSpace((("a", "b"),)),
        reference=TabularPolicy([[0.5, 0.5]]),
        preference=PairwisePreference((np.full((2, 2), 0.5),)),
    )
    pm = TabularPolicy([[1.0, 0.0]])
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


def _one_prompt_bt(rewards) -> GameInstance:
    reward = RewardTable((np.array(rewards),))
    space = ResponseSpace((tuple(f"r{y}" for y in range(len(rewards))),))
    return GameInstance(
        prompt_weights=np.array([1.0]),
        space=space,
        reference=uniform_policy(space),
        preference=make_bt_oracle(reward),
        reward=reward,
    )


def test_pl_row_on_wide_rewards_is_the_pairwise_row_against_one_opponent():
    # a row spanning 1400 once gave 0/0 where every member sat far below the
    # maximum; against one opponent Plackett-Luce is the pairwise game
    inst = _one_prompt_bt([700.0, 0.0, -700.0])
    pl = expected_win_rates(inst, [inst.reference], PLACKETT_LUCE)
    pairwise = expected_win_rates(inst, [inst.reference], MEAN_PAIRWISE)
    assert np.all(np.abs(pl - pairwise) <= 1e-15)


@pytest.mark.parametrize("rewards, opponent", [
    ([700.0, 0.0, -700.0], [1 / 3, 1 / 3, 1 / 3]),
    ([750.0, 749.5, 0.0, -800.0], [0.1, 0.4, 0.0, 0.5]),
])
def test_pl_row_on_wide_rewards_matches_exact_enumeration(rewards, opponent):
    # three players: two opponents, each tuple summed in 50-digit decimals
    inst = _one_prompt_bt(rewards)
    pol = TabularPolicy([opponent])
    win = expected_win_rates(inst, [pol, pol], PLACKETT_LUCE)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        r = [decimal.Decimal(v) for v in rewards]
        p = [decimal.Decimal(v) for v in opponent]
        for y in range(len(r)):
            want = sum(
                p[a] * p[b] / (1 + (r[a] - r[y]).exp() + (r[b] - r[y]).exp())
                for a, b in itertools.product(range(len(r)), repeat=2)
            )
            assert abs(decimal.Decimal(win[0, y]) - want) <= decimal.Decimal(1e-15)


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
        float(rps.preference.matrices[0][0, 1]) + float(rps.preference.matrices[0][0, 2])
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


def _sparse_policy(rng, sizes):
    """Random rows with about 40% of the entries zeroed, each row still live."""
    rows = []
    for k in sizes:
        row = rng.random(k) + 0.01
        row[rng.random(k) < 0.4] = 0.0
        if not row.any():
            row[rng.integers(k)] = 1.0
        rows.append(row / row.sum())
    return TabularPolicy(rows)


def _brute_force_pl_row(rewards: RewardTable, x: int, opponents, first: int = 0):
    """Prompt x's Plackett-Luce row from response `first` on, tuple by tuple.

    Each tuple is scored by pl_one_vs_many; the opponents draw from a second
    copy of the response set, so a pool may repeat the response.
    """
    k = len(rewards.rows[x])
    doubled = RewardTable((np.concatenate((rewards.rows[x], rewards.rows[x])),))
    supports = [np.flatnonzero(o.rows[x] > 0.0) for o in opponents]
    row = np.zeros(k - first)
    for y in range(first, k):
        for tup in itertools.product(*supports):
            weight = math.prod(o.rows[x][j] for o, j in zip(opponents, tup))
            row[y - first] += weight * pl_one_vs_many(doubled, 0, y, [k + int(j) for j in tup])
    return row


def test_pl_table_matches_brute_force_enumeration(rng):
    # odd games draw narrow rewards, even games span well past 700
    for game in range(16):
        base = random_instance(rng, num_prompts=3, max_responses=5)
        sizes = base.space.sizes
        spread = rng.uniform(0.0, 30.0) if game % 2 else rng.uniform(400.0, 2000.0)
        rewards = RewardTable(tuple(rng.uniform(-spread, spread, k) for k in sizes))
        inst = GameInstance(
            prompt_weights=base.prompt_weights,
            space=base.space,
            reference=base.reference,
            preference=base.preference,
            reward=rewards,
        )
        opponents = [_sparse_policy(rng, sizes) for _ in range(rng.integers(1, 5))]
        win = expected_win_rates(inst, opponents, PLACKETT_LUCE)
        for x, k in enumerate(sizes):
            want = _brute_force_pl_row(rewards, x, opponents)
            assert np.all(np.abs(win[x, :k] - want) <= 1e-13)
            assert np.all(win[x, k:] == 0.0)


@pytest.mark.filterwarnings("error")
def test_pl_table_never_lets_a_minus_inf_response_win():
    space = ResponseSpace((("a", "b", "c", "d"), ("a", "b", "c")))
    inst = GameInstance(
        prompt_weights=np.array([0.5, 0.5]),
        space=space,
        reference=uniform_policy(space),
        preference=PairwisePreference((np.full((4, 4), 0.5), np.full((3, 3), 0.5))),
        reward=RewardTable((np.array([-np.inf, 1.0, 0.0, 2.5]), np.full(3, -np.inf))),
    )
    mixed = TabularPolicy([[0.1, 0.2, 0.3, 0.4], [0.2, 0.3, 0.5]])
    # one -inf response: it gets 0, the others match brute force (which
    # cannot score the -inf response itself: an all -inf pool reads 0/0)
    win = expected_win_rates(inst, [mixed, mixed], PLACKETT_LUCE)
    assert win[0, 0] == 0.0
    want = _brute_force_pl_row(inst.reward, 0, [mixed, mixed], first=1)
    assert np.all(np.abs(win[0, 1:] - want) <= 1e-15)
    # an opponent playing only the -inf response: a finite response always wins
    doomed = TabularPolicy([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    win = expected_win_rates(inst, [doomed], PLACKETT_LUCE)
    assert win[0].tolist() == [0.0, 1.0, 1.0, 1.0]
    # an all -inf row: no response ever wins
    assert win[1].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert np.all(expected_win_rates(inst, [mixed] * 3, PLACKETT_LUCE)[1] == 0.0)


def test_pl_table_against_copies_splits_evenly():
    # 10 responses against 6 and against 999 copies of one policy
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
    pol = TabularPolicy([row / row.sum()])
    for n in (7, 1000):
        win = expected_win_rates(inst, [pol] * (n - 1), PLACKETT_LUCE)
        # n exchangeable players: each wins with probability 1/n
        assert float(pol.rows[0] @ win[0]) == pytest.approx(1.0 / n, abs=1e-12)


def _pl_row(rewards_row, opponents_rows):
    """objectives._pl_win_row on one prompt; rows that are one object stay one table."""
    tables: dict[int, np.ndarray] = {}
    stacked = [tables.setdefault(id(row), row[None]) for row in opponents_rows]
    return objectives._pl_win_row(rewards_row[None], stacked)[0]


def _rewards_row(rng, k, spread):
    """k rewards on [-spread, spread], about 20% of them -inf, the first finite."""
    rewards = rng.uniform(-spread, spread, k)
    rewards[1:][rng.random(k - 1) < 0.2] = -np.inf
    return rewards


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _fsum_pl_row(rewards_row, opponents_rows):
    """The Plackett-Luce row over ordered tuples, each sum rounded once (math.fsum)."""
    supports = [np.flatnonzero(row > 0.0).tolist() for row in opponents_rows]
    win = np.zeros(len(rewards_row))
    for y in np.flatnonzero(rewards_row > -np.inf).tolist():
        terms = []
        for tup in itertools.product(*supports):
            weight = math.prod(float(row[j]) for row, j in zip(opponents_rows, tup))
            ratios = [_exp_or_inf(rewards_row[j] - rewards_row[y]) for j in tup]
            terms.append(weight / math.fsum([1.0, *ratios]))
        win[y] = math.fsum(terms)
    return win


def test_pl_row_against_distinct_opponents_is_the_tuple_row(rng):
    # rows equal in value but not the same object are distinct opponents
    for trial in range(60):
        k = int(rng.integers(1, 7))
        rewards = _rewards_row(rng, k, 30.0 if trial % 2 else 1000.0)
        opponents = [_sparse_policy(rng, [k]).rows[0] for _ in range(rng.integers(1, 5))]
        opponents.append(opponents[0].copy())
        got = _pl_row(rewards, opponents)
        assert np.all(np.abs(got - reference_pl_win_row(rewards, opponents)) <= 1e-15)


def test_pl_row_against_copies_is_the_tuple_row(rng):
    # the tuple row itself rounds off the once-rounded sum by up to about
    # 2e-15 at 8 players, while the quadrature stays within 1e-15 of it
    for n in range(2, 9):
        for trial in range(2):
            k = 4 if n <= 6 else 3
            rewards = _rewards_row(rng, k, 3.0 if trial else 30.0)
            a, b = _sparse_policy(rng, [k]).rows[0], _sparse_policy(rng, [k]).rows[0]
            pools = [[a] * (n - 1)]
            if n >= 4:
                pools += [[a, a, b] + [b] * (n - 4), [a, b, a] + [a] * (n - 4)]
            for pool in pools:
                got = _pl_row(rewards, pool)
                assert np.all(np.abs(got - _fsum_pl_row(rewards, pool)) <= 1e-15)
                assert np.all(np.abs(got - reference_pl_win_row(rewards, pool)) <= 4e-15)
                assert np.all(got[np.isneginf(rewards)] == 0.0)


@pytest.mark.filterwarnings("error")
def test_pl_row_against_copies_past_an_overflowing_span():
    # e^800 overflows: a draw holding response 0 gives every other response
    # a share of 0, and the overflowed ratio must not read as NaN
    rewards = np.array([800.0, 0.0, -5.0, -np.inf])
    mixed = np.array([0.5, 0.3, 0.0, 0.2])
    for m in (2, 3, 6):
        got = _pl_row(rewards, [mixed] * m)
        assert not np.isnan(got).any()
        assert np.all(np.abs(got - _fsum_pl_row(rewards, [mixed] * m)) <= 1e-15)
        # response 1 wins only the draws from {1, 3}: a draws of 1 give 1 / (1 + a)
        want = math.fsum(
            math.comb(m, a) * 0.3**a * 0.2 ** (m - a) / (1 + a) for a in range(m + 1)
        )
        assert got[1] == pytest.approx(want, abs=1e-15)
        point = _pl_row(rewards, [np.array([1.0, 0.0, 0.0, 0.0])] * m)
        assert abs(point[0] - 1.0 / (1 + m)) <= 1e-15
        assert point[1:].tolist() == [0.0, 0.0, 0.0]


def test_pl_row_against_an_opponent_that_never_wins_is_exactly_one(rng):
    # the weights' own sum normalises the quadrature, so on every grid of
    # nodes (the span sets where it starts) a certain win reads exactly 1
    for spread in np.geomspace(1e-3, 1e3, 60):
        rewards = np.concatenate(([-np.inf], rng.uniform(-1.0, 1.0, 3) * spread))
        for m in (1, 2, 7):
            got = _pl_row(rewards, [np.array([1.0, 0.0, 0.0, 0.0])] * m)
            assert got.tolist() == [0.0, 1.0, 1.0, 1.0]


@pytest.mark.filterwarnings("error")
def test_pl_row_matches_the_tuple_row_at_any_span(rng):
    # -inf rewards, zeroed opponent entries, spans past 709 and rewards of
    # +-1e308, against distinct opponents and copies mixed in with them
    for trial in range(400):
        k = int(rng.integers(1, 7))
        if trial % 4 == 3:
            rewards = rng.choice([-1e308, 0.0, 1e308], k)
        else:
            rewards = rng.uniform(-1.0, 1.0, k) * (3.0, 30.0, 1000.0)[trial % 4]
        rewards[1:][rng.random(k - 1) < 0.2] = -np.inf
        opponents = [_sparse_policy(rng, [k]).rows[0] for _ in range(rng.integers(1, 4))]
        opponents += [opponents[-1]] * int(rng.integers(0, 3))
        got = _pl_row(rewards, opponents)
        want = reference_pl_win_row(rewards, opponents)
        assert np.all(np.abs(got - want) <= 1e-15)
        shares = want > 1e-290
        assert np.all(np.abs(got - want)[shares] <= 1e-13 * want[shares])


def test_pl_table_in_chunks_matches_the_tuple_rows(rng):
    # twelve prompts of up to 12 responses take more than one chunk of rows
    inst = random_instance(rng, num_prompts=12, max_responses=12)
    a, b = (_sparse_policy(rng, inst.space.sizes) for _ in range(2))
    win = expected_win_rates(inst, [a, b, b], PLACKETT_LUCE)
    for x, k in enumerate(inst.space.sizes):
        want = reference_pl_win_row(inst.reward.rows[x], [a.rows[x], b.rows[x], b.rows[x]])
        assert np.all(np.abs(win[x, :k] - want) <= 1e-15)
        assert np.all(win[x, k:] == 0.0)


@pytest.mark.parametrize("n", [2, 3, 16, 100, 1000, 4097])
def test_pl_row_against_copies_gives_each_player_one_nth(rng, n):
    for _ in range(20):
        k = int(rng.integers(2, 9))
        rewards = rng.normal(0.0, float(rng.choice([0.5, 3.0, 30.0])), k)
        pi = rng.random(k) + 0.05
        pi /= pi.sum()
        assert abs(n * float(pi @ _pl_row(rewards, [pi] * (n - 1))) - 1.0) <= 1e-13


def test_pl_row_against_many_copies_nears_the_mean_field_limit(rng):
    # W[y] / (1 / (1 + (n - 1) E_pi[rho_y])) - 1, rho_y = e^{r - r_y}, is
    # Var_pi[rho_y] / (n E_pi[rho_y]^2) to first order in 1/n
    for _ in range(10):
        k = int(rng.integers(2, 8))
        rewards = rng.normal(0.0, 2.0, k)
        pi = rng.random(k) + 0.05
        pi /= pi.sum()
        ratio = np.exp(rewards[None, :] - rewards[:, None])
        mean = ratio @ pi
        spread = (ratio**2 @ pi - mean**2) / mean**2
        for n in (16, 64, 256, 1024, 4096):
            limit = 1.0 / (1.0 + (n - 1) * mean)
            scaled = n * (_pl_row(rewards, [pi] * (n - 1)) / limit - 1.0)
            assert np.all((0.0 <= scaled) & (scaled <= 2.0 * spread))
        assert np.all(np.abs(scaled / spread - 1.0) <= 0.01)


def test_expected_win_rates_needs_an_opponent(rps):
    with pytest.raises(ValueError, match="at least one opponent"):
        expected_win_rates(rps, [])


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


# ---------------------------------------------------------------------------
# reward objectives


def test_constant_reward_at_reference(rng):
    inst = random_instance(rng)
    const = RewardTable(tuple(np.full(k, 2.5) for k in inst.space.sizes))
    got = multi_teacher_objective(inst.reference, const, inst.reference, [], 1.3, [], inst)
    assert got == pytest.approx(2.5, abs=1e-12)


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
    ref = TabularPolicy([[0.5, 0.5]])
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
    ref = TabularPolicy([[0.5, 0.5, 0.0]])
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
    ref = TabularPolicy([[0.5, 0.5]])
    r = RewardTable((np.array(rewards),))
    with pytest.raises(ValueError, match="rewards / tau"):
        closed_form_multi_teacher_optimum(r, ref, [], tau, [])


@pytest.mark.parametrize("rewards, tau", [([-np.inf, 0.0], 1.0), ([-1e300, 0.0], 1e-10)])
def test_closed_form_gives_a_minus_inf_logit_zero_mass(rewards, tau):
    ref = TabularPolicy([[0.5, 0.5]])
    r = RewardTable((np.array(rewards),))
    opt = closed_form_multi_teacher_optimum(r, ref, [], tau, [])
    assert opt.rows[0].tolist() == [0.0, 1.0]


@pytest.mark.parametrize("entry", [np.nan, np.inf, -0.1])
@pytest.mark.parametrize("bad_teacher", [False, True])
def test_closed_form_names_an_anchor_entry_that_is_no_probability(entry, bad_teacher):
    # such an entry used to drop its response silently: [0, 0.526, 0.474] for
    # a NaN, and the same after a RuntimeWarning from log for a negative one
    r = RewardTable((np.array([0.1, 0.2, 0.3]),))
    good = TabularPolicy([[0.5, 0.3, 0.2]])
    bad = TabularPolicy([[0.2, 0.4, entry]])
    ref, teacher = (good, bad) if bad_teacher else (bad, good)
    name = "teacher 0" if bad_teacher else "reference"
    with pytest.raises(ValueError, match=f"{name} has a NaN, \\+inf or negative entry"):
        closed_form_multi_teacher_optimum(r, ref, [teacher], 0.5, [0.5])


def test_closed_form_ignores_the_entries_of_an_unweighted_anchor():
    r = RewardTable((np.array([0.1, 0.2, 0.3]),))
    ref = TabularPolicy([[0.5, 0.3, 0.2]])
    bad = TabularPolicy([[np.nan, np.inf, -1.0]])
    opt = closed_form_multi_teacher_optimum(r, ref, [bad], 0.5, [0.0])
    alone = closed_form_multi_teacher_optimum(r, ref, [], 0.5, [])
    assert np.array_equal(opt.packed, alone.packed)


def test_closed_form_keeps_an_anchor_whose_share_of_tau_underflows():
    # 5e-324 / 2.0 rounds to 0; the teacher still excludes its zero entry
    r = RewardTable((np.array([0.1, 0.2, 0.3]),))
    ref = TabularPolicy([[0.5, 0.3, 0.2]])
    teacher = TabularPolicy([[0.0, 0.5, 0.5]])
    tiny = math.ulp(0.0)
    assert tiny / 2.0 == 0.0
    opt = closed_form_multi_teacher_optimum(r, ref, [teacher], 2.0, [tiny])
    want = np.array([0.0, 0.3 * math.exp(0.1), 0.2 * math.exp(0.15)])
    assert opt.rows[0][0] == 0.0
    assert np.allclose(opt.rows[0], want / want.sum(), rtol=1e-15, atol=0.0)


def test_closed_form_needs_one_tau_per_teacher(rng):
    inst = random_instance(rng)
    with pytest.raises(ValueError, match="one tau per teacher"):
        closed_form_multi_teacher_optimum(
            inst.reward, inst.reference, [inst.reference] * 2, 0.5, [0.5]
        )


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

