import sys

import numpy as np
import pytest

import prefgame.equilibrium as equilibrium
import prefgame.objectives as objectives
from helpers import random_instance, random_policy
from prefgame import (
    MEAN_PAIRWISE,
    PLACKETT_LUCE,
    BestResponseResult,
    EnumerationCapExceeded,
    GameInstance,
    NegativeGapError,
    PairwisePreference,
    best_response_kl,
    best_response_unregularized,
    config_from_dict,
    dual_gap_two_player,
    expected_win_rates,
    exploitability_multiplayer,
    multiplayer_objective,
    point_mass_policy,
    policy_from_rows,
    run_experiment,
    save_instance,
    two_player_objective,
    uniform_policy,
)


# ---------------------------------------------------------------------------
# best responses


def test_best_response_counters_a_point_mass(rps):
    rock = point_mass_policy(rps.space, [0])
    br = best_response_unregularized(rps, [rock])
    assert br.policy.rows[0].tolist() == [0.0, 0.0, 1.0]  # paper
    assert br.value == 1.0


def test_best_response_to_uniform_mixes_all_ties(rps):
    uni = uniform_policy(rps.space)
    br = best_response_unregularized(rps, [uni])
    # every response wins exactly half against uniform, so ties get mixed
    assert np.allclose(br.policy.rows[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert br.value == pytest.approx(0.5, abs=1e-12)


def test_best_response_against_indifferent_oracle(rps):
    flat = GameInstance(
        prompt_weights=rps.prompt_weights,
        space=rps.space,
        reference=rps.reference,
        preference=PairwisePreference((np.full((3, 3), 0.5),)),
    )
    br = best_response_unregularized(flat, [uniform_policy(rps.space)])
    assert br.value == pytest.approx(0.5, abs=1e-15)


def test_best_response_value_is_consistent(rng):
    for _ in range(10):
        inst = random_instance(rng)
        opp = random_policy(rng, inst.space.sizes)
        br = best_response_unregularized(inst, [opp])
        direct = multiplayer_objective(br.policy, [opp], inst, 0.0, MEAN_PAIRWISE)
        assert br.value == pytest.approx(direct, abs=1e-12)


def test_best_response_dominates_random_policies(rng):
    for _ in range(10):
        inst = random_instance(rng)
        opp = random_policy(rng, inst.space.sizes)
        br = best_response_unregularized(inst, [opp])
        for _ in range(20):
            probe = random_policy(rng, inst.space.sizes)
            assert br.value >= two_player_objective(probe, opp, inst) - 1e-12


def test_best_response_stays_on_reference_support(rng):
    inst = random_instance(rng, num_prompts=1, max_responses=4)
    rows = [r.copy() for r in inst.reference.rows]
    rows[0][0] = 0.0
    rows[0] /= rows[0].sum()
    clipped = GameInstance(
        prompt_weights=inst.prompt_weights,
        space=inst.space,
        reference=policy_from_rows(rows),
        preference=inst.preference,
        reward=inst.reward,
    )
    opp = random_policy(rng, inst.space.sizes)
    br = best_response_unregularized(clipped, [opp])
    assert br.policy.rows[0][0] == 0.0


def test_kl_best_response_huge_tau_returns_reference(rps, rng):
    opp = random_policy(rng, rps.space.sizes)
    br = best_response_kl(rps, [opp], tau=1e6)
    tv = 0.5 * float(np.abs(br.policy.rows[0] - rps.reference.rows[0]).sum())
    assert tv <= 1e-5


def test_kl_best_response_tiny_tau_approaches_hard_argmax(rps):
    rock = point_mass_policy(rps.space, [0])
    br = best_response_kl(rps, [rock], tau=1e-6)
    hard = best_response_unregularized(rps, [rock])
    tv = 0.5 * float(np.abs(br.policy.rows[0] - hard.policy.rows[0]).sum())
    assert tv <= 1e-3


def test_kl_best_response_maximizes_regularized_value(rng):
    for _ in range(5):
        inst = random_instance(rng)
        opp = random_policy(rng, inst.space.sizes)
        tau = 0.4
        br = best_response_kl(inst, [opp], tau=tau)
        for _ in range(30):
            probe = random_policy(rng, inst.space.sizes)
            val = multiplayer_objective(probe, [opp], inst, tau, MEAN_PAIRWISE)
            assert br.value >= val - 1e-12


def test_kl_best_response_is_softmax_of_win_rates(rps, rng):
    opp = random_policy(rng, rps.space.sizes)
    tau = 0.3
    br = best_response_kl(rps, [opp], tau=tau)
    w = rps.preference.matrices[0] @ opp.rows[0]
    want = rps.reference.rows[0] * np.exp(w / tau)
    want /= want.sum()
    assert np.allclose(br.policy.rows[0], want, atol=1e-12)


@pytest.mark.parametrize("aggregator", [MEAN_PAIRWISE, PLACKETT_LUCE])
@pytest.mark.parametrize("n_players", [2, 3])
@pytest.mark.parametrize("tau", [1e-3, 0.3, 1e3])
def test_kl_best_response_matches_hand_written_gibbs_rows(rng, aggregator, n_players, tau):
    # ref(y) exp(W(y) / tau), normalized, on uneven instances; one instance
    # in two drops a reference entry, which the response must drop too
    for trial in range(6):
        inst = random_instance(rng)
        if trial % 2:
            rows = [r.copy() for r in inst.reference.rows]
            rows[0][0] = 0.0
            rows[0] /= rows[0].sum()
            inst = GameInstance(
                prompt_weights=inst.prompt_weights,
                space=inst.space,
                reference=policy_from_rows(rows),
                preference=inst.preference,
                reward=inst.reward,
            )
        opps = [random_policy(rng, inst.space.sizes) for _ in range(n_players - 1)]
        br = best_response_kl(inst, opps, tau, aggregator)
        win = expected_win_rates(inst, opps, aggregator)
        for x, ref in enumerate(inst.reference.rows):
            s = win[x, : len(ref)] / tau
            want = ref * np.exp(s - s[ref > 0.0].max())
            want /= want.sum()
            assert np.max(np.abs(br.policy.rows[x] - want)) <= 1e-12
            assert np.all(br.policy.rows[x][ref == 0.0] == 0.0)


def test_kl_best_response_rejects_nonpositive_tau(rps):
    with pytest.raises(ValueError, match="tau"):
        best_response_kl(rps, [rps.reference], tau=0.0)


def test_kl_best_response_names_a_subnormal_tau(rps):
    # win rates / tau overflow below the smallest normal float; the error
    # names tau instead of the anchors' support
    for tau in (5e-309, 1e-320):
        with pytest.raises(ValueError, match="needs a finite tau >="):
            best_response_kl(rps, [rps.reference], tau=tau)
    br = best_response_kl(rps, [rps.reference], tau=sys.float_info.min)
    assert np.all(np.isfinite(br.policy.packed)) and np.isfinite(br.value)


# ---------------------------------------------------------------------------
# duality gap


def test_dual_gap_zero_at_uniform_equilibrium(rps):
    assert dual_gap_two_player(uniform_policy(rps.space), rps) <= 1e-10


def test_dual_gap_one_at_point_mass(rps):
    gap = dual_gap_two_player(point_mass_policy(rps.space, [0]), rps)
    assert gap == pytest.approx(1.0, abs=1e-10)


def test_dual_gap_positive_away_from_equilibrium(rps, rng):
    count = 0
    while count < 50:
        pol = random_policy(rng, rps.space.sizes, interior=False)
        if np.abs(pol.rows[0] - 1 / 3).max() < 0.02:
            continue  # too close to the equilibrium to count
        count += 1
        assert dual_gap_two_player(pol, rps) > 0.01


def test_dual_gap_never_negative(rng):
    for _ in range(30):
        inst = random_instance(rng)
        pol = random_policy(rng, inst.space.sizes)
        assert dual_gap_two_player(pol, inst) >= 0.0


@pytest.mark.parametrize("tau", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("game", ["rps", "bt", "mixed"])
def test_dual_gap_is_twice_the_two_player_exploitability(game, tau, request):
    # M + M^T = 1 gives J(p, q) + J(q, p) = 1 and J(p, p) = 1/2, so both
    # halves of the duality gap are the best response's gain over 1/2
    inst = request.getfixturevalue(game)
    gen = np.random.default_rng(29)
    for _ in range(50):
        pol = random_policy(gen, inst.space.sizes)
        twice = 2.0 * exploitability_multiplayer(pol, 2, inst, tau)
        assert abs(dual_gap_two_player(pol, inst, tau) - twice) <= 1e-15


def test_dual_gap_with_regularization_vanishes_at_reference_fixed_point(rps):
    # with tau > 0 the regularized game's equilibrium is no longer uniform,
    # but the gap stays nonnegative and is small near the softmax fixed point
    uni = uniform_policy(rps.space)
    assert dual_gap_two_player(uni, rps, tau=0.5) >= 0.0


# ---------------------------------------------------------------------------
# multiplayer exploitability


def test_exploitability_zero_at_uniform(rps):
    uni = uniform_policy(rps.space)
    assert exploitability_multiplayer(uni, 2, rps) <= 1e-12
    assert exploitability_multiplayer(uni, 3, rps) <= 1e-12


def test_exploitability_point_mass_three_players(rps):
    # two copies of rock; the deviator plays paper and wins both pairings
    pm = point_mass_policy(rps.space, [0])
    got = exploitability_multiplayer(pm, 3, rps)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_exploitability_is_half_the_two_sided_gap(rps, rng):
    # symmetric game at tau = 0: J(p, br) = 1 - J(br, p), so the two-sided
    # gap is exactly twice the unilateral gain
    for _ in range(20):
        pol = random_policy(rng, rps.space.sizes)
        expl = exploitability_multiplayer(pol, 2, rps)
        gap = dual_gap_two_player(pol, rps)
        assert 2.0 * expl == pytest.approx(gap, abs=1e-12)


def test_exploitability_needs_two_players(rps):
    with pytest.raises(ValueError, match="two players"):
        exploitability_multiplayer(uniform_policy(rps.space), 1, rps)


def test_exploitability_pl_aggregator_runs(bt):
    uni = uniform_policy(bt.space)
    got = exploitability_multiplayer(uni, 3, bt, aggregator=PLACKETT_LUCE)
    assert got >= 0.0


@pytest.fixture
def table_builds(monkeypatch):
    """Counts win-table builds through either module's binding."""
    calls = []
    original = objectives.expected_win_rates

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(objectives, "expected_win_rates", counted)
    monkeypatch.setattr(equilibrium, "expected_win_rates", counted)
    return calls


@pytest.mark.parametrize("aggregator", [MEAN_PAIRWISE, PLACKETT_LUCE])
@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_exploitability_builds_one_table(rng, table_builds, aggregator, tau):
    for _ in range(5):
        inst = random_instance(rng, max_responses=4)
        pol = random_policy(rng, inst.space.sizes)
        others = [pol] * 2
        table_builds.clear()
        got = exploitability_multiplayer(pol, 3, inst, tau, aggregator)
        assert len(table_builds) == 1
        br = equilibrium._best_response(inst, others, tau, aggregator)
        old = br.value - multiplayer_objective(pol, others, inst, tau, aggregator)
        assert got == pytest.approx(max(old, 0.0), abs=1e-15)


@pytest.mark.parametrize("aggregator", [MEAN_PAIRWISE, PLACKETT_LUCE])
def test_best_responses_build_one_table(rng, table_builds, aggregator):
    inst = random_instance(rng, max_responses=4)
    opp = random_policy(rng, inst.space.sizes)
    for tau in (0.0, 0.3):
        table_builds.clear()
        if tau == 0.0:
            br = best_response_unregularized(inst, [opp, opp], aggregator)
        else:
            br = best_response_kl(inst, [opp, opp], tau, aggregator)
        assert len(table_builds) == 1
        assert np.array_equal(br.win, expected_win_rates(inst, [opp, opp], aggregator))
        direct = multiplayer_objective(br.policy, [opp, opp], inst, tau, aggregator)
        assert br.value == direct


def _gap_run(bt, uni, tmp_path):
    save_instance(bt, tmp_path / "bt.json")
    run_experiment(config_from_dict({
        "mode": "gap", "instance": str(tmp_path / "bt.json"),
        "out_dir": str(tmp_path / "out"), "n_players": 5,
        "aggregator": "plackett_luce",
    }))


@pytest.mark.parametrize("route", [
    lambda bt, uni, _: multiplayer_objective(uni, [uni] * 4, bt, 0.0, PLACKETT_LUCE),
    lambda bt, uni, _: best_response_unregularized(bt, [uni] * 4, PLACKETT_LUCE),
    lambda bt, uni, _: best_response_kl(bt, [uni] * 4, 0.3, PLACKETT_LUCE),
    lambda bt, uni, _: exploitability_multiplayer(uni, 5, bt, 0.0, PLACKETT_LUCE),
    _gap_run,
], ids=["objective", "best_response", "best_response_kl", "exploitability", "gap_run"])
def test_every_route_reads_the_enumeration_cap_at_call_time(
    bt, tmp_path, monkeypatch, route
):
    # no route binds the cap when its module is imported, so lowering the
    # one module constant reaches each of them
    monkeypatch.setattr(objectives, "ENUMERATION_CAP", 100)
    with pytest.raises(EnumerationCapExceeded) as err:
        route(bt, uniform_policy(bt.space), tmp_path)
    assert err.value.cap == 100


def test_negative_gap_raises_named_error(rps, monkeypatch):
    # a "best response" that plays response 0, which loses outright to 2
    loser = point_mass_policy(rps.space, [0])

    def worse(instance, opponents, *args, **kwargs):
        win = expected_win_rates(instance, opponents)
        return BestResponseResult(
            loser, multiplayer_objective(loser, opponents, instance), win
        )

    monkeypatch.setattr(equilibrium, "best_response_unregularized", worse)
    winner = point_mass_policy(rps.space, [2])
    with pytest.raises(NegativeGapError, match="negative exploitability"):
        exploitability_multiplayer(winner, 2, rps)
    with pytest.raises(NegativeGapError, match="negative duality gap"):
        dual_gap_two_player(winner, rps)
    assert issubclass(NegativeGapError, ArithmeticError)
    assert not issubclass(NegativeGapError, AssertionError)
