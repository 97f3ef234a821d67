import numpy as np
import pytest

from helpers import random_instance, random_policy, reference_mwu_step, sparse_game
from prefgame import (
    MEAN_PAIRWISE,
    PLACKETT_LUCE,
    GameInstance,
    PairMarginProblem,
    PairwisePreference,
    PolicyLogits,
    RankedComparison,
    RewardTable,
    RunLog,
    RunRecord,
    SolverConfig,
    TabularPolicy,
    UpdateMatchingProblem,
    best_response_kl,
    closed_form_multi_teacher_optimum,
    compare_presets,
    derive_rng,
    dual_gap_two_player,
    exploitability_multiplayer,
    expected_win_rates,
    generate_rankings,
    kl_divergence,
    minimize_loss,
    multiplayer_objective,
    mwu_step,
    point_mass_policy,
    preset,
    sample_preference_dataset,
    self_play_run,
    uniform_policy,
)


# ---------------------------------------------------------------------------
# the update itself


def test_mwu_step_closed_form_single_opponent(rps, rng):
    cur = random_policy(rng, rps.space.sizes)
    eta = 0.7
    out = mwu_step([cur], rps, eta)
    w = rps.preference.matrices[0] @ cur.rows[0]
    want = cur.rows[0] * np.exp(eta * w)
    want /= want.sum()
    assert np.allclose(out.rows[0], want, atol=1e-14)


def test_mwu_step_geometric_mean_of_opponents(rps, rng):
    # against an indifferent oracle the update is the pure geometric mean
    flat = GameInstance(
        prompt_weights=rps.prompt_weights,
        space=rps.space,
        reference=rps.reference,
        preference=PairwisePreference((np.full((3, 3), 0.5),)),
    )
    a = random_policy(rng, rps.space.sizes)
    b = random_policy(rng, rps.space.sizes)
    out = mwu_step([a, b], flat, eta=1.0)
    want = np.sqrt(a.rows[0] * b.rows[0])
    want /= want.sum()
    assert np.allclose(out.rows[0], want, atol=1e-14)


def test_mwu_step_uniform_is_rps_fixed_point(rps):
    uni = uniform_policy(rps.space)
    out = mwu_step([uni], rps, eta=0.5)
    assert np.abs(out.rows[0] - 1 / 3).max() <= 1e-12


def test_mwu_step_indifferent_oracle_keeps_current(rps, rng):
    flat = GameInstance(
        prompt_weights=rps.prompt_weights,
        space=rps.space,
        reference=rps.reference,
        preference=PairwisePreference((np.full((3, 3), 0.5),)),
    )
    cur = random_policy(rng, rps.space.sizes)
    out = mwu_step([cur], flat, eta=2.0)
    assert np.allclose(out.rows[0], cur.rows[0], atol=1e-14)


def test_mwu_step_support_is_the_intersection(rps):
    ref_limited = GameInstance(
        prompt_weights=rps.prompt_weights,
        space=rps.space,
        reference=TabularPolicy([[0.5, 0.5, 0.0]]),
        preference=rps.preference,
    )
    opp = TabularPolicy([[0.0, 0.6, 0.4]])
    out = mwu_step([opp], ref_limited, eta=1.0)
    assert out.rows[0][0] == 0.0  # killed by the opponent
    assert out.rows[0][2] == 0.0  # killed by the reference
    assert out.rows[0][1] == 1.0


def test_mwu_step_empty_intersection_raises(rps):
    a = point_mass_policy(rps.space, [0])
    b = point_mass_policy(rps.space, [1])
    with pytest.raises(ValueError, match="support"):
        mwu_step([a, b], rps, eta=1.0)


def test_mwu_step_zero_weight_opponent_is_ignored(rps, rng):
    cur = random_policy(rng, rps.space.sizes)
    narrow = point_mass_policy(rps.space, [0])  # would shrink the support
    with_ghost = mwu_step([cur, narrow], rps, 0.5, weights=(1.0, 0.0))
    alone = mwu_step([cur], rps, 0.5)
    assert np.allclose(with_ghost.rows[0], alone.rows[0], atol=1e-14)
    assert np.all(np.isfinite(with_ghost.rows[0]))


def test_mwu_step_argument_validation(rps):
    uni = uniform_policy(rps.space)
    with pytest.raises(ValueError, match="opponent"):
        mwu_step([], rps, 1.0)
    with pytest.raises(ValueError, match="eta"):
        mwu_step([uni], rps, 0.0)
    with pytest.raises(ValueError, match="weight"):
        mwu_step([uni], rps, 1.0, weights=(0.5, 0.5))
    with pytest.raises(ValueError, match="distribution"):
        mwu_step([uni], rps, 1.0, weights=(0.7,))


# ---------------------------------------------------------------------------
# the anchored step


@pytest.mark.parametrize("eta_p, tau_p", [(1.0, 0.5), (2.0, 0.3), (0.5, 0.5)])
@pytest.mark.parametrize("name", ["rps", "bt", "mixed"])
def test_mwu_step_is_the_inpo_minimizer(request, rng, name, eta_p, tau_p):
    # the exact-mode inpo loss is stationary, and being convex in the logits
    # minimal, at cur^(1 - tau_p/eta_p) ref^(tau_p/eta_p) exp(W/tau_p): the
    # step at eta = 1/tau_p anchored with tau = tau_p^2/eta_p
    inst = request.getfixturevalue(name)
    cur = random_policy(rng, inst.space.sizes)
    problem = PairMarginProblem(inst, [cur], preset("inpo", eta_p, tau_p))
    step = mwu_step([cur], inst, 1.0 / tau_p, tau=tau_p**2 / eta_p)
    at_step = PolicyLogits(tuple(np.log(np.where(r > 0.0, r, 1.0)) for r in step.rows))
    assert np.abs(problem.gradient(at_step).packed).max() <= 1e-13
    # the descent stops once its step underflows, up to ~3e-8 short of it
    z0 = PolicyLogits(tuple(np.zeros(k) for k in inst.space.sizes))
    descended = minimize_loss(problem, z0).policy
    assert np.abs(descended.packed - step.packed).max() <= 1e-7


@pytest.mark.parametrize("aggregator", [MEAN_PAIRWISE, PLACKETT_LUCE])
def test_mwu_step_is_the_closed_form_on_its_win_table(bt, rng, aggregator):
    # the closed form in its own scale: reward W, KL weight tau on the
    # reference and (1/eta - tau) w_j on each opponent
    eta, tau, w = 0.5, 0.1, np.array([0.7, 0.3])
    opponents = [random_policy(rng, bt.space.sizes) for _ in w]
    if aggregator == PLACKETT_LUCE:  # one pool drawn jointly
        win = expected_win_rates(bt, opponents, PLACKETT_LUCE)
    else:  # the weighted sum of the pairwise tables
        win = sum(wj * expected_win_rates(bt, [o]) for wj, o in zip(w, opponents))
    want = closed_form_multi_teacher_optimum(
        RewardTable(win), bt.reference, opponents, tau, (1.0 / eta - tau) * w
    )
    got = mwu_step(opponents, bt, eta, w, tau, aggregator)
    assert np.abs(got.packed - want.packed).max() <= 1e-14


@pytest.mark.parametrize("n_players", [2, 3])
@pytest.mark.parametrize("tau", [0.05, 0.2])
@pytest.mark.parametrize("name", ["rps", "mixed"])
def test_anchored_last_iterate_converges(request, name, tau, n_players):
    inst = request.getfixturevalue(name)
    cfg = SolverConfig(eta=0.5, iterations=1000, n_players=n_players, tau=tau,
                       metric_stride=1000)
    res = self_play_run(inst, cfg)
    assert exploitability_multiplayer(res.final, n_players, inst, tau) <= 1e-12


def test_unanchored_last_iterate_drifts_while_the_average_converges(rps):
    # at tau = 0 the last iterate spirals away from the uniform equilibrium
    gaps = {}
    for iterations in (100, 1000):
        res = self_play_run(rps, SolverConfig(eta=0.5, iterations=iterations,
                                              metric_stride=iterations))
        gaps[iterations] = exploitability_multiplayer(res.final, 2, rps)
    assert 0.25 < gaps[100] < gaps[1000]
    assert res.log.records[-1].gap < 0.01


def test_solver_config_bounds_eta_times_tau():
    SolverConfig(eta=0.5, iterations=1, tau=2.0)  # eta * tau = 1 resets to the reference
    with pytest.raises(ValueError, match="tau must be at most 1/eta"):
        SolverConfig(eta=0.5, iterations=1, tau=3.0)


# ---------------------------------------------------------------------------
# run log


def _record(t, gap=0.1):
    return RunRecord(t, gap, 0.01, 0.5)


def test_run_log_requires_increasing_iterations():
    with pytest.raises(ValueError, match="increase"):
        RunLog((_record(0), _record(0)))
    with pytest.raises(ValueError, match="increase"):
        RunLog((_record(5), _record(3)))


def test_run_log_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="non-finite"):
        RunLog((RunRecord(0, np.nan, 0.0, 0.5),))


def test_run_log_csv_round_trip(tmp_path):
    log = RunLog(tuple(_record(t, gap=0.1 / (t + 1)) for t in range(0, 30, 3)))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == len(log.records)
    for rec, row in zip(log.records, rows):
        iteration, gap, kl_ref, value, elapsed_ms = row.split(",")
        assert int(iteration) == rec.iteration
        assert float(gap) == pytest.approx(rec.gap, rel=1e-11)
        assert (float(kl_ref), float(value), elapsed_ms) == (rec.kl_ref, rec.self_play_value, "0")


def test_run_log_csv_header_is_pinned(tmp_path):
    good = tmp_path / "good.csv"
    RunLog((_record(0),)).to_csv(good)
    assert good.read_text().splitlines()[0] == (
        "iter,gap,kl_ref,self_play_value,elapsed_ms"
    )


# ---------------------------------------------------------------------------
# self-play runs


def test_self_play_zero_iterations_reports_reference(rps):
    cfg = SolverConfig(eta=0.5, iterations=0)
    res = self_play_run(rps, cfg)
    assert np.all(res.final.rows[0] == rps.reference.rows[0])
    assert np.all(res.average.rows[0] == rps.reference.rows[0])
    assert len(res.log.records) == 1
    assert res.log.records[0].iteration == 0
    assert res.log.records[0].kl_ref == 0.0


def test_self_play_indifferent_oracle_never_moves(rng):
    inst = random_instance(rng, num_prompts=1, max_responses=4)
    flat = GameInstance(
        prompt_weights=inst.prompt_weights,
        space=inst.space,
        reference=inst.reference,
        preference=PairwisePreference(
            (np.full((inst.space.sizes[0],) * 2, 0.5),)
        ),
    )
    res = self_play_run(flat, SolverConfig(eta=1.0, iterations=20))
    assert np.allclose(res.final.rows[0], flat.reference.rows[0], atol=1e-13)
    assert res.log.records[-1].kl_ref <= 1e-12


def test_self_play_metric_iterations_follow_stride(rps):
    cfg = SolverConfig(eta=0.5, iterations=25, metric_stride=10)
    res = self_play_run(rps, cfg)
    assert [r.iteration for r in res.log.records] == [0, 10, 20, 25]


def test_self_play_average_includes_the_initial_iterate(rps):
    cfg = SolverConfig(eta=0.5, iterations=1)
    res = self_play_run(rps, cfg)
    want = (rps.reference.rows[0] + res.final.rows[0]) / 2.0
    assert np.allclose(res.average.rows[0], want, atol=1e-14)


def test_self_play_reruns_are_bit_identical(rps):
    cfg = SolverConfig(eta=0.5, iterations=40, metric_stride=5)
    a = self_play_run(rps, cfg)
    b = self_play_run(rps, cfg)
    assert np.all(a.final.rows[0] == b.final.rows[0])
    assert np.all(a.average.rows[0] == b.average.rows[0])
    for ra, rb in zip(a.log.records, b.log.records):
        assert (ra.gap, ra.kl_ref, ra.self_play_value) == (
            rb.gap,
            rb.kl_ref,
            rb.self_play_value,
        )


def test_self_play_final_matches_manual_iteration(rps):
    cfg = SolverConfig(eta=0.5, iterations=7)
    res = self_play_run(rps, cfg)
    cur = rps.reference
    for _ in range(7):
        cur = mwu_step([cur], rps, 0.5)
    assert np.all(res.final.rows[0] == cur.rows[0])


@pytest.mark.parametrize("aggregator", [MEAN_PAIRWISE, PLACKETT_LUCE])
@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_self_play_metric_row_values_match_the_objectives(aggregator, tau):
    # gap and value come from one best response; each must still equal the
    # public function computed on its own
    inst = random_instance(np.random.default_rng(31), num_prompts=3, max_responses=5)
    cfg = SolverConfig(eta=0.5, iterations=6, n_players=3, tau=tau,
                       aggregator=aggregator, metric_stride=6)
    res = self_play_run(inst, cfg)
    first, last = res.log.records
    for record, avg in ((first, inst.reference), (last, res.average)):
        value = multiplayer_objective(avg, [avg, avg], inst, tau, aggregator)
        gap = exploitability_multiplayer(avg, 3, inst, tau, aggregator)
        assert record.self_play_value - value == 0.0
        assert record.gap - gap == 0.0


def test_self_play_history_window_scheme_runs(rps):
    cfg = SolverConfig(
        eta=0.5,
        iterations=30,
        n_players=3,
        opponent_scheme="history_window",
        history_weights=(0.7, 0.3),
        metric_stride=10,
    )
    res = self_play_run(rps, cfg)
    assert res.log.records[-1].iteration == 30
    assert np.all(res.average.rows[0] > 0.0)


def test_self_play_gap_decreases_on_rps(rps):
    # trend statistic over window means: with 20 windows of 100 iterations,
    # the exploitability of the average should fall essentially monotonically
    cfg = SolverConfig(eta=0.5, iterations=2000, metric_stride=1)
    res = self_play_run(rps, cfg)
    gaps = np.array([r.gap for r in res.log.records[1:]])
    means = gaps.reshape(20, 100).mean(axis=1)
    signs = [
        np.sign(means[j] - means[i])
        for i in range(len(means))
        for j in range(i + 1, len(means))
    ]
    s = float(np.sum(signs)) / len(signs)
    assert s <= -0.8
    assert means[-1] < means[0]
    assert res.log.records[-1].gap < res.log.records[0].gap


def test_solver_config_validation(rps):
    with pytest.raises(ValueError, match="eta"):
        SolverConfig(eta=-1.0, iterations=5)
    with pytest.raises(ValueError, match="iterations"):
        SolverConfig(eta=1.0, iterations=-1)
    with pytest.raises(ValueError, match="players"):
        SolverConfig(eta=1.0, iterations=5, n_players=1)
    with pytest.raises(ValueError, match="scheme"):
        SolverConfig(eta=1.0, iterations=5, opponent_scheme="roundrobin")
    with pytest.raises(ValueError, match="stride"):
        SolverConfig(eta=1.0, iterations=5, metric_stride=0)
    with pytest.raises(ValueError, match="tau must be 0 or finite and >="):
        SolverConfig(eta=1.0, iterations=5, tau=5e-309)
    with pytest.raises(ValueError, match="history weight"):
        SolverConfig(
            eta=1.0,
            iterations=5,
            n_players=3,
            opponent_scheme="history_window",
            history_weights=(0.5,),
        )


def test_history_weights_go_only_with_the_history_window(rps):
    # self-play copies would validate the weights and then ignore them
    with pytest.raises(ValueError, match="only with the history_window scheme"):
        SolverConfig(eta=1.0, iterations=5, n_players=3, history_weights=(0.5, 0.5))
    SolverConfig(
        eta=1.0, iterations=5, n_players=3, opponent_scheme="history_window",
        history_weights=(0.5, 0.5),
    )


def test_history_weights_must_sum_to_one():
    # the window's weights are mixture weights, checked as mwu_step checks them
    with pytest.raises(ValueError, match="history weights must be a distribution"):
        SolverConfig(
            eta=1.0, iterations=5, n_players=3, opponent_scheme="history_window",
            history_weights=(0.35, 0.15),
        )


@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_history_window_run_is_the_chain_of_mwu_steps(mixed, tau):
    # the run hands its weights to mwu_step as given; these sum to 1 - 1.1e-16,
    # so a renormalisation would move the iterates in their last bits
    weights = (0.6, 0.3, 0.1)
    assert sum(weights) != 1.0
    cfg = SolverConfig(
        eta=0.5, iterations=12, n_players=4, tau=tau,
        opponent_scheme="history_window", history_weights=weights,
    )
    res = self_play_run(mixed, cfg)
    window = [mixed.reference]
    for _ in range(cfg.iterations):
        opponents = [window[max(len(window) - 1 - j, 0)] for j in range(3)]
        window = window[-3:] + [mwu_step(opponents, mixed, 0.5, weights, tau)]
    assert np.array_equal(res.final.packed, window[-1].packed)


@pytest.mark.parametrize("tau", [0.0, 0.3])
@pytest.mark.parametrize("n_players", [2, 3, 5])
def test_self_play_copies_run_is_the_chain_of_mwu_steps(mixed, tau, n_players):
    cfg = SolverConfig(eta=0.5, iterations=12, n_players=n_players, tau=tau)
    res = self_play_run(mixed, cfg)
    current = reference = mixed.reference
    for _ in range(cfg.iterations):
        current = mwu_step([current] * (n_players - 1), mixed, 0.5, None, tau)
        reference = reference_mwu_step([reference] * (n_players - 1), mixed, 0.5, None, tau)
    assert np.array_equal(res.final.packed, current.packed)
    assert np.array_equal(res.final.packed, reference.packed)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("aggregator", [MEAN_PAIRWISE, PLACKETT_LUCE])
@pytest.mark.parametrize("skewed", [False, True])
@pytest.mark.parametrize("n_players", [2, 3, 5])
@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_mwu_step_gives_the_bits_of_the_stacked_call_sequence(
    seed, aggregator, skewed, n_players, tau
):
    rng = np.random.default_rng(seed)
    inst, opponents = sparse_game(rng, n_players - 1)
    weights = None
    if skewed and n_players == 2:  # a lone weight just under 1, within the sum tolerance
        weights = [1.0 - 2.0**-53]
    elif skewed:
        w = rng.random(n_players - 1) ** 4 + 1e-3
        weights = (w / w.sum()).tolist()
    got = mwu_step(opponents, inst, 0.7, weights, tau, aggregator)
    want = reference_mwu_step(opponents, inst, 0.7, weights, tau, aggregator)
    assert np.array_equal(got.packed, want.packed)


# ---------------------------------------------------------------------------
# non-finite arguments


NAN, INF = float("nan"), float("inf")


def _rng():
    return np.random.default_rng(0)


def _descent_problem(inst):
    problem = UpdateMatchingProblem(inst, inst.reference, [inst.reference], 0.5)
    return problem, PolicyLogits(tuple(np.zeros(k) for k in inst.space.sizes))


@pytest.mark.parametrize("call, name", [
    (lambda inst: SolverConfig(eta=0.5, iterations=3, tau=NAN), "tau"),
    (lambda inst: SolverConfig(eta=0.5, iterations=3, tau=INF), "tau"),
    (lambda inst: best_response_kl(inst, [inst.reference], NAN), "tau"),
    (lambda inst: exploitability_multiplayer(inst.reference, 3, inst, NAN), "tau"),
    (lambda inst: dual_gap_two_player(inst.reference, inst, NAN), "tau"),
    (lambda inst: mwu_step([inst.reference] * 2, inst, 0.5, [NAN, 1.0]), "weights"),
    (lambda inst: closed_form_multi_teacher_optimum(
        inst.reward, inst.reference, [], NAN, []), "tau_ref"),
    (lambda inst: closed_form_multi_teacher_optimum(
        inst.reward, inst.reference, [inst.reference], 0.5, [NAN]), "taus"),
    (lambda inst: PolicyLogits((np.zeros(3), np.array([0.0, NAN]))), "logit row 1"),
    (lambda inst: minimize_loss(*_descent_problem(inst), step_size=NAN), "step_size"),
    (lambda inst: minimize_loss(*_descent_problem(inst), step_size=INF), "step_size"),
    # below the descent's stop floor it would stop before its first step
    (lambda inst: minimize_loss(*_descent_problem(inst), step_size=1e-19), "step_size"),
    (lambda inst: minimize_loss(*_descent_problem(inst), steps=-1), "steps"),
    (lambda inst: minimize_loss(*_descent_problem(inst), steps=NAN), "steps"),
    (lambda inst: SolverConfig(eta=0.5, iterations=NAN), "iterations"),
    (lambda inst: SolverConfig(eta=0.5, iterations=2.5), "iterations"),
    (lambda inst: SolverConfig(eta=0.5, iterations=3, n_players=NAN), "n_players"),
    (lambda inst: SolverConfig(eta=0.5, iterations=3, metric_stride=NAN), "metric_stride"),
    (lambda inst: exploitability_multiplayer(inst.reference, NAN, inst), "n_players"),
    (lambda inst: preset("ipo", tau=NAN), "tau"),
    (lambda inst: generate_rankings(inst.reward, inst, NAN, 1, _rng()), "count"),
    (lambda inst: generate_rankings(inst.reward, inst, 5, NAN, _rng()), "pool_size"),
    (lambda inst: compare_presets(inst, samples=NAN), "samples"),
    (lambda inst: RankedComparison(0, 1.7, (0,)), "winner"),
    (lambda inst: RankedComparison(0, "1", (0,)), "winner"),
    (lambda inst: RankedComparison(True, 1, (0,)), "prompt"),
    (lambda inst: RankedComparison(0, 1, (0.0,)), "pool"),
    (lambda inst: point_mass_policy(inst.space, [1.5] * inst.num_prompts), "pick"),
    (lambda inst: derive_rng(1.5, "fit"), "seed"),
    (lambda inst: derive_rng(True, "fit"), "seed"),
    (lambda inst: sample_preference_dataset(inst, inst.reference, -1, _rng()), "size"),
    (lambda inst: sample_preference_dataset(inst, inst.reference, True, _rng()), "size"),
    (lambda inst: sample_preference_dataset(inst, inst.reference, 2.0, _rng()), "size"),
], ids=[
    "solver_tau_nan", "solver_tau_inf", "best_response_kl_tau_nan",
    "exploitability_tau_nan", "dual_gap_tau_nan", "mwu_step_weights_nan",
    "closed_form_tau_ref_nan", "closed_form_taus_nan", "logits_row_nan",
    "minimize_step_size_nan", "minimize_step_size_inf", "minimize_step_size_below_floor",
    "minimize_steps_negative",
    "minimize_steps_nan", "solver_iterations_nan", "solver_iterations_fractional",
    "solver_n_players_nan", "solver_metric_stride_nan", "exploitability_n_players_nan",
    "ipo_tau_nan", "rankings_count_nan", "rankings_pool_size_nan",
    "presets_samples_nan", "ranked_winner_fractional", "ranked_winner_string",
    "ranked_prompt_bool", "ranked_pool_fractional", "point_mass_pick_fractional",
    "derive_rng_seed_fractional", "derive_rng_seed_bool", "dataset_size_negative",
    "dataset_size_bool", "dataset_size_fractional",
])
def test_non_finite_arguments_are_rejected_by_name(mixed, call, name):
    # the check that names the argument rejects it, before a later step
    # can blame the supports, return a NaN policy or run as if it were valid
    with pytest.raises(ValueError, match=name):
        call(mixed)


def test_numpy_integer_counts_are_accepted(mixed):
    res = self_play_run(mixed, SolverConfig(
        eta=0.5, iterations=np.int64(4), n_players=np.int64(3), metric_stride=np.int64(2)
    ))
    assert [r.iteration for r in res.log.records] == [0, 2, 4]
    assert exploitability_multiplayer(res.average, np.int64(3), mixed) >= 0.0
    assert len(generate_rankings(mixed.reward, mixed, np.int64(5), np.int64(1), _rng())) == 5
    problem, init = _descent_problem(mixed)
    assert minimize_loss(problem, init, steps=np.int64(3)).steps_taken <= 3


def test_numpy_integer_indices_are_accepted(mixed):
    one = np.int64(1)
    assert RankedComparison(np.int64(0), one, (np.int64(0),)) == RankedComparison(0, 1, (0,))
    picks = [one] * mixed.num_prompts
    assert np.array_equal(point_mass_policy(mixed.space, picks).packed,
                          point_mass_policy(mixed.space, [1] * len(picks)).packed)
    assert derive_rng(np.int64(7), "fit").random() == derive_rng(7, "fit").random()
    assert len(sample_preference_dataset(mixed, mixed.reference, np.int64(2), _rng())) == 2
