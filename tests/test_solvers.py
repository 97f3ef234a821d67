import numpy as np
import pytest

from helpers import random_instance, random_policy
from prefgame import (
    MEAN_PAIRWISE,
    PLACKETT_LUCE,
    GameInstance,
    PairwisePreference,
    PolicyLogits,
    RunLog,
    RunRecord,
    SolverConfig,
    UpdateMatchingProblem,
    average_policy,
    best_response_kl,
    closed_form_multi_teacher_optimum,
    compare_presets,
    dual_gap_two_player,
    exploitability_multiplayer,
    generate_rankings,
    kl_divergence,
    minimize_loss,
    multiplayer_objective,
    mwu_step,
    point_mass_policy,
    policy_from_rows,
    preset,
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
        reference=policy_from_rows([[0.5, 0.5, 0.0]]),
        preference=rps.preference,
    )
    opp = policy_from_rows([[0.0, 0.6, 0.4]])
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
# averaging


def test_average_policy_single_is_identity(rng):
    pol = random_policy(rng, (3,))
    avg = average_policy([pol])
    assert np.all(avg.rows[0] == pol.rows[0])


def test_average_policy_of_point_masses(rps):
    a = point_mass_policy(rps.space, [0])
    b = point_mass_policy(rps.space, [2])
    avg = average_policy([a, b])
    assert np.allclose(avg.rows[0], [0.5, 0.0, 0.5], atol=1e-15)


def test_average_policy_weighted(rps):
    a = point_mass_policy(rps.space, [0])
    b = point_mass_policy(rps.space, [2])
    avg = average_policy([a, b], weights=(0.25, 0.75))
    assert np.allclose(avg.rows[0], [0.25, 0.0, 0.75], atol=1e-15)


def test_average_policy_validation(rps):
    a = uniform_policy(rps.space)
    with pytest.raises(ValueError, match="nothing"):
        average_policy([])
    with pytest.raises(ValueError, match="weight"):
        average_policy([a], weights=(0.5, 0.5))
    with pytest.raises(ValueError, match="sum to one"):
        average_policy([a, a], weights=(0.5, 0.4))


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
    back = RunLog.from_csv(path)
    assert len(back.records) == len(log.records)
    for a, b in zip(log.records, back.records):
        assert a.iteration == b.iteration
        assert b.gap == pytest.approx(a.gap, rel=1e-11)


def test_run_log_csv_header_is_pinned(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iter,gap,kl,value,ms\n0,0,0,0,0\n")
    with pytest.raises(ValueError, match="header"):
        RunLog.from_csv(path)
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
    want = average_policy([rps.reference, res.final])
    assert np.allclose(res.average.rows[0], want.rows[0], atol=1e-14)


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
    with pytest.raises(ValueError, match="history weight"):
        SolverConfig(
            eta=1.0,
            iterations=5,
            n_players=3,
            opponent_scheme="history_window",
            history_weights=(0.5,),
        )


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
    (lambda inst: average_policy([inst.reference] * 2, [NAN, 1.0]), "weight"),
    (lambda inst: closed_form_multi_teacher_optimum(
        inst.reward, inst.reference, [], NAN, []), "tau_ref"),
    (lambda inst: closed_form_multi_teacher_optimum(
        inst.reward, inst.reference, [inst.reference], 0.5, [NAN]), "taus"),
    (lambda inst: minimize_loss(*_descent_problem(inst), step_size=NAN), "step_size"),
    (lambda inst: minimize_loss(*_descent_problem(inst), step_size=INF), "step_size"),
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
], ids=[
    "solver_tau_nan", "solver_tau_inf", "best_response_kl_tau_nan",
    "exploitability_tau_nan", "dual_gap_tau_nan", "mwu_step_weights_nan",
    "average_policy_weights_nan", "closed_form_tau_ref_nan", "closed_form_taus_nan",
    "minimize_step_size_nan", "minimize_step_size_inf", "minimize_steps_negative",
    "minimize_steps_nan", "solver_iterations_nan", "solver_iterations_fractional",
    "solver_n_players_nan", "solver_metric_stride_nan", "exploitability_n_players_nan",
    "ipo_tau_nan", "rankings_count_nan", "rankings_pool_size_nan",
    "presets_samples_nan",
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
