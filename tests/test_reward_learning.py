import csv
import itertools
import math
import os
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefgame.reward_learning as reward_learning
from helpers import (
    comparison_list,
    fd_reward_gradient,
    max_grad_rel_error,
    random_instance,
    reference_block_rankings,
    reference_index_comparisons,
)
from prefgame import (
    GameInstance,
    PairwisePreference,
    RankedComparison,
    Rankings,
    ResponseSpace,
    RewardTable,
    fit_pl_reward,
    generate_rankings,
    make_bt_oracle,
    pl_nll,
    pl_nll_gradient,
    policy_from_rows,
    rankings_from_csv,
    rankings_to_csv,
)


def softplus(x):
    return math.log1p(math.exp(-abs(x))) + max(x, 0.0)


def two_response_instance(r0: float, r1: float) -> GameInstance:
    reward = RewardTable((np.array([r0, r1]),))
    return GameInstance(
        prompt_weights=np.array([1.0]),
        space=ResponseSpace((("a", "b"),)),
        reference=policy_from_rows([[0.5, 0.5]]),
        preference=make_bt_oracle(reward),
        reward=reward,
    )


def ladder_instance(rewards) -> GameInstance:
    row = np.asarray(rewards, dtype=np.float64)
    k = len(row)
    reward = RewardTable((row,))
    return GameInstance(
        prompt_weights=np.array([1.0]),
        space=ResponseSpace((tuple(f"r{i}" for i in range(k)),)),
        reference=policy_from_rows([np.full(k, 1.0 / k)]),
        preference=make_bt_oracle(reward),
        reward=reward,
    )


# ---------------------------------------------------------------------------
# comparisons


def _interleaved(inst, rng, count):
    """Comparisons of a random pool size each, so the blocks interleave."""
    out = []
    for _ in range(count):
        x = int(rng.integers(0, inst.num_prompts))
        k = inst.space.sizes[x]
        picks = rng.choice(k, size=int(rng.integers(2, k + 1)), replace=False).tolist()
        out.append(RankedComparison(x, picks[0], tuple(picks[1:])))
    return out


def test_ranked_comparison_validation():
    RankedComparison(0, 1, (0, 2))
    with pytest.raises(ValueError, match="nonempty"):
        RankedComparison(0, 1, ())
    with pytest.raises(ValueError, match="repeats"):
        RankedComparison(0, 1, (0, 0))
    with pytest.raises(ValueError, match="own pool"):
        RankedComparison(0, 1, (1, 2))


# indices past intp (and past float64's exact range) must still read as out of range
_FAR = (-1, -(10**30), 10**30, 2**63, -(2**63))


@st.composite
def _comparison_lists(draw):
    """Response counts and comparisons, mostly in range, spread over pool sizes."""
    sizes = tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=4)))
    stray = draw(st.booleans())
    data = []
    for _ in range(draw(st.integers(0 if stray else 1, 12))):
        x = draw(st.integers(0, len(sizes) - 1))
        k = sizes[x]
        if stray and draw(st.integers(0, 4)) == 0:
            x = draw(st.sampled_from((len(sizes),) + _FAR))
        index = st.integers(0, k - 1)
        if stray:
            index = st.one_of(index, index, index, st.sampled_from((k,) + _FAR))
        members = draw(st.lists(index, min_size=2, max_size=k, unique=True))
        data.append(RankedComparison(x, members[0], tuple(members[1:])))
    return sizes, data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_comparison_lists())
def test_index_comparisons_matches_the_per_comparison_walk(case):
    # the list constructor, then the block-at-a-time bounds check the
    # likelihood runs, against one walk over the list
    sizes, data = case
    packed = Rankings(data)
    assert len(packed) == len(data) and comparison_list(packed) == data
    try:
        want = reference_index_comparisons(sizes, data)
    except ValueError as err:
        with pytest.raises(ValueError) as got:  # not OverflowError
            reward_learning._flat_cells(packed, sizes)
        assert str(got.value) == str(err)
        return
    where, cells = reward_learning._flat_cells(packed, sizes)
    assert len(where) == len(want)
    for a, b in zip(where, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(cells, np.concatenate([w.ravel() for w in want]))
    assert reward_learning._flat_cells(packed, sizes)[1] is cells  # kept for the counts


# ---------------------------------------------------------------------------
# likelihood


def test_nll_equal_rewards_pool_of_two():
    r = RewardTable((np.zeros(3),))
    data = Rankings([RankedComparison(0, 0, (1, 2))])
    assert pl_nll(r, data) == pytest.approx(math.log(3.0), abs=1e-12)


def test_nll_pairwise_is_logistic():
    r = RewardTable((np.array([1.0, 0.0]),))
    data = Rankings([RankedComparison(0, 0, (1,))])
    assert pl_nll(r, data) == pytest.approx(softplus(-1.0), abs=1e-12)
    assert pl_nll(r, data) == pytest.approx(0.31326168751822286, abs=1e-12)
    lose = Rankings([RankedComparison(0, 1, (0,))])
    assert pl_nll(r, lose) == pytest.approx(softplus(1.0), abs=1e-12)


def test_nll_decreases_in_the_winner_reward():
    data = Rankings([RankedComparison(0, 0, (1, 2))])
    lo = pl_nll(RewardTable((np.array([0.0, 0.0, 0.0]),)), data)
    hi = pl_nll(RewardTable((np.array([2.0, 0.0, 0.0]),)), data)
    assert hi < lo


def test_nll_gauge_invariance(rng):
    inst = random_instance(rng, max_responses=5)
    data = generate_rankings(inst.reward, inst, 100, 1, rng)
    base = pl_nll(inst.reward, data)
    shifted = RewardTable(tuple(r + 123.456 for r in inst.reward.rows))
    assert abs(pl_nll(shifted, data) - base) <= 1e-12


def test_nll_averages_over_comparisons():
    r = RewardTable((np.array([1.0, 0.0, -1.0]),))
    one = Rankings([RankedComparison(0, 0, (1,))])
    two = [RankedComparison(0, 0, (1,)), RankedComparison(0, 2, (1,))]
    want = 0.5 * (pl_nll(r, Rankings([two[0]])) + pl_nll(r, Rankings([two[1]])))
    assert pl_nll(r, Rankings(two)) == pytest.approx(want, rel=1e-14)
    assert pl_nll(r, one) == pytest.approx(softplus(-1.0), abs=1e-13)


def test_nll_mixed_pool_sizes_match_scalar_evaluation(rng):
    # bucketed vectorization over pool sizes against a direct per-row formula
    inst = random_instance(rng, num_prompts=2, max_responses=5)
    data = _interleaved(inst, rng, 60)
    got = pl_nll(inst.reward, Rankings(data))
    want = 0.0
    for c in data:
        row = inst.reward.rows[c.prompt]
        scores = np.array([row[c.winner]] + [row[y] for y in c.pool])
        want += float(np.log(np.exp(scores - scores[0]).sum()))
    want /= len(data)
    assert got == pytest.approx(want, rel=1e-12)


def test_nll_rejects_empty_dataset():
    with pytest.raises(ValueError, match="comparison"):
        pl_nll(RewardTable((np.zeros(2),)), Rankings([]))


def test_likelihood_and_fit_take_rankings_not_lists():
    inst = two_response_instance(0.5, -0.5)
    data = [RankedComparison(0, 0, (1,))]
    for call in (lambda: pl_nll(inst.reward, data),
                 lambda: pl_nll_gradient(inst.reward, data),
                 lambda: fit_pl_reward(data, inst)):
        with pytest.raises(TypeError, match="^expected Rankings, got list$"):
            call()


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
def test_nll_rejects_plus_inf_and_nan_rewards(bad):
    rewards = RewardTable(([bad, 0.0, 1.0], [0.5, 0.0]))
    data = Rankings([RankedComparison(0, 0, (1,)), RankedComparison(0, 2, (0, 1))])
    if bad == -math.inf:  # a share of zero: the winner's NLL is infinite
        assert pl_nll(rewards, data) == math.inf
        grad = pl_nll_gradient(rewards, data)
        assert np.all(np.isfinite(np.concatenate(grad)))
        return
    for f in (pl_nll, pl_nll_gradient):
        with pytest.raises(ValueError, match=r"^rewards have \+inf or NaN entries$"):
            f(rewards, data)


def test_nll_out_of_range_indices_name_the_comparison():
    r = RewardTable((np.zeros(2),))
    with pytest.raises(ValueError, match="comparison 0"):
        pl_nll(r, Rankings([RankedComparison(0, 0, (5,))]))


# ---------------------------------------------------------------------------
# gradient


def _mixed_pool(inst, group, rng, count):
    out = []
    for _ in range(count):
        x = int(rng.integers(0, inst.num_prompts))
        k = inst.space.sizes[x]
        picks = rng.choice(k, size=min(group + 1, k), replace=False)
        out.append(RankedComparison(x, int(picks[0]), tuple(int(v) for v in picks[1:])))
    return out


def test_nll_gradient_scatter_matches_add_at(rng):
    # np.bincount accumulates in input order, as np.add.at did: pool-size
    # buckets in order of first appearance, comparisons in order within each.
    # Pools of 1-11 put buckets on both sides of the 8 columns where numpy's
    # row sums turn pairwise; the value and the gradient keep those sums' bits.
    sizes = (12, 9, 4, 12)
    inst = _uneven_instance(sizes, (0.25,) * 4, [rng.normal(size=k) for k in sizes])
    groups = (1, 8, 2, 11, 7, 3, 10, 5, 1, 9, 4, 6)
    counts = (30, 16, 7, 19, 23, 12, 40, 2, 9, 25, 5, 14)
    data = [c for g, n in zip(groups, counts) for c in _mixed_pool(inst, g, rng, n)]
    probe = RewardTable(tuple(rng.normal(size=k) for k in inst.space.sizes))
    width = probe.packed.shape[1]
    buckets = {}
    for c in data:
        cols = [c.prompt * width + y for y in (c.winner,) + c.pool]
        buckets.setdefault(len(c.pool), []).append(cols)
    assert sorted(buckets) == list(range(1, 12))
    want = np.zeros(probe.packed.size)
    nll = 0.0
    for cols in buckets.values():
        where = np.array(cols)
        s = probe.packed.ravel()[where]
        top = s.max(axis=1)
        e = np.exp(s - top[:, None])
        share = e / e.sum(axis=1)[:, None]
        share[:, 0] -= 1.0
        np.add.at(want, where, share)
        nll += float(np.sum(top + np.log(e.sum(axis=1)) - s[:, 0]))
    want = want.reshape(probe.packed.shape) / len(data)
    packed = Rankings(data)
    for x, g in enumerate(pl_nll_gradient(probe, packed)):
        assert np.array_equal(g, want[x, : len(g)])
    assert pl_nll(probe, packed) == nll / len(data)


def test_nll_gradient_matches_finite_differences(rng):
    for _ in range(5):
        inst = random_instance(rng, max_responses=4)
        data = generate_rankings(inst.reward, inst, 50, 1, rng)
        probe = RewardTable(tuple(rng.normal(size=k) for k in inst.space.sizes))
        analytic = pl_nll_gradient(probe, data)
        numeric = fd_reward_gradient(probe, data, step=1e-6)
        assert max_grad_rel_error(analytic, numeric) <= 1e-7


def test_nll_gradient_sums_to_zero_per_touched_prompt(rng):
    # softmax shares minus the winner indicator sum to zero per comparison
    inst = random_instance(rng, max_responses=4)
    data = generate_rankings(inst.reward, inst, 40, 1, rng)
    grads = pl_nll_gradient(inst.reward, data)
    for g in grads:
        assert abs(float(g.sum())) <= 1e-12


# ---------------------------------------------------------------------------
# fitting


def test_fit_recovers_pairwise_gap():
    inst = two_response_instance(0.5, -0.5)
    rng = np.random.default_rng(11)
    data = generate_rankings(inst.reward, inst, 4000, 1, rng)
    fit = fit_pl_reward(data, inst)
    got_gap = float(fit.rewards.rows[0][0] - fit.rewards.rows[0][1])
    assert abs(got_gap - 1.0) < 0.15
    assert fit.converged


def test_fit_error_shrinks_with_more_data():
    inst = ladder_instance([1.0, 0.0, -1.0])
    errs = {}
    for m in (100, 10_000):
        rng = np.random.default_rng(202)
        data = generate_rankings(inst.reward, inst, m, 2, rng)
        fit = fit_pl_reward(data, inst)
        true = inst.reward.rows[0] - inst.reward.rows[0].mean()
        errs[m] = float(np.abs(fit.rewards.rows[0] - true).max())
    assert errs[10_000] < errs[100]
    assert errs[10_000] < 0.1


def test_fitted_pairwise_probability_matches_empirical_rate():
    inst = two_response_instance(0.4, -0.4)
    rng = np.random.default_rng(5)
    data = generate_rankings(inst.reward, inst, 10_000, 1, rng)
    fit = fit_pl_reward(data, inst)
    gap = float(fit.rewards.rows[0][0] - fit.rewards.rows[0][1])
    fitted_prob = 1.0 / (1.0 + math.exp(-gap))
    (_, _, members), = data.blocks
    empirical = np.count_nonzero(members[:, 0] == 0) / len(data)
    assert abs(fitted_prob - empirical) < 0.02


def test_fit_centers_every_prompt(rng):
    inst = random_instance(rng, max_responses=4)
    data = generate_rankings(inst.reward, inst, 300, 1, rng)
    fit = fit_pl_reward(data, inst)
    for row in fit.rewards.rows:
        assert abs(float(row.mean())) <= 1e-12


def test_fit_respects_explicit_init(rng):
    inst = ladder_instance([0.5, -0.5])
    data = generate_rankings(inst.reward, inst, 500, 1, rng)
    init = RewardTable((np.array([5.0, -5.0]),))
    fit = fit_pl_reward(data, inst, init=init, steps=0)
    # zero steps: only the centering of the init is applied
    assert np.allclose(fit.rewards.rows[0], [5.0, -5.0], atol=1e-12)
    bad = RewardTable((np.zeros(3),))
    with pytest.raises(ValueError, match="init"):
        fit_pl_reward(data, inst, init=bad)


def test_fit_flags_separable_data_as_unconverged():
    # one response wins every recorded comparison: the MLE runs to infinity,
    # the fitted gap keeps growing with the step budget, and converged stays
    # False rather than pretending the optimum was reached
    inst = two_response_instance(0.0, 0.0)
    data = Rankings([RankedComparison(0, 0, (1,)) for _ in range(50)])
    short = fit_pl_reward(data, inst, steps=50)
    long = fit_pl_reward(data, inst, steps=400)
    assert not short.converged and not long.converged
    gap_short = float(short.rewards.rows[0][0] - short.rewards.rows[0][1])
    gap_long = float(long.rewards.rows[0][0] - long.rewards.rows[0][1])
    assert gap_long > gap_short > 0.0


def test_fit_reports_final_state_consistently(rng):
    inst = ladder_instance([0.8, 0.0, -0.8])
    data = generate_rankings(inst.reward, inst, 800, 2, rng)
    fit = fit_pl_reward(data, inst)
    assert fit.final_nll == pytest.approx(pl_nll(fit.rewards, data), rel=1e-12)
    grads = pl_nll_gradient(fit.rewards, data)
    gmax = max(float(np.max(np.abs(g))) for g in grads)
    assert fit.grad_norm == pytest.approx(gmax, rel=1e-12)
    assert fit.converged == (fit.grad_norm <= 1e-6)


def test_fit_steps_the_packed_rankings_without_per_row_objects(monkeypatch, rng):
    # the draws, the fit and the CSV writer build no RankedComparison and
    # never call the list constructor; every gradient goes through the
    # module namespace, where perfbench's tracer rebinds it
    inst = ladder_instance([0.8, 0.0, -0.8])

    def refuse(*args, **kwargs):
        raise AssertionError("built a per-row object")

    monkeypatch.setattr(reward_learning, "RankedComparison", refuse)
    monkeypatch.setattr(Rankings, "__init__", refuse)
    data = generate_rankings(inst.reward, inst, 200, 2, rng)
    calls = []
    original = reward_learning.pl_nll_gradient

    def spy(rewards, rankings):
        calls.append(rankings)
        return original(rewards, rankings)

    monkeypatch.setattr(reward_learning, "pl_nll_gradient", spy)
    for steps in (0, 1, 40):
        calls.clear()
        fit = fit_pl_reward(data, inst, steps=steps, step_size=0.1)
        assert fit.steps_taken == steps
        assert len(calls) == steps + 1 and all(c is data for c in calls)
        # a fit that uses up its budget reports the gradient at its final rewards
        gmax = float(np.max(np.abs(np.concatenate(original(fit.rewards, data)))))
        assert np.float64(fit.grad_norm).tobytes() == np.float64(gmax).tobytes()
    # a converged fit reuses the gradient that stopped it for grad_norm
    calls.clear()
    fit = fit_pl_reward(data, inst, steps=2000, step_size=1.0)
    assert fit.converged and 0 < fit.steps_taken < 2000
    assert len(calls) == fit.steps_taken + 1 and all(c is data for c in calls)
    gmax = float(np.max(np.abs(np.concatenate(original(fit.rewards, data)))))
    assert np.float64(fit.grad_norm).tobytes() == np.float64(gmax).tobytes()
    rankings_to_csv(data, os.devnull)


def _uneven_instance(sizes, weights, rewards) -> GameInstance:
    reward = RewardTable(tuple(np.asarray(r, dtype=np.float64) for r in rewards))
    return GameInstance(
        prompt_weights=np.asarray(weights, dtype=np.float64),
        space=ResponseSpace(tuple(tuple(f"r{x}_{y}" for y in range(k))
                                  for x, k in enumerate(sizes))),
        reference=policy_from_rows([np.full(k, 1.0 / k) for k in sizes]),
        preference=make_bt_oracle(reward),
        reward=reward,
    )


def test_indexed_fit_matches_per_step_fit_on_the_list():
    inst = _uneven_instance(
        (3, 5, 2), (0.4, 0.4, 0.2),
        ([0.3, -0.2, 0.0], [1.0, 0.5, 0.0, -0.5, -1.0], [0.2, -0.2]),
    )
    C = RankedComparison
    data = Rankings([
        C(1, 0, (3, 4)), C(0, 2, (1,)), C(1, 2, (0,)), C(2, 0, (1,)),
        C(1, 1, (0, 2, 4)), C(0, 0, (1, 2)), C(1, 4, (3,)), C(2, 1, (0,)),
        C(0, 1, (0,)), C(1, 0, (1, 2, 3, 4)), C(1, 3, (1, 2)), C(0, 0, (2,)),
    ])
    steps, step_size = 25, 1.5
    fit = fit_pl_reward(data, inst, steps=steps, step_size=step_size)

    rows = [np.zeros(k) for k in inst.space.sizes]
    for _ in range(steps):
        grads = pl_nll_gradient(RewardTable(tuple(rows)), data)
        rows = [r - step_size * g for r, g in zip(rows, grads)]
        rows = [r - r.mean() for r in rows]
    want = RewardTable(tuple(rows))
    assert fit.steps_taken == steps and not fit.converged
    for got, ref in zip(fit.rewards.rows, want.rows):
        assert np.array_equal(got, ref)
    assert fit.final_nll == pl_nll(want, data)
    grads = pl_nll_gradient(want, data)
    assert fit.grad_norm == max(float(np.max(np.abs(g))) for g in grads)


def _row_fit(data, instance, init=None, steps=300, step_size=2.0, tol=1e-6):
    """fit_pl_reward as written with one array per prompt row."""
    if init is None:
        rows = [np.zeros(k) for k in instance.space.sizes]
    else:
        rows = [r.copy() for r in init.rows]
    rows = [r - r.mean() for r in rows]
    taken = 0
    for t in range(steps):
        grads = pl_nll_gradient(RewardTable(tuple(rows)), data)
        gmax = max(float(np.max(np.abs(g))) for g in grads)
        if gmax <= tol:
            break
        rows = [r - step_size * g for r, g in zip(rows, grads)]
        rows = [r - r.mean() for r in rows]
        taken = t + 1
    fitted = RewardTable(tuple(rows))
    grads = pl_nll_gradient(fitted, data)
    gmax = max(float(np.max(np.abs(g))) for g in grads)
    return fitted, pl_nll(fitted, data), gmax, taken


@pytest.mark.parametrize("steps", [0, 1, 60])
@pytest.mark.parametrize("with_init", [False, True])
def test_packed_fit_matches_the_per_row_fit_to_the_bit(steps, with_init):
    # uneven counts with two prompts sharing a count, pool sizes 1-3 mixed
    gen = np.random.default_rng(31 + steps)
    sizes = (4, 7, 3, 7, 12)
    rewards = [gen.normal(0.0, 1.5, k) for k in sizes]
    data = []
    for pool_size in (1, 3, 2, 1):
        weights = np.array([float(k > pool_size) for k in sizes])
        source = _uneven_instance(sizes, weights / weights.sum(), rewards)
        data += comparison_list(generate_rankings(source.reward, source, 150, pool_size, gen))
    data = Rankings(data)
    inst = _uneven_instance(sizes, (0.2,) * 5, rewards)
    init = None
    if with_init:
        init = RewardTable(tuple(gen.normal(3.0, 2.0, k) for k in sizes))
    fit = fit_pl_reward(data, inst, init=init, steps=steps, step_size=1.7)
    want, nll, gmax, taken = _row_fit(data, inst, init, steps, step_size=1.7)
    assert fit.rewards.sizes == want.sizes
    assert np.array_equal(fit.rewards.packed, want.packed)
    assert fit.final_nll == nll
    assert fit.grad_norm == gmax
    assert fit.steps_taken == taken == steps
    assert fit.converged == (gmax <= 1e-6)


def test_packed_fit_stops_where_the_per_row_fit_converges():
    inst = ladder_instance([0.4, 0.0, -0.4])
    data = generate_rankings(inst.reward, inst, 300, 2, np.random.default_rng(3))
    fit = fit_pl_reward(data, inst, steps=400, step_size=2.0, tol=1e-5)
    want, nll, gmax, taken = _row_fit(data, inst, None, 400, 2.0, tol=1e-5)
    assert fit.converged and fit.steps_taken == taken < 400
    assert np.array_equal(fit.rewards.packed, want.packed)
    assert (fit.final_nll, fit.grad_norm) == (nll, gmax)


@pytest.mark.parametrize("kwargs, match", [
    ({"steps": -1}, "steps"),
    ({"step_size": 0.0}, "step_size"),
    ({"step_size": -2.0}, "step_size"),
    ({"step_size": float("nan")}, "step_size"),
    ({"step_size": float("inf")}, "step_size"),
    ({"steps": float("nan")}, "steps"),
    ({"steps": 2.5}, "steps"),
    ({"tol": float("nan")}, "tol"),
    ({"tol": -1e-6}, "tol"),
    ({"init": RewardTable((np.array([np.nan, 0.0]),))}, "init"),
    ({"init": RewardTable((np.array([0.0, -np.inf]),))}, "init"),
])
def test_fit_rejects_bad_arguments_up_front(kwargs, match):
    inst = two_response_instance(0.5, -0.5)
    data = Rankings([RankedComparison(0, 0, (1,)), RankedComparison(0, 1, (0,))])
    with pytest.raises(ValueError, match=match):
        fit_pl_reward(data, inst, **kwargs)


# ---------------------------------------------------------------------------
# generation


def test_generate_rankings_shapes_and_ranges(bt, rng):
    data = generate_rankings(bt.reward, bt, 200, 2, rng)
    assert len(data) == 200
    (rows, prompts, members), = data.blocks
    assert np.array_equal(rows, np.arange(200)) and np.all(prompts == 0)
    assert members.shape == (200, 3) and not members.flags.writeable
    assert all(len(set(m)) == 3 for m in members.tolist())


def test_generate_rankings_zero_count(bt, rng):
    data = generate_rankings(bt.reward, bt, 0, 1, rng)
    assert len(data) == 0 and data == Rankings([])


def test_generate_rankings_equal_rewards_are_uniform():
    inst = ladder_instance([0.0, 0.0, 0.0])
    rng = np.random.default_rng(17)
    data = generate_rankings(inst.reward, inst, 10_000, 2, rng)
    freq = np.bincount(data.blocks[0][2][:, 0], minlength=3) / len(data)
    assert np.abs(freq - 1.0 / 3.0).max() < 0.02


def test_generate_rankings_dominant_reward_always_wins():
    inst = ladder_instance([10.0, 0.0, 0.0])
    rng = np.random.default_rng(23)
    data = generate_rankings(inst.reward, inst, 2000, 2, rng)
    # every pool of 3 on a 3-response prompt contains the dominant response
    wins = np.count_nonzero(data.blocks[0][2][:, 0] == 0) / len(data)
    assert wins >= 0.999


def test_generate_rankings_pool_too_large():
    inst = ladder_instance([0.0, 1.0])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="pool"):
        generate_rankings(inst.reward, inst, 10, 2, rng)


@pytest.mark.parametrize("seed", [0, 1, 7, 104729])
@pytest.mark.parametrize("pool_size", [1, 2, 3])
def test_generate_rankings_match_block_reference_draw_for_draw(seed, pool_size):
    # uneven counts, a zero-weight prompt too small for the pool, and a
    # prompt weight that puts a flat step in the cumulative sum
    gen = np.random.default_rng(seed)
    sizes = (4, 2, 6, 5, 3 + pool_size)
    inst = _uneven_instance(
        sizes, (0.3, 0.0, 0.45, 0.15, 0.1),
        [gen.normal(0.0, 2.0, k) for k in sizes],
    )
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generate_rankings(inst.reward, inst, 400, pool_size, a)
    want = reference_block_rankings(inst.reward, inst, 400, pool_size, b)
    assert got == want
    assert a.bit_generator.state == b.bit_generator.state
    assert np.all(got.blocks[0][1] != 1)


@st.composite
def _ranking_games(draw):
    """A game with 1-6 prompts of 2-20 responses, some of zero weight.

    Every prompt with weight holds a pool plus its winner; zero-weight
    prompts may be smaller. Rewards are wide enough that some softmax
    shares underflow to zero.
    """
    pool_size = draw(st.integers(1, 6))
    prompts = draw(st.integers(1, 6))
    sizes, weights = [], []
    for x in range(prompts):
        weight = draw(st.integers(0 if x else 1, 5))
        sizes.append(draw(st.integers(pool_size + 1 if weight else 2, 20)))
        weights.append(weight)
    rewards = [
        draw(st.lists(st.floats(-400.0, 400.0), min_size=k, max_size=k))
        for k in sizes
    ]
    # the draws read only the rewards; a flat oracle keeps wide rewards finite
    inst = GameInstance(
        prompt_weights=np.array(weights) / sum(weights),
        space=ResponseSpace(tuple(tuple(map(str, range(k))) for k in sizes)),
        reference=policy_from_rows([np.full(k, 1.0 / k) for k in sizes]),
        preference=PairwisePreference(tuple(np.full((k, k), 0.5) for k in sizes)),
        reward=RewardTable(tuple(rewards)),
    )
    return inst, pool_size, draw(st.integers(0, 40)), draw(st.integers(0, 2**32))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_ranking_games())
def test_generate_rankings_match_block_reference_on_random_games(game):
    inst, pool_size, count, seed = game
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generate_rankings(inst.reward, inst, count, pool_size, a)
    want = reference_block_rankings(inst.reward, inst, count, pool_size, b)
    assert got == want
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("buffered", range(8))
@pytest.mark.parametrize("pool_size", [1, 2, 3])
def test_generate_rankings_match_block_reference_after_a_buffered_value(
    buffered, pool_size
):
    # random() reads whole 64-bit words, so a 32-bit value PCG64 holds
    # from an earlier bounded draw stays buffered for the next one
    inst = _uneven_instance((12,), (1.0,), [np.linspace(-1.0, 1.0, 12)])
    a, b = np.random.default_rng(31), np.random.default_rng(31)
    for r in (a, b):
        state = r.bit_generator.state
        state.update(has_uint32=1, uinteger=buffered)
        r.bit_generator.state = state
    got = generate_rankings(inst.reward, inst, 50, pool_size, a)
    want = reference_block_rankings(inst.reward, inst, 50, pool_size, b)
    assert got == want
    assert a.bit_generator.state == b.bit_generator.state
    assert a.bit_generator.state["has_uint32"] == 1
    assert a.bit_generator.state["uinteger"] == buffered


def _same_stream(a, b):
    """Equal PCG states, else equal follow-on draws (the states hold arrays)."""
    if type(getattr(a, "bit_generator", None)) in (np.random.PCG64, np.random.PCG64DXSM):
        assert a.bit_generator.state == b.bit_generator.state
    # 32-bit draws first, to read a buffered half
    after = [[*r.choice(1000, size=8, replace=False), *r.random(8)] for r in (a, b)]
    assert after[0] == after[1]


class _Recorder:
    """Forwards every method call to a generator and records it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return method(*args, **kwargs)

        return call


@pytest.mark.parametrize("make", [
    np.random.default_rng,
    lambda seed: np.random.Generator(np.random.MT19937(seed)),
    lambda seed: np.random.Generator(np.random.Philox(seed)),
    lambda seed: np.random.Generator(np.random.SFC64(seed)),
    lambda seed: np.random.Generator(np.random.PCG64DXSM(seed)),
    np.random.RandomState,
], ids=["PCG64", "MT19937", "Philox", "SFC64", "PCG64DXSM", "RandomState"])
@pytest.mark.parametrize("count", [0, 1, 60])
@pytest.mark.parametrize("tight", [0, 2, 4])
def test_generate_rankings_match_generator_choice_on_every_generator(make, count, tight):
    # the rankings match on whichever generator is chosen: the one block
    # call, the reference's reading of it and the twin's final stream.
    # The prompt at `tight` holds exactly a pool plus its winner, where
    # Floyd's first step can only draw 0
    pool_size = 2
    sizes = [5, 7, 4, 9, 6]
    sizes[tight] = pool_size + 1
    inst = _uneven_instance(
        sizes, (0.3, 0.1, 0.2, 0.25, 0.15), [np.linspace(0.0, 2.0, k) for k in sizes]
    )
    a, b = make(0), make(0)
    for r in (a, b):  # three 32-bit draws leave one buffered on PCG64
        r.choice(3, size=2, replace=False)
    recorder = _Recorder(a)
    got = generate_rankings(inst.reward, inst, count, pool_size, recorder)
    assert recorder.calls == [("random", ((count, pool_size + 3),), {})]
    want = reference_block_rankings(inst.reward, inst, count, pool_size, b)
    assert got == want
    _same_stream(a, b)


def test_generate_rankings_match_block_reference_on_10001_responses():
    # the draws read only the weights, the counts and the rewards, so no
    # 10001-square oracle is built
    k = 10001
    inst = SimpleNamespace(
        num_prompts=1, prompt_weights=np.array([1.0]), space=SimpleNamespace(sizes=(k,))
    )
    rewards = RewardTable((np.linspace(0.0, 3.0, k),))
    a, b = np.random.default_rng(2), np.random.default_rng(2)
    got = generate_rankings(rewards, inst, 3, 300, a)
    assert got == reference_block_rankings(rewards, inst, 3, 300, b)
    assert a.bit_generator.state == b.bit_generator.state


def test_generate_rankings_pools_are_uniform_subsets():
    # every 3-subset of 6 responses, winner included, is equally likely
    # whatever the rewards; 19 degrees of freedom, 43.82 their 0.999 quantile
    inst = ladder_instance([2.0, -1.0, 0.5, 0.0, 3.0, -2.0])
    data = generate_rankings(inst.reward, inst, 20_000, 2, np.random.default_rng(0))
    subsets = list(itertools.combinations(range(6), 3))
    seen = Counter(tuple(sorted(m)) for m in data.blocks[0][2].tolist())
    assert set(seen) == set(subsets)
    expected = len(data) / len(subsets)
    chi2 = sum((seen[s] - expected) ** 2 / expected for s in subsets)
    assert chi2 < 43.82


def test_generate_rankings_zero_count_draws_nothing(bt):
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert len(generate_rankings(bt.reward, bt, 0, 2, rng)) == 0
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("case, message", [
    ("count", "count must be nonnegative, got -3"),
    ("pool_size", "pool_size must be at least 1"),
    ("weights", "prompt_weights must be a probability distribution"),
    ("negative_weight", "prompt_weights must be a probability distribution"),
    ("nan_reward", "rewards have non-finite entries"),
    ("inf_reward", "rewards have non-finite entries"),
    ("shortfall", "pool of 2 needs 3 responses, prompt 1 has 2"),
])
def test_generate_rankings_errors_are_unchanged(case, message):
    sizes, weights, pool_size, count = (3, 2), (0.5, 0.5), 1, 10
    rewards = [[0.0, 1.0, 2.0], [0.5, -0.5]]
    if case == "count":
        count = -3
    elif case == "pool_size":
        pool_size = 0
    elif case == "weights":
        weights = (0.5, 0.4)
    elif case == "negative_weight":
        weights = (1.5, -0.5)
    elif case == "shortfall":
        pool_size = 2
    inst = _uneven_instance(sizes, weights, rewards)
    table = inst.reward
    if case.endswith("_reward"):
        bad = np.nan if case == "nan_reward" else np.inf
        table = RewardTable(([0.0, bad, 2.0], [0.5, -0.5]))
    rng = np.random.default_rng(8)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_rankings(table, inst, count, pool_size, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("rows, match", [
    ([np.zeros(3), np.zeros(5)], "prompt 0"),  # longer than prompt 0's count
    ([np.zeros(2), np.zeros(4)], "prompt 1"),  # shorter than prompt 1's count
    ([np.zeros(2)], "prompt 1"),  # missing a prompt
])
def test_generate_rankings_rejects_reward_rows_of_the_wrong_length(rows, match, rng):
    inst = _uneven_instance((2, 5), (0.5, 0.5), ([0.0, 1.0], [0.0] * 5))
    with pytest.raises(ValueError, match=match):
        generate_rankings(RewardTable(tuple(rows)), inst, 10, 1, rng)


def test_generate_rankings_rejects_bad_count_weights_and_rewards(bt, rng):
    with pytest.raises(ValueError, match="count"):
        generate_rankings(bt.reward, bt, -1, 1, rng)
    inst = _uneven_instance((3,), (0.5,), ([0.0, 1.0, 2.0],))
    with pytest.raises(ValueError, match="prompt_weights"):
        generate_rankings(inst.reward, inst, 10, 1, rng)
    bad = RewardTable((np.array([0.0, np.nan, 1.0]),))
    inst = _uneven_instance((3,), (1.0,), ([0.0, 1.0, 2.0],))
    with pytest.raises(ValueError, match="non-finite"):
        generate_rankings(bad, inst, 10, 1, rng)


def test_generate_rankings_are_deterministic_per_seed(bt):
    a = generate_rankings(bt.reward, bt, 50, 2, np.random.default_rng(9))
    b = generate_rankings(bt.reward, bt, 50, 2, np.random.default_rng(9))
    assert a == b


# ---------------------------------------------------------------------------
# disk format


def test_rankings_csv_round_trip(tmp_path, bt, rng):
    path = tmp_path / "rankings.csv"
    for data in (generate_rankings(bt.reward, bt, 30, 2, rng),
                 Rankings(_interleaved(bt, rng, 30))):
        rankings_to_csv(data, path)
        assert rankings_from_csv(path) == data
        header = path.read_text().splitlines()[0]
        assert header == "prompt,winner,pool"
    assert len(data.blocks) > 1


@pytest.mark.parametrize("pool_size", [1, 2, 3, "mixed"])
def test_rankings_csv_bytes_match_csv_writer(tmp_path, pool_size):
    gen = np.random.default_rng(4 if pool_size == "mixed" else pool_size)
    sizes = (4, 11, 6)
    inst = _uneven_instance(sizes, (0.3, 0.5, 0.2), [gen.normal(size=k) for k in sizes])
    if pool_size == "mixed":
        data = Rankings(_interleaved(inst, gen, 200))
        assert len(data.blocks) == 10
    else:
        data = generate_rankings(inst.reward, inst, 200, pool_size, gen)
    path, want = tmp_path / "got.csv", tmp_path / "want.csv"
    rankings_to_csv(data, path)
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("prompt", "winner", "pool"))
        for c in comparison_list(data):
            writer.writerow([c.prompt, c.winner, ";".join(str(y) for y in c.pool)])
    assert path.read_bytes() == want.read_bytes()
    assert rankings_from_csv(path) == data


def test_rankings_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("prompt,chosen,rest\n0,0,1\n")
    with pytest.raises(ValueError, match="header"):
        rankings_from_csv(path)


@pytest.mark.parametrize("line, match", [
    ("0,x,2", "ranking row 1: invalid literal for int"),
    ("0,1,2;", "ranking row 1: invalid literal for int"),
    ("0,1,1", "ranking row 1: winner 1 appears in its own pool"),
])
def test_rankings_csv_field_errors_name_the_row(tmp_path, line, match):
    path = tmp_path / "bad.csv"
    path.write_text(f"prompt,winner,pool\n0,0,1\n{line}\n")
    with pytest.raises(ValueError, match=match):
        rankings_from_csv(path)


def test_rankings_csv_short_row_names_row_0(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("prompt,winner,pool\n0,1\n")
    with pytest.raises(ValueError, match=r"^ranking row 0 needs 3 fields, got \['0', '1'\]$"):
        rankings_from_csv(path)
