import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_instance,
    random_policy,
    random_preference,
    reference_bt_matrix,
    reference_validate_instance,
)
from prefgame import (
    GameInstance,
    average_policy,
    dual_gap_two_player,
    exploitability_multiplayer,
    multiplayer_objective,
    mwu_step,
    two_player_objective,
    update_matching_loss,
    PairwisePreference,
    ResponseSpace,
    RewardTable,
    SupportViolation,
    TabularPolicy,
    load_instance,
    load_policy,
    make_bt_oracle,
    make_cyclic_oracle,
    point_mass_policy,
    policy_from_rows,
    policy_in_support,
    require_valid,
    sample_preference,
    sample_preference_dataset,
    save_instance,
    save_policy,
    uniform_policy,
    validate_instance,
)
from prefgame.instances import _require_positive


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


# ---------------------------------------------------------------------------
# containers


def test_policy_rows_are_read_only():
    pol = policy_from_rows([[0.5, 0.5]])
    with pytest.raises(ValueError):
        pol.rows[0][0] = 0.9


def test_preference_matrices_are_read_only(rps):
    with pytest.raises(ValueError):
        rps.preference.matrices[0][0, 1] = 0.0


def test_empty_containers_rejected():
    with pytest.raises(ValueError):
        TabularPolicy(())
    with pytest.raises(ValueError):
        PairwisePreference(())
    with pytest.raises(ValueError):
        RewardTable(())
    with pytest.raises(ValueError):
        ResponseSpace(())


def test_response_space_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="repeats"):
        ResponseSpace((("a", "a"),))


def test_instance_shape_mismatch_rejected(rps):
    short_ref = policy_from_rows([[0.5, 0.5]])
    with pytest.raises(ValueError):
        GameInstance(
            prompt_weights=np.array([1.0]),
            space=rps.space,
            reference=short_ref,
            preference=rps.preference,
        )


# Each call gets a (3, 5) instance, a policy that fits it and one with
# counts (5, 3); padding to five responses alone would not tell them apart.
_MISMATCHED_CALLS = {
    "mwu_step": lambda inst, ok, bad: mwu_step([bad], inst, 0.5),
    "two_player_objective": lambda inst, ok, bad: two_player_objective(bad, ok, inst),
    "multiplayer_objective": lambda inst, ok, bad: multiplayer_objective(bad, [ok], inst),
    "exploitability_multiplayer": lambda inst, ok, bad: exploitability_multiplayer(
        bad, 2, inst
    ),
    "dual_gap_two_player": lambda inst, ok, bad: dual_gap_two_player(bad, inst),
    "average_policy": lambda inst, ok, bad: average_policy([ok, bad]),
    "update_matching_loss": lambda inst, ok, bad: update_matching_loss(
        bad, inst, ok, [ok], 0.5
    ),
}


@pytest.mark.parametrize("name", list(_MISMATCHED_CALLS))
def test_mismatched_response_counts_raise(rng, name):
    sizes = (3, 5)
    inst = GameInstance(
        prompt_weights=np.array([0.5, 0.5]),
        space=ResponseSpace(tuple(tuple(f"r{y}" for y in range(k)) for k in sizes)),
        reference=random_policy(rng, sizes),
        preference=random_preference(rng, sizes),
    )
    ok = random_policy(rng, sizes)
    bad = random_policy(rng, sizes[::-1])
    with pytest.raises(ValueError, match="prompt 0"):
        _MISMATCHED_CALLS[name](inst, ok, bad)


def test_uniform_and_point_mass_constructors(rps):
    uni = uniform_policy(rps.space)
    assert np.allclose(uni.rows[0], [1 / 3, 1 / 3, 1 / 3])
    pm = point_mass_policy(rps.space, [2])
    assert pm.rows[0].tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        point_mass_policy(rps.space, [3])
    with pytest.raises(ValueError):
        point_mass_policy(rps.space, [0, 0])


def test_policy_support_mask():
    pol = policy_from_rows([[0.0, 1.0, 0.0]])
    assert pol.support(0).tolist() == [False, True, False]


# ---------------------------------------------------------------------------
# oracle constructors


def test_bt_oracle_unit_reward_gap():
    oracle = make_bt_oracle(RewardTable((np.array([1.0, 0.0]),)))
    assert oracle.win_prob(0, 0, 1) == pytest.approx(0.7310585786300049, abs=1e-15)
    assert oracle.win_prob(0, 1, 0) == pytest.approx(1.0 - 0.7310585786300049, abs=1e-15)


def test_bt_oracle_three_rewards():
    oracle = make_bt_oracle(RewardTable((np.array([0.0, 1.0, 2.0]),)))
    assert oracle.win_prob(0, 2, 0) == pytest.approx(sigmoid(2.0), abs=1e-15)
    assert oracle.win_prob(0, 1, 0) == pytest.approx(sigmoid(1.0), abs=1e-15)


def test_bt_oracle_equal_rewards_are_coin_flips():
    oracle = make_bt_oracle(RewardTable((np.zeros(4),)))
    assert np.all(oracle.matrices[0] == 0.5)


def test_bt_oracle_complement_is_exact(rng):
    # lower triangle is written as 1 - upper, so the identity is bitwise
    for _ in range(20):
        r = RewardTable((rng.normal(size=5) * 3,))
        m = make_bt_oracle(r).matrices[0]
        assert np.all(m + m.T == 1.0)


def test_bt_oracle_matches_the_per_pair_loop_bitwise(rng):
    # uneven counts in one table, so the padding is rebuilt too
    for _ in range(200):
        sizes = rng.integers(1, 16, int(rng.integers(1, 5)))
        spread = 10.0 ** rng.uniform(-2, 3)
        rows = tuple(rng.normal(size=k) * spread for k in sizes)
        oracle = make_bt_oracle(RewardTable(rows))
        want = PairwisePreference(tuple(map(reference_bt_matrix, rows)))
        assert oracle.sizes == want.sizes
        assert oracle.packed.tobytes() == want.packed.tobytes()


def test_bt_oracle_saturates_without_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        m = make_bt_oracle(RewardTable((np.array([0.0, 800.0]),))).matrices[0]
    assert m.tolist() == [[0.5, 0.0], [1.0, 0.5]]


def test_bt_oracle_is_stochastically_transitive(rng):
    # r_a >= r_b >= r_c forces M[a,c] >= max(M[a,b], M[b,c])
    for _ in range(20):
        r = rng.normal(size=4)
        m = make_bt_oracle(RewardTable((r,))).matrices[0]
        order = np.argsort(-r)
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(j + 1, 4):
                    a, b, c = order[i], order[j], order[k]
                    assert m[a, c] >= max(m[a, b], m[b, c]) - 1e-12


def test_bt_oracle_rejects_non_finite_rewards():
    with pytest.raises(ValueError, match="finite"):
        make_bt_oracle(RewardTable((np.array([0.0, np.inf]),)))


def test_cyclic_oracle_k3_full_strength():
    m = make_cyclic_oracle(3, 1.0).matrices[0]
    assert m[0, 1] == 1.0 and m[1, 2] == 1.0 and m[2, 0] == 1.0
    assert m[1, 0] == 0.0 and m[2, 1] == 0.0 and m[0, 2] == 0.0
    assert np.all(np.diag(m) == 0.5)


def test_cyclic_oracle_k4_partial_strength():
    m = make_cyclic_oracle(4, 0.8).matrices[0]
    assert m[3, 0] == 0.8  # wraparound pairing
    assert m[0, 3] == pytest.approx(0.2, abs=1e-15)
    assert m[0, 2] == 0.5  # non-adjacent pairs tie
    assert m[2, 0] == 0.5


def test_cyclic_oracle_violates_transitivity():
    # the cycle 0 > 1 > 2 > 0 cannot come from any scalar reward
    m = make_cyclic_oracle(3, 0.9).matrices[0]
    assert m[0, 1] > 0.5 and m[1, 2] > 0.5 and m[2, 0] > 0.5


def test_cyclic_oracle_indifferent_boundary():
    m = make_cyclic_oracle(5, 0.5).matrices[0]
    assert np.all(m == 0.5)


def test_cyclic_oracle_argument_ranges():
    with pytest.raises(ValueError, match="k >= 3"):
        make_cyclic_oracle(2, 0.8)
    with pytest.raises(ValueError, match="strength"):
        make_cyclic_oracle(3, 0.4)
    with pytest.raises(ValueError, match="strength"):
        make_cyclic_oracle(3, 1.1)


# ---------------------------------------------------------------------------
# sampling


def test_sample_preference_degenerate_probabilities():
    rng = np.random.default_rng(0)
    pref = PairwisePreference((np.array([[0.5, 1.0], [0.0, 0.5]]),))
    for _ in range(50):
        assert sample_preference(pref, 0, 0, 1, rng) == (0, 1)
        assert sample_preference(pref, 0, 1, 0, rng) == (0, 1)


def test_sample_preference_matches_oracle_rate():
    rng = np.random.default_rng(7)
    pref = PairwisePreference((np.array([[0.5, 0.7], [0.3, 0.5]]),))
    n = 100_000
    wins = sum(sample_preference(pref, 0, 0, 1, rng) == (0, 1) for _ in range(n))
    assert abs(wins / n - 0.7) < 0.01


def test_sample_preference_consumes_one_variate():
    pref = PairwisePreference((np.array([[0.5, 0.7], [0.3, 0.5]]),))
    used = np.random.default_rng(123)
    sample_preference(pref, 0, 0, 1, used)
    fresh = np.random.default_rng(123)
    fresh.random()
    assert used.random() == fresh.random()


def test_sample_preference_rejects_self_comparison(rps):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_preference(rps.preference, 0, 1, 1, rng)


@pytest.mark.parametrize("first, second, bad", [(1, -1, -1), (-3, 0, -3), (0, 3, 3), (7, 1, 7)])
def test_sample_preference_rejects_responses_outside_the_prompt(rps, first, second, bad):
    # numpy indexing would wrap -1 to the last response and fail on 3 with IndexError
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^response {bad} out of range for prompt 0$"):
        sample_preference(rps.preference, 0, first, second, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("prompt, first, second, match", [
    (-1, 0, 1, "^prompt -1 out of range$"),
    (2, 0, 1, "^prompt 2 out of range$"),
    (True, 0, 1, "^prompt True is not an integer$"),
    (0.0, 0, 1, "^prompt 0.0 is not an integer$"),
    (0, 0.5, 1, "^response 0.5 is not an integer$"),
    (0, 0, True, "^response True is not an integer$"),
])
def test_sample_preference_rejects_bad_prompt_and_response_indices(prompt, first, second, match):
    # on two prompts, -1 and True would judge a real prompt, and 2 and 0.5
    # would fail with a bare IndexError
    pref = PairwisePreference((np.array([[0.5, 0.7], [0.3, 0.5]]), np.full((3, 3), 0.5)))
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=match):
        sample_preference(pref, prompt, first, second, rng)
    assert rng.bit_generator.state == before
    assert sample_preference(pref, np.int64(1), np.int64(2), 0, rng)[1] in (0, 2)


def test_sample_dataset_matches_policy_support(bt):
    rng = np.random.default_rng(3)
    pol = point_mass_policy(bt.space, [0])
    data = sample_preference_dataset(bt, pol, 40, rng)
    assert len(data) == 40
    # point-mass candidates always coincide, so every pair is (0, 0)
    assert all(trip == (0, 0, 0) for trip in data)


def test_sample_dataset_triples_are_in_range(mixed, rng):
    pol = random_policy(rng, mixed.space.sizes)
    for x, w, l in sample_preference_dataset(mixed, pol, 200, rng):
        k = mixed.space.sizes[x]
        assert 0 <= w < k and 0 <= l < k


# ---------------------------------------------------------------------------
# validation


def test_bundled_instances_are_valid(rps, bt, mixed):
    for inst in (rps, bt, mixed):
        assert validate_instance(inst) == []
        assert require_valid(inst) is inst


def test_validate_flags_bad_reference_normalization(rps):
    bad = GameInstance(
        prompt_weights=rps.prompt_weights,
        space=rps.space,
        reference=policy_from_rows([[0.4, 0.3, 0.2]]),  # sums to 0.9
        preference=rps.preference,
    )
    problems = validate_instance(bad)
    assert any("normalization" in p for p in problems)
    with pytest.raises(ValueError, match="invalid instance"):
        require_valid(bad)


def test_validate_flags_broken_skew_symmetry(rps):
    m = np.full((3, 3), 0.5)
    m[0, 1] = 0.9
    m[1, 0] = 0.3  # should be 0.1
    bad = GameInstance(
        prompt_weights=rps.prompt_weights,
        space=rps.space,
        reference=rps.reference,
        preference=PairwisePreference((m,)),
    )
    assert any("M + M^T" in p for p in validate_instance(bad))


def test_validate_flags_bad_diagonal(rps):
    m = np.full((3, 3), 0.5)
    m[1, 1] = 0.6
    m2 = m.copy()
    m2[1, 1] = 0.4  # keep M + M^T = 1 so only the diagonal trips
    bad = GameInstance(
        prompt_weights=rps.prompt_weights,
        space=rps.space,
        reference=rps.reference,
        preference=PairwisePreference((0.5 * (m + (1.0 - m2.T)),)),
    )
    assert any("diagonal" in p for p in validate_instance(bad))


def test_validate_collects_multiple_violations(rps):
    bad = GameInstance(
        prompt_weights=np.array([0.7]),
        space=rps.space,
        reference=policy_from_rows([[0.4, 0.3, 0.2]]),
        preference=rps.preference,
    )
    problems = validate_instance(bad)
    assert len(problems) >= 2  # weights and reference both off


def test_validate_accepts_random_instances(rng):
    for _ in range(10):
        assert validate_instance(random_instance(rng)) == []


# Changes to one entry of a valid instance. The small shifts land on either
# side of NORMALIZATION_TOL, for row sums and for M + M^T alike.
_CORRUPTIONS = {
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "negative": lambda v: -abs(v) - 1e-3,
    "sum+1e-13": lambda v: v + 1e-13,
    "sum-3e-12": lambda v: v - 3e-12,
    "sum+1e-11": lambda v: v + 1e-11,
    "skew": lambda v: v + 1e-3,
    "half+1e-16": lambda v: 0.5 + 1e-16,
}


@st.composite
def corrupted_instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    rng = np.random.default_rng(seed)
    weights = rng.random(len(sizes)) + 0.1
    weights = weights / weights.sum()
    reference = [r.copy() for r in random_policy(rng, sizes).rows]
    matrices = [m.copy() for m in random_preference(rng, sizes).matrices]
    rewards = [rng.normal(size=k) for k in sizes]
    for _ in range(draw(st.integers(0, 4))):
        x = draw(st.integers(0, len(sizes) - 1))
        k = sizes[x]
        a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        table = draw(st.sampled_from(["weights", "reference", "zero row",
                                      "matrix", "diagonal", "reward"]))
        change = _CORRUPTIONS[draw(st.sampled_from(sorted(_CORRUPTIONS)))]
        if table == "weights":
            weights[x] = change(weights[x])
        elif table == "reference":
            reference[x][a] = change(reference[x][a])
        elif table == "zero row":
            reference[x][:] = 0.0
        elif table == "matrix":
            matrices[x][a, b] = change(matrices[x][a, b])
        elif table == "diagonal":
            matrices[x][a, a] = change(matrices[x][a, a])
        else:
            rewards[x][a] = change(rewards[x][a])
    return GameInstance(
        prompt_weights=weights,
        space=ResponseSpace(tuple(tuple(map(str, range(k))) for k in sizes)),
        reference=TabularPolicy(tuple(reference)),
        preference=PairwisePreference(tuple(matrices)),
        reward=RewardTable(tuple(rewards)),
    )


@settings(max_examples=300, deadline=None)
@given(corrupted_instances())
def test_validate_matches_the_per_prompt_reference(instance):
    assert validate_instance(instance) == reference_validate_instance(instance)


def test_policy_in_support_raises_with_location():
    base = policy_from_rows([[1.0, 0.0]])
    probe = policy_from_rows([[0.5, 0.5]])
    with pytest.raises(SupportViolation) as err:
        policy_in_support(probe, base)
    assert err.value.prompt == 0
    assert err.value.response == 1
    policy_in_support(base, probe)  # reverse direction is fine


# ---------------------------------------------------------------------------
# disk format


def test_instance_round_trip_is_value_exact(tmp_path, rng):
    for i in range(5):
        inst = random_instance(rng)
        path = tmp_path / f"inst{i}.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.space.labels == inst.space.labels
        assert np.all(back.prompt_weights == inst.prompt_weights)
        for x in range(inst.num_prompts):
            assert np.all(back.reference.rows[x] == inst.reference.rows[x])
            assert np.all(
                back.preference.matrices[x] == inst.preference.matrices[x]
            )
            assert np.all(back.reward.rows[x] == inst.reward.rows[x])


def test_load_instance_cyclic_kind(tmp_path):
    doc = {
        "responses": [["a", "b", "c", "d"]],
        "reference": [[0.25, 0.25, 0.25, 0.25]],
        "preference": {"kind": "cyclic", "strength": 0.8},
    }
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps(doc))
    inst = load_instance(path)
    assert inst.preference.win_prob(0, 3, 0) == 0.8
    assert validate_instance(inst) == []


def test_load_instance_bradley_terry_kind(tmp_path):
    doc = {
        "responses": [["a", "b"]],
        "reference": [[0.5, 0.5]],
        "rewards": [[1.0, 0.0]],
        "preference": {"kind": "bradley_terry"},
    }
    path = tmp_path / "bt.json"
    path.write_text(json.dumps(doc))
    inst = load_instance(path)
    assert inst.preference.win_prob(0, 0, 1) == pytest.approx(
        sigmoid(1.0), abs=1e-15
    )


def test_load_instance_defaults_to_uniform_prompt_weights(tmp_path):
    doc = {
        "responses": [["a", "b"], ["c", "d"]],
        "reference": [[0.5, 0.5], [0.5, 0.5]],
        "preference": {
            "kind": "matrix",
            "matrices": [[[0.5, 0.6], [0.4, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
        },
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    inst = load_instance(path)
    assert np.all(inst.prompt_weights == 0.5)


@pytest.mark.parametrize("missing", ["responses", "reference", "preference"])
def test_load_instance_names_missing_keys(tmp_path, missing):
    doc = {
        "responses": [["a", "b"]],
        "reference": [[0.5, 0.5]],
        "preference": {"kind": "matrix", "matrices": [[[0.5, 0.5], [0.5, 0.5]]]},
    }
    del doc[missing]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=missing):
        load_instance(path)


def test_load_instance_names_missing_preference_fields(tmp_path):
    doc = {
        "responses": [["a", "b", "c"]],
        "reference": [[0.4, 0.3, 0.3]],
        "preference": {"kind": "cyclic"},
    }
    path = tmp_path / "nostrength.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="strength"):
        load_instance(path)
    doc["preference"] = {"kind": "bradley_terry"}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="rewards"):
        load_instance(path)
    doc["preference"] = {"kind": "elo"}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="elo"):
        load_instance(path)


def test_policy_round_trip(tmp_path, rng):
    pol = random_policy(rng, (3, 2))
    path = tmp_path / "pol.json"
    save_policy(pol, path)
    back = load_policy(path)
    for x in range(2):
        assert np.all(back.rows[x] == pol.rows[x])


_SPECIAL_FLOATS = [5e-324, 1e-300, -0.0, math.nan, math.inf, -math.inf]


def _two_prompt_instance(reference, matrices):
    sizes = [len(r) for r in reference]
    return GameInstance(
        prompt_weights=np.full(len(sizes), 1.0 / len(sizes)),
        space=ResponseSpace(tuple(tuple(map(str, range(k))) for k in sizes)),
        reference=policy_from_rows(reference),
        preference=PairwisePreference(tuple(matrices)),
    )


def test_validate_reports_the_row_sum_beside_a_wider_prompt():
    # summed over the 12-wide padded row, 0.1 + 0.2 + 0.3 + 0.05 reads 0.65
    inst = _two_prompt_instance(
        [[0.1, 0.2, 0.3, 0.05], [1 / 12] * 12],
        random_preference(np.random.default_rng(0), [4, 12]).matrices,
    )
    want = ["reference row 0 normalization: sums to 0.6500000000000001"]
    assert validate_instance(inst) == reference_validate_instance(inst) == want


def test_validate_reports_opposite_infinities_once():
    m = np.full((3, 3), 0.5)
    m[0, 1], m[1, 0] = math.inf, -math.inf
    inst = _two_prompt_instance(
        [[math.inf, -math.inf, 0.5], [0.5, 0.5]], [m, np.full((2, 2), 0.5)]
    )
    want = ["reference row 0 has non-finite entries",
            "preference matrix 0 has non-finite entries"]
    assert validate_instance(inst) == reference_validate_instance(inst) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.lists(st.floats() | st.sampled_from(_SPECIAL_FLOATS), min_size=1, max_size=12),
    min_size=1, max_size=6,
))
def test_save_policy_writes_json_indent_bytes(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "written_policy.json"
    save_policy(policy_from_rows(rows), path)
    assert path.read_text() == json.dumps({"rows": rows}, indent=1) + "\n"
    back = load_policy(path)
    for row, got in zip(rows, back.rows):
        finite = np.isfinite(row)
        assert np.array(row)[finite].tobytes() == got[finite].tobytes()


def test_save_policy_writes_an_empty_row_as_json_does(tmp_path):
    rows = [[0.5, 0.5], []]
    path = tmp_path / "policy.json"
    save_policy(policy_from_rows(rows), path)
    assert path.read_text() == json.dumps({"rows": rows}, indent=1) + "\n"
    assert load_policy(path).sizes == (2, 0)


def test_load_policy_needs_rows_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"values": [[1.0]]}))
    with pytest.raises(ValueError, match="rows"):
        load_policy(path)


@pytest.mark.parametrize(
    "value",
    [1.0, 5e-324, 1.7e308, 3, True, np.float64(0.5), 0.0, -0.0, -1e-300, -2,
     math.nan, math.inf, -math.inf, np.float64("nan"), np.inf],
)
def test_require_positive_is_finite_and_above_zero(value):
    # the one statement of the rule eta, beta and every step size follow
    if math.isfinite(value) and value > 0.0:
        _require_positive(value, "x must be positive and finite")
    else:
        with pytest.raises(ValueError, match="^x must be positive and finite$"):
            _require_positive(value, "x must be positive and finite")
