import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefgame import (
    MEAN_PAIRWISE,
    PLACKETT_LUCE,
    PRESET_NAMES,
    ConfigError,
    ExperimentConfig,
    GameInstance,
    TabularPolicy,
    ValidationFailure,
    compare_presets,
    config_from_dict,
    derive_rng,
    expected_win_rates,
    exploitability_multiplayer,
    gap_report,
    load_config,
    load_instance,
    load_policy,
    make_bt_oracle,
    mixed_instance,
    mwu_step,
    point_mass_policy,
    rankings_from_csv,
    ResponseSpace,
    rps_instance,
    run_experiment,
    save_instance,
    save_policy,
    uniform_policy,
    write_bundled,
)
import prefgame.equilibrium as equilibrium
from prefgame import cli
from prefgame.cli import main
from prefgame.harness import MODES
from prefgame.instances import RewardTable


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("instances")
    out = write_bundled(d)

    rps = rps_instance()
    bare = GameInstance(
        prompt_weights=rps.prompt_weights,
        space=rps.space,
        reference=rps.reference,
        preference=rps.preference,
        reward=None,
    )
    out["no_reward"] = str(d / "no_reward.json")
    save_instance(bare, out["no_reward"])

    # a reference with a zero entry, and one that supports a single response
    for name, row in [("zero_ref", [0.6, 0.4, 0.0]), ("one_supported", [1.0, 0.0, 0.0])]:
        out[name] = str(d / f"{name}.json")
        save_instance(
            GameInstance(
                prompt_weights=rps.prompt_weights,
                space=rps.space,
                reference=TabularPolicy([row]),
                preference=rps.preference,
                reward=rps.reward,
            ),
            out[name],
        )

    broken = json.loads((d / "rps.json").read_text())
    broken["reference"] = [[0.5, 0.3, 0.1]]
    out["broken"] = str(d / "broken.json")
    (d / "broken.json").write_text(json.dumps(broken))
    return out


def base_doc(paths, tmp_path, mode, **extra):
    doc = {
        "mode": mode,
        "instance": paths["rps"],
        "out_dir": str(tmp_path / "out"),
    }
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# config schema


def test_config_defaults_are_filled(paths, tmp_path):
    cfg = config_from_dict(
        base_doc(paths, tmp_path, "selfplay", eta=0.5, iterations=100)
    )
    assert cfg.mode == "selfplay"
    assert cfg.seed == 0
    assert cfg.params["n_players"] == 2
    assert cfg.params["tau"] == 0.0
    assert cfg.params["metric_stride"] == 1
    assert cfg.params["opponent_scheme"] == "self_play_copies"
    assert cfg.params["history_weights"] is None
    assert cfg.params["aggregator"] == "mean_pairwise"


def test_config_missing_common_key():
    with pytest.raises(ConfigError, match="missing required key 'out_dir'"):
        config_from_dict({"mode": "presets", "instance": "x.json"})


def test_config_missing_mode_key(paths, tmp_path):
    with pytest.raises(ConfigError, match="'eta' for mode 'selfplay'"):
        config_from_dict(base_doc(paths, tmp_path, "selfplay", iterations=5))


def test_config_unknown_key_names_mode(paths, tmp_path):
    with pytest.raises(ConfigError, match="unknown key 'eta' for mode 'presets'"):
        config_from_dict(base_doc(paths, tmp_path, "presets", eta=1.0))


def test_config_bad_mode(paths, tmp_path):
    with pytest.raises(ConfigError, match="'mode' must be one of"):
        config_from_dict(base_doc(paths, tmp_path, "train"))


def test_config_rejects_bool_as_integer(paths, tmp_path):
    doc = base_doc(paths, tmp_path, "selfplay", eta=0.5, iterations=True)
    with pytest.raises(ConfigError, match="key 'iterations'"):
        config_from_dict(doc)


def test_config_rejects_string_eta(paths, tmp_path):
    doc = base_doc(paths, tmp_path, "selfplay", eta="fast", iterations=5)
    with pytest.raises(ConfigError, match="key 'eta'"):
        config_from_dict(doc)


def test_config_rejects_fractional_seed(paths, tmp_path):
    doc = base_doc(paths, tmp_path, "presets", seed=1.5)
    with pytest.raises(ConfigError, match="common key"):
        config_from_dict(doc)


@pytest.mark.parametrize("seed", [-1, -(2**40), True, "3"])
def test_config_rejects_bad_seed_naming_it(paths, tmp_path, seed):
    doc = base_doc(paths, tmp_path, "presets", seed=seed)
    with pytest.raises(ConfigError, match="common key 'seed'"):
        config_from_dict(doc)


def test_config_accepts_a_large_seed(paths, tmp_path):
    doc = base_doc(paths, tmp_path, "presets", seed=2**70)
    assert config_from_dict(doc).seed == 2**70


def test_config_aggregator_choices(paths, tmp_path):
    doc = base_doc(paths, tmp_path, "gap", aggregator="geometric")
    with pytest.raises(ConfigError, match="key 'aggregator'"):
        config_from_dict(doc)


def test_config_history_weights_coercion(paths, tmp_path):
    doc = base_doc(
        paths,
        tmp_path,
        "selfplay",
        eta=0.5,
        iterations=5,
        opponent_scheme="history_window",
        history_weights=[0.7, 0.3],
    )
    assert config_from_dict(doc).params["history_weights"] == (0.7, 0.3)
    doc["history_weights"] = []
    with pytest.raises(ConfigError, match="key 'history_weights'"):
        config_from_dict(doc)


def test_config_must_be_an_object():
    with pytest.raises(ConfigError, match="JSON object"):
        config_from_dict(["selfplay"])


def test_experiment_config_rejects_bad_mode():
    with pytest.raises(ConfigError, match="'mode'"):
        ExperimentConfig("train", "x.json", "out", 0, {})


def test_load_config_round_trip(paths, tmp_path):
    doc = base_doc(paths, tmp_path, "presets", samples=10, seed=4)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.seed == 4
    assert cfg.params == {"samples": 10}


def test_load_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "cfg.json"
    # the second is nested past the parser's recursion limit
    for text in ("{not json", "[" * 100000):
        path.write_text(text)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


# ---------------------------------------------------------------------------
# named rng streams


def test_derive_rng_is_deterministic():
    a = derive_rng(7, "fit").random(5)
    b = derive_rng(7, "fit").random(5)
    assert np.array_equal(a, b)


def test_derive_rng_separates_names_and_seeds():
    base = derive_rng(7, "fit").random(5)
    assert not np.array_equal(base, derive_rng(7, "solver").random(5))
    assert not np.array_equal(base, derive_rng(8, "fit").random(5))
    ab = derive_rng(7, "a", "b").random(5)
    ba = derive_rng(7, "b", "a").random(5)
    assert not np.array_equal(ab, ba)


# ---------------------------------------------------------------------------
# preset cross-check


def test_compare_presets_covers_every_preset(mixed):
    table = compare_presets(mixed, samples=120, seed=5)
    assert tuple(table) == PRESET_NAMES
    assert max(table.values()) <= 1e-12


def test_compare_presets_is_deterministic(mixed):
    a = compare_presets(mixed, samples=60, seed=2)
    b = compare_presets(mixed, samples=60, seed=2)
    assert a == b


def test_compare_presets_draws_pairs_on_the_reference_support(paths):
    # a zero reference entry is never drawn, so the four presets that take
    # log ref of both responses still agree with their formulas
    table = compare_presets(load_instance(paths["zero_ref"]), samples=50, seed=3)
    assert max(table.values()) <= 1e-12
    with pytest.raises(ValidationFailure, match=r"prompts \[0\] have under two"):
        compare_presets(load_instance(paths["one_supported"]), samples=5)


@pytest.mark.parametrize("k", [2, 3, 5, 12])
def test_support_draw_on_a_full_row_is_the_plain_draw(k):
    # so presets.csv keeps its bytes on instances without zero entries
    for seed in range(50):
        plain, on_support = np.random.default_rng(seed), np.random.default_rng(seed)
        a = plain.choice(k, size=2, replace=False)
        b = on_support.choice(np.flatnonzero(np.ones(k) > 0.0), size=2, replace=False)
        assert a.tolist() == b.tolist()
        assert plain.bit_generator.state == on_support.bit_generator.state


def test_compare_presets_needs_rewards(rps):
    bare = GameInstance(
        prompt_weights=rps.prompt_weights,
        space=rps.space,
        reference=rps.reference,
        preference=rps.preference,
        reward=None,
    )
    with pytest.raises(ValueError, match="reward"):
        compare_presets(bare, samples=10)


# ---------------------------------------------------------------------------
# mode runners


def test_selfplay_run_writes_metrics_and_policies(paths, tmp_path):
    cfg = config_from_dict(
        base_doc(
            paths,
            tmp_path,
            "selfplay",
            eta=0.5,
            iterations=1000,
            metric_stride=100,
        )
    )
    summary = run_experiment(cfg)
    assert summary["mode"] == "selfplay"
    assert summary["iterations"] == 1000
    assert summary["final_gap"] <= 1e-2

    out = tmp_path / "out"
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "iter,gap,kl_ref,self_play_value,elapsed_ms"
    assert len(lines) == 1 + 11  # iterations 0, 100, ..., 1000
    last = lines[-1].split(",")
    assert int(last[0]) == 1000
    assert float(last[1]) == pytest.approx(summary["final_gap"], rel=1e-12)

    final = load_policy(out / "policy_final.json")
    average = load_policy(out / "policy_average.json")
    assert final.rows[0].shape == (3,)
    assert float(average.rows[0].sum()) == pytest.approx(1.0, abs=1e-12)
    assert set(summary["outputs"]) == {
        str(out / "metrics.csv"),
        str(out / "policy_final.json"),
        str(out / "policy_average.json"),
    }


@pytest.mark.parametrize("instance", ["rps", "mixed"])
def test_selfplay_metrics_keep_a_zero_elapsed_column(paths, tmp_path, instance):
    # runs are not timed, so the pinned fifth column reads 0 on every row
    doc = base_doc(paths, tmp_path, "selfplay", eta=0.5, iterations=30,
                   n_players=3, tau=0.1, metric_stride=7)
    doc["instance"] = paths[instance]
    assert main(["run", write_config(tmp_path, doc)]) == 0
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "iter,gap,kl_ref,self_play_value,elapsed_ms"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [0, 7, 14, 21, 28, 30]
    assert all(len(r) == 5 and r[4] == "0" for r in rows)


def test_lossmin_run_matches_closed_form_update(paths, tmp_path):
    cfg = config_from_dict(
        base_doc(paths, tmp_path, "lossmin", eta=0.8, steps=2500, inits=2)
    )
    summary = run_experiment(cfg)
    assert summary["worst_gap_to_update"] <= 1e-6

    out = tmp_path / "out"
    lines = (out / "descent.csv").read_text().splitlines()
    assert lines[0] == "step,loss,grad_norm"
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert int(first[0]) == 0
    assert float(last[1]) < float(first[1])

    report = json.loads((out / "report.json").read_text())
    assert report["eta"] == 0.8
    assert len(report["inits"]) == 2
    for entry in report["inits"]:
        assert set(entry) == {
            "init",
            "final_loss",
            "grad_max",
            "steps_taken",
            "max_abs_gap_to_update",
        }
    assert report["worst_gap_to_update"] == summary["worst_gap_to_update"]

    # every opponent is the reference, so more players change nothing past rounding
    doc = base_doc(paths, tmp_path, "lossmin", eta=0.8, steps=2500, inits=2, n_players=5)
    doc["out_dir"] = str(tmp_path / "out5")
    five = run_experiment(config_from_dict(doc))
    report5 = json.loads((tmp_path / "out5" / "report.json").read_text())
    assert [e["steps_taken"] for e in report5["inits"]] == [
        e["steps_taken"] for e in report["inits"]
    ]
    assert abs(five["worst_gap_to_update"] - summary["worst_gap_to_update"]) <= 1e-15


def test_presets_run_writes_one_row_per_preset(paths, tmp_path):
    doc = base_doc(paths, tmp_path, "presets", samples=200, seed=3)
    doc["instance"] = paths["mixed"]
    summary = run_experiment(config_from_dict(doc))
    lines = (tmp_path / "out" / "presets.csv").read_text().splitlines()
    assert lines[0] == "name,max_abs_deviation"
    names = [line.split(",")[0] for line in lines[1:]]
    assert tuple(names) == PRESET_NAMES
    devs = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(devs) == summary["max_deviation"]
    assert max(devs) <= 1e-12


def test_rewardfit_run_recovers_centered_rewards(paths, tmp_path):
    doc = base_doc(paths, tmp_path, "rewardfit", comparisons=6000)
    doc["instance"] = paths["bt"]
    summary = run_experiment(config_from_dict(doc))
    out = tmp_path / "out"

    report = json.loads((out / "report.json").read_text())
    assert report["comparisons"] == 6000
    assert report["max_abs_error"] == summary["max_abs_error"]
    assert report["max_abs_error"] < 0.25
    assert report["converged"]

    fitted = json.loads((out / "fitted.json").read_text())
    assert abs(sum(fitted["rows"][0])) < 1e-9  # centered gauge

    data = rankings_from_csv(out / "rankings.csv")
    assert len(data) == 6000


def test_rewardfit_requires_rewards(paths, tmp_path):
    doc = base_doc(paths, tmp_path, "rewardfit", comparisons=10)
    doc["instance"] = paths["no_reward"]
    with pytest.raises(ValidationFailure, match="reward table"):
        run_experiment(config_from_dict(doc))


@pytest.mark.parametrize(
    "mode, extra",
    [
        pytest.param(
            "selfplay", {"eta": 0.5, "iterations": 2, "aggregator": "plackett_luce"},
            id="selfplay-pl",
        ),
        pytest.param("gap", {"aggregator": "plackett_luce"}, id="gap-pl"),
        pytest.param("presets", {"samples": 5}, id="presets"),
    ],
)
def test_runs_that_read_rewards_require_them(paths, tmp_path, mode, extra):
    doc = base_doc(paths, tmp_path, mode, **extra)
    doc["instance"] = paths["no_reward"]
    with pytest.raises(ValidationFailure, match="reward table"):
        run_experiment(config_from_dict(doc))
    assert not (tmp_path / "out").exists()


def test_gap_run_uniform_policy(paths, tmp_path):
    summary = run_experiment(config_from_dict(base_doc(paths, tmp_path, "gap")))
    doc = json.loads((tmp_path / "out" / "gap.json").read_text())
    assert doc["policy"] == "uniform"
    assert doc["exploitability"] <= 1e-12
    assert doc["dual_gap"] <= 1e-12
    assert doc["n_players"] == 2
    assert summary["exploitability"] == doc["exploitability"]


def test_gap_run_point_mass_policy_file(paths, tmp_path):
    pol_path = tmp_path / "rock.json"
    save_policy(point_mass_policy(rps_instance().space, [0]), pol_path)
    doc = base_doc(paths, tmp_path, "gap", policy=str(pol_path))
    run_experiment(config_from_dict(doc))
    report = json.loads((tmp_path / "out" / "gap.json").read_text())
    assert report["dual_gap"] == pytest.approx(1.0, abs=1e-10)
    assert report["exploitability"] == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_gap_run_reads_the_dual_gap_off_one_best_response(
    paths, tmp_path, monkeypatch, tau
):
    # the two-player duality gap is twice the exploitability, so the run
    # builds one best response and writes the doubled value bit for bit
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("best_response_unregularized", "best_response_kl"):
        monkeypatch.setattr(equilibrium, name, counted(getattr(equilibrium, name)))
    pol_path = tmp_path / "policy.json"
    rows = [np.arange(1.0, k + 1.0) / (k * (k + 1) / 2) for k in mixed_instance().space.sizes]
    save_policy(TabularPolicy(rows), pol_path)
    doc = base_doc(paths, tmp_path, "gap", policy=str(pol_path), tau=tau)
    doc["instance"] = paths["mixed"]
    run_experiment(config_from_dict(doc))
    report = json.loads((tmp_path / "out" / "gap.json").read_text())
    assert report["exploitability"] > 0.0
    assert np.float64(report["dual_gap"]).tobytes() == np.float64(
        2.0 * report["exploitability"]
    ).tobytes()
    assert len(calls) == 1


def test_gap_multiplayer_has_no_dual_gap_key(paths, tmp_path):
    doc = base_doc(paths, tmp_path, "gap", n_players=3, aggregator="plackett_luce")
    run_experiment(config_from_dict(doc))
    report = json.loads((tmp_path / "out" / "gap.json").read_text())
    assert "dual_gap" not in report
    assert report["exploitability"] >= 0.0


def test_gap_report_rejects_shape_mismatch(paths, tmp_path, rps):
    pol_path = tmp_path / "wide.json"
    save_policy(TabularPolicy([[0.25, 0.25, 0.25, 0.25]]), pol_path)
    with pytest.raises(ValidationFailure, match="response counts"):
        gap_report(rps, str(pol_path))


def test_gap_report_rejects_support_violation():
    reward = RewardTable((np.array([0.0, 0.0]),))
    inst = GameInstance(
        prompt_weights=np.array([1.0]),
        space=ResponseSpace((("a", "b"),)),
        reference=TabularPolicy([[1.0, 0.0]]),
        preference=make_bt_oracle(reward),
        reward=reward,
    )
    with pytest.raises(ValidationFailure, match="support"):
        gap_report(inst, "uniform")


def test_an_aggregator_given_by_name_is_a_type_error(mixed):
    ref = mixed.reference
    calls = [
        lambda: gap_report(mixed, "uniform", 0.0, 3, "plackett_luce"),
        lambda: expected_win_rates(mixed, [ref], "mean_pairwise"),
        lambda: mwu_step([ref], mixed, 0.5, aggregator="plackett_luce"),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="aggregator must be an Aggregator .*PLACKETT_LUCE"):
            call()


def test_gap_report_takes_an_aggregator_record(mixed):
    uni = uniform_policy(mixed.space)
    pl = gap_report(mixed, "uniform", tau=0.1, n_players=3, aggregator=PLACKETT_LUCE)
    assert pl["exploitability"] == float(
        exploitability_multiplayer(uni, 3, mixed, 0.1, PLACKETT_LUCE)
    )
    assert pl["aggregator"] == "plackett_luce" and "dual_gap" not in pl
    pair = gap_report(mixed, "uniform", aggregator=MEAN_PAIRWISE)
    assert pair["exploitability"] == float(exploitability_multiplayer(uni, 2, mixed))
    assert pair["aggregator"] == "mean_pairwise"
    assert pair["dual_gap"] == 2.0 * pair["exploitability"]


def test_gap_report_missing_policy_file(rps):
    with pytest.raises(FileNotFoundError, match="policy file"):
        gap_report(rps, "/nonexistent/pol.json")


def test_run_experiment_missing_instance(tmp_path):
    doc = {
        "mode": "gap",
        "instance": "/nonexistent/inst.json",
        "out_dir": str(tmp_path / "out"),
    }
    with pytest.raises(FileNotFoundError, match="instance file"):
        run_experiment(config_from_dict(doc))


def test_run_experiment_missing_config_path():
    with pytest.raises(FileNotFoundError, match="config file"):
        run_experiment("/nonexistent/cfg.json")


def test_run_experiment_validates_the_instance(paths, tmp_path):
    doc = base_doc(paths, tmp_path, "gap")
    doc["instance"] = paths["broken"]
    with pytest.raises(ValidationFailure) as err:
        run_experiment(config_from_dict(doc))
    assert any("sum" in p for p in err.value.problems)


def test_reruns_are_byte_identical(paths, tmp_path):
    outputs = {}
    for tag in ("first", "second"):
        doc = {
            "mode": "selfplay",
            "instance": paths["rps"],
            "out_dir": str(tmp_path / tag),
            "seed": 11,
            "eta": 0.5,
            "iterations": 300,
            "metric_stride": 50,
        }
        run_experiment(config_from_dict(doc))
        outputs[tag] = {
            name: (tmp_path / tag / name).read_bytes()
            for name in ("metrics.csv", "policy_final.json", "policy_average.json")
        }
    assert outputs["first"] == outputs["second"]


def test_selfplay_null_history_weights_is_the_default(paths, tmp_path):
    outputs = {}
    for tag, extra in (("null", {"history_weights": None}), ("absent", {})):
        doc = base_doc(
            paths, tmp_path, "selfplay", eta=0.5, iterations=20, n_players=3,
            opponent_scheme="history_window", **extra,
        )
        doc["out_dir"] = str(tmp_path / tag)
        run_experiment(config_from_dict(doc))
        outputs[tag] = {f.name: f.read_bytes() for f in (tmp_path / tag).iterdir()}
    assert outputs["null"] == outputs["absent"]


def test_rewardfit_reruns_are_byte_identical(paths, tmp_path):
    outputs = {}
    for tag in ("first", "second"):
        doc = {
            "mode": "rewardfit",
            "instance": paths["bt"],
            "out_dir": str(tmp_path / tag),
            "seed": 6,
            "comparisons": 400,
        }
        run_experiment(config_from_dict(doc))
        outputs[tag] = {
            name: (tmp_path / tag / name).read_bytes()
            for name in ("rankings.csv", "fitted.json", "report.json")
        }
    assert outputs["first"] == outputs["second"]


def test_modes_tuple_is_pinned():
    assert MODES == ("selfplay", "lossmin", "presets", "rewardfit", "gap")


# ---------------------------------------------------------------------------
# command line


def write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_run_ok(paths, tmp_path, capsys):
    cfg = write_config(
        tmp_path, base_doc(paths, tmp_path, "gap", policy="uniform")
    )
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "exploitability: " in out
    assert "wrote " in out


def test_cli_run_bad_config_exits_2(paths, tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc(paths, tmp_path, "selfplay"))
    assert main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err


# A valid config per mode, which each case below breaks in one key.
_VALID = {
    "lossmin": {"eta": 0.5, "steps": 10},
    "selfplay": {"eta": 0.5, "iterations": 2},
    "rewardfit": {"comparisons": 10},
    "presets": {"samples": 2},
    "gap": {},
}


@pytest.mark.parametrize(
    "mode, key, value",
    [
        # the lossmin cases keep their original ids
        pytest.param("lossmin", key, value, id=f"{key}-{value}")
        for key, value in [
            ("inits", 0),
            ("n_players", 1),
            ("eta", float("nan")),
            ("eta", -0.5),
            ("eta", 0.0),
            ("eta", float("inf")),
            ("steps", -1),
            ("step_size", 0.0),
            ("step_size", float("nan")),
            ("step_size", 1e-19),  # below the descent's stop floor
        ]
    ]
    + [
        pytest.param(mode, key, value, id=f"{mode}-{key}-{value}")
        for mode, key, value in [
            ("selfplay", "eta", float("nan")),
            ("selfplay", "eta", -1.0),
            ("selfplay", "iterations", -1),
            ("selfplay", "n_players", 1),
            ("selfplay", "metric_stride", 0),
            ("selfplay", "tau", -1.0),
            ("rewardfit", "comparisons", 0),
            ("rewardfit", "pool_size", 0),
            ("rewardfit", "steps", -1),
            ("presets", "samples", 0),
            ("gap", "n_players", 1),
            ("gap", "tau", -1.0),
            # below the smallest normal float, win rates / tau overflow
            ("gap", "tau", 1e-320),
            ("selfplay", "tau", 1e-320),
        ]
    ]
    + [
        # JSON integers too large for a float
        pytest.param(mode, key, value, id=f"{mode}-{key}-10**400")
        for mode, key, value in [
            ("lossmin", "eta", 10**400),
            ("lossmin", "step_size", 10**400),
            ("gap", "tau", 10**400),
            ("selfplay", "history_weights", [10**400]),
        ]
    ]
    + [
        # a path or policy name that is not a JSON string
        pytest.param(mode, key, value, id=f"{mode}-{key}-{value}")
        for mode, key, value in [
            ("presets", "instance", 7),
            ("gap", "policy", ["uniform"]),
        ]
    ]
    + [
        # counts whose arrays or opponent lists no machine can hold: each
        # allocation is refused at once, before any work is done
        pytest.param(mode, key, value, id=f"{mode}-{key}-{label}")
        for mode, key, value, label in [
            ("selfplay", "n_players", 10**18, "10**18"),
            ("lossmin", "n_players", 10**18, "10**18"),
            ("gap", "n_players", 10**18, "10**18"),
            ("rewardfit", "comparisons", 10**13, "10**13"),
            ("rewardfit", "comparisons", 2**62, "2**62"),
        ]
    ],
)
def test_cli_run_lossmin_out_of_range_exits_2(
    paths, tmp_path, capsys, mode, key, value
):
    doc = base_doc(paths, tmp_path, mode, **_VALID[mode])
    doc[key] = value
    assert main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert f"key '{key}'" in err and "Traceback" not in err


def test_cli_run_rewardfit_pool_too_large_exits_2(paths, tmp_path, capsys):
    # mixed has a two-response prompt; the default pool of 2 needs three
    doc = base_doc(paths, tmp_path, "rewardfit", comparisons=10)
    doc["instance"] = paths["mixed"]
    assert main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "key 'pool_size'" in err and "Traceback" not in err


@pytest.mark.parametrize("steps", [1, 60])
def test_cli_run_rewardfit_step_size_overflow_exits_2(paths, tmp_path, capsys, steps):
    # the first step lands rewards near 1e308; centering them or summing
    # the likelihood overflows, which the fit reports as FloatingPointError
    doc = base_doc(paths, tmp_path, "rewardfit", comparisons=200, steps=steps,
                   step_size=1e308)
    doc["instance"] = paths["bt"]
    assert main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "key 'step_size'" in err and "reduce step_size" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "weights, n_players",
    [
        pytest.param([2.0], 2, id="above-one"),
        pytest.param([-0.5], 2, id="negative"),
        pytest.param([0.5, 0.5], 2, id="wrong-length"),
        pytest.param([float("nan"), 0.5], 3, id="nan"),
        pytest.param([0.35, 0.15], 3, id="sum-below-one"),
    ],
)
def test_cli_run_selfplay_bad_history_weights_exits_2(
    paths, tmp_path, capsys, weights, n_players
):
    doc = base_doc(
        paths,
        tmp_path,
        "selfplay",
        eta=0.5,
        iterations=2,
        n_players=n_players,
        opponent_scheme="history_window",
        history_weights=weights,
    )
    assert main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "key 'history_weights'" in err and "Traceback" not in err


def test_cli_run_selfplay_history_weights_without_history_window_exits_2(
    paths, tmp_path, capsys
):
    # self-play copies have no window for the weights to mix
    doc = base_doc(
        paths, tmp_path, "selfplay", eta=0.5, iterations=2, n_players=3,
        history_weights=[0.7, 0.3],
    )
    assert main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "key 'history_weights'" in err and "Traceback" not in err


@pytest.mark.parametrize("eta, tau", [(0.5, 3.0), (4.0, 0.5)])
def test_cli_run_selfplay_eta_times_tau_above_one_exits_2(paths, tmp_path, capsys, eta, tau):
    # the step's KL weight on its opponents, 1 - eta * tau, would be negative
    doc = base_doc(paths, tmp_path, "selfplay", eta=eta, iterations=2, tau=tau)
    assert main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "key 'tau'" in err and "Traceback" not in err
    assert list((tmp_path / "out").iterdir()) == []


def test_cli_run_missing_config_exits_3(capsys):
    assert main(["run", "/nonexistent/cfg.json"]) == 3
    assert "missing file" in capsys.readouterr().err


def test_cli_run_missing_instance_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "mode": "gap",
            "instance": "/nonexistent/inst.json",
            "out_dir": str(tmp_path / "out"),
        },
    )
    assert main(["run", cfg]) == 3


@pytest.mark.parametrize("n_players", [12, 50, 1000])
def test_cli_run_plackett_luce_gap_at_many_players_exits_0(paths, tmp_path, capsys, n_players):
    # bt's 5 responses against n - 1 copies: 5**(n - 1) tuples of draws, one quadrature
    doc = base_doc(
        paths, tmp_path, "gap", n_players=n_players, aggregator="plackett_luce"
    )
    doc["instance"] = paths["bt"]
    assert main(["run", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "gap.json").read_text())
    assert 0.0 <= report["exploitability"] < 1.0


def test_cli_run_invalid_instance_exits_5(paths, tmp_path, capsys):
    doc = base_doc(paths, tmp_path, "gap")
    doc["instance"] = paths["broken"]
    assert main(["run", write_config(tmp_path, doc)]) == 5
    assert "validation failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "gap"])
@pytest.mark.parametrize("broken", ["not_json", "short_reference", "deeply_nested"])
def test_cli_unreadable_instance_exits_5(paths, tmp_path, capsys, command, broken):
    path = tmp_path / "instance.json"
    if broken == "not_json":
        path.write_text("{ not json")
    elif broken == "deeply_nested":
        path.write_text("[" * 100000)
    else:
        doc = json.loads(Path(paths["rps"]).read_text())
        doc["reference"] = [[0.5, 0.5]]
        path.write_text(json.dumps(doc))
    if command == "run":
        doc = base_doc(paths, tmp_path, "gap")
        doc["instance"] = str(path)
        argv = ["run", write_config(tmp_path, doc)]
    else:
        argv = ["gap", str(path), "uniform"]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert "validation failure" in err and "Traceback" not in err


def test_cli_validate_ok(paths, capsys):
    assert main(["validate", paths["rps"]]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_cli_validate_invalid_exits_5(paths, capsys):
    assert main(["validate", paths["broken"]]) == 5
    assert "invalid:" in capsys.readouterr().err


def test_cli_validate_missing_file_exits_3(capsys):
    assert main(["validate", "/nonexistent/inst.json"]) == 3


@pytest.mark.parametrize(
    "fault, named",
    [
        ("non-square-matrix", "key 'preference.matrices': expected a square matrix"),
        ("matrix-without-matrices", "preference kind 'matrix' needs key 'matrices'"),
        ("cyclic-several-prompts", "preference kind 'cyclic' covers single-prompt"),
        ("top-level-list", "instance file must hold a JSON object"),
        ("empty-responses-row", "key 'responses': prompt 0 has no responses"),
        ("prompt-weights-length", "prompt_weights has 1 entries for 3 prompts"),
    ],
)
def test_cli_validate_malformed_instance_exits_5(paths, tmp_path, capsys, fault, named):
    doc = json.loads(Path(paths["mixed"]).read_text())
    if fault == "non-square-matrix":
        doc["preference"]["matrices"][0].pop()
    elif fault == "matrix-without-matrices":
        doc["preference"] = {"kind": "matrix"}
    elif fault == "cyclic-several-prompts":
        doc["preference"] = {"kind": "cyclic", "strength": 0.8}
    elif fault == "top-level-list":
        doc = [doc]
    elif fault == "empty-responses-row":
        doc["responses"][0] = []
    else:
        doc["prompt_weights"] = [1.0]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 5
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_cli_gap_uniform(paths, capsys):
    assert main(["gap", paths["rps"], "uniform"]) == 0
    out = capsys.readouterr().out
    assert "dual_gap: " in out
    assert "exploitability: " in out


def test_cli_gap_too_many_players_exits_2(paths, capsys):
    # the n - 1 opponent copies alone would take 8 * 10**18 bytes
    assert main(["gap", paths["rps"], "uniform", "--n", str(10**18)]) == 2
    err = capsys.readouterr().err
    assert "key 'n_players'" in err and "Traceback" not in err


def test_cli_gap_bad_policy_exits_5(paths, tmp_path, capsys):
    pol_path = tmp_path / "wide.json"
    save_policy(TabularPolicy([[0.25, 0.25, 0.25, 0.25]]), pol_path)
    assert main(["gap", paths["rps"], str(pol_path)]) == 5


def test_cli_presets_prints_every_name(paths, capsys):
    assert main(["presets", paths["mixed"], "--samples", "40"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[0] for line in lines] == list(PRESET_NAMES)


def test_cli_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_cli_main_reuses_its_parser_across_calls(paths, capsys):
    assert main(["validate", paths["rps"]]) == 0
    assert main(["gap", paths["rps"], "uniform", "--n"]) == 2
    assert main(["gap", paths["rps"], "uniform"]) == 0
    assert cli._parser() is cli._parser()
    out = capsys.readouterr().out
    assert out.startswith("ok\n") and "exploitability" in out


_MODULES_AFTER_EACH_RUN = """
import json, sys
from prefgame.cli import main
seen = {}
for mode, config in json.loads(sys.argv[1]):
    seen[mode] = [main(["run", config]), "numpy.ma" in sys.modules]
print(json.dumps(seen))
"""


def test_cli_runs_never_import_numpy_ma(paths, tmp_path):
    # numpy.ma costs 12-14 ms to import; np.unique is one call that pulls it in
    configs = []
    for mode in ("selfplay", "gap", "lossmin", "rewardfit"):
        doc = base_doc(paths, tmp_path / mode, mode, **_VALID[mode])
        doc["instance"] = paths["mixed"]  # uneven response counts, rewards
        if mode == "rewardfit":
            doc["pool_size"] = 1  # the mixed game's third prompt has two responses
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(doc))
        configs.append((mode, str(path)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_EACH_RUN, json.dumps(configs)],
        capture_output=True, text=True, env=env, check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {mode: [0, False] for mode, _ in configs}


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "rps", "uniform", "--n", "1"],
        ["gap", "rps", "uniform", "--tau", "-1"],
        ["presets", "mixed", "--samples", "0"],
        ["gap", "mixed", "uniform", "--tau", "1e-310"],
    ],
    ids=["gap-n-1", "gap-tau--1", "presets-samples-0", "gap-tau-1e-310"],
)
def test_cli_flags_out_of_range_exit_2(paths, capsys, argv):
    argv = [argv[0], paths[argv[1]]] + argv[2:]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "expected a finite value" in err and "Traceback" not in err


def test_cli_run_negative_seed_exits_2(paths, tmp_path, capsys):
    doc = base_doc(paths, tmp_path, "lossmin", eta=0.5, seed=-1)
    assert main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "key 'seed'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_presets_negative_seed_exits_2(paths, capsys):
    assert main(["presets", paths["rps"], "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "expected a finite value >= 0" in err
    assert "Traceback" not in err


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "prefgame" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the exit-code contract at the edges


@pytest.mark.parametrize("eta", [3000.0, 1e4])
@pytest.mark.parametrize("name", ["rps", "bt", "mixed"])
def test_cli_lossmin_large_eta_reaches_the_update(paths, tmp_path, capsys, name, eta):
    # softmax probabilities of the update underflow to zero at these step sizes
    doc = base_doc(paths, tmp_path, "lossmin", eta=eta)
    doc["instance"] = paths[name]
    assert main(["run", write_config(tmp_path, doc)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["worst_gap_to_update"] <= 1e-10


@pytest.mark.parametrize("eta", [1e200, 1e308])
@pytest.mark.parametrize("name", ["rps", "bt", "mixed"])
def test_cli_lossmin_overflowing_eta_exits_2(paths, tmp_path, capsys, name, eta):
    # the squared residuals overflow, so the loss at the initial logits is
    # not finite: the run names eta, warns of nothing and writes no NaN
    doc = base_doc(paths, tmp_path, "lossmin", eta=eta)
    doc["instance"] = paths[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "key 'eta'" in err and "not finite" in err and "Traceback" not in err
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("name, step_size", [("mixed", 1e300), ("rps", 1e308)])
def test_cli_lossmin_huge_step_size_reaches_the_update(
    paths, tmp_path, capsys, name, step_size
):
    # the first proposals overflow; a candidate whose loss is not finite is
    # rejected without a warning, and the halved steps reach the update
    doc = base_doc(paths, tmp_path, "lossmin", eta=0.5, step_size=step_size)
    doc["instance"] = paths[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", write_config(tmp_path, doc)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["worst_gap_to_update"] <= 1e-10


def _gap_argv(paths, tmp_path, command, policy):
    if command == "gap":
        return ["gap", paths["rps"], policy]
    doc = base_doc(paths, tmp_path, "gap", policy=policy)
    return ["run", write_config(tmp_path, doc)]


@pytest.mark.parametrize("command", ["run", "gap"])
@pytest.mark.parametrize(
    "text",
    [
        "{ not json",
        json.dumps({"rows": [[[0.5, 0.25, 0.25]]]}),
        json.dumps({"rows": ["abc"]}),
        json.dumps({"rows": [["a", "b", "c"]]}),
        json.dumps([[0.5, 0.25, 0.25]]),
        json.dumps({"rows": 3}),
        json.dumps({"rows": []}),
        "[" * 100000,
        json.dumps({"rows": [[10**400, 0, 0]]}),
    ],
    ids=["not-json", "nested-rows", "string-row", "string-entries", "top-level-list",
         "rows-number", "rows-empty", "deeply-nested", "row-10**400"],
)
def test_cli_unreadable_policy_exits_5(paths, tmp_path, capsys, command, text):
    path = tmp_path / "policy.json"
    path.write_text(text)
    assert main(_gap_argv(paths, tmp_path, command, str(path))) == 5
    err = capsys.readouterr().err
    assert "validation failure" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "gap"])
@pytest.mark.parametrize(
    "rows, problem",
    [
        ([[1.2, -0.1, -0.1]], "policy row 0 has negative entries"),
        ([[0.5, 0.5]], "policy row lengths differ from the response counts at prompt 0"),
    ],
    ids=["negative-entry", "row-lengths"],
)
def test_cli_invalid_policy_exits_5(paths, tmp_path, capsys, command, rows, problem):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"rows": rows}))
    assert main(_gap_argv(paths, tmp_path, command, str(path))) == 5
    err = capsys.readouterr().err
    assert problem in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "gap"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("responses", 7),
        ("reference", 7),
        ("rewards", 7),
        ("preference.matrices", 7),
        ("preference", [1, 2]),
        ("reference", [[10**400, 0, 0]]),
        ("rewards", [[10**400, 0, 0]]),
        ("prompt_weights", [10**400]),
        ("preference.strength", 10**400),
    ],
    ids=["responses-number", "reference-number", "rewards-number",
         "matrices-number", "preference-list", "reference-10**400",
         "rewards-10**400", "prompt_weights-10**400", "strength-10**400"],
)
def test_cli_instance_key_of_the_wrong_type_exits_5(
    paths, tmp_path, capsys, command, key, value
):
    doc = json.loads(Path(paths["rps"]).read_text())
    doc["rewards"] = [[0.0, 0.0, 0.0]]
    if key == "preference.matrices":
        doc["preference"]["matrices"] = value
    elif key == "preference.strength":
        doc["preference"] = {"kind": "cyclic", "strength": value}
    else:
        doc[key] = value
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    if command == "run":
        run_doc = base_doc(paths, tmp_path, "gap")
        run_doc["instance"] = str(path)
        argv = ["run", write_config(tmp_path, run_doc)]
    else:
        argv = ["gap", str(path), "uniform"]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert f"key '{key}'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("preference.strength", "0.7"),
        ("preference.strength", True),
        ("prompt_weights", [True]),
        ("prompt_weights", ["1.0"]),
    ],
    ids=["strength-string", "strength-bool", "prompt_weights-bool", "prompt_weights-string"],
)
def test_cli_validate_rejects_a_string_or_bool_number_exits_5(
    paths, tmp_path, capsys, key, value
):
    # a string or a boolean where the schema wants a JSON number, as the
    # config schema rejects it too
    doc = json.loads(Path(paths["rps"]).read_text())
    if key == "preference.strength":
        doc["preference"] = {"kind": "cyclic", "strength": value}
    else:
        doc[key] = value
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 5
    err = capsys.readouterr().err
    assert f"key '{key}'" in err and "expected a number" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("rows", [["abc"], [["rock", "scissors", "paper"], "ab"]])
def test_cli_string_response_row_exits_5(paths, tmp_path, capsys, command, rows):
    # a string row used to load as one label per character
    doc = json.loads(Path(paths["rps"]).read_text())
    doc["responses"] = rows
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    if command == "run":
        run_doc = base_doc(paths, tmp_path, "gap")
        run_doc["instance"] = str(path)
        argv = ["run", write_config(tmp_path, run_doc)]
    else:
        argv = ["validate", str(path)]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert "key 'responses'" in err and "expected a list" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, which",
    [
        ("run", "config"),
        ("run", "instance"),
        ("run", "policy"),
        ("gap", "instance"),
        ("gap", "policy"),
        ("presets", "instance"),
        ("validate", "instance"),
    ],
)
def test_cli_directory_as_input_file_exits_3(paths, tmp_path, capsys, command, which):
    folder = str(tmp_path / "folder")
    (tmp_path / "folder").mkdir()
    if which == "policy":
        argv = _gap_argv(paths, tmp_path, command, folder)
    elif command == "run":
        doc = base_doc(paths, tmp_path, "gap")
        doc["instance"] = folder
        argv = ["run", folder if which == "config" else write_config(tmp_path, doc)]
    else:
        argv = [command, folder] + (["uniform"] if command == "gap" else [])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "is a directory" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "where", ["is-a-file", "under-a-file", "nul-byte", "output-is-a-directory"]
)
def test_cli_out_dir_on_a_file_exits_2(paths, tmp_path, capsys, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    doc = base_doc(paths, tmp_path, "gap")
    if where == "output-is-a-directory":  # the run's gap.json is taken
        (tmp_path / "out" / "gap.json").mkdir(parents=True)
    else:
        cases = {"is-a-file": blocker, "under-a-file": blocker / "out"}
        doc["out_dir"] = str(cases.get(where, tmp_path / "o\0ut"))
    assert main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "key 'out_dir'" in err and "Traceback" not in err


_OUTPUT_NAMES = {
    "selfplay": ("metrics.csv", "policy_final.json", "policy_average.json"),
    "lossmin": ("descent.csv", "report.json"),
    "presets": ("presets.csv",),
    "rewardfit": ("rankings.csv", "fitted.json", "report.json"),
    "gap": ("gap.json",),
}


@pytest.mark.parametrize(
    "mode, name", [(mode, name) for mode, names in _OUTPUT_NAMES.items() for name in names]
)
def test_cli_output_name_taken_writes_nothing(paths, tmp_path, capsys, mode, name):
    # any output name taken by a directory stops the run before its first write
    (tmp_path / "out" / name).mkdir(parents=True)
    doc = base_doc(paths, tmp_path, mode, **_VALID[mode])
    assert main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "key 'out_dir'" in err and "Traceback" not in err
    assert [p.name for p in (tmp_path / "out").rglob("*")] == [name]


def test_cli_empty_out_dir_exits_2(paths, tmp_path, capsys):
    doc = base_doc(paths, tmp_path, "gap")
    doc["out_dir"] = ""
    assert main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "key 'out_dir'" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# exit-code sweep: every run mode and subcommand on instances that validate
# but lack a reward table or full reference support

_SWEEP_RUNS = {
    "selfplay": {"mode": "selfplay", "eta": 0.5, "iterations": 2},
    "selfplay-pl": {
        "mode": "selfplay", "eta": 0.5, "iterations": 2, "aggregator": "plackett_luce"
    },
    "lossmin": {"mode": "lossmin", "eta": 0.5, "steps": 10, "inits": 1},
    "presets": {"mode": "presets", "samples": 5},
    "rewardfit": {"mode": "rewardfit", "comparisons": 20, "steps": 5},
    "gap": {"mode": "gap"},
    "gap-pl": {"mode": "gap", "aggregator": "plackett_luce"},
}


def _sweep_argv(paths, tmp_path, instance, command):
    path = paths[instance]
    if command in _SWEEP_RUNS:
        doc = {**_SWEEP_RUNS[command], "instance": path, "out_dir": str(tmp_path / "out")}
        return ["run", write_config(tmp_path, doc)]
    return {
        "cli-presets": ["presets", path, "--samples", "5"],
        "cli-gap": ["gap", path, "uniform"],
        "cli-validate": ["validate", path],
    }[command]


@pytest.mark.parametrize(
    "command", [*_SWEEP_RUNS, "cli-presets", "cli-gap", "cli-validate"]
)
@pytest.mark.parametrize("instance", ["no_reward", "zero_ref", "one_supported"])
def test_cli_exit_code_sweep(paths, tmp_path, capsys, instance, command):
    # an exception escaping main() is the traceback and exit 1 of a process
    assert main(["validate", paths[instance]]) == 0
    code = main(_sweep_argv(paths, tmp_path, instance, command))
    assert code in (0, 2, 3, 5)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["selfplay-pl", "gap-pl"])
def test_cli_wide_reward_plackett_luce_run_exits_cleanly(paths, tmp_path, capsys, command):
    rewards = RewardTable((np.array([700.0, 0.0, -700.0]),))
    path = str(tmp_path / "wide.json")
    save_instance(
        GameInstance(
            prompt_weights=np.array([1.0]),
            space=ResponseSpace((("a", "b", "c"),)),
            reference=TabularPolicy([[1 / 3, 1 / 3, 1 / 3]]),
            preference=make_bt_oracle(rewards),
            reward=rewards,
        ),
        path,
    )
    assert main(["validate", path]) == 0
    doc = {**_SWEEP_RUNS[command], "instance": path, "out_dir": str(tmp_path / "out")}
    assert main(["run", write_config(tmp_path, doc)]) == 0
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract: mutated instance documents and run configs

_ODD = st.sampled_from(["x", True, None, float("nan"), [[0.5]], 1e308, -1.0, 0, {}])
_UNIT = st.floats(0.0, 2.0)


# per mode, each key's small in-range draw; a key may also be left out or
# get one of _ODD's wrong values, but samples and steps are never left out:
# their defaults (1000 samples, 4000 lossmin steps) make a slow example
_FUZZ_KEYS = {
    "selfplay": {
        "eta": _UNIT, "iterations": st.integers(0, 20), "n_players": st.integers(2, 6),
        "tau": st.floats(0.0, 1.0), "metric_stride": st.integers(1, 5),
        "opponent_scheme": st.sampled_from(["self_play_copies", "history_window", "other"]),
        "history_weights": st.none() | st.lists(st.floats(0.0, 1.0), max_size=6),
        "aggregator": st.sampled_from(["mean_pairwise", "plackett_luce", "median"]),
    },
    "lossmin": {
        "eta": _UNIT, "n_players": st.integers(2, 6), "steps": st.integers(0, 200),
        "step_size": st.floats(1e-3, 50.0), "inits": st.integers(1, 3),
    },
    "presets": {"samples": st.integers(1, 20)},
    "rewardfit": {
        "comparisons": st.integers(1, 200), "pool_size": st.integers(1, 5), "steps": st.integers(0, 100),
        "step_size": st.floats(1e-3, 50.0),
    },
    "gap": {
        "policy": st.sampled_from(["uniform", "missing.json"]), "tau": st.floats(0.0, 1.0),
        "n_players": st.integers(2, 64),
        "aggregator": st.sampled_from(["mean_pairwise", "plackett_luce", "median"]),
    },
}


def _rows(node, found):
    """Every list of scalars in a JSON document: the tables' rows and label rows."""
    if isinstance(node, dict):
        for value in node.values():
            _rows(value, found)
    elif isinstance(node, list):
        if node and not any(isinstance(v, (list, dict)) for v in node):
            found.append(node)
        for value in node:
            _rows(value, found)
    return found


def _mutated_instance(draw, text):
    doc = json.loads(text)
    kind = draw(st.sampled_from(["keep", "drop", "retype", "entry", "shorten"]))
    if kind in ("drop", "retype"):
        target = doc
        if "preference" in doc and draw(st.booleans()):
            target = doc["preference"]  # kind, matrices
        key = draw(st.sampled_from(sorted(target)))
        if kind == "drop":
            del target[key]
        else:
            target[key] = draw(_ODD)
    elif kind != "keep":
        rows = _rows(doc, [])
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "shorten":
            row.pop()
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(_ODD)
    return doc


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_run_fuzzed_inputs_keep_the_exit_code_contract(paths, data):
    # the hypothesis example, not a fixture, owns the directory: each example
    # writes its own files. An exception escaping main() (a numpy warning
    # included, which tier-1 raises) breaks the contract.
    draw = data.draw
    # half the examples keep the instance and every value in range, so that
    # runs get past the checks and into the solvers
    clean = draw(st.booleans())
    text = Path(paths[draw(st.sampled_from(["rps", "bt", "mixed"]))]).read_text()
    instance = json.loads(text) if clean else _mutated_instance(draw, text)
    mode = draw(st.sampled_from(sorted(_FUZZ_KEYS)))
    doc = {"mode": mode, "seed": draw(st.integers(0, 100))}
    for key, values in _FUZZ_KEYS[mode].items():
        choices = ["omit", "valid", "valid", "valid", "odd"][key in ("samples", "steps") :]
        choice = draw(st.sampled_from(choices[: len(choices) - clean]))
        if choice != "omit":
            doc[key] = draw(values if choice == "valid" else _ODD)
    with tempfile.TemporaryDirectory() as work:
        doc["instance"] = os.path.join(work, "instance.json")
        doc["out_dir"] = os.path.join(work, "out")
        with open(doc["instance"], "w") as fh:
            json.dump(instance, fh)
        cfg = os.path.join(work, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(["run", cfg])
    assert code in (0, 2, 3, 5), sink.getvalue()


@pytest.mark.parametrize("table", ["prompt_weights", "reference", "matrices"])
def test_cli_validate_sums_past_the_float_limit_exit_5(paths, tmp_path, capsys, table):
    # two entries of 1e308 sum to inf: a violation, with no overflow warning
    doc = json.loads(Path(paths["mixed"]).read_text())
    if table == "prompt_weights":
        doc[table] = [1e308, 1e308, 0.2]
    elif table == "reference":
        doc[table][1] = [1e308, 1e308, 0.2, 0.1]
    else:
        doc["preference"][table][0][0][1] = doc["preference"][table][0][1][0] = 1e308
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 5
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "presets"])
def test_cli_presets_on_a_reward_gap_past_the_float_limit_exits_5(
    paths, tmp_path, capsys, command
):
    # distill_dpo squares the reward gap; past about 1e154 the square
    # overflows, in numpy and in the hand-written formula's float power
    doc = json.loads(Path(paths["bt"]).read_text())
    doc["rewards"] = [[1e308, 0.0, 0.0, 0.0, 0.0]]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    if command == "run":
        run_doc = base_doc(paths, tmp_path, "presets", samples=20)
        run_doc["instance"] = str(path)
        argv = ["run", write_config(tmp_path, run_doc)]
    else:
        argv = ["presets", str(path), "--samples", "20"]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert "preset 'distill_dpo' overflows" in err and "Traceback" not in err


@pytest.mark.parametrize("row", [[1e308, 1e308, 1.0, 0.0, 0.0], [1e308, -1e308, 1.0, 0.0, 0.0]])
def test_cli_rewardfit_on_a_reward_row_past_the_float_limit_exits_5(
    paths, tmp_path, capsys, row
):
    # the first row's sum overflows when rewardfit centres it, the second's
    # spread when it draws softmaxes; either used to write a non-finite error
    doc = json.loads(Path(paths["bt"]).read_text())
    doc["rewards"] = [row]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    run_doc = base_doc(paths, tmp_path, "rewardfit", comparisons=20, steps=5)
    run_doc["instance"] = str(path)
    assert main(["run", write_config(tmp_path, run_doc)]) == 5
    err = capsys.readouterr().err
    assert "reward row 0 overflows" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
