"""Experiment harness: configs, named RNG streams, end-to-end runs.

A run is described by one flat JSON config:

    mode        one of selfplay | lossmin | presets | rewardfit | gap
    instance    path to an instance file
    out_dir     directory for output files (created if missing)
    seed        root seed for every stream, an integer >= 0, default 0

plus mode-specific keys (defaults in brackets):

    selfplay    eta, iterations, n_players [2], tau [0.0] (anchors each step
                to the reference; eta * tau <= 1), metric_stride [1],
                opponent_scheme [self_play_copies], history_weights [null]
                (history_window only), aggregator [mean_pairwise] (the
                step's win table and the gap's)
    lossmin     eta, n_players [2], steps [4000], step_size [0.5],
                inits [3]
    presets     samples [1000] (pairs drawn on the reference support)
    rewardfit   comparisons, pool_size [2], steps [300], step_size [2.0]
    gap         policy ["uniform" or a policy file path], tau [0.0],
                n_players [2], aggregator [mean_pairwise]

Unknown or missing keys, numeric values out of range (an integer too
large for a float too), and an out_dir that cannot be created (empty, a
file, under a file, or holding a NUL byte) or that holds a directory
under an output's name (checked before the run writes anything) raise
ConfigError naming the key. A rewardfit, presets or plackett_luce run on
an instance without a reward table raises ValidationFailure before it
makes out_dir. The ranges: eta and step_size finite and > 0, and
lossmin's step_size >= 1e-18, the descent's stop floor; tau 0 or finite
and >= the smallest normal float; n_players >= 2; iterations and steps
>= 0; inits, metric_stride, samples, comparisons and pool_size >= 1;
history_weights a distribution, one weight per opponent slot. Reruns
with an identical config write byte-identical files: every random draw
flows from the root seed through named streams, floats are formatted the
same way every time, and wall-clock timing is never written.

Outputs per mode:

    selfplay    metrics.csv, policy_final.json, policy_average.json
    lossmin     descent.csv (trace of the first init), report.json
    presets     presets.csv (name, max_abs_deviation)
    rewardfit   rankings.csv, fitted.json, report.json
    gap         gap.json
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import zlib

import numpy as np

from .instances import (
    GameInstance,
    TabularPolicy,
    _Record,
    _number,
    _policy_violations,
    _read_json,
    _require_count,
    _require_int,
    _write_csv,
    load_instance,
    load_policy,
    policy_in_support,
    save_policy,
    uniform_policy,
    validate_instance,
)
from .losses import (
    PRESET_NAMES,
    PolicyLogits,
    UpdateMatchingProblem,
    _STEP_FLOOR,
    minimize_loss,
    pair_margin_loss,
    preset,
)
from .objectives import Aggregator, MEAN_PAIRWISE, PLACKETT_LUCE
from .equilibrium import _TAU_MIN, exploitability_multiplayer
from .solvers import OPPONENT_SCHEMES, SolverConfig, mwu_step, self_play_run
from .reward_learning import (
    _center,
    _pool_shortfall,
    fit_pl_reward,
    generate_rankings,
    rankings_to_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_FILE = 3
EXIT_INVALID = 5

MODES = ("selfplay", "lossmin", "presets", "rewardfit", "gap")

_AGGREGATORS = {"mean_pairwise": MEAN_PAIRWISE, "plackett_luce": PLACKETT_LUCE}


class ConfigError(ValueError):
    """A config violates the schema; the message names the offending key."""


@contextlib.contextmanager
def _sized_by(key: str):
    """Report a count too large to allocate for as a ConfigError naming `key`."""
    try:
        yield
    except (MemoryError, OverflowError) as err:
        raise ConfigError(f"key {key!r} is too large: {str(err) or 'out of memory'}") from err


class ValidationFailure(ValueError):
    """An instance or policy fails value-level validation."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("validation failed:\n  " + "\n  ".join(self.problems))


def derive_rng(seed: int, *names: str) -> np.random.Generator:
    """Named child stream of one root seed.

    Streams with different names are independent; the same (seed, names)
    always yields the same stream. Names hash through crc32, so the
    derivation is stable across runs and platforms.
    """
    seed = _require_int(seed, f"seed must be an integer, got {seed!r}")
    keys = tuple(zlib.crc32(n.encode("utf-8")) for n in names)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=keys))


# ---------------------------------------------------------------------------
# config schema


def _integer(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError("expected an integer")
    return int(v)


def _string(v) -> str:
    if not isinstance(v, str):
        raise TypeError("expected a string")
    return v


def _choice(options):
    def check(v):
        if v not in options:
            raise TypeError(f"expected one of {', '.join(options)}")
        return v

    return check


def _bounded(coerce, low, strict=False):
    """coerce, then require a finite value >= low (> low when strict)."""
    sign = ">" if strict else ">="

    def check(v):
        v = coerce(v)
        if not (v > low if strict else v >= low) or v == math.inf:
            raise ValueError(f"expected a finite value {sign} {low}, got {v}")
        return v

    return check


def _tau(v) -> float:
    """A KL weight: 0, or finite and >= _TAU_MIN, as SolverConfig requires."""
    v = _bounded(_number, 0)(v)
    if 0.0 < v < _TAU_MIN:
        raise ValueError(f"expected a finite value >= {_TAU_MIN} or 0, got {v}")
    return v


def _weights_or_null(v):
    if v is None:
        return None
    if not isinstance(v, list) or len(v) == 0:
        raise TypeError("expected null or a nonempty list of numbers")
    return tuple(_number(w) for w in v)


_REQUIRED = object()

# keys every mode takes: key -> (coercion, default); the caller has
# checked that the keys without a default are present
_COMMON = {
    "instance": (_string, None),
    "out_dir": (_string, None),
    "seed": (_bounded(_integer, 0), 0),
}

# key -> (coercion, default); _REQUIRED means the mode insists on the key
_SCHEMAS = {
    "selfplay": {
        "eta": (_bounded(_number, 0, strict=True), _REQUIRED),
        "iterations": (_bounded(_integer, 0), _REQUIRED),
        "n_players": (_bounded(_integer, 2), 2),
        "tau": (_tau, 0.0),
        "metric_stride": (_bounded(_integer, 1), 1),
        "opponent_scheme": (_choice(OPPONENT_SCHEMES), "self_play_copies"),
        "history_weights": (_weights_or_null, None),
        "aggregator": (_choice(tuple(_AGGREGATORS)), "mean_pairwise"),
    },
    "lossmin": {
        "eta": (_bounded(_number, 0, strict=True), _REQUIRED),
        "n_players": (_bounded(_integer, 2), 2),
        "steps": (_bounded(_integer, 0), 4000),
        "step_size": (_bounded(_number, _STEP_FLOOR), 0.5),
        "inits": (_bounded(_integer, 1), 3),
    },
    "presets": {
        "samples": (_bounded(_integer, 1), 1000),
    },
    "rewardfit": {
        "comparisons": (_bounded(_integer, 1), _REQUIRED),
        "pool_size": (_bounded(_integer, 1), 2),
        "steps": (_bounded(_integer, 0), 300),
        "step_size": (_bounded(_number, 0, strict=True), 2.0),
    },
    "gap": {
        "policy": (_string, "uniform"),
        "tau": (_tau, 0.0),
        "n_players": (_bounded(_integer, 2), 2),
        "aggregator": (_choice(tuple(_AGGREGATORS)), "mean_pairwise"),
    },
}


def _require_mode(mode) -> None:
    if mode not in MODES:
        raise ConfigError(f"key 'mode' must be one of {', '.join(MODES)}, got {mode!r}")


class ExperimentConfig(_Record):
    mode: str
    instance: str
    out_dir: str
    seed: int
    params: dict

    def __post_init__(self):
        _require_mode(self.mode)


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate a config file against the flat schema."""
    try:
        doc = _read_json(path)
    except ValueError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from err
    return config_from_dict(doc)


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("mode", "instance", "out_dir"):
        if key not in doc:
            raise ConfigError(f"missing required key '{key}'")
    mode = doc["mode"]
    _require_mode(mode)
    schema = _SCHEMAS[mode]

    for key in doc:
        if key != "mode" and key not in _COMMON and key not in schema:
            raise ConfigError(f"unknown key '{key}' for mode '{mode}'")

    values = {}
    for key, (coerce, default) in _COMMON.items():
        try:
            values[key] = coerce(doc.get(key, default))
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"bad value for common key '{key}': {err}") from err

    params = {}
    for key, (coerce, default) in schema.items():
        if key not in doc:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key '{key}' for mode '{mode}'")
            params[key] = default
            continue
        try:
            params[key] = coerce(doc[key])
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"bad value for key '{key}': {err}") from err
    return ExperimentConfig(mode, params=params, **values)


# ---------------------------------------------------------------------------
# output helpers


def _write_json(doc, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _require_file(path, what: str) -> None:
    """FileNotFoundError unless `path` exists and is not a directory."""
    if os.path.isdir(path):
        raise FileNotFoundError(f"{what} path is a directory, not a file: {path}")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} file not found: {path}")


def _read_checked(path, what: str, load):
    """load(path) for an existing file; a ValueError becomes a ValidationFailure."""
    _require_file(path, what)
    try:
        return load(path)
    except ValueError as err:  # includes json.JSONDecodeError
        raise ValidationFailure([f"cannot read {what} {path}: {err}"]) from err


def _load_checked_instance(path) -> GameInstance:
    instance = _read_checked(path, "instance", load_instance)
    problems = validate_instance(instance)
    if problems:
        raise ValidationFailure(problems)
    return instance


def _random_interior_policy(rng, sizes) -> TabularPolicy:
    """Random policy bounded away from the simplex boundary."""
    packed = np.zeros((len(sizes), max(sizes)))
    for x, k in enumerate(sizes):
        row = rng.random(k) + 0.05
        packed[x, :k] = row / row.sum()
    return TabularPolicy._wrap(packed, sizes)


# ---------------------------------------------------------------------------
# preset cross-check against hand-written formulas


def _softplus(x: float) -> float:
    return float(np.logaddexp(0.0, x))


def _log_ratio(policy: TabularPolicy, x: int, a: int, b: int) -> float:
    row = policy.rows[x]
    return math.log(row[a]) - math.log(row[b])


def _direct_formula(
    name, instance, policy, prev, x, a, b, eta, tau, beta
) -> float:
    """The published per-pair loss of each preset, written out by hand.

    Independent of the generic family evaluator on purpose: agreement of
    the two implementations is the point of compare_presets.
    """
    ref = instance.reference
    if name == "dpo":
        m = _log_ratio(policy, x, a, b) - _log_ratio(ref, x, a, b)
        return _softplus(-beta * m)
    if name == "distill_dpo":
        m = _log_ratio(policy, x, a, b) - _log_ratio(ref, x, a, b)
        r = instance.reward.rows[x]
        return (m - (r[a] - r[b])) ** 2
    if name == "simpo":
        return _softplus(-beta * _log_ratio(policy, x, a, b))
    if name in ("dno", "spin"):
        m = _log_ratio(policy, x, a, b) - _log_ratio(prev, x, a, b)
        return _softplus(-beta * m)
    if name == "sppo":
        m = _log_ratio(policy, x, a, b) - _log_ratio(prev, x, a, b)
        w = instance.preference.matrices[x] @ prev.rows[x]
        return (m - eta * (w[a] - w[b])) ** 2
    if name == "ipo":
        m = _log_ratio(policy, x, a, b) - _log_ratio(ref, x, a, b)
        return (m - 1.0 / (2.0 * tau)) ** 2
    if name == "inpo":
        m = (
            _log_ratio(policy, x, a, b)
            - ((eta - tau) / eta) * _log_ratio(prev, x, a, b)
            - (tau / eta) * _log_ratio(ref, x, a, b)
        )
        return (m - 1.0 / (2.0 * tau)) ** 2
    raise ValueError(f"unknown preset {name!r}")


def _draw_hypers(name, rng) -> tuple[float, float, float]:
    """(eta, tau, beta) for one comparison draw; unused slots stay at 1."""
    eta, tau, beta = 1.0, 1.0, 1.0
    if name in ("dpo", "simpo", "dno", "spin"):
        beta = rng.uniform(0.5, 3.0)
    elif name == "sppo":
        eta = rng.uniform(0.2, 2.0)
    elif name == "ipo":
        tau = rng.uniform(0.1, 1.0)
    elif name == "inpo":
        eta = rng.uniform(0.2, 2.0)
        tau = rng.uniform(0.1, 0.9) * eta
    return eta, tau, beta


def compare_presets(
    instance: GameInstance, samples: int = 1000, seed: int = 0
) -> dict[str, float]:
    """Max |generic family loss - hand-written preset formula| per preset.

    Each sample draws fresh interior policies, a prompt, an ordered pair of
    responses on the reference support (four presets take log ref of both)
    and fresh hyperparameters, then evaluates the family member on that
    pair against the published formula. Every preset gets its own named
    stream from the seed. A missing reward table, a weighted prompt with
    fewer than two supported responses, or a loss that overflows (a reward
    gap past about 1e154 squares to inf) raises ValidationFailure.
    """
    _require_count(samples, 1, f"need at least one sample, got samples={samples}")
    sizes = instance.space.sizes
    if instance.reward is None:
        raise ValidationFailure(["compare_presets needs an instance with a reward table"])
    support = [np.flatnonzero(row > 0.0) for row in instance.reference.rows]
    thin = [x for x, s in enumerate(support) if len(s) < 2 and instance.prompt_weights[x] > 0.0]
    if thin:
        raise ValidationFailure([f"prompts {thin} have under two reference-supported responses"])
    out = {}
    try:
        with np.errstate(over="raise", invalid="raise"):
            for name in PRESET_NAMES:
                rng = derive_rng(seed, "presets", name)
                worst = 0.0
                for _ in range(samples):
                    policy = _random_interior_policy(rng, sizes)
                    prev = _random_interior_policy(rng, sizes)
                    x = int(rng.choice(instance.num_prompts, p=instance.prompt_weights))
                    a, b = (int(v) for v in rng.choice(support[x], size=2, replace=False))
                    eta, tau, beta = _draw_hypers(name, rng)
                    cfg = preset(name, eta, tau, beta)
                    generic = pair_margin_loss(policy, [prev], cfg, instance, data=[(x, a, b)])
                    direct = _direct_formula(
                        name, instance, policy, prev, x, a, b, eta, tau, beta
                    )
                    worst = max(worst, abs(generic - direct))
                out[name] = worst
    except (FloatingPointError, OverflowError) as err:  # numpy's and float's
        raise ValidationFailure([f"preset {name!r} overflows on this instance: {err}"]) from None
    return out


# ---------------------------------------------------------------------------
# mode runners


def _run_selfplay(instance, config: ExperimentConfig, metrics, final, average) -> dict:
    p = config.params
    # the schema's keys are SolverConfig's fields; it checks eta * tau and the weights
    try:
        solver = SolverConfig(**{**p, "aggregator": _AGGREGATORS[p["aggregator"]]})
    except ValueError as err:  # each message opens with its key, the weights' in words
        key = next((k for k in p if str(err).startswith(k)), "history_weights")
        raise ConfigError(f"bad value for key '{key}': {err}") from err
    with _sized_by("n_players"):
        result = self_play_run(instance, solver)
    result.log.to_csv(metrics)
    save_policy(result.final, final)
    save_policy(result.average, average)
    last = result.log.records[-1]
    return {
        "final_gap": float(last.gap),
        "final_kl_ref": float(last.kl_ref),
        "iterations": last.iteration,
    }


def _run_lossmin(instance, config: ExperimentConfig, descent, report_path) -> dict:
    p = config.params
    current = instance.reference
    with _sized_by("n_players"):
        opponents = [current] * (p["n_players"] - 1)
    closed = mwu_step(opponents, instance, p["eta"])
    problem = UpdateMatchingProblem(instance, current, opponents, p["eta"])
    z0s = []
    for i in range(p["inits"]):
        rng = derive_rng(config.seed, "lossmin", f"init{i}")
        z0s.append(PolicyLogits(tuple(rng.standard_normal(k) for k in instance.space.sizes)))
    rows = []
    try:
        results = minimize_loss(
            problem, z0s, steps=p["steps"], step_size=p["step_size"],
            trace=lambda s, v, g: rows.append((s, v, g)),
        )
    except ValueError as err:  # the schema has checked steps and step_size
        raise ConfigError(f"bad value for key 'eta': {err}") from err
    reports = [
        {
            "init": i,
            "final_loss": res.loss,
            "grad_max": res.grad_max,
            "steps_taken": res.steps_taken,
            "max_abs_gap_to_update": float(np.max(np.abs(res.policy.packed - closed.packed))),
        }
        for i, res in enumerate(results)
    ]
    _write_csv(descent, ["step", "loss", "grad_norm"],
               ([s, f"{v:.12g}", f"{g:.12g}"] for s, v, g in rows))
    worst = max(r["max_abs_gap_to_update"] for r in reports)
    _write_json(
        {"eta": p["eta"], "inits": reports, "worst_gap_to_update": worst},
        report_path,
    )
    return {"worst_gap_to_update": worst}


def _run_presets(instance, config: ExperimentConfig, path) -> dict:
    table = compare_presets(instance, config.params["samples"], config.seed)
    _write_csv(path, ["name", "max_abs_deviation"],
               ([name, f"{dev:.17g}"] for name, dev in table.items()))
    return {"max_deviation": max(table.values())}


def _run_rewardfit(
    instance, config: ExperimentConfig, rankings, fitted_path, report_path
) -> dict:
    p = config.params
    short = _pool_shortfall(instance, p["pool_size"])
    if short is not None:
        raise ConfigError(f"key 'pool_size' is too large: {short}")
    rng = derive_rng(config.seed, "rewardfit")
    with _sized_by("comparisons"):
        data = generate_rankings(
            instance.reward, instance, p["comparisons"], p["pool_size"], rng
        )
    rankings_to_csv(data, rankings)
    try:
        fit = fit_pl_reward(
            data, instance, steps=p["steps"], step_size=p["step_size"]
        )
    except FloatingPointError as err:  # the step overshoots to inf or NaN
        raise ConfigError(f"key 'step_size' is too large for the data: {err}") from err
    _write_json({"rows": [r.tolist() for r in fit.rewards.rows]}, fitted_path)
    true = _center(instance.reward.packed.copy(), instance.space.sizes)
    err = float(np.max(np.abs(fit.rewards.packed - true)))
    _write_json(
        {
            "comparisons": p["comparisons"],
            "converged": fit.converged,
            "final_nll": fit.final_nll,
            "grad_norm": fit.grad_norm,
            "max_abs_error": err,
            "steps_taken": fit.steps_taken,
        },
        report_path,
    )
    return {"max_abs_error": err}


def gap_report(
    instance: GameInstance,
    policy_spec: str,
    tau: float = 0.0,
    n_players: int = 2,
    aggregator: Aggregator = MEAN_PAIRWISE,
) -> dict:
    """Exploitability of a policy given as "uniform" or a policy file path.

    `aggregator` is an Aggregator record, MEAN_PAIRWISE or PLACKETT_LUCE, as
    in exploitability_multiplayer; gap.json names its kind. Adds the duality
    gap, twice the exploitability, when the game is the plain two-player
    pairwise one. The policy must be valid and live on the reference support,
    else ValidationFailure.
    """
    if policy_spec == "uniform":
        policy = uniform_policy(instance.space)
    else:
        policy = _read_checked(policy_spec, "policy", load_policy)
    problems = _policy_violations(policy, "policy")
    if problems:
        raise ValidationFailure(problems)
    try:
        policy_in_support(policy, instance.reference)
    except ValueError as err:  # a SupportViolation, or rows of other lengths
        raise ValidationFailure([str(err)]) from err

    with _sized_by("n_players"):
        expl = float(exploitability_multiplayer(policy, n_players, instance, tau, aggregator))
    doc = {
        "aggregator": aggregator.kind,
        "exploitability": expl,
        "n_players": n_players,
        "policy": policy_spec,
        "tau": tau,
    }
    if n_players == 2 and aggregator.kind == "mean_pairwise":
        doc["dual_gap"] = 2.0 * expl
    return doc


def _run_gap(instance, config: ExperimentConfig, path) -> dict:
    p = config.params
    doc = gap_report(
        instance, p["policy"], p["tau"], p["n_players"], _AGGREGATORS[p["aggregator"]]
    )
    _write_json(doc, path)
    return {"exploitability": doc["exploitability"]}


# mode -> (runner, output file names): the runner takes the outputs' paths
# after the instance and the config, in this order
_RUNNERS = {
    "selfplay": (_run_selfplay, ("metrics.csv", "policy_final.json", "policy_average.json")),
    "lossmin": (_run_lossmin, ("descent.csv", "report.json")),
    "presets": (_run_presets, ("presets.csv",)),
    "rewardfit": (_run_rewardfit, ("rankings.csv", "fitted.json", "report.json")),
    "gap": (_run_gap, ("gap.json",)),
}


def run_experiment(config) -> dict:
    """Run one experiment to completion; returns a summary dict.

    `config` is an ExperimentConfig or a path to a config file. Outputs
    land in the config's out_dir; rerunning with an identical config
    rewrites them byte for byte.
    """
    if not isinstance(config, ExperimentConfig):
        _require_file(config, "config")
        config = load_config(config)
    instance = _load_checked_instance(config.instance)
    pooled = config.params.get("aggregator") == "plackett_luce"
    if instance.reward is None and (pooled or config.mode in ("presets", "rewardfit")):
        uses = " with aggregator 'plackett_luce'" if pooled else ""
        raise ValidationFailure([f"mode {config.mode!r}{uses} needs a reward table"])
    if config.mode == "rewardfit":  # it centres each reward row and draws softmaxes of it
        with np.errstate(over="ignore", invalid="ignore"):
            spread = np.ptp(instance.reward.packed, axis=1)
            centred = _center(instance.reward.packed.copy(), instance.space.sizes)
        wide = np.flatnonzero(~(np.isfinite(spread) & np.isfinite(centred).all(axis=1)))
        if wide.size:
            raise ValidationFailure(
                [f"reward row {x} overflows: its mean or spread passes the float limit"
                 for x in wide.tolist()]
            )
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except (FileExistsError, FileNotFoundError, NotADirectoryError, ValueError) as err:
        reason = err.strerror if isinstance(err, OSError) else err  # ValueError: a NUL byte
        raise ConfigError(f"bad value for key 'out_dir': {config.out_dir!r}: {reason}") from err
    runner, names = _RUNNERS[config.mode]
    outputs = [os.path.join(config.out_dir, name) for name in names]
    for path in outputs:  # before the run, so that a taken name stops it writing anything
        if os.path.isdir(path):
            raise ConfigError(f"bad value for key 'out_dir': {path!r}: Is a directory")
    try:
        summary = runner(instance, config, *outputs)
    except IsADirectoryError as err:  # inputs are checked files: an output name is taken
        raise ConfigError(
            f"bad value for key 'out_dir': {err.filename!r}: {err.strerror}"
        ) from err
    return {**summary, "mode": config.mode, "outputs": outputs}
