"""Multiplicative-weights self-play, anchored to the reference.

One update step maps n - 1 opponent policies to the next iterate,

    pi'(y)  proportional to  exp(eta W(y)) ref(y)^(eta tau) prod_j pi_j(y)^((1 - eta tau) w_j),

the closed-form multi-anchor optimum of objectives with the win table W
as reward, so it needs eta * tau <= 1; tau = 0 is plain multiplicative
weights. Weights are uniform, w_j = 1/(n - 1), unless given. The
aggregator sets W: mean_pairwise weights the pairwise win rates by w,
plackett_luce draws the opponents as one joint pool and w weights only
their anchors. Mass stays on the reference support.

self_play_run iterates this from the reference along one shared
trajectory (every player is the same policy) and tracks the uniformly
averaged iterate; metrics in the run log describe that average. At
tau = 0 the average converges while the last iterate drifts away; at
tau > 0 the last iterate converges too. The loop is exact and needs no
randomness.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .equilibrium import _TAU_MIN, _exploitability_and_value
from .instances import (
    GameInstance, RewardTable, TabularPolicy, _Record, _mixture_weights,
    _require_count, _require_positive, _require_sizes, _write_csv,
)
from .objectives import (
    Aggregator, MEAN_PAIRWISE, _require_aggregator, closed_form_multi_teacher_optimum,
    expected_win_rates, kl_divergence,
)

OPPONENT_SCHEMES = ("self_play_copies", "history_window")

_RUN_LOG_HEADER = ["iter", "gap", "kl_ref", "self_play_value", "elapsed_ms"]


class SolverConfig(_Record, eq=False):
    """Everything a self-play run depends on.

    history_weights go only with the history_window scheme, one per
    opponent slot, and must be a distribution over the window.
    """

    eta: float
    iterations: int
    n_players: int = 2
    tau: float = 0.0
    opponent_scheme: str = "self_play_copies"
    history_weights: tuple[float, ...] | None = None
    aggregator: Aggregator = MEAN_PAIRWISE
    metric_stride: int = 1

    def __post_init__(self):
        _require_positive(self.eta, f"eta must be positive and finite, got {self.eta}")
        for name, low in (("iterations", 0), ("n_players", 2), ("metric_stride", 1)):
            value = getattr(self, name)
            _require_count(value, low, f"{name} must be an integer >= {low}, got {value}")
        if not (self.tau == 0.0 or _TAU_MIN <= self.tau < np.inf):  # NaN fails too
            raise ValueError(f"tau must be 0 or finite and >= {_TAU_MIN}, got {self.tau}")
        if 1.0 - self.eta * self.tau < 0.0:  # mwu_step's KL weight on the opponents
            raise ValueError(f"tau must be at most 1/eta, got {self.tau} at eta {self.eta}")
        if self.opponent_scheme not in OPPONENT_SCHEMES:
            raise ValueError(f"unknown opponent scheme {self.opponent_scheme!r}")
        if self.history_weights is not None:
            if self.opponent_scheme != "history_window":
                raise ValueError("history weights go only with the history_window scheme")
            _mixture_weights(self.history_weights, self.n_players - 1, "history")


class RunRecord(_Record):
    iteration: int
    gap: float
    kl_ref: float
    self_play_value: float


class RunLog(_Record):
    """Metric rows recorded along a run, strictly increasing in iteration."""

    records: tuple[RunRecord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        iters = [r.iteration for r in self.records]
        if any(b <= a for a, b in zip(iters, iters[1:])):
            raise ValueError("iteration indices must strictly increase")
        for r in self.records:
            for name in ("gap", "kl_ref", "self_play_value"):
                if not np.isfinite(getattr(r, name)):
                    raise ValueError(f"non-finite {name} at iteration {r.iteration}")

    def to_csv(self, path) -> None:
        """Write rows with 12 significant digits; elapsed_ms always reads 0."""
        _write_csv(path, _RUN_LOG_HEADER, (
            [r.iteration] + [f"{v:.12g}" for v in (r.gap, r.kl_ref, r.self_play_value, 0.0)]
            for r in self.records
        ))


class SelfPlayResult(_Record, eq=False):
    final: TabularPolicy
    average: TabularPolicy
    log: RunLog


def mwu_step(
    opponents: Sequence[TabularPolicy],
    instance: GameInstance,
    eta: float,
    weights: Sequence[float] | None = None,
    tau: float = 0.0,
    aggregator: Aggregator = MEAN_PAIRWISE,
) -> TabularPolicy:
    """One reference-anchored multiplicative-weights update against fixed opponents."""
    if len(opponents) == 0:
        raise ValueError("need at least one opponent")
    _require_positive(eta, f"eta must be positive and finite, got {eta}")
    w = _mixture_weights(weights, len(opponents), "opponent").tolist()
    sizes = instance.space.sizes
    for opp in opponents:
        _require_sizes(opp, sizes, "opponent")
    _require_aggregator(aggregator)
    pool = opponents  # plackett_luce draws the pool jointly: w weights its anchors only
    if aggregator.kind == "mean_pairwise":  # sum_j w_j M pi_j = M (sum_j w_j pi_j)
        terms = [wj * o.packed for wj, o in zip(w, opponents)]
        pool = [TabularPolicy._wrap(sum(terms[1:], terms[0]), sizes)]  # not from 0: a pass less
    win = eta * expected_win_rates(instance, pool, aggregator)
    # -inf off the reference support: a never-winning response gets no mass
    rewards = RewardTable._wrap(np.where(instance.reference.packed > 0.0, win, -np.inf), sizes)
    return closed_form_multi_teacher_optimum(
        rewards, instance.reference, opponents, eta * tau,
        [(1.0 - eta * tau) * wj for wj in w],
    )


def _metrics(avg, instance, config, iteration) -> RunRecord:
    gap, value = _exploitability_and_value(
        avg, config.n_players, instance, config.tau, config.aggregator
    )
    kl = kl_divergence(avg, instance.reference, instance)
    return RunRecord(iteration, gap, kl, value)


def self_play_run(instance: GameInstance, config: SolverConfig) -> SelfPlayResult:
    """Iterate mwu_step from the reference along one shared trajectory.

    self_play_copies pits the current iterate against n - 1 copies of
    itself; history_window uses the last n - 1 iterates (the window is
    padded with the start while shorter than that). Metrics are recorded
    for the running average at iteration 0, every metric_stride steps,
    and at the end.
    """
    current = instance.reference
    sizes = instance.space.sizes
    mean = current.packed.copy()  # running mean of the iterates
    window: list[TabularPolicy] = [current]

    records = [_metrics(current, instance, config, 0)]
    for t in range(1, config.iterations + 1):
        if config.opponent_scheme == "self_play_copies":
            opponents = [current] * (config.n_players - 1)
        else:
            opponents = [
                window[max(len(window) - 1 - j, 0)]
                for j in range(config.n_players - 1)
            ]
        current = mwu_step(
            opponents, instance, config.eta, config.history_weights, config.tau,
            config.aggregator,
        )
        window = window[1 - config.n_players:] + [current]
        mean += (current.packed - mean) / (t + 1)
        if t % config.metric_stride == 0 or t == config.iterations:
            avg = TabularPolicy._wrap(mean / mean.sum(axis=1, keepdims=True), sizes)
            records.append(_metrics(avg, instance, config, t))

    average = TabularPolicy._wrap(mean / mean.sum(axis=1, keepdims=True), sizes)
    return SelfPlayResult(current, average, RunLog(tuple(records)))
