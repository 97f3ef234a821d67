"""Multiplicative-weights self-play.

One update step maps n - 1 opponent policies to the next iterate:

    pi'(y)  proportional to  prod_j pi_j(y)^(w_j) * exp(eta * sum_j w_j P(y beats pi_j))

with uniform weights w_j = 1/(n - 1) unless told otherwise. The update
always uses pairwise oracle win rates and is computed in log space, then
renormalized over the reference support; a response survives only if every
opponent and the reference give it positive probability.

self_play_run iterates this from the reference policy along one shared
trajectory (every player is the same policy) and tracks the uniformly
averaged iterate, which is the object that actually converges; metrics in
the run log describe that average. The loop itself is exact and needs no
randomness.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .equilibrium import _TAU_MIN, _exploitability_and_value
from .instances import (
    NORMALIZATION_TOL, GameInstance, TabularPolicy, _mixture_weights, _require_count,
    _require_sizes, _softmax_policy,
)
from .objectives import Aggregator, MEAN_PAIRWISE, kl_divergence

OPPONENT_SCHEMES = ("self_play_copies", "history_window")


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Everything a self-play run depends on.

    history_weights only matter for the history_window scheme; they are
    renormalized to a proper mixture over the window.
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
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        for name, low in (("iterations", 0), ("n_players", 2), ("metric_stride", 1)):
            value = getattr(self, name)
            _require_count(value, low, f"{name} must be an integer >= {low}, got {value}")
        if not (self.tau == 0.0 or _TAU_MIN <= self.tau < np.inf):  # NaN fails too
            raise ValueError(f"tau must be 0 or finite and >= {_TAU_MIN}, got {self.tau}")
        if self.opponent_scheme not in OPPONENT_SCHEMES:
            raise ValueError(f"unknown opponent scheme {self.opponent_scheme!r}")
        if self.history_weights is not None:
            w = np.asarray(self.history_weights, dtype=np.float64)
            if len(w) != self.n_players - 1:
                raise ValueError("need one history weight per opponent slot")
            if not np.all((w >= 0.0) & (w <= 1.0)):  # NaN fails too
                raise ValueError("history weights must lie in [0, 1]")
            if w.sum() > 1.0 + NORMALIZATION_TOL or w.sum() <= 0.0:
                raise ValueError("history weights must sum into (0, 1]")


@dataclass(frozen=True)
class RunRecord:
    iteration: int
    gap: float
    kl_ref: float
    self_play_value: float


@dataclass(frozen=True)
class RunLog:
    """Metric rows recorded along a run, strictly increasing in iteration."""

    records: tuple[RunRecord, ...] = field(default_factory=tuple)

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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["iter", "gap", "kl_ref", "self_play_value", "elapsed_ms"])
            for r in self.records:
                values = (r.gap, r.kl_ref, r.self_play_value, 0.0)
                writer.writerow([r.iteration] + [f"{v:.12g}" for v in values])

    @staticmethod
    def from_csv(path) -> "RunLog":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["iter", "gap", "kl_ref", "self_play_value", "elapsed_ms"]:
                raise ValueError(f"unexpected run-log header {header}")
            records = tuple(
                RunRecord(int(row[0]), *(float(v) for v in row[1:4]))
                for row in reader
            )
        return RunLog(records)


@dataclass(frozen=True, eq=False)
class SelfPlayResult:
    final: TabularPolicy
    average: TabularPolicy
    log: RunLog


def mwu_step(
    opponents: Sequence[TabularPolicy],
    instance: GameInstance,
    eta: float,
    weights: Sequence[float] | None = None,
) -> TabularPolicy:
    """One multiplicative-weights update against fixed opponents."""
    if len(opponents) == 0:
        raise ValueError("need at least one opponent")
    if not (np.isfinite(eta) and eta > 0.0):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    w = _mixture_weights(weights, len(opponents), "opponent")
    for opp in opponents:
        _require_sizes(opp, instance.space.sizes, "opponent")
    m = instance.preference.packed
    logit = np.zeros(m.shape[:2])
    with np.errstate(divide="ignore"):
        for wj, opp in zip(w, opponents):
            if wj == 0.0:
                continue  # 0 * log 0 would poison the row with NaN
            logit = logit + wj * np.log(opp.packed)
            logit = logit + eta * wj * np.einsum("pab,pb->pa", m, opp.packed)
    return _softmax_policy(
        logit,
        instance.reference.packed > 0.0,
        instance.space.sizes,
        "no response survives in every opponent's support",
    )


def average_policy(
    policies: Sequence[TabularPolicy], weights: Sequence[float] | None = None
) -> TabularPolicy:
    """Arithmetic mixture of policies, uniform unless weighted."""
    if len(policies) == 0:
        raise ValueError("nothing to average")
    w = _mixture_weights(weights, len(policies), "averaging")
    sizes = policies[0].sizes
    mix = np.zeros(policies[0].packed.shape)
    for wj, p in zip(w, policies):
        _require_sizes(p, sizes, "policy")
        mix = mix + wj * p.packed
    return TabularPolicy._wrap(mix / mix.sum(axis=1, keepdims=True), sizes)


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
    seen = 1
    window: list[TabularPolicy] = [current]
    weights = None
    if config.opponent_scheme != "self_play_copies" and config.history_weights is not None:
        weights = np.asarray(config.history_weights, dtype=np.float64)
        weights = weights / weights.sum()

    records = [_metrics(current, instance, config, 0)]
    for t in range(1, config.iterations + 1):
        if config.opponent_scheme == "self_play_copies":
            opponents = [current] * (config.n_players - 1)
        else:
            opponents = [
                window[max(len(window) - 1 - j, 0)]
                for j in range(config.n_players - 1)
            ]
        current = mwu_step(opponents, instance, config.eta, weights)
        window.append(current)
        if len(window) > config.n_players:
            window.pop(0)

        seen += 1
        mean += (current.packed - mean) / seen
        if t % config.metric_stride == 0 or t == config.iterations:
            avg = TabularPolicy._wrap(mean / mean.sum(axis=1, keepdims=True), sizes)
            records.append(_metrics(avg, instance, config, t))

    average = TabularPolicy._wrap(mean / mean.sum(axis=1, keepdims=True), sizes)
    return SelfPlayResult(current, average, RunLog(tuple(records)))
