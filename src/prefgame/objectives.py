"""Preference objectives over tabular policies.

Win rates, KL terms, the two-player and n-player game values, and the
KL-regularized reward objectives with their closed-form optimum. All
expectations are exact sums; nothing here samples.

The n-player value of a policy against a set of opponents is

    J(pi) = E_x E_{y ~ pi, y_j ~ pi_j} [ P(y beats {y_j} | x) ] - tau * KL(pi || ref)

where the one-vs-many probability P is set by the aggregator: mean of
pairwise oracle wins, or a Plackett-Luce softmax over the pooled rewards.
The Plackett-Luce case needs the full product of opponent supports, so it
is guarded by an enumeration cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instances import (
    GameInstance,
    RewardTable,
    TabularPolicy,
    _raise_at_first,
    _require_sizes,
    _softmax_policy,
)

# Upper bound on exact-enumeration work, in weighted tuples per call.
ENUMERATION_CAP = 10**7


class EnumerationCapExceeded(RuntimeError):
    """Exact enumeration would exceed the configured tuple cap."""

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(
            f"exact enumeration needs {size} weighted tuples, cap is {cap}"
        )


@dataclass(frozen=True)
class Aggregator:
    """How one response is scored against many opponents at once.

    kind "mean_pairwise" averages the pairwise oracle win probabilities;
    kind "plackett_luce" plays the response against the pooled opponent
    draws under a reward softmax and needs a reward table on the instance.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("mean_pairwise", "plackett_luce"):
            raise ValueError(f"unknown aggregator kind {self.kind!r}")


MEAN_PAIRWISE = Aggregator("mean_pairwise")
PLACKETT_LUCE = Aggregator("plackett_luce")


# ---------------------------------------------------------------------------
# elementary quantities


def kl_divergence(
    policy: TabularPolicy, base: TabularPolicy, instance: GameInstance
) -> float:
    """Prompt-averaged KL(policy || base) with the 0 log 0 = 0 convention."""
    _require_sizes(policy, instance.space.sizes, "policy")
    _require_sizes(base, instance.space.sizes, "base policy")
    p, q = policy.packed, base.packed
    on = p > 0.0
    _raise_at_first(on & (q == 0.0), "KL against a zero-probability response")
    terms = p * (np.log(np.where(on, p, 1.0)) - np.log(np.where(on, q, 1.0)))
    return float(instance.prompt_weights @ terms.sum(axis=1))


def _expect(policy: TabularPolicy, table: np.ndarray, instance: GameInstance) -> float:
    """E_x E_{y ~ policy} table[x, y] for a padded (P, K) table."""
    _require_sizes(policy, instance.space.sizes, "policy")
    return float(instance.prompt_weights @ np.einsum("pk,pk->p", policy.packed, table))


# ---------------------------------------------------------------------------
# one-vs-many win tables


def _pl_win_row(
    rewards_row: np.ndarray, opponents_rows: list[np.ndarray]
) -> np.ndarray:
    """W[y] = E_{y_j ~ pi_j} [ e^{r_y} / (e^{r_y} + sum_j e^{r_{y_j}}) ].

    The opponents' joint weights and pooled denominators are flat arrays
    over the product of their live supports, first opponent slowest; each
    response then takes one dot product with them, so memory stays linear
    in the tuple count.
    """
    e = np.exp(rewards_row - rewards_row.max())
    weight = np.ones(1)
    denom = np.zeros(1)
    for row in opponents_rows:
        live = np.flatnonzero(row > 0.0)
        weight = np.multiply.outer(weight, row[live]).ravel()
        denom = np.add.outer(denom, e[live]).ravel()
    return np.array([weight @ (ey / (ey + denom)) for ey in e])


def expected_win_rates(
    instance: GameInstance,
    opponents: Sequence[TabularPolicy],
    aggregator: Aggregator = MEAN_PAIRWISE,
) -> np.ndarray:
    """Padded (P, K) table W[x, y] = one-vs-many win probability of y.

    Entries past a prompt's response count are 0. mean_pairwise
    factorizes into matrix-vector products; plackett_luce enumerates the
    product of opponent supports, bounded by ENUMERATION_CAP as read on
    this call.
    """
    if len(opponents) == 0:
        raise ValueError("need at least one opponent")
    sizes = instance.space.sizes
    for o in opponents:
        _require_sizes(o, sizes, "opponent")
    if aggregator.kind == "mean_pairwise":
        stacked = np.array([o.packed for o in opponents])  # np.stack costs 4 us more
        return np.einsum("pab,npb->pa", instance.preference.packed, stacked) / len(opponents)

    if instance.reward is None:
        raise ValueError("plackett_luce aggregator needs a reward table")
    # Python integers: a product of counts can overflow int64 unnoticed.
    live = [np.count_nonzero(o.packed > 0.0, axis=1).tolist() for o in opponents]
    size = sum(k * math.prod(counts) for k, counts in zip(sizes, zip(*live)))
    if size > ENUMERATION_CAP:
        raise EnumerationCapExceeded(size, ENUMERATION_CAP)
    win = np.zeros(instance.reward.packed.shape)
    for x, k in enumerate(sizes):
        win[x, :k] = _pl_win_row(instance.reward.rows[x], [o.rows[x] for o in opponents])
    return win


# ---------------------------------------------------------------------------
# game values


def two_player_objective(
    first: TabularPolicy,
    second: TabularPolicy,
    instance: GameInstance,
    tau: float = 0.0,
) -> float:
    """Zero-sum-plus-regularization value of `first` against `second`.

    E_x [ P(first beats second) ] - tau KL(first || ref) + tau KL(second || ref).
    Antisymmetric around 1/2: J(p, q) + J(q, p) = 1, and J(p, p) = 1/2.
    """
    total = multiplayer_objective(first, [second], instance, tau)
    if tau != 0.0:
        total += tau * kl_divergence(second, instance.reference, instance)
    return total


def multiplayer_objective(
    policy: TabularPolicy,
    opponents: Sequence[TabularPolicy],
    instance: GameInstance,
    tau: float = 0.0,
    aggregator: Aggregator = MEAN_PAIRWISE,
) -> float:
    """n-player value of `policy` holding the opponents fixed.

    Only the player's own KL penalty appears; opponents' penalties belong
    to their own objectives.
    """
    win = expected_win_rates(instance, opponents, aggregator)
    return _player_value(policy, win, instance, tau)


def _player_value(
    policy: TabularPolicy, win: np.ndarray, instance: GameInstance, tau: float
) -> float:
    """E_x E_{y ~ policy} win[x, y] - tau KL(policy || ref) for a built table."""
    total = _expect(policy, win, instance)
    if tau != 0.0:
        total -= tau * kl_divergence(policy, instance.reference, instance)
    return total


# ---------------------------------------------------------------------------
# reward objectives


def regularized_reward_objective(
    policy: TabularPolicy,
    rewards: RewardTable,
    instance: GameInstance,
    tau: float,
) -> float:
    """E_x E_pi [ r(x, y) ] - tau KL(policy || ref): the teacherless multi-teacher value."""
    return multi_teacher_objective(policy, rewards, instance.reference, [], tau, [], instance)


def multi_teacher_objective(
    policy: TabularPolicy,
    rewards: RewardTable,
    reference: TabularPolicy,
    teachers: Sequence[TabularPolicy],
    tau_ref: float,
    taus: Sequence[float],
    instance: GameInstance,
) -> float:
    """Reward minus a KL anchor to the reference and to each teacher."""
    if len(teachers) != len(taus):
        raise ValueError("need one tau per teacher")
    _require_sizes(rewards, instance.space.sizes, "rewards")
    total = _expect(policy, rewards.packed, instance)
    total -= tau_ref * kl_divergence(policy, reference, instance)
    for teacher, t in zip(teachers, taus):
        total -= t * kl_divergence(policy, teacher, instance)
    return total


def closed_form_multi_teacher_optimum(
    rewards: RewardTable,
    reference: TabularPolicy,
    teachers: Sequence[TabularPolicy],
    tau_ref: float,
    taus: Sequence[float],
) -> TabularPolicy:
    """Exact maximizer of multi_teacher_objective.

    pi*(y) is proportional to exp(r(y)/tau) ref(y)^(tau_ref/tau) times the
    product of teacher(y)^(tau_i/tau) with tau = tau_ref + sum tau_i > 0.
    Anchors with zero coefficient do not constrain the support; any anchor
    with positive coefficient excludes its zero-probability responses, and
    a -inf reward excludes its response.
    """
    if len(teachers) != len(taus):
        raise ValueError("need one tau per teacher")
    if not all(0.0 <= t < math.inf for t in (tau_ref, *taus)):  # NaN fails too
        raise ValueError(f"tau_ref, taus must be nonnegative and finite: {tau_ref}, {taus}")
    tau = tau_ref + sum(taus)
    if tau <= 0.0:
        raise ValueError("need a strictly positive total KL coefficient")

    _require_sizes(rewards, reference.sizes, "rewards")
    with np.errstate(over="ignore", divide="ignore"):
        logit = rewards.packed / tau
        if not logit.max() < np.inf:  # +inf or NaN (max keeps a NaN) would read as no support
            raise ValueError(f"rewards / tau overflows or is NaN at tau {tau}")
        for coeff, anchor in zip((tau_ref, *taus), (reference, *teachers)):
            _require_sizes(anchor, reference.sizes, "teacher")
            if coeff > 0.0:
                logit = logit + (coeff / tau) * np.log(anchor.packed)
    return _softmax_policy(
        logit, np.isfinite(logit), reference.sizes, "anchors share no support"
    )
