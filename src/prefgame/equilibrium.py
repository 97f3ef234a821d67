"""Best responses and equilibrium-quality diagnostics.

Two best-response routines cover the two regularization regimes. Without
a KL term the best response concentrates on the argmax of the one-vs-many
win rates (ties split uniformly); with a KL term toward the reference it
is the softmax ref(y) * exp(W(y) / tau), which stays inside the reference
support by construction.

The diagnostics reduce a policy's equilibrium quality to a single number:
the two-player duality gap, and for n players the unilateral-deviation
exploitability against n - 1 copies of the policy. A best response builds
its one-vs-many win table once and keeps it, so exploitability values the
held policy on the same table instead of enumerating the opponents again.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instances import (
    GameInstance, RewardTable, TabularPolicy, _require_count, _softmax_policy
)
from .objectives import (
    Aggregator,
    MEAN_PAIRWISE,
    _player_value,
    closed_form_multi_teacher_optimum,
    expected_win_rates,
    two_player_objective,
)

# Win-rate differences below this count as a tie in the argmax set.
TIE_TOL = 1e-12

# A KL weight tau is 0 or at least this; below it, win rates / tau overflow.
_TAU_MIN = sys.float_info.min


class NegativeGapError(ArithmeticError):
    """A best response scored below the policy it was meant to beat."""


@dataclass(frozen=True, eq=False)
class BestResponseResult:
    """The response, its value, and the padded (P, K) win table it answers."""

    policy: TabularPolicy
    value: float
    win: np.ndarray


def best_response_unregularized(
    instance: GameInstance,
    opponents: Sequence[TabularPolicy],
    aggregator: Aggregator = MEAN_PAIRWISE,
) -> BestResponseResult:
    """Best response with tau = 0, restricted to the reference support."""
    win = expected_win_rates(instance, opponents, aggregator)
    allowed = instance.reference.packed > 0.0
    w = np.where(allowed, win, -np.inf)
    ties = allowed & (w >= w.max(axis=1, keepdims=True) - TIE_TOL)
    # the softmax of zeros over the tie set splits the mass uniformly
    policy = _softmax_policy(
        np.zeros_like(win), ties, instance.space.sizes, "reference support is empty"
    )
    return BestResponseResult(policy, _player_value(policy, win, instance, 0.0), win)


def best_response_kl(
    instance: GameInstance,
    opponents: Sequence[TabularPolicy],
    tau: float,
    aggregator: Aggregator = MEAN_PAIRWISE,
) -> BestResponseResult:
    """Best response with a KL(pi || ref) penalty, tau > 0, in closed form."""
    if not _TAU_MIN <= tau < np.inf:  # NaN fails too
        raise ValueError(f"best_response_kl needs a finite tau >= {_TAU_MIN}, got {tau}")
    win = expected_win_rates(instance, opponents, aggregator)
    rewards = RewardTable._wrap(win, instance.space.sizes)
    policy = closed_form_multi_teacher_optimum(rewards, instance.reference, [], tau, [])
    return BestResponseResult(policy, _player_value(policy, win, instance, tau), win)


def _best_response(instance, opponents, tau, aggregator):
    if tau == 0.0:
        return best_response_unregularized(instance, opponents, aggregator)
    return best_response_kl(instance, opponents, tau, aggregator)


def dual_gap_two_player(
    policy: TabularPolicy, instance: GameInstance, tau: float = 0.0
) -> float:
    """max_p J(p, policy) - min_q J(policy, q), both sides exact.

    The game is symmetric, so the one best response to `policy` is both
    the strongest attacker and the opponent that hurts `policy` most.
    Zero exactly at an equilibrium; 1.0 at a point mass in an unregularized
    cycle, where the counter wins outright.
    """
    br = _best_response(instance, [policy], tau, MEAN_PAIRWISE)
    high = two_player_objective(br.policy, policy, instance, tau)
    low = two_player_objective(policy, br.policy, instance, tau)
    return _clipped_gap(high - low, "duality gap")


def exploitability_multiplayer(
    policy: TabularPolicy,
    n_players: int,
    instance: GameInstance,
    tau: float = 0.0,
    aggregator: Aggregator = MEAN_PAIRWISE,
) -> float:
    """Gain of the best unilateral deviation against n - 1 copies of policy.

    max_dev J(dev, policy, ..., policy) - J(policy, policy, ..., policy),
    clipped at zero. At n = 2 this is the one-sided two-player gap.
    """
    return _exploitability_and_value(policy, n_players, instance, tau, aggregator)[0]


def _exploitability_and_value(
    policy, n_players, instance, tau, aggregator
) -> tuple[float, float]:
    """Exploitability and the held value J(policy, policy, ..., policy).

    Both read the one win table the best response builds; the held value
    equals multiplayer_objective against n - 1 copies of the policy.
    """
    _require_count(n_players, 2, f"need at least two players, n_players={n_players}")
    others = [policy] * (n_players - 1)
    br = _best_response(instance, others, tau, aggregator)
    held = _player_value(policy, br.win, instance, tau)
    return _clipped_gap(br.value - held, "exploitability"), held


def _clipped_gap(gap: float, name: str) -> float:
    # a gap this far below zero is a bug, not rounding
    if gap < -1e-10:
        raise NegativeGapError(f"negative {name} {gap}")
    return max(gap, 0.0)
