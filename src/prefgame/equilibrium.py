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
from typing import Sequence

import numpy as np

from .instances import GameInstance, RewardTable, TabularPolicy, _Record, _require_count
from .objectives import (
    Aggregator,
    MEAN_PAIRWISE,
    _player_value,
    closed_form_multi_teacher_optimum,
    expected_win_rates,
)

# Win-rate differences below this count as a tie in the argmax set.
TIE_TOL = 1e-12

# A KL weight tau is 0 or at least this; below it, win rates / tau overflow.
_TAU_MIN = sys.float_info.min


class NegativeGapError(ArithmeticError):
    """A best response scored below the policy it was meant to beat."""


class BestResponseResult(_Record, eq=False):
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
    count = ties.sum(axis=1, keepdims=True)
    if not count.all():
        raise ValueError(f"prompt {int(np.argmin(count))}: reference support is empty")
    # an even split of the ties: the bits of a softmax of zeros over them
    policy = TabularPolicy._wrap(ties / count, instance.space.sizes)
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
    """max_p J(p, policy) - min_q J(policy, q): twice the two-player exploitability.

    The preference oracle satisfies M + M^T = 1 with a 0.5 diagonal, which
    validate_instance enforces, so J(p, q) + J(q, p) = 1 and both halves of
    the gap equal the best response's gain over the held value. Doubling is
    exact, so the gap has the bits of 2 * max(gain, 0). Zero exactly at an
    equilibrium; 1.0 at a point mass in an unregularized cycle, where the
    counter wins outright.
    """
    return 2.0 * exploitability_multiplayer(policy, 2, instance, tau)


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
    gap = br.value - held
    if gap < -1e-10:  # this far below zero is a bug, not rounding
        raise NegativeGapError(f"negative exploitability {gap}")
    return max(gap, 0.0), held
