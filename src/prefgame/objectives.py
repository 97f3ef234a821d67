"""Preference objectives over tabular policies.

Win rates, KL terms, the two-player and n-player game values, and the
KL-regularized reward objectives with their closed-form optimum. Every
expectation is computed to machine precision; nothing here samples.

The n-player value of a policy against a set of opponents is

    J(pi) = E_x E_{y ~ pi, y_j ~ pi_j} [ P(y beats {y_j} | x) ] - tau * KL(pi || ref)

where the one-vs-many probability P is set by the aggregator: mean of
pairwise oracle wins, or a Plackett-Luce softmax over the pooled rewards.
The Plackett-Luce case is one integral over independently drawn opponents,
summed by the trapezoid rule to machine precision.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .instances import (
    GameInstance,
    RewardTable,
    TabularPolicy,
    _Record,
    _live_rows,
    _raise_at_first,
    _require_sizes,
    _softmax_policy,
)

class Aggregator(_Record):
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


def _require_aggregator(aggregator) -> None:
    """TypeError for anything but an Aggregator record, such as an aggregator's name."""
    if not isinstance(aggregator, Aggregator):
        msg = "aggregator must be an Aggregator (MEAN_PAIRWISE or PLACKETT_LUCE)"
        raise TypeError(f"{msg}, got {aggregator!r}")


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


def _pl_win_row(rewards: np.ndarray, opponents: list[np.ndarray]) -> np.ndarray:
    """(P, K) table W[x, y] = E_{y_j ~ pi_j} [ 1 / (1 + sum_j e^{r_{y_j} - r_y}) ].

    rewards is (P, K), -inf at a response that never wins; each opponent is
    a (P, K) probability table, and opponents passed as the same array are
    one group of m copies. As 1 / (1 + S) = int_0^inf e^{-u (1 + S)} du and
    the draws are independent, with rho[y, y'] = e^{r_y' - r_y},

        W[y] = int_0^inf e^{-u} prod_j psi_j(u) du,  psi_j(u) = sum_y' pi_j(y') e^{-u rho[y, y']},

    which the trapezoid rule in x = log u, step 1/4, sums to machine
    precision: the error on a term e^{-u (1 + S)} is at most
    2 |Gamma(1 - 8 pi i)|, under 2e-16 of its value, at any S (Trefethen &
    Weideman, SIAM Review 2014). Nodes run from x_lo to 4, where x_lo
    leaves out less than e^-45 of the smallest share, floored at -708 so
    that u stays a normal float and an overflowed ratio times u reads inf,
    not NaN: 200-240 nodes on narrow rows and at most 2848 at any span.
    Each log psi is taken after factoring out e^{-u rho_min}, the group's
    smallest live ratio, so the sum keeps a term of at least that
    response's probability and never reads log 0; where the sum is above
    1/2 it is log1p of the sum of expm1, as m log psi would otherwise turn
    one rounding of psi into m. Dividing by the weights' own sum, not the
    step, makes W exactly 1 against an opponent that never wins. The
    (prompt, response) rows run in chunks whose (rows, K, nodes)
    temporaries stay within 1 MiB, or within one row's when that is larger.
    """
    alive = rewards > -np.inf
    width = rewards.shape[1]
    copies: dict[int, list] = {}
    for table in opponents:
        copies.setdefault(id(table), [table, 0])[1] += 1
    with np.errstate(over="ignore", divide="ignore"):
        # one row per (prompt, response y): rho[y, y'] over the prompt's y'
        ratio = np.exp(rewards[:, None, :] - np.where(alive, rewards, 0.0)[:, :, None])
        ratio = ratio.reshape(-1, width)
        top = ratio.max(initial=0.0, where=alive.reshape(-1, 1))
        x = np.arange(max(-45.0 - math.log(len(opponents)) - math.log1p(top), -708.0), 4.0, 0.25)
        u = np.exp(x)
        g = np.exp(x - u)
        groups = []
        for table, m in copies.values():
            probs = np.repeat(table, width, axis=0)
            gap = np.where(probs > 0.0, ratio, np.inf)
            low = gap.min(axis=1, keepdims=True)
            low[low == np.inf] = 0.0  # no live ratio is finite: the sum is 0, its log -inf
            groups.append((probs, m, gap - low, low))
        win = np.zeros(len(ratio))
        chunk = max(1, (1 << 20) // (8 * width * len(x)))
        for first in range(0, len(ratio), chunk):
            part = slice(first, first + chunk)
            log_w = 0.0
            for probs, m, gap, low in groups:
                z = np.einsum("rb,n->rbn", gap[part], -u)
                near = np.einsum("rb,rbn->rn", probs[part], np.expm1(z))
                log_psi = np.log1p(np.maximum(near, -0.5))
                # near only falls with u: the sums far from 1 sit past node k
                far = near <= -0.5
                k = far.any(axis=0).argmax()
                total = np.einsum("rb,rbn->rn", probs[part], np.exp(z[..., k:]))
                np.log(total, out=log_psi[:, k:], where=far[:, k:])
                log_w = log_w + m * (log_psi - low[part] * u)
            win[part] = (np.exp(log_w) * g).sum(axis=-1) / g.sum()
    return np.where(alive, win.reshape(rewards.shape), 0.0)


def expected_win_rates(
    instance: GameInstance,
    opponents: Sequence[TabularPolicy],
    aggregator: Aggregator = MEAN_PAIRWISE,
) -> np.ndarray:
    """Padded (P, K) table W[x, y] = one-vs-many win probability of y.

    Entries past a prompt's response count are 0. mean_pairwise
    factorizes into matrix-vector products; plackett_luce is the quadrature
    of _pl_win_row over all prompts at once, within about 1e-15 of the sum
    over every tuple of opponent draws at any reward span and any number of
    opponents, with a -inf response at 0. Its cost grows with the number of
    distinct opponents, not with the tuples they draw.
    """
    if len(opponents) == 0:
        raise ValueError("need at least one opponent")
    sizes = instance.space.sizes
    for o in opponents:
        _require_sizes(o, sizes, "opponent")
    _require_aggregator(aggregator)
    if aggregator.kind == "mean_pairwise":
        if len(opponents) == 1:  # the same bits as the stacked form, without the stack
            return np.einsum("pab,pb->pa", instance.preference.packed, opponents[0].packed)
        stacked = np.array([o.packed for o in opponents])  # np.stack costs 4 us more
        return np.einsum("pab,npb->pa", instance.preference.packed, stacked) / len(opponents)

    if instance.reward is None:
        raise ValueError("plackett_luce aggregator needs a reward table")
    packed = instance.reward.packed
    rewards = np.where(_live_rows(sizes, packed.shape[1]), packed, -np.inf)
    return _pl_win_row(rewards, [o.packed for o in opponents])


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


def multi_teacher_objective(
    policy: TabularPolicy,
    rewards: RewardTable,
    reference: TabularPolicy,
    teachers: Sequence[TabularPolicy],
    tau_ref: float,
    taus: Sequence[float],
    instance: GameInstance,
) -> float:
    """Reward minus a KL anchor to the reference and to each teacher.

    With no teachers: the KL-regularized reward objective E r - tau_ref KL(pi || ref).
    """
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
    coeffs, anchors = (tau_ref, *taus), (reference, *teachers)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        logit = rewards.packed if tau == 1.0 else rewards.packed / tau
        for coeff, anchor in zip(coeffs, anchors):
            _require_sizes(anchor, reference.sizes, "teacher")
            if coeff > 0.0:  # coeff / tau can underflow to 0, and 0 * log(0) is NaN
                log = np.log(anchor.packed)
                logit = logit + (log if coeff == tau else (coeff / tau or math.ulp(0.0)) * log)
    if not logit.max() < np.inf:  # +inf or NaN (max keeps a NaN) would read as no support
        for i, (coeff, anchor) in enumerate(zip(coeffs, anchors)):
            if coeff > 0.0 and not (np.isfinite(anchor.packed) & (anchor.packed >= 0.0)).all():
                name = f"teacher {i - 1}" if i else "reference"
                raise ValueError(f"{name} has a NaN, +inf or negative entry")
        raise ValueError(f"rewards / tau overflows or is NaN at tau {tau}")
    # past that check -inf is the only non-finite logit: the softmax needs no live mask
    return _softmax_policy(logit, None, reference.sizes, "anchors share no support")
