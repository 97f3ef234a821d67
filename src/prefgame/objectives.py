"""Preference objectives over tabular policies.

Win rates, KL terms, the two-player and n-player game values, and the
KL-regularized reward objectives with their closed-form optimum. All
expectations are exact sums; nothing here samples.

The n-player value of a policy against a set of opponents is

    J(pi) = E_x E_{y ~ pi, y_j ~ pi_j} [ P(y beats {y_j} | x) ] - tau * KL(pi || ref)

where the one-vs-many probability P is set by the aggregator: mean of
pairwise oracle wins, or a Plackett-Luce softmax over the pooled rewards.
The Plackett-Luce case sums over the product of opponent supports, drawing
copies of one opponent as multisets, and is guarded by an enumeration cap
on the ordered tuples.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .instances import (
    GameInstance,
    RewardTable,
    TabularPolicy,
    _Record,
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


@functools.lru_cache(maxsize=32)
def _multisets(c: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The C(c + m - 1, m) draws of m indices from range(c), as multisets.

    Each multiset is its nondecreasing index tuple, in lexicographic order:
    the (m, M) indices, one row per draw position, the (c, M) table of how
    often each index is drawn, and each multiset's number of orderings,
    m! / prod(count!). Built one position at a time: appending index j to a
    tuple whose last run of j then has length t multiplies its orderings by
    (new length) / t. Each step is exact in float64 while m * c**m < 2**53,
    which ENUMERATION_CAP keeps with room to spare. Read-only, as cached.
    """
    idx = np.arange(c)[None, :]
    orderings = np.ones(c)
    run = np.ones(c)  # length of each tuple's last run of equal indices
    for k in range(2, m + 1):
        last = idx[-1]
        grow = c - last  # each tuple's next index runs from last to c - 1
        parent = np.repeat(np.arange(len(last)), grow)
        step = np.arange(len(parent)) - np.repeat(np.cumsum(grow) - grow, grow)
        run = (step == 0) * run[parent] + 1
        orderings = orderings[parent] * k / run
        idx = np.vstack((idx[:, parent], last[parent] + step))
    size = idx.shape[1]
    cells = idx * size + np.arange(size)  # each draw's cell in the (c, M) count table
    counts = np.bincount(cells.ravel(), minlength=c * size).reshape(c, size)
    tables = (idx, counts.astype(np.float64), orderings)
    for table in tables:
        table.flags.writeable = False
    return tables


def _pl_win_row(
    rewards_row: np.ndarray, opponents_rows: list[np.ndarray]
) -> np.ndarray:
    """W[y] = E_{y_j ~ pi_j} [ 1 / (1 + sum_j e^{r_{y_j} - r_y}) ], at any reward span.

    The ratio table e^{r_j - r_y} is built once, one row per finite response
    y. Opponents passed as the same row object are one group: a draw's
    denominator depends only on which responses it holds, so a group of m
    copies over c live responses draws the C(c + m - 1, m) multisets, each
    weighted by its probability times its number of orderings, rather than
    the c**m ordered tuples. A group of one is its c draws. The groups, in
    order of first appearance, are pooled over the product of their draws,
    newest group slowest, into one (responses, draws) table of denominators
    that starts at 1; memory is 8 bytes per pooled draw, which against
    distinct opponents is the weighted tuple ENUMERATION_CAP counts (the cap
    still counts tuples, however the opponents group). Every denominator is
    at least 1, so no share is 0/0, and a draw holding a response whose ratio
    overflows has the exact limit, a share of 0. A -inf response never wins,
    so an all -inf row is all zeros.
    """
    win = np.zeros(len(rewards_row))
    alive = np.flatnonzero(rewards_row > -np.inf)
    groups: dict[int, list] = {}
    for row in opponents_rows:
        groups.setdefault(id(row), [row, 0])[1] += 1
    weight = np.ones(1)
    pooled = np.ones((len(alive), 1))
    with np.errstate(over="ignore"):
        ratio = np.exp(rewards_row - rewards_row[alive, None])
        for row, m in groups.values():
            live = np.flatnonzero(row > 0.0)
            probs, draws = row[live], ratio.take(live, axis=1)
            if m > 1:
                idx, counts, orderings = _multisets(len(live), m)
                probs, draws = orderings * probs[idx].prod(axis=0), _draw_sums(draws, counts)
            weight = np.multiply.outer(probs, weight).ravel()
            pooled = draws[:, :, None] + pooled[:, None, :]
            pooled = pooled.reshape(len(alive), len(weight))
    win[alive] = np.reciprocal(pooled, out=pooled) @ weight
    return win


def _draw_sums(ratio: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """ratio @ counts, with +inf wherever a multiset draws an overflowed ratio.

    The product alone would read inf * 0 as NaN for a response not drawn.
    It is an einsum, not a BLAS matmul: at a few live responses einsum
    costs about 2 us more, while the first matmul grows the resident set
    by about 0.3 MiB of BLAS code and buffers no other call here needs.
    """
    over = np.isinf(ratio)
    if not over.any():
        return np.einsum("ac,cm->am", ratio, counts)
    sums = np.einsum("ac,cm->am", np.where(over, 0.0, ratio), counts)
    sums[np.einsum("ac,cm->am", over, counts) > 0.0] = np.inf
    return sums


def expected_win_rates(
    instance: GameInstance,
    opponents: Sequence[TabularPolicy],
    aggregator: Aggregator = MEAN_PAIRWISE,
) -> np.ndarray:
    """Padded (P, K) table W[x, y] = one-vs-many win probability of y.

    Entries past a prompt's response count are 0. mean_pairwise
    factorizes into matrix-vector products; plackett_luce enumerates the
    product of opponent supports, bounded by ENUMERATION_CAP as read on
    this call. Each Plackett-Luce row is the one formula of _pl_win_row,
    exact at any reward span, with a -inf response at 0. Copies of one
    opponent draw multisets: m copies with c live responses cost
    C(c + m - 1, m) draws rather than c**m, so 6 copies at c = 10 take
    5005 draws, not 10**6. The cap still counts ordered weighted tuples,
    k * prod(live counts), however the opponents group; against distinct
    opponents a row's table takes 8 bytes per tuple, about 80 MB at the cap.
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
