"""Shared generators and reference formulas for the tests.

Every generator takes an explicit Generator so each test controls its seed.
The per-pair reference formulas at the end score one response or one
margin at a time, sharing no code with the packed tables in prefgame, so
agreement with them is independent evidence.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Sequence

import numpy as np

from prefgame import (
    NORMALIZATION_TOL,
    GameInstance,
    MinimizeResult,
    PairwisePreference,
    PolicyLogits,
    RankedComparison,
    Rankings,
    ResponseSpace,
    RewardTable,
    TabularPolicy,
    logits_to_policy,
)
from prefgame.instances import _require_count


def random_policy(rng: np.random.Generator, sizes, interior: bool = True) -> TabularPolicy:
    """Random rows; interior keeps every entry at least ~0.05/k."""
    rows = []
    for k in sizes:
        row = rng.random(k) + (0.05 if interior else 0.0)
        rows.append(row / row.sum())
    return TabularPolicy(tuple(rows))


def random_preference(rng: np.random.Generator, sizes) -> PairwisePreference:
    mats = []
    for k in sizes:
        m = np.full((k, k), 0.5)
        for a in range(k):
            for b in range(a + 1, k):
                p = rng.random()
                m[a, b] = p
                m[b, a] = 1.0 - p
        mats.append(m)
    return PairwisePreference(tuple(mats))


def fd_logit_gradient(problem, logits, step: float = 1e-5):
    """Central finite differences of a logit problem, one coordinate at a time."""
    from prefgame import PolicyLogits

    grads = []
    for x in range(len(logits.rows)):
        g = np.zeros(len(logits.rows[x]))
        for i in range(len(g)):
            plus = [r.copy() for r in logits.rows]
            minus = [r.copy() for r in logits.rows]
            plus[x][i] += step
            minus[x][i] -= step
            g[i] = (
                problem.value(PolicyLogits(tuple(plus)))
                - problem.value(PolicyLogits(tuple(minus)))
            ) / (2.0 * step)
        grads.append(g)
    return grads


def fd_reward_gradient(rewards, data, step: float = 1e-5):
    """Central finite differences of pl_nll over every reward entry."""
    from prefgame import RewardTable as RT
    from prefgame import pl_nll

    grads = []
    for x in range(len(rewards.rows)):
        g = np.zeros(len(rewards.rows[x]))
        for i in range(len(g)):
            plus = [r.copy() for r in rewards.rows]
            minus = [r.copy() for r in rewards.rows]
            plus[x][i] += step
            minus[x][i] -= step
            g[i] = (
                pl_nll(RT(tuple(plus)), data) - pl_nll(RT(tuple(minus)), data)
            ) / (2.0 * step)
        grads.append(g)
    return grads


def max_grad_rel_error(analytic, numeric) -> float:
    """Max-norm deviation over max-norm scale, floored so zero grads pass."""
    dev = max(float(np.max(np.abs(a - n))) for a, n in zip(analytic, numeric))
    scale = max(max(float(np.max(np.abs(a))) for a in analytic), 1e-12)
    return dev / scale


def random_instance(
    rng: np.random.Generator,
    num_prompts: int | None = None,
    max_responses: int = 5,
    with_rewards: bool = True,
) -> GameInstance:
    n = int(rng.integers(1, 4)) if num_prompts is None else num_prompts
    sizes = [int(rng.integers(2, max_responses + 1)) for _ in range(n)]
    labels = tuple(tuple(f"r{x}_{y}" for y in range(k)) for x, k in enumerate(sizes))
    weights = rng.random(n) + 0.1
    weights /= weights.sum()
    reward = None
    if with_rewards:
        reward = RewardTable(tuple(rng.normal(size=k) for k in sizes))
    return GameInstance(
        prompt_weights=weights,
        space=ResponseSpace(labels),
        reference=random_policy(rng, sizes),
        preference=random_preference(rng, sizes),
        reward=reward,
    )


def _reference_policy_violations(rows, tag: str) -> list[str]:
    bad = []
    for x, row in enumerate(rows):
        if not np.all(np.isfinite(row)):
            bad.append(f"{tag} row {x} has non-finite entries")
            continue
        if np.any(row < 0.0):
            bad.append(f"{tag} row {x} has negative entries")
        if abs(row.sum() - 1.0) > NORMALIZATION_TOL:
            bad.append(f"{tag} row {x} normalization: sums to {float(row.sum())!r}")
        if not np.any(row > 0.0):
            bad.append(f"{tag} row {x} has empty support")
    return bad


def reference_validate_instance(instance: GameInstance) -> list[str]:
    """validate_instance written one prompt and one check at a time.

    Independent of the packed-array checks in prefgame.instances on
    purpose: the property test asks both for the same message list.
    """
    bad = []

    w = instance.prompt_weights
    if not np.all(np.isfinite(w)):
        bad.append("prompt_weights has non-finite entries")
    else:
        if np.any(w < 0.0):
            bad.append("prompt_weights has negative entries")
        if abs(w.sum() - 1.0) > NORMALIZATION_TOL:
            bad.append(f"prompt_weights normalization: sums to {float(w.sum())!r}")

    for x, k in enumerate(instance.space.sizes):
        if k < 2:
            bad.append(f"prompt {x} has fewer than two responses")

    bad.extend(_reference_policy_violations(instance.reference.rows, "reference"))

    for x, m in enumerate(instance.preference.matrices):
        if not np.all(np.isfinite(m)):
            bad.append(f"preference matrix {x} has non-finite entries")
            continue
        if np.any(m < 0.0) or np.any(m > 1.0):
            bad.append(f"preference matrix {x} has entries outside [0, 1]")
        if np.max(np.abs(m + m.T - 1.0)) > NORMALIZATION_TOL:
            bad.append(f"preference matrix {x} breaks M + M^T = 1")
        if np.any(np.diag(m) != 0.5):
            bad.append(f"preference matrix {x} diagonal is not exactly 0.5")

    if instance.reward is not None:
        for x, row in enumerate(instance.reward.rows):
            if not np.all(np.isfinite(row)):
                bad.append(f"reward row {x} has non-finite entries")

    return bad


def reference_index_comparisons(sizes, data) -> tuple[np.ndarray, ...]:
    """Rankings(data) and its bounds check as one walk, a comparison at a time.

    Returns the flat-index arrays x * K + member, one per pool size in
    order of first appearance; the first comparison out of range raises
    ValueError. The property test asks the packed blocks and their
    block-at-a-time numpy checks for the same arrays and the same message.
    """
    if len(data) == 0:
        raise ValueError("need at least one comparison")
    width = max(sizes)
    buckets: dict[int, list[list[int]]] = {}
    for i, c in enumerate(data):
        if not 0 <= c.prompt < len(sizes):
            raise ValueError(f"comparison {i}: prompt {c.prompt} out of range")
        k = sizes[c.prompt]
        members = (c.winner,) + c.pool
        if max(members) >= k or min(members) < 0:
            raise ValueError(
                f"comparison {i}: response out of range for prompt {c.prompt}"
            )
        base = c.prompt * width
        buckets.setdefault(len(c.pool), []).append([base + y for y in members])
    return tuple(np.array(rows, dtype=np.intp) for rows in buckets.values())


def reference_block_rankings(rewards, instance, count, pool_size, rng):
    """generate_rankings written one draw at a time from the same block.

    Reads the block generate_rankings draws, rng.random((count, pool_size
    + 3)), then per row: bisect_right on the cumulative prompt weights,
    Floyd's algorithm with a set, and the winner's softmax and cdf. The
    block tests ask the vectorised pass for the same comparisons.
    """
    block = rng.random((count, pool_size + 3)).tolist()
    g = pool_size + 1
    cdf = list(itertools.accumulate(instance.prompt_weights.tolist()))
    cdf = [c / cdf[-1] for c in cdf]
    out = []
    for u in block:
        x = bisect.bisect_right(cdf, u[0])
        n = instance.space.sizes[x]
        picks, seen = [], set()
        for t in range(g):
            j = n - g + t
            v = math.floor(u[2 + t] * (j + 1))
            v = j if v in seen else v
            seen.add(v)
            picks.append(v)
        r = rewards.rows[x][picks]
        p = np.exp(r - r.max())
        p /= p.sum()
        share = np.cumsum(p)
        w = bisect.bisect_right((share / share[-1]).tolist(), u[1])
        out.append(RankedComparison(x, picks[w], tuple(picks[:w] + picks[w + 1:])))
    return Rankings(out)


def comparison_list(data: Rankings) -> list[RankedComparison]:
    """The comparisons of a Rankings as records, in their original order."""
    out = [None] * len(data)
    for rows, prompts, members in data.blocks:
        for i, x, m in zip(rows.tolist(), prompts.tolist(), members.tolist()):
            out[i] = RankedComparison(x, m[0], tuple(m[1:]))
    return out


def reference_bt_matrix(row: np.ndarray) -> np.ndarray:
    """Bradley-Terry matrix of one reward row, one pair at a time."""
    k = len(row)
    m = np.full((k, k), 0.5)
    for a in range(k):
        for b in range(a + 1, k):
            with np.errstate(over="ignore"):  # exp(inf) gives the limit 0.0
                p = 1.0 / (1.0 + np.exp(-(row[a] - row[b])))
            m[a, b] = p
            m[b, a] = 1.0 - p
    return m


# ---------------------------------------------------------------------------
# per-pair reference formulas


def win_rate_vs_policy(
    preference: PairwisePreference,
    prompt: int,
    response: int,
    policy: TabularPolicy,
) -> float:
    """Probability that `response` beats a draw from `policy` on `prompt`."""
    return float(preference.matrices[prompt][response] @ policy.rows[prompt])


def pl_one_vs_many(
    rewards: RewardTable, prompt: int, response: int, others: Sequence[int]
) -> float:
    """Plackett-Luce win probability of `response` against a response pool.

    others is a nonempty multiset of response indices not containing
    `response`. Computed with a max shift so large rewards stay finite.
    """
    if len(others) == 0:
        raise ValueError("pl_one_vs_many needs a nonempty pool")
    if response in others:
        raise ValueError("pool must not contain the response itself")
    row = rewards.rows[prompt]
    scores = np.concatenate(([row[response]], row[list(others)]))
    scores = scores - scores.max()
    e = np.exp(scores)
    return float(e[0] / e.sum())


def mean_pairwise_one_vs_many(
    preference: PairwisePreference,
    prompt: int,
    response: int,
    opponents: Sequence[TabularPolicy],
) -> float:
    """Average pairwise win rate of `response` against each opponent policy."""
    if len(opponents) == 0:
        raise ValueError("need at least one opponent")
    return float(
        np.mean([win_rate_vs_policy(preference, prompt, response, o) for o in opponents])
    )


def reference_minimize_loss(
    problem,
    init: PolicyLogits,
    steps: int = 4000,
    step_size: float = 0.5,
    trace=None,
) -> MinimizeResult:
    """One init's backtracking descent, through the public value and gradient.

    minimize_loss descends a batch of inits in lockstep; each of its
    results must equal this loop's for that init bit for bit.
    """
    _require_count(steps, 0, f"steps must be a nonnegative integer, got {steps}")
    if not (math.isfinite(step_size) and step_size > 0.0):
        raise ValueError(f"step_size must be positive and finite, got {step_size}")
    z = init
    val = problem.value(z)
    grad = problem.gradient(z)
    gmax = float(np.abs(grad.packed).max())
    step = float(step_size)
    taken = 0
    accepted = 0
    if trace is not None:
        trace(0, val, gmax)
    for taken in range(1, steps + 1):
        if gmax < 1e-13 or step < 1e-18:
            break
        cand = PolicyLogits._wrap(z.packed - step * grad.packed, z.sizes)
        cand_val = problem.value(cand)
        if cand_val < val:
            z, val = cand, cand_val
            grad = problem.gradient(z)
            gmax = float(np.abs(grad.packed).max())
            step *= 1.2
            accepted += 1
            if trace is not None:
                trace(accepted, val, gmax)
        else:
            step *= 0.5
    policy = logits_to_policy(z, problem.instance.reference)
    return MinimizeResult(policy, z, val, gmax, taken)


def squared_distance(margin: float, target: float) -> float:
    return (margin - target) ** 2


def bernoulli_kl_distance(margin: float, target: float) -> float:
    """KL(Bernoulli(sigmoid(target)) || Bernoulli(sigmoid(margin))), in scalar math."""
    if target == -math.inf:
        raise ValueError("target -inf is not supported")
    def softplus(v: float) -> float:  # -log sigmoid(-v)
        return math.log1p(math.exp(-abs(v))) + max(v, 0.0)
    if target == math.inf:
        return softplus(-margin)
    q = math.exp(-softplus(-target))
    return q * (softplus(-margin) - softplus(-target)) + (1.0 - q) * (
        softplus(margin) - softplus(target)
    )
