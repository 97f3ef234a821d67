"""Shared generators for randomized tests.

Everything takes an explicit Generator so each test controls its seed.
"""

from __future__ import annotations

import numpy as np

from prefgame import (
    NORMALIZATION_TOL,
    GameInstance,
    PairwisePreference,
    ResponseSpace,
    RewardTable,
    TabularPolicy,
)


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
