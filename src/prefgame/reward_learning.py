"""Fitting tabular rewards from ranked comparisons.

The data model is top-1-of-pool: each observation names a prompt, a
winning response, and the pool of alternatives it beat. The likelihood of
the winner is its softmax share of the pool (Plackett-Luce restricted to
the top choice), which for pools of size one is exactly the Bradley-Terry
pairwise model. Rewards carry an additive per-prompt gauge freedom, so the
fitter mean-centers every prompt row after each step and all accuracy
claims are about reward differences.

Datasets serialize to CSV as `prompt,winner,pool` with the pool written
as a semicolon-separated index list.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .instances import GameInstance, RewardTable, _unpack


@dataclass(frozen=True)
class RankedComparison:
    """One observed choice: `winner` beat every response in `pool`."""

    prompt: int
    winner: int
    pool: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "prompt", int(self.prompt))
        object.__setattr__(self, "winner", int(self.winner))
        object.__setattr__(self, "pool", tuple(int(y) for y in self.pool))
        if len(self.pool) == 0:
            raise ValueError("pool must be nonempty")
        if len(set(self.pool)) != len(self.pool):
            raise ValueError("pool repeats a response")
        if self.winner in self.pool:
            raise ValueError(f"winner {self.winner} appears in its own pool")


def _grouped_indices(
    rewards: RewardTable, data: list[RankedComparison]
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Bucket comparisons by pool size for vectorized gathers.

    Returns {pool_size: (prompts, columns)} where columns[:, 0] is the
    winner and the rest are the pool. Index bounds are checked here so the
    error can name the offending comparison.
    """
    sizes = rewards.sizes
    buckets: dict[int, tuple[list[int], list[list[int]]]] = {}
    for i, c in enumerate(data):
        if not 0 <= c.prompt < len(sizes):
            raise ValueError(f"comparison {i}: prompt {c.prompt} out of range")
        k = sizes[c.prompt]
        members = (c.winner,) + c.pool
        if max(members) >= k or min(members) < 0:
            raise ValueError(
                f"comparison {i}: response out of range for prompt {c.prompt}"
            )
        prompts, cols = buckets.setdefault(len(c.pool), ([], []))
        prompts.append(c.prompt)
        cols.append(list(members))
    return {
        size: (np.array(prompts), np.array(cols))
        for size, (prompts, cols) in buckets.items()
    }


def pl_nll(rewards: RewardTable, data: list[RankedComparison]) -> float:
    """Mean negative log-likelihood of each winner's softmax share.

    Per comparison: logsumexp over {winner} ∪ pool minus the winner's
    reward, computed max-shifted. Adding a constant to any prompt row
    leaves the value unchanged.
    """
    if len(data) == 0:
        raise ValueError("need at least one comparison")
    flat, width = rewards.packed.ravel(), rewards.packed.shape[1]
    total = 0.0
    for prompts, cols in _grouped_indices(rewards, data).values():
        scores = flat[prompts[:, None] * width + cols]
        top = scores.max(axis=1)
        lse = top + np.log(np.exp(scores - top[:, None]).sum(axis=1))
        total += float(np.sum(lse - scores[:, 0]))
    return total / len(data)


def pl_nll_gradient(
    rewards: RewardTable, data: list[RankedComparison]
) -> tuple[np.ndarray, ...]:
    """Gradient of pl_nll with respect to every reward entry.

    Per comparison the winner column receives softmax_share − 1 and each
    pool column its softmax share; contributions accumulate by scatter-add
    and the total is divided by the number of comparisons.
    """
    if len(data) == 0:
        raise ValueError("need at least one comparison")
    flat, width = rewards.packed.ravel(), rewards.packed.shape[1]
    grad = np.zeros_like(flat)
    for prompts, cols in _grouped_indices(rewards, data).values():
        where = prompts[:, None] * width + cols
        scores = flat[where]
        shifted = np.exp(scores - scores.max(axis=1)[:, None])
        share = shifted / shifted.sum(axis=1)[:, None]
        share[:, 0] -= 1.0
        np.add.at(grad, where, share)
    grad /= len(data)
    return _unpack(grad.reshape(rewards.packed.shape), rewards.sizes)


@dataclass(frozen=True, eq=False)
class FitResult:
    rewards: RewardTable
    final_nll: float
    grad_norm: float
    converged: bool
    steps_taken: int


def fit_pl_reward(
    data: list[RankedComparison],
    instance: GameInstance,
    init: RewardTable | None = None,
    steps: int = 300,
    step_size: float = 2.0,
    tol: float = 1e-6,
) -> FitResult:
    """Fixed-step gradient descent on pl_nll with per-prompt centering.

    Every prompt row is mean-centered after each step, pinning the
    additive gauge at zero mean. converged reports whether the gradient
    max-norm fell to `tol`; separable data (some response wins everything)
    legitimately never converges and simply returns converged=False with
    whatever the step budget reached. A non-finite objective aborts: it
    means the step size is too large for the data, not a model failure.
    """
    if init is None:
        rows = [np.zeros(k) for k in instance.space.sizes]
    else:
        if init.sizes != instance.space.sizes:
            raise ValueError("init does not match the instance's response counts")
        rows = [r.copy() for r in init.rows]
    rows = [r - r.mean() for r in rows]

    gmax = np.inf
    taken = 0
    for t in range(steps):
        grads = pl_nll_gradient(RewardTable(tuple(rows)), data)
        gmax = max(float(np.max(np.abs(g))) for g in grads)
        if not np.isfinite(gmax):
            raise FloatingPointError(
                f"non-finite gradient at step {t}; reduce step_size"
            )
        if gmax <= tol:
            break
        rows = [r - step_size * g for r, g in zip(rows, grads)]
        rows = [r - r.mean() for r in rows]
        taken = t + 1

    fitted = RewardTable(tuple(rows))
    nll = pl_nll(fitted, data)
    if not np.isfinite(nll):
        raise FloatingPointError(
            f"non-finite objective after {taken} steps; reduce step_size"
        )
    grads = pl_nll_gradient(fitted, data)
    gmax = max(float(np.max(np.abs(g))) for g in grads)
    return FitResult(fitted, nll, gmax, gmax <= tol, taken)


def _pool_shortfall(instance: GameInstance, pool_size: int) -> str | None:
    """Why a drawable prompt cannot hold a pool plus its winner, else None."""
    for x, k in enumerate(instance.space.sizes):
        if instance.prompt_weights[x] > 0.0 and pool_size + 1 > k:
            return (
                f"pool of {pool_size} needs {pool_size + 1} responses, "
                f"prompt {x} has {k}"
            )
    return None


def generate_rankings(
    rewards: RewardTable,
    instance: GameInstance,
    count: int,
    pool_size: int,
    rng: np.random.Generator,
) -> list[RankedComparison]:
    """Sample top-1-of-pool observations from a generating reward table.

    Each draw picks a prompt from the instance weights, `pool_size` + 1
    distinct responses uniformly, and the winner among them with softmax
    probability under `rewards`. Consumes three rng calls per draw.
    """
    if pool_size < 1:
        raise ValueError("pool_size must be at least 1")
    if rewards.num_prompts != instance.num_prompts:
        raise ValueError("rewards do not match the instance's prompt count")
    short = _pool_shortfall(instance, pool_size)
    if short is not None:
        raise ValueError(short)
    group = pool_size + 1
    out = []
    weights = instance.prompt_weights
    for _ in range(count):
        x = int(rng.choice(instance.num_prompts, p=weights))
        picks = rng.choice(instance.space.sizes[x], size=group, replace=False)
        r = rewards.rows[x][picks]
        p = np.exp(r - r.max())
        p /= p.sum()
        w = int(rng.choice(group, p=p))
        winner = int(picks[w])
        pool = tuple(int(y) for i, y in enumerate(picks) if i != w)
        out.append(RankedComparison(x, winner, pool))
    return out


# ---------------------------------------------------------------------------
# disk format

CSV_HEADER = ("prompt", "winner", "pool")


def rankings_to_csv(data: list[RankedComparison], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for c in data:
            writer.writerow([c.prompt, c.winner, ";".join(str(y) for y in c.pool)])


def rankings_from_csv(path) -> list[RankedComparison]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"expected header {','.join(CSV_HEADER)}, got {header}")
        out = []
        for row in reader:
            if len(row) != 3:
                raise ValueError(f"ranking row {len(out)} needs 3 fields, got {row}")
            pool = tuple(int(y) for y in row[2].split(";"))
            out.append(RankedComparison(int(row[0]), int(row[1]), pool))
    return out
