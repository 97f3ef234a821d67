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

from .instances import GameInstance, RewardTable, _require_sizes, _unpack


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


@dataclass(frozen=True, eq=False)
class _IndexedComparisons:
    """Comparisons validated once, as flat indices into RewardTable.packed.

    `where` holds one int array per pool size, in order of first
    appearance; each row is x * K + member for K the largest response
    count, with the winner in column 0 and the pool after it.
    """

    sizes: tuple[int, ...]
    where: tuple[np.ndarray, ...]
    count: int


def _index_comparisons(
    sizes: tuple[int, ...], data: list[RankedComparison]
) -> _IndexedComparisons:
    """Walk the comparison list once, checking bounds against `sizes`.

    Index errors name the offending comparison.
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
    where = tuple(np.array(rows, dtype=np.intp) for rows in buckets.values())
    return _IndexedComparisons(tuple(sizes), where, len(data))


def _indexed(rewards: RewardTable, data) -> _IndexedComparisons:
    if isinstance(data, _IndexedComparisons):
        _require_sizes(rewards, data.sizes, "rewards")
        return data
    return _index_comparisons(rewards.sizes, data)


def pl_nll(rewards: RewardTable, data: list[RankedComparison]) -> float:
    """Mean negative log-likelihood of each winner's softmax share.

    Per comparison: logsumexp over {winner} ∪ pool minus the winner's
    reward, computed max-shifted. Adding a constant to any prompt row
    leaves the value unchanged.
    """
    indexed = _indexed(rewards, data)
    flat = rewards.packed.ravel()
    total = 0.0
    for where in indexed.where:
        scores = flat[where]
        top = scores.max(axis=1)
        lse = top + np.log(np.exp(scores - top[:, None]).sum(axis=1))
        total += float(np.sum(lse - scores[:, 0]))
    return total / indexed.count


def pl_nll_gradient(
    rewards: RewardTable, data: list[RankedComparison]
) -> tuple[np.ndarray, ...]:
    """Gradient of pl_nll with respect to every reward entry.

    Per comparison the winner column receives softmax_share − 1 and each
    pool column its softmax share; contributions accumulate by one
    np.bincount over the pool-size buckets in order, the sums the
    per-entry np.add.at gave, and the total is divided by the number of
    comparisons. `data` is a comparison list or the indexed form a fit
    builds once.
    """
    indexed = _indexed(rewards, data)
    flat = rewards.packed.ravel()
    shares = []
    for where in indexed.where:
        scores = flat[where]
        shifted = np.exp(scores - scores.max(axis=1)[:, None])
        share = shifted / shifted.sum(axis=1)[:, None]
        share[:, 0] -= 1.0
        shares.append(share.ravel())
    cells = np.concatenate([where.ravel() for where in indexed.where])
    grad = np.bincount(cells, np.concatenate(shares), minlength=flat.size)
    grad /= indexed.count
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
    The comparison list is validated and indexed once, before the first
    step.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if not (np.isfinite(step_size) and step_size > 0.0):
        raise ValueError(f"step_size must be positive and finite, got {step_size}")
    if init is None:
        rows = [np.zeros(k) for k in instance.space.sizes]
    else:
        if init.sizes != instance.space.sizes:
            raise ValueError("init does not match the instance's response counts")
        rows = [r.copy() for r in init.rows]
    rows = [r - r.mean() for r in rows]
    indexed = _index_comparisons(instance.space.sizes, data)

    gmax = np.inf
    taken = 0
    for t in range(steps):
        grads = pl_nll_gradient(RewardTable(tuple(rows)), indexed)
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
    nll = pl_nll(fitted, indexed)
    if not np.isfinite(nll):
        raise FloatingPointError(
            f"non-finite objective after {taken} steps; reduce step_size"
        )
    grads = pl_nll_gradient(fitted, indexed)
    gmax = max(float(np.max(np.abs(g))) for g in grads)
    return FitResult(fitted, nll, gmax, gmax <= tol, taken)


# The tolerance Generator.choice allows on the sum of its probabilities.
_WEIGHT_TOL = float(np.sqrt(np.finfo(np.float64).eps))


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

    The prompt and the winner are drawn as `rng.choice(n, p=p)` draws
    them (one uniform, searched in the normalized cumulative sum), so the
    stream is numpy's; the distributions are checked once up front rather
    than on every call.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if pool_size < 1:
        raise ValueError("pool_size must be at least 1")
    _require_sizes(rewards, instance.space.sizes, "rewards")
    if not np.all(np.isfinite(rewards.packed)):
        raise ValueError("rewards have non-finite entries")
    weights = instance.prompt_weights
    if not (np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= _WEIGHT_TOL):
        raise ValueError("prompt_weights must be a probability distribution")
    short = _pool_shortfall(instance, pool_size)
    if short is not None:
        raise ValueError(short)
    group = pool_size + 1
    sizes = instance.space.sizes
    rows = rewards.rows
    prompt_cdf = np.cumsum(weights)
    prompt_cdf /= prompt_cdf[-1]
    out = []
    for _ in range(count):
        x = int(prompt_cdf.searchsorted(rng.random(), "right"))
        picks = rng.choice(sizes[x], size=group, replace=False)
        r = rows[x][picks]
        p = np.exp(r - r.max())
        p /= p.sum()
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        w = int(cdf.searchsorted(rng.random(), "right"))
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
