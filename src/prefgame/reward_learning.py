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
import functools
from dataclasses import dataclass

import numpy as np

from .instances import (
    GameInstance,
    RewardTable,
    _live_rows,
    _require_count,
    _require_int,
    _require_sizes,
    _unpack,
)


@dataclass(frozen=True)
class RankedComparison:
    """One observed choice: `winner` beat every response in `pool`."""

    prompt: int
    winner: int
    pool: tuple[int, ...]

    def __post_init__(self):
        for name in ("prompt", "winner"):
            v = getattr(self, name)
            object.__setattr__(self, name, _require_int(v, f"{name} {v!r} is not an integer"))
        pool = tuple(_require_int(y, f"pool entry {y!r} is not an integer") for y in self.pool)
        object.__setattr__(self, "pool", pool)
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
    count, with the winner in column 0 and the pool after it. `cells` is
    every `where` flattened and joined, the gradient's bincount cells.
    """

    sizes: tuple[int, ...]
    where: tuple[np.ndarray, ...]
    cells: np.ndarray
    count: int


def _index_comparisons(
    sizes: tuple[int, ...], data: list[RankedComparison]
) -> _IndexedComparisons:
    """Group the comparisons by pool size, then check bounds a bucket at a time.

    An error names the lowest-numbered comparison out of range.
    """
    if len(data) == 0:
        raise ValueError("need at least one comparison")
    buckets: dict[int, list[int]] = {}
    for i, c in enumerate(data):
        buckets.setdefault(len(c.pool), []).extend((i, c.prompt, c.winner, *c.pool))
    counts, width = np.array(sizes), max(sizes)
    where, bad = [], []
    for size, flat in buckets.items():
        try:
            rows = np.array(flat, dtype=np.intp).reshape(-1, size + 3)
        except OverflowError:  # an index past intp is out of range anyway
            rows = np.array(flat, dtype=object).reshape(-1, size + 3)
        prompt, members = rows[:, 1], rows[:, 2:]
        stray = (prompt < 0) | (prompt >= len(sizes))
        k = counts[np.where(stray, 0, prompt).astype(np.intp)]
        stray |= _row_max((members < 0) | (members >= k[:, None]))
        if stray.any():
            bad.append(rows[np.argmax(stray), 0])
        where.append(prompt[:, None] * width + members)
    if bad:
        i = min(bad)
        c = data[i]
        if not 0 <= c.prompt < len(sizes):
            raise ValueError(f"comparison {i}: prompt {c.prompt} out of range")
        raise ValueError(f"comparison {i}: response out of range for prompt {c.prompt}")
    cells = np.concatenate([w.ravel() for w in where])
    return _IndexedComparisons(tuple(sizes), tuple(where), cells, len(data))


def _indexed(rewards: RewardTable, data) -> _IndexedComparisons:
    if isinstance(data, _IndexedComparisons):
        _require_sizes(rewards, data.sizes, "rewards")
        return data
    return _index_comparisons(rewards.sizes, data)


def _row_max(scores: np.ndarray) -> np.ndarray:
    """scores.max(axis=1), taken a column at a time.

    numpy reduces along short rows one row per inner loop, which costs
    more than the arithmetic; a maximum is exact in any order.
    """
    return functools.reduce(np.maximum, scores.T)


def _softmax_pass(rewards: RewardTable, data):
    """Indexed comparisons; per bucket (scores, row max, shifted exps, their sums)."""
    if not (rewards.packed < np.inf).all():  # NaN too; a -inf reward is a zero share
        raise ValueError("rewards have +inf or NaN entries")
    indexed = _indexed(rewards, data)
    flat = rewards.packed.ravel()
    buckets = []
    for where in indexed.where:
        scores = flat[where]
        top = _row_max(scores)
        shifted = np.exp(scores - top[:, None])
        # numpy adds a row narrower than 8 left to right (pairwise from 8
        # on), so a column at a time gives sum(axis=1)'s bits, and faster
        narrow = shifted.shape[1] < 8
        sums = functools.reduce(np.add, shifted.T) if narrow else shifted.sum(axis=1)
        buckets.append((scores, top, shifted, sums))
    return indexed, buckets


def pl_nll(rewards: RewardTable, data: list[RankedComparison]) -> float:
    """Mean negative log-likelihood of each winner's softmax share.

    Per comparison: logsumexp over {winner} ∪ pool minus the winner's
    reward, computed max-shifted. Adding a constant to any prompt row
    leaves the value unchanged.
    """
    indexed, buckets = _softmax_pass(rewards, data)
    total = 0.0
    for scores, top, _, sums in buckets:
        total += float(np.sum(top + np.log(sums) - scores[:, 0]))
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
    indexed, buckets = _softmax_pass(rewards, data)
    shares = []
    for _, _, shifted, sums in buckets:
        share = shifted / sums[:, None]
        share[:, 0] -= 1.0
        shares.append(share.ravel())
    size = rewards.packed.size
    grad = np.bincount(indexed.cells, np.concatenate(shares), minlength=size)
    grad /= indexed.count
    return _unpack(grad.reshape(rewards.packed.shape), rewards.sizes)


@dataclass(frozen=True, eq=False)
class FitResult:
    rewards: RewardTable
    final_nll: float
    grad_norm: float
    converged: bool
    steps_taken: int


def _center(packed: np.ndarray, sizes) -> np.ndarray:
    """Subtract each prompt row's mean in place, through a view of the row.

    The sum over a row's own k entries is what `r.mean()` computes, so
    every row gets the bits of `r - r.mean()`; a masked sum over the padded
    rows would not, since the padding changes numpy's summation order.
    """
    for x, k in enumerate(sizes):
        row = packed[x, :k]
        row -= row.sum() / k
    return packed


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
    step, and the rewards are stepped as one zero-padded array.
    """
    _require_count(steps, 0, f"steps must be a nonnegative integer, got {steps}")
    if not (np.isfinite(step_size) and step_size > 0.0):
        raise ValueError(f"step_size must be positive and finite, got {step_size}")
    if not tol >= 0.0:  # NaN fails too
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if init is not None and not np.all(np.isfinite(init.packed)):
        raise ValueError("init has non-finite entries")
    sizes = instance.space.sizes
    filled = _live_rows(sizes, max(sizes))
    packed = np.zeros(filled.shape)
    if init is not None:
        if init.sizes != sizes:
            raise ValueError("init does not match the instance's response counts")
        packed[filled] = init.packed[filled]
    rewards = RewardTable._wrap(_center(packed, sizes), sizes)
    indexed = _index_comparisons(sizes, data)

    gmax = np.inf
    taken = 0
    for t in range(steps):
        grad = np.concatenate(pl_nll_gradient(rewards, indexed))
        gmax = float(np.max(np.abs(grad)))
        if not np.isfinite(gmax):
            raise FloatingPointError(
                f"non-finite gradient at step {t}; reduce step_size"
            )
        if gmax <= tol:
            break
        packed = rewards.packed.copy()
        packed[filled] -= step_size * grad
        rewards = RewardTable._wrap(_center(packed, sizes), sizes)
        taken = t + 1

    nll = pl_nll(rewards, indexed)
    if not np.isfinite(nll):
        raise FloatingPointError(
            f"non-finite objective after {taken} steps; reduce step_size"
        )
    gmax = float(np.max(np.abs(np.concatenate(pl_nll_gradient(rewards, indexed)))))
    return FitResult(rewards, nll, gmax, gmax <= tol, taken)


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


def _comparisons(prompts, winners, pools, sizes) -> list[RankedComparison]:
    """RankedComparisons built from draw arrays, checked in one pass.

    With the pools nonempty (pool_size >= 1 is checked up front), the pass
    proves of every row what RankedComparison.__post_init__ proves of one
    (distinct pool responses, the winner outside its pool) and that each
    response is in range for its prompt, so the objects are built
    without re-running it.
    """
    members = np.sort(np.column_stack([winners, pools]), axis=1)
    valid = (members[:, 0] >= 0) & (members[:, -1] < np.asarray(sizes)[prompts])
    valid &= np.all(members[:, 1:] != members[:, :-1], axis=1)
    if not valid.all():
        raise ValueError(f"draw {int(np.argmin(valid))} is not a valid comparison")
    out = []
    new = object.__new__
    for x, w, pool in zip(prompts.tolist(), winners.tolist(), pools.tolist()):
        c = new(RankedComparison)
        c.__dict__.update(prompt=x, winner=w, pool=tuple(pool))
        out.append(c)
    return out


def generate_rankings(
    rewards: RewardTable,
    instance: GameInstance,
    count: int,
    pool_size: int,
    rng: np.random.Generator,
) -> list[RankedComparison]:
    """Sample top-1-of-pool observations from a generating reward table.

    Each draw picks a prompt from the instance weights, g = `pool_size` + 1
    distinct responses uniformly, and the winner among them with softmax
    probability under `rewards`, all from one row of the only rng call,
    `rng.random((count, pool_size + 3))` (any generator with `random`).
    Column 0 is searched in the normalized cumulative prompt weights, and
    column 1 in the normalized cumulative softmax over the picks (both
    searchsorted "right"). Columns 2.. run Floyd's uniform g-subset steps
    (Bentley & Floyd 1987) over the prompt's n responses: step t takes
    v = floor(u * (j + 1)) for j = n - g + t, or j when v is already
    picked. On a 53-bit uniform v is off from exactly uniform by at most
    (j + 1) * 2**-53 (relative), the rounding the two searches have.
    """
    _require_count(count, 0, f"count must be nonnegative, got {count}")
    _require_count(pool_size, 1, "pool_size must be at least 1")
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
    u = rng.random((count, pool_size + 3))
    prompt_cdf = np.cumsum(weights)
    prompt_cdf /= prompt_cdf[-1]
    prompts = np.searchsorted(prompt_cdf, u[:, 0], "right")
    picks = np.empty((count, group), dtype=np.intp)
    j = np.asarray(sizes)[prompts] - group  # Floyd's j = n - g + t at t = 0
    for t in range(group):
        v = (u[:, 2 + t] * (j + 1)).astype(np.intp)
        picks[:, t] = np.where(np.any(picks[:, :t] == v[:, None], axis=1), j, v)
        j += 1

    # each row as the single draw computes it: max-shifted softmax,
    # normalized cumulative sum, right-side search of the uniform (the
    # count of entries <= u, since a cumulative sum of shares never falls)
    r = rewards.packed[prompts[:, None], picks]
    p = np.exp(r - _row_max(r)[:, None])
    p /= p.sum(axis=1, keepdims=True)
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    won = np.count_nonzero(cdf <= u[:, 1:2], axis=1)
    beaten = np.arange(group) != won[:, None]
    winners = picks[np.arange(count), won]
    pools = picks[beaten].reshape(count, pool_size)
    return _comparisons(prompts, winners, pools, sizes)


# ---------------------------------------------------------------------------
# disk format

CSV_HEADER = ("prompt", "winner", "pool")


def rankings_to_csv(data: list[RankedComparison], path) -> None:
    """Write `prompt,winner,pool` rows, the bytes csv.writer writes.

    No field can need quoting: every field is an integer or a
    semicolon-joined list of integers.
    """
    rows = [f"{c.prompt},{c.winner},{';'.join(map(str, c.pool))}\n" for c in data]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n" + "".join(rows))


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
            try:
                pool = tuple(int(y) for y in row[2].split(";"))
                out.append(RankedComparison(int(row[0]), int(row[1]), pool))
            except ValueError as err:
                raise ValueError(f"ranking row {len(out)}: {err}") from err
    return out
