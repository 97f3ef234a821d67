"""Fitting tabular rewards from ranked comparisons.

The data model is top-1-of-pool: each observation names a prompt, a
winning response, and the pool of alternatives it beat, and a dataset is
one `Rankings`, integer arrays with one block per pool size. The
likelihood of the winner is its softmax share of the pool (Plackett-Luce
restricted to the top choice), which for pools of size one is exactly the
Bradley-Terry pairwise model. Rewards carry an additive per-prompt gauge
freedom, so the fitter mean-centers every prompt row after each step and
all accuracy claims are about reward differences.

Datasets serialize to CSV as `prompt,winner,pool` with the pool written
as a semicolon-separated index list.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instances import (
    GameInstance,
    RewardTable,
    _live_rows,
    _require_count,
    _require_int,
    _require_positive,
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


class Rankings:
    """Ranked comparisons as integer arrays, one block per pool size.

    `blocks` holds a (rows, prompts, members) triple of read-only arrays
    per pool size, in order of first appearance: the comparisons'
    positions in the original order (ascending), their prompts, and their
    members, the winner in column 0 and the pool after it. `len()` counts
    the comparisons; two Rankings are equal when they hold the same
    comparisons in the same order. `Rankings(comparisons)` packs a list of
    RankedComparison in one walk; the likelihood checks the indices.
    """

    def __init__(self, comparisons: Sequence[RankedComparison] = ()):
        buckets: dict[int, list[int]] = {}
        for i, c in enumerate(comparisons):
            buckets.setdefault(len(c.pool), []).extend((i, c.prompt, c.winner, *c.pool))
        blocks = []
        for size, flat in buckets.items():
            try:
                table = np.array(flat, dtype=np.intp).reshape(-1, size + 3)
            except OverflowError:  # an index past intp is out of range anyway
                table = np.array(flat, dtype=object).reshape(-1, size + 3)
            blocks.append((table[:, 0].astype(np.intp), table[:, 1], table[:, 2:]))
        self._set(blocks)

    @classmethod
    def _wrap(cls, blocks) -> Rankings:
        obj = cls.__new__(cls)
        obj._set(blocks)
        return obj

    def _set(self, blocks) -> None:
        for block in blocks:
            for array in block:
                array.setflags(write=False)
        self.blocks = tuple(blocks)
        self._index = None  # (sizes, where, cells) of the last _flat_cells

    def __len__(self) -> int:
        return sum(len(rows) for rows, _, _ in self.blocks)

    def __eq__(self, other):
        if not isinstance(other, Rankings):
            return NotImplemented
        return len(self.blocks) == len(other.blocks) and all(
            np.array_equal(a, b)
            for mine, theirs in zip(self.blocks, other.blocks)
            for a, b in zip(mine, theirs)
        )


def _flat_cells(data: Rankings, sizes: tuple[int, ...]):
    """Flat indices into RewardTable.packed, computed once per response counts.

    One array per block, rows x * K + member for K = max(sizes), and all
    of them joined, the gradient's bincount cells. Checked against `sizes`
    a block at a time (an error names the lowest-numbered comparison out
    of range) and kept on `data` for the next call with the same counts.
    """
    if not isinstance(data, Rankings):
        raise TypeError(f"expected Rankings, got {type(data).__name__}")
    if data._index is not None and data._index[0] == sizes:
        return data._index[1:]
    if len(data) == 0:
        raise ValueError("need at least one comparison")
    counts, width = np.array(sizes), max(sizes)
    where, bad = [], []
    for rows, prompts, members in data.blocks:
        stray = (prompts < 0) | (prompts >= len(sizes))
        k = counts[np.where(stray, 0, prompts).astype(np.intp)]
        stray |= _row_max((members < 0) | (members >= k[:, None]))
        if stray.any():
            j = np.argmax(stray)
            bad.append((rows[j], prompts[j]))
        where.append(prompts[:, None] * width + members)
    if bad:
        i, x = min(bad)
        if not 0 <= x < len(sizes):
            raise ValueError(f"comparison {i}: prompt {x} out of range")
        raise ValueError(f"comparison {i}: response out of range for prompt {x}")
    data._index = (sizes, tuple(where), np.concatenate([w.ravel() for w in where]))
    return data._index[1:]


def _row_max(scores: np.ndarray) -> np.ndarray:
    """scores.max(axis=1), taken a column at a time.

    numpy reduces along short rows one row per inner loop, which costs
    more than the arithmetic; a maximum is exact in any order.
    """
    return functools.reduce(np.maximum, scores.T)


def _softmax_pass(rewards: RewardTable, data: Rankings):
    """Bincount cells; per block (scores, row max, shifted exps, their sums)."""
    if not (rewards.packed < np.inf).all():  # NaN too; a -inf reward is a zero share
        raise ValueError("rewards have +inf or NaN entries")
    blocks, cells = _flat_cells(data, rewards.sizes)
    flat = rewards.packed.ravel()
    buckets = []
    for where in blocks:
        scores = flat[where]
        top = _row_max(scores)
        shifted = np.exp(scores - top[:, None])
        # numpy adds a row narrower than 8 left to right (pairwise from 8
        # on), so a column at a time gives sum(axis=1)'s bits, and faster
        narrow = shifted.shape[1] < 8
        sums = functools.reduce(np.add, shifted.T) if narrow else shifted.sum(axis=1)
        buckets.append((scores, top, shifted, sums))
    return cells, buckets


def pl_nll(rewards: RewardTable, data: Rankings) -> float:
    """Mean negative log-likelihood of each winner's softmax share.

    Per comparison: logsumexp over {winner} ∪ pool minus the winner's
    reward, computed max-shifted. Adding a constant to any prompt row
    leaves the value unchanged.
    """
    _, buckets = _softmax_pass(rewards, data)
    total = 0.0
    for scores, top, _, sums in buckets:
        total += float(np.sum(top + np.log(sums) - scores[:, 0]))
    return total / len(data)


def pl_nll_gradient(rewards: RewardTable, data: Rankings) -> tuple[np.ndarray, ...]:
    """Gradient of pl_nll with respect to every reward entry.

    Per comparison the winner column receives softmax_share − 1 and each
    pool column its softmax share; contributions accumulate by one
    np.bincount over the pool-size blocks in order, the sums the
    per-entry np.add.at gave, and the total is divided by the number of
    comparisons.
    """
    cells, buckets = _softmax_pass(rewards, data)
    shares = []
    for _, _, shifted, sums in buckets:
        share = shifted / sums[:, None]
        share[:, 0] -= 1.0
        shares.append(share.ravel())
    size = rewards.packed.size
    grad = np.bincount(cells, np.concatenate(shares), minlength=size)
    grad /= len(data)
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
    data: Rankings,
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
    whatever the step budget reached. An overflow aborts with
    FloatingPointError: the step size is too large for the data, not a
    model failure. The first likelihood call checks and indexes the
    comparisons for every later one, and the rewards are stepped as one
    zero-padded array.
    """
    _require_count(steps, 0, f"steps must be a nonnegative integer, got {steps}")
    _require_positive(step_size, f"step_size must be positive and finite, got {step_size}")
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

    try:
        with np.errstate(over="raise", invalid="raise"):
            for taken in range(steps + 1):  # the last gradient is at the final rewards
                grad = np.concatenate(pl_nll_gradient(rewards, data))
                gmax = float(np.max(np.abs(grad)))
                if gmax <= tol or taken == steps:
                    break
                packed = rewards.packed.copy()
                packed[filled] -= step_size * grad
                rewards = RewardTable._wrap(_center(packed, sizes), sizes)
            nll = pl_nll(rewards, data)
    except FloatingPointError as err:
        raise FloatingPointError(f"{err} after {taken} steps; reduce step_size") from err
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


def generate_rankings(
    rewards: RewardTable,
    instance: GameInstance,
    count: int,
    pool_size: int,
    rng: np.random.Generator,
) -> Rankings:
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
    try:
        u = rng.random((count, pool_size + 3))
    except ValueError as err:  # numpy's refusal of a shape past the address space
        raise MemoryError(f"count too large: {err}") from None
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
    members = np.column_stack([winners, picks[beaten].reshape(count, pool_size)])
    # distinct members in range, what RankedComparison proves of one
    ordered = np.sort(members, axis=1)
    valid = (ordered[:, 0] >= 0) & (ordered[:, -1] < np.asarray(sizes)[prompts])
    valid &= np.all(ordered[:, 1:] != ordered[:, :-1], axis=1)
    if not valid.all():
        raise ValueError(f"draw {int(np.argmin(valid))} is not a valid comparison")
    return Rankings._wrap([(np.arange(count), prompts, members)] if count else [])


# ---------------------------------------------------------------------------
# disk format

CSV_HEADER = ("prompt", "winner", "pool")


def rankings_to_csv(data: Rankings, path) -> None:
    """Write `prompt,winner,pool` rows in their original order.

    The bytes are csv.writer's (no integer field needs quoting); each
    block is formatted by one `%` over all its rows.
    """
    lines = [""] * len(data)
    for rows, prompts, members in data.blocks:
        row = "%d,%d," + ";".join(["%d"] * (members.shape[1] - 1)) + "\n"
        fields = np.column_stack([prompts, members]).ravel().tolist()
        text = (row * len(rows)) % tuple(fields)
        for i, line in zip(rows.tolist(), text.splitlines(True)):
            lines[i] = line
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n" + "".join(lines))


def rankings_from_csv(path) -> Rankings:
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
    return Rankings(out)
