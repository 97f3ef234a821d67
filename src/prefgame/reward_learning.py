"""Fitting tabular rewards from ranked comparisons.

The data model is top-1-of-pool: each observation names a prompt, a
winning response, and the pool of alternatives it beat, and a dataset is
one `Rankings`, integer arrays with one block per pool size. The
likelihood of the winner is its softmax share of the pool (Plackett-Luce
restricted to the top choice), which for pools of size one is exactly the
Bradley-Terry pairwise model. The likelihood depends on the data only
through how often each member set was drawn and how often each response
won (the sufficient statistics of Hunter's MM algorithm for generalized
Bradley-Terry models, 2004), so it reads each distinct set once. Rewards
carry an additive per-prompt gauge freedom: the fitter mean-centers the
initial rewards, every step keeps each row's mean, and all accuracy
claims are about reward differences.

Datasets serialize to CSV as `prompt,winner,pool` with the pool written
as a semicolon-separated index list.
"""

from __future__ import annotations

import csv
import functools
from typing import Sequence

import numpy as np

from .instances import (
    GameInstance,
    RewardTable,
    _Record,
    _live_rows,
    _require_count,
    _require_int,
    _require_positive,
    _require_sizes,
)


class RankedComparison(_Record):
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
        self._index = None  # (sizes, where, pool) of the last _flat_cells

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
    """Flat indices into RewardTable.packed and their pool, once per response counts.

    Returns (where, pool): one array per block, rows x * K + member for
    K = max(sizes), and `_pool` of them, what the likelihood reads.
    Checked against `sizes` a block at a time (an error names the
    lowest-numbered comparison out of range) and kept on `data` for the
    next call with the same counts.
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
    data._index = (sizes, tuple(where), _pool(where, len(sizes) * width))
    return data._index[1:]


def _pool(where, size: int):
    """The comparisons as distinct member sets, their counts and the wins.

    Returns (sets, counts, cells, wins): per pool size, smallest first,
    the distinct sets of flat cells, each row sorted and the rows in
    lexicographic order, and how many comparisons drew each set (float);
    all the sets' cells joined, the gradient's bincount cells; and how
    often each of the `size` flat cells won (float). Identical rows are
    grouped by one lexsort and the run boundaries, with no packed integer
    key to overflow. Neither the order of the comparisons nor the order
    within a pool shows in any of these.
    """
    sets, counts = [], []
    for block in sorted(where, key=lambda w: w.shape[1]):
        rows = np.sort(block, axis=1)
        rows = rows[np.lexsort(rows.T[::-1])]
        starts = np.flatnonzero(np.concatenate(([True], _row_max(rows[1:] != rows[:-1]))))
        sets.append(rows[starts])
        counts.append(np.diff(starts, append=len(rows)).astype(np.float64))
    winners = np.concatenate([w[:, 0] for w in where])
    wins = np.bincount(winners, minlength=size).astype(np.float64)
    return tuple(sets), tuple(counts), np.concatenate([c.ravel() for c in sets]), wins


def _row_max(scores: np.ndarray) -> np.ndarray:
    """scores.max(axis=1), taken a column at a time.

    numpy reduces along short rows one row per inner loop, which costs
    more than the arithmetic; a maximum is exact in any order.
    """
    return functools.reduce(np.maximum, scores.T)


def _softmax_pass(rewards: RewardTable, data: Rankings):
    """The pool; per pool size (row max, shifted exps, their sums) of its sets."""
    if not rewards.packed.max() < np.inf:  # NaN too; a -inf reward is a zero share
        raise ValueError("rewards have +inf or NaN entries")
    _, pool = _flat_cells(data, rewards.sizes)
    flat = rewards.packed.ravel()
    buckets = []
    for sets in pool[0]:
        scores = flat[sets]
        top = _row_max(scores)
        shifted = np.exp(scores - top[:, None])
        # numpy adds a row narrower than 8 left to right (pairwise from 8
        # on), so a column at a time gives sum(axis=1)'s bits, and faster
        narrow = shifted.shape[1] < 8
        sums = functools.reduce(np.add, shifted.T) if narrow else shifted.sum(axis=1)
        buckets.append((top, shifted, sums))
    return pool, buckets


def pl_nll(rewards: RewardTable, data: Rankings) -> float:
    """Mean negative log-likelihood of each winner's softmax share.

    Per distinct member set: its count times the max-shifted logsumexp of
    its rewards; minus each response's wins times its reward, over the
    responses that won (a -inf reward that never won adds nothing); all
    over the number of comparisons. Adding a constant to any prompt row
    leaves the value unchanged.
    """
    (_, counts, _, wins), buckets = _softmax_pass(rewards, data)
    total = 0.0
    for n, (top, _, sums) in zip(counts, buckets):
        total += float(np.sum(n * (top + np.log(sums))))
    won = np.flatnonzero(wins)
    total -= float(np.sum(wins[won] * rewards.packed.ravel()[won]))
    return total / len(data)


def pl_nll_gradient(rewards: RewardTable, data: Rankings) -> np.ndarray:
    """Gradient of pl_nll with respect to every reward entry, padded (P, K).

    Every member of a distinct set receives its softmax share times the
    set's count, accumulated by one np.bincount over the pool sizes;
    each response's wins are subtracted and the total is divided by the
    number of comparisons. Every prompt row sums to 0 up to rounding.
    Entries past a prompt's response count are 0, as in
    expected_win_rates' table.
    """
    (_, counts, cells, wins), buckets = _softmax_pass(rewards, data)
    weights = [
        (shifted * (n / sums)[:, None]).ravel()  # sums >= 1: the top adds 1
        for n, (_, shifted, sums) in zip(counts, buckets)
    ]
    weights = weights[0] if len(weights) == 1 else np.concatenate(weights)
    grad = np.bincount(cells, weights, minlength=rewards.packed.size)
    grad -= wins
    grad /= len(data)
    return grad.reshape(rewards.packed.shape)


class FitResult(_Record, eq=False):
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
    """Fixed-step gradient descent on pl_nll from mean-centered rewards.

    The initial rewards are mean-centered per prompt row, pinning the
    additive gauge at zero mean; each row of the gradient sums to 0, so a
    step keeps the row's mean there up to rounding. converged reports
    whether the gradient max-norm fell to `tol`; separable data (some
    response wins everything) legitimately never converges and simply
    returns converged=False with whatever the step budget reached. An
    overflow aborts with FloatingPointError: the step size is too large
    for the data, not a model failure. The first likelihood call checks
    and pools the comparisons for every later one; each step subtracts
    the padded gradient from the padded rewards, a fresh table.
    """
    _require_count(steps, 0, f"steps must be a nonnegative integer, got {steps}")
    _require_positive(step_size, f"step_size must be positive and finite, got {step_size}")
    if not tol >= 0.0:  # NaN fails too
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if init is not None and not np.all(np.isfinite(init.packed)):
        raise ValueError("init has non-finite entries")
    sizes = instance.space.sizes
    packed = np.zeros((len(sizes), max(sizes)))
    if init is not None:
        _require_sizes(init, sizes, "init")
        filled = _live_rows(sizes, max(sizes))
        packed[filled] = init.packed[filled]
    rewards = RewardTable._wrap(_center(packed, sizes), sizes)

    try:
        with np.errstate(over="raise", invalid="raise"):
            for taken in range(steps + 1):  # the last gradient is at the final rewards
                # through the module name and np.asarray: a rebound gradient
                # (the bench's tracer, its perturbation) may return the rows
                grad = np.asarray(pl_nll_gradient(rewards, data))
                gmax = float(np.max(np.abs(grad)))  # the padding's zeros leave it alone
                if gmax <= tol or taken == steps:
                    break
                rewards = RewardTable._wrap(rewards.packed - step_size * grad, sizes)
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
    block is formatted by one `%` over all its rows. One block holds rows
    0..n-1 in order and is written as formatted; several are interleaved
    line by line.
    """
    texts = []
    for rows, prompts, members in data.blocks:
        row = "%d,%d," + ";".join(["%d"] * (members.shape[1] - 1)) + "\n"
        fields = np.column_stack([prompts, members]).ravel().tolist()
        texts.append((row * len(rows)) % tuple(fields))
    if len(texts) == 1:
        body = texts[0]
    else:
        lines = [""] * len(data)
        for (rows, _, _), text in zip(data.blocks, texts):
            for i, line in zip(rows.tolist(), text.splitlines(True)):
                lines[i] = line
        body = "".join(lines)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n" + body)


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
