"""Tabular preference-game instances.

A game instance is a finite set of prompts, each with a finite response
list, together with a prompt distribution, a reference policy, a pairwise
preference oracle, and an optional scalar reward table. Everything is
dense float64 indexed by integer prompt/response ids; response labels are
carried only for display and serialization.

Instances are stored on disk as JSON with the following keys:

    prompt_weights  optional list of floats, uniform when omitted
    responses       list per prompt of response label lists
    reference       list per prompt of probability rows
    preference      {"kind": "matrix", "matrices": [...]} with one row-major
                    k_x by k_x matrix per prompt, or {"kind": "cyclic",
                    "strength": s}, or {"kind": "bradley_terry"} (built from
                    the reward rows)
    rewards         optional list per prompt of reward rows

Floats round-trip exactly: json uses shortest-repr decimal strings.
`save_instance` always writes the explicit matrix form.
"""

from __future__ import annotations

import csv
import json
from functools import cached_property
from typing import Sequence

import numpy as np

# One shared tolerance for every "sums to one" check in the package.
NORMALIZATION_TOL = 1e-12


class SupportViolation(ValueError):
    """A policy puts mass on a response that its base policy excludes."""

    def __init__(self, prompt: int, response: int, detail: str = ""):
        self.prompt = prompt
        self.response = response
        msg = f"support violation at prompt {prompt}, response {response}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


def _raise_at_first(mask: np.ndarray, detail: str) -> None:
    """Raise SupportViolation at the first flagged (prompt, response) cell, if any."""
    if mask.any():
        x, y = (int(i) for i in np.argwhere(mask)[0])
        raise SupportViolation(x, y, detail)


def _mixture_weights(weights, n: int, what: str) -> np.ndarray:
    """Uniform weights over n items, or the given ones checked as a distribution."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=np.float64)
    # written so that a NaN weight fails it too
    if not (len(w) == n and np.all(w >= 0.0) and abs(w.sum() - 1.0) <= NORMALIZATION_TOL):
        raise ValueError(
            f"{what} weights must be a distribution: {n} nonnegative weights "
            f"that sum to one, got {w}"
        )
    return w


# The tolerance Generator.choice allows on the sum of its probabilities.
_WEIGHT_TOL = float(np.sqrt(np.finfo(np.float64).eps))


def _require_drawable(rows: np.ndarray, message: str) -> None:
    """ValueError(message) unless each row of the 2-d `rows` is a distribution.

    The rule Generator.choice applies to its probabilities: nonnegative
    entries (NaN fails) that sum to 1 within _WEIGHT_TOL.
    """
    if not (np.all(rows >= 0.0) and np.all(np.abs(rows.sum(axis=1) - 1.0) <= _WEIGHT_TOL)):
        raise ValueError(message)


def _require_int(value, message: str) -> int:
    """int(value) for an integer (np.integer too, not bool), else ValueError(message)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(message)
    return int(value)


def _number(value) -> float:
    """float(value) for a JSON number; a bool or a string is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _numbers(values: list) -> np.ndarray:
    """A float array of JSON numbers; a bool, a string or a list entry is a TypeError."""
    wrong = set(map(type, values)) - {int, float}  # one set pass: bool is not int here
    if wrong:
        names = ", ".join(sorted(t.__name__ for t in wrong))
        raise TypeError(f"expected a number, got {names}")
    return np.asarray(values, float)


def _require_count(value, low: int, message: str) -> None:
    """Raise ValueError(message) unless value is an integer (np.integer too) >= low."""
    if _require_int(value, message) < low:
        raise ValueError(message)


def _require_positive(value, message: str) -> None:
    """Raise ValueError(message) unless 0 < value < inf (NaN fails too)."""
    if not 0.0 < value < np.inf:
        raise ValueError(message)


def _pack(tables, square: bool) -> tuple[np.ndarray, tuple[int, ...]]:
    """Per-prompt rows (or square matrices) copied into one zero-padded array.

    The read-only array is (P, K), or (P, K, K) for matrices, K the largest size.
    """
    arrays = [np.asarray(t, dtype=np.float64) for t in tables]
    for a in arrays:
        if square and (a.ndim != 2 or a.shape[0] != a.shape[1]):
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not square and a.ndim != 1:
            raise ValueError(f"expected a 1-d row, got shape {a.shape}")
    sizes = tuple(len(a) for a in arrays)
    packed = np.zeros((len(arrays),) + (max(sizes, default=0),) * (1 + square))
    for x, a in enumerate(arrays):
        packed[x][(slice(len(a)),) * a.ndim] = a
    packed.setflags(write=False)
    return packed, sizes


def _unpack(packed: np.ndarray, sizes) -> tuple[np.ndarray, ...]:
    """Per-prompt views into a padded array, each cut to the prompt's size."""
    if packed.ndim == 2:
        return tuple(packed[x, :k] for x, k in enumerate(sizes))
    return tuple(packed[x, :k, :k] for x, k in enumerate(sizes))


def _count_groups(sizes) -> list[tuple[np.ndarray, int]]:
    """(prompt indices, k) for each distinct response count k, ascending.

    Grouped in plain Python: np.unique would import numpy.ma on first use.
    """
    counts = np.array(sizes)
    return [(np.flatnonzero(counts == k), k) for k in sorted(set(sizes))]


def _live_rows(sizes, width: int) -> np.ndarray:
    """(P, width) mask of each prompt's own entries in a padded array."""
    return np.arange(width) < np.array(sizes)[:, None]


def _require_sizes(table, sizes: tuple[int, ...], what: str) -> None:
    """ValueError unless the table's response counts are `sizes`.

    Padding would absorb a mismatch whenever the largest counts agree, so
    every entry point compares the counts first.
    """
    if table.sizes != sizes:
        pairs = enumerate(zip(table.sizes, sizes))
        x = next((x for x, (a, b) in pairs if a != b), min(len(sizes), len(table.sizes)))
        raise ValueError(f"{what} row lengths differ from the response counts at prompt {x}")


class _Record:
    """What @dataclass(frozen=True) generates per class, written once for every record.

    Fields are the annotated class attributes, inherited ones first; class attributes
    are defaults. Records compare and hash by field tuple unless declared eq=False.
    """

    def __init_subclass__(cls, eq=True):
        annotated = (vars(base).get("__annotations__", ()) for base in reversed(cls.__mro__))
        cls._fields = tuple(dict.fromkeys(f for names in annotated for f in names))
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # not every field given by position
            values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            bad = [k for k in kwargs if k not in fields or k in fields[: len(args)]]
            if len(args) > len(fields) or bad or len(values) < len(fields):
                missing = [f for f in fields if f not in values]
                raise TypeError(f"{type(self).__name__}{fields} got {len(args)} positional "
                                f"values, unknown or repeated keywords {bad}, missing {missing}")
            args = [values[f] for f in fields]
        for f, value in zip(fields, args):  # not __dict__.update, which slows every read
            object.__setattr__(self, f, value)
        if hasattr(self, "__post_init__"):  # it may replace fields with object.__setattr__
            self.__post_init__()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        pairs = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({pairs})"

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())


class _PerPrompt:
    """A table per prompt, stored as one zero-padded read-only array.

    `packed` is (P, K) for rows and (P, K, K) for matrices, K the largest
    response count; `sizes` holds each prompt's own count. Padding reads as
    zero probability, so support masks such as `p > 0` exclude it. The
    per-prompt tuple a subclass exposes holds views into `packed`.
    """

    _square = False

    def __init__(self, tables):
        self.packed, self.sizes = _pack(tables, self._square)
        if not self.sizes:
            raise ValueError(f"{type(self).__name__} needs at least one prompt")

    @classmethod
    def _wrap(cls, packed: np.ndarray, sizes):
        """Adopt an already padded array as storage, without copying it."""
        packed.setflags(write=False)
        obj = cls.__new__(cls)
        obj.packed, obj.sizes = packed, tuple(sizes)
        return obj

    def _views(self) -> tuple[np.ndarray, ...]:
        return _unpack(self.packed, self.sizes)

    @property
    def num_prompts(self) -> int:
        return len(self.sizes)


class ResponseSpace(_Record):
    """Response labels per prompt. Labels must be unique within a prompt."""

    labels: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValueError("instance needs at least one prompt")
        object.__setattr__(
            self, "labels", tuple(tuple(str(s) for s in row) for row in self.labels)
        )
        for x, row in enumerate(self.labels):
            if len(row) == 0:
                raise ValueError(f"prompt {x} has no responses")
            if len(set(row)) != len(row):
                raise ValueError(f"prompt {x} repeats a response label")

    @property
    def num_prompts(self) -> int:
        return len(self.labels)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.labels)


class TabularPolicy(_PerPrompt):
    """One probability row per prompt.

    Construction checks shapes only; numeric invariants (nonnegativity,
    normalization within NORMALIZATION_TOL) are reported by the validators
    so that files loaded from disk can be diagnosed instead of rejected
    half-parsed. Helper constructors always produce valid rows.
    """

    rows = cached_property(_PerPrompt._views)


class PairwisePreference(_PerPrompt):
    """One k_x by k_x win-probability matrix per prompt.

    matrices[x][a, b] is the probability that response a beats response b
    on prompt x. Valid oracles satisfy M + M^T = 1 (within tolerance) with
    an exact 0.5 diagonal; entries of exactly 0 or 1 are allowed.
    """

    _square = True
    matrices = cached_property(_PerPrompt._views)


class RewardTable(_PerPrompt):
    """One scalar reward row per prompt, unchecked here.

    validate_instance rejects non-finite rows; -inf is a never-winning response.
    """

    rows = cached_property(_PerPrompt._views)


class GameInstance(_Record, eq=False):
    """A complete tabular preference game.

    Cross-component shape consistency is enforced here; value-level
    invariants are checked by validate_instance.
    """

    prompt_weights: np.ndarray
    space: ResponseSpace
    reference: TabularPolicy
    preference: PairwisePreference
    reward: RewardTable | None = None

    def __post_init__(self):
        weights = _pack([self.prompt_weights], square=False)[0][0]  # a read-only copy
        object.__setattr__(self, "prompt_weights", weights)
        n = self.space.num_prompts
        if len(self.prompt_weights) != n:
            raise ValueError(
                f"prompt_weights has {len(self.prompt_weights)} entries "
                f"for {n} prompts"
            )
        for name in ("reference", "preference", "reward"):
            part = getattr(self, name)
            if part is not None:
                _require_sizes(part, self.space.sizes, name)

    @property
    def num_prompts(self) -> int:
        return self.space.num_prompts


# ---------------------------------------------------------------------------
# policy constructors


def uniform_policy(space: ResponseSpace) -> TabularPolicy:
    return TabularPolicy(tuple(np.full(k, 1.0 / k) for k in space.sizes))


def point_mass_policy(space: ResponseSpace, picks: Sequence[int]) -> TabularPolicy:
    """Deterministic policy choosing picks[x] on prompt x."""
    if len(picks) != space.num_prompts:
        raise ValueError("need one pick per prompt")
    rows = []
    for x, k in enumerate(space.sizes):
        y = _require_int(picks[x], f"pick {picks[x]!r} for prompt {x} is not an integer")
        if not 0 <= y < k:
            raise ValueError(f"pick {y} out of range for prompt {x}")
        rows.append(np.where(np.arange(k) == y, 1.0, 0.0))
    return TabularPolicy(tuple(rows))


def _softmax_policy(
    logits: np.ndarray, live: np.ndarray | None, sizes, empty: str = "no live response"
) -> TabularPolicy:
    """Row-wise softmax of padded (P, K) logits over the live entries.

    Dead entries, and live ones at -inf, get probability 0; live=None takes
    logits already at -inf on the dead entries, with no +inf or NaN. The
    result is the policy's storage as is. A prompt with no finite live
    logit raises ValueError with `empty` as the reason.
    """
    z = logits if live is None else np.where(live, logits, -np.inf)
    # a row max is exact in any order, and numpy reduces a contiguous axis 0 faster
    top = np.ascontiguousarray(z.T).max(axis=0)[:, None]
    if not np.isfinite(top).all():
        raise ValueError(f"prompt {int(np.argmin(np.isfinite(top)))}: {empty}")
    e = np.exp(z - top)
    return TabularPolicy._wrap(e / e.sum(axis=1, keepdims=True), sizes)


# ---------------------------------------------------------------------------
# oracle constructors


def make_bt_oracle(rewards: RewardTable) -> PairwisePreference:
    """Bradley-Terry oracle: a beats b with probability sigmoid(r_a - r_b).

    The upper triangles of every prompt are one array op; the lower
    triangle is written as the exact complement of the upper one, so
    M + M^T = 1 holds exactly, not just within tolerance. A reward gap
    past exp's range gives the limit 0.0 or 1.0 without a warning.
    """
    r = rewards.packed
    if not np.all(np.isfinite(r)):
        raise ValueError("rewards must be finite")
    k = r.shape[1]
    upper, lower = np.triu_indices(k, 1)
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(-(r[:, upper] - r[:, lower])))
    m = np.empty((len(r), k, k))
    m[:, upper, lower] = p
    m[:, lower, upper] = 1.0 - p
    m[:, range(k), range(k)] = 0.5
    live = _live_rows(rewards.sizes, k)
    m[~(live[:, :, None] & live[:, None, :])] = 0.0
    return PairwisePreference._wrap(m, rewards.sizes)


def make_cyclic_oracle(k: int, strength: float) -> PairwisePreference:
    """Single-prompt cyclic oracle on k responses.

    Response i beats its successor (i + 1) mod k with probability
    `strength`, loses the mirror pairing, and ties (0.5) against everything
    else. strength = 1 with k = 3 is rock-paper-scissors; strength = 0.5 is
    the fully indifferent boundary.
    """
    if k < 3:
        raise ValueError(f"cyclic oracle needs k >= 3, got {k}")
    if not 0.5 <= strength <= 1.0:
        raise ValueError(f"strength must lie in [0.5, 1], got {strength}")
    m = np.full((k, k), 0.5)
    for i in range(k):
        j = (i + 1) % k
        m[i, j] = strength
        m[j, i] = 1.0 - strength
    return PairwisePreference((m,))


# ---------------------------------------------------------------------------
# sampling


def sample_preference(
    preference: PairwisePreference,
    prompt: int,
    first: int,
    second: int,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Draw one judgment, returning (winner, loser).

    Consumes exactly one uniform variate: first wins iff u < M[first, second].
    """
    prompt = _require_int(prompt, f"prompt {prompt!r} is not an integer")
    if not 0 <= prompt < preference.num_prompts:  # a tuple would wrap -1
        raise ValueError(f"prompt {prompt} out of range")
    first = _require_int(first, f"response {first!r} is not an integer")
    second = _require_int(second, f"response {second!r} is not an integer")
    if first == second:
        raise ValueError("cannot compare a response with itself")
    for y in (first, second):  # numpy would wrap a negative index
        if not 0 <= y < preference.sizes[prompt]:
            raise ValueError(f"response {y} out of range for prompt {prompt}")
    u = rng.random()
    if u < preference.packed[prompt, first, second]:
        return first, second
    return second, first


def sample_preference_dataset(
    instance: GameInstance,
    policy: TabularPolicy,
    size: int,
    rng: np.random.Generator,
) -> list[tuple[int, int, int]]:
    """Draw (prompt, winner, loser) triples.

    Prompts follow the instance weights; the two candidates are iid draws
    from `policy` (they may coincide, in which case the winner label is a
    fair coin and the pair carries zero margin); the winner is the oracle's
    Bernoulli judgment. Every triple reads one row of the only rng call,
    `rng.random((size, 4))`, as four Generator.choice-style draws would:
    column 0 is searched in the normalized cumulative prompt weights and
    columns 1 and 2 in the drawn prompt's normalized cumulative policy row
    (searchsorted "right"), and column 3 judges u < M[x, a, b]. Prompt
    weights or a policy row that Generator.choice would refuse raise
    ValueError.
    """
    _require_count(size, 0, f"size must be a nonnegative integer, got {size!r}")
    _require_sizes(policy, instance.space.sizes, "policy")
    weights = instance.prompt_weights
    _require_drawable(weights[None], "prompt_weights must be a probability distribution")
    _require_drawable(policy.packed, "policy rows must be probability distributions")
    u = rng.random((size, 4))
    prompt_cdf = np.cumsum(weights)
    prompt_cdf /= prompt_cdf[-1]
    x = np.searchsorted(prompt_cdf, u[:, 0], "right")
    # each row's cumulative sum over its own entries, then 1.0 on the padding
    cdf = np.cumsum(policy.packed, axis=1)
    cdf /= cdf[:, -1:]
    # a right-side search is the count of entries <= u: the cdf never falls
    a = np.count_nonzero(cdf[x] <= u[:, 1:2], axis=1)
    b = np.count_nonzero(cdf[x] <= u[:, 2:3], axis=1)
    first = u[:, 3] < instance.preference.packed[x, a, b]
    return list(zip(x.tolist(), np.where(first, a, b).tolist(), np.where(first, b, a).tolist()))


# ---------------------------------------------------------------------------
# validation


def _row_sums(packed: np.ndarray, sizes) -> np.ndarray:
    """Each prompt row's sum with the bits of `row.sum()`.

    Summed one response count at a time, over the rows' own entries only:
    a sum over the padded rows would change numpy's summation order.
    """
    sums = np.empty(len(packed))
    for prompts, k in _count_groups(sizes):
        sums[prompts] = packed[prompts, :k].sum(axis=1)
    return sums


def _policy_violations(policy: TabularPolicy, tag: str) -> list[str]:
    p = policy.packed
    finite = np.isfinite(p).all(axis=1)
    p = np.where(finite[:, None], p, 0.0)  # a non-finite row reports only that
    sums = _row_sums(p, policy.sizes)
    negative = (p < 0.0).any(axis=1)
    unnormalized = np.abs(sums - 1.0) > NORMALIZATION_TOL
    empty = ~(p > 0.0).any(axis=1)
    bad = []
    for x in np.flatnonzero(~finite | negative | unnormalized | empty).tolist():
        if not finite[x]:
            bad.append(f"{tag} row {x} has non-finite entries")
            continue
        if negative[x]:
            bad.append(f"{tag} row {x} has negative entries")
        if unnormalized[x]:
            bad.append(f"{tag} row {x} normalization: sums to {float(sums[x])!r}")
        if empty[x]:
            bad.append(f"{tag} row {x} has empty support")
    return bad


def _preference_violations(preference: PairwisePreference) -> list[str]:
    m = preference.packed
    k = m.shape[1]
    ok = np.isfinite(m)
    finite = ok.all(axis=(1, 2))
    m = np.where(ok, m, 0.0)  # a non-finite matrix reports only that
    live = _live_rows(preference.sizes, k)
    outside = ((m < 0.0) | (m > 1.0)).any(axis=(1, 2))
    skew = np.abs(m + m.transpose(0, 2, 1) - 1.0) > NORMALIZATION_TOL
    skew = (skew & live[:, :, None] & live[:, None, :]).any(axis=(1, 2))
    diagonal = ((m[:, range(k), range(k)] != 0.5) & live).any(axis=1)
    bad = []
    for x in np.flatnonzero(~finite | outside | skew | diagonal).tolist():
        if not finite[x]:
            bad.append(f"preference matrix {x} has non-finite entries")
            continue
        if outside[x]:
            bad.append(f"preference matrix {x} has entries outside [0, 1]")
        if skew[x]:
            bad.append(f"preference matrix {x} breaks M + M^T = 1")
        if diagonal[x]:
            bad.append(f"preference matrix {x} diagonal is not exactly 0.5")
    return bad


@np.errstate(over="ignore")
def validate_instance(instance: GameInstance) -> list[str]:
    """Check every value-level invariant; returns violations, empty if ok.

    Each check is one array op over the padded tables; messages are built
    only for the prompts that fail one. A sum of finite entries near the
    float limit may overflow to inf, which fails its check as it should.
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

    bad.extend(_policy_violations(instance.reference, "reference"))
    bad.extend(_preference_violations(instance.preference))

    if instance.reward is not None:
        finite = np.isfinite(instance.reward.packed).all(axis=1)
        for x in np.flatnonzero(~finite).tolist():
            bad.append(f"reward row {x} has non-finite entries")

    return bad


def policy_in_support(policy: TabularPolicy, base: TabularPolicy) -> None:
    """Raise SupportViolation if policy puts mass outside base's support."""
    _require_sizes(policy, base.sizes, "policy")
    outside = (policy.packed > 0.0) & (base.packed == 0.0)
    _raise_at_first(outside, "mass outside the base policy's support")


# ---------------------------------------------------------------------------
# disk format


def _instance_to_dict(instance: GameInstance) -> dict:
    doc = {
        "prompt_weights": instance.prompt_weights.tolist(),
        "responses": [list(row) for row in instance.space.labels],
        "reference": [r.tolist() for r in instance.reference.rows],
        "preference": {
            "kind": "matrix",
            "matrices": [m.tolist() for m in instance.preference.matrices],
        },
    }
    if instance.reward is not None:
        doc["rewards"] = [r.tolist() for r in instance.reward.rows]
    return doc


def save_instance(instance: GameInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(_instance_to_dict(instance), fh, indent=1)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    """Write the header, then the rows, with csv.writer and LF line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_json(path):
    """The document in a JSON file; every decode failure is a ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:  # nesting deeper than the parser's stack
            raise ValueError("nested deeper than the JSON parser can follow") from None


def _field(key: str, build, value, kind=list):
    """build(value) for file key `key`; a malformed value is a ValueError naming it."""
    try:
        if not isinstance(value, kind):
            raise TypeError(f"expected a {kind.__name__}, got {type(value).__name__}")
        return build(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"key '{key}': {err}") from None


def _response_space(rows: list) -> ResponseSpace:
    """A ResponseSpace from label lists; a string row is not split into letters."""
    for x, row in enumerate(rows):
        if not isinstance(row, list):
            raise TypeError(f"row {x}: expected a list, got {type(row).__name__}")
    return ResponseSpace(tuple(map(tuple, rows)))


def _build_preference(doc: dict, space: ResponseSpace, reward) -> PairwisePreference:
    if not isinstance(doc, dict):
        raise ValueError("key 'preference' must be a JSON object")
    kind = doc.get("kind")
    if kind == "matrix":
        if "matrices" not in doc:
            raise ValueError("preference kind 'matrix' needs key 'matrices'")
        return _field("preference.matrices", PairwisePreference, doc["matrices"])
    if kind == "cyclic":
        if "strength" not in doc:
            raise ValueError("preference kind 'cyclic' needs key 'strength'")
        if space.num_prompts != 1:
            raise ValueError("preference kind 'cyclic' covers single-prompt instances")
        strength = _field("preference.strength", _number, doc["strength"], object)
        return make_cyclic_oracle(space.sizes[0], strength)
    if kind == "bradley_terry":
        if reward is None:
            raise ValueError("preference kind 'bradley_terry' needs key 'rewards'")
        return make_bt_oracle(reward)
    raise ValueError(f"unknown preference kind {kind!r}")


def load_instance(path) -> GameInstance:
    """Parse an instance file. Schema errors name the offending key."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError("instance file must hold a JSON object")
    for key in ("responses", "reference", "preference"):
        if key not in doc:
            raise ValueError(f"instance file missing key '{key}'")

    space = _field("responses", _response_space, doc["responses"])
    reference = _field("reference", TabularPolicy, doc["reference"])
    reward = None
    if "rewards" in doc:
        reward = _field("rewards", RewardTable, doc["rewards"])
    if "prompt_weights" in doc:
        weights = _field("prompt_weights", _numbers, doc["prompt_weights"])
    else:
        n = space.num_prompts
        weights = np.full(n, 1.0 / n)
    preference = _build_preference(doc["preference"], space, reward)
    return GameInstance(weights, space, reference, preference, reward)


# json's spellings of the floats that repr writes as nan, inf and -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def save_policy(policy: TabularPolicy, path) -> None:
    """Write {"rows": ...} with the bytes of json.dumps(..., indent=1), in one write."""
    packed, sizes = policy.packed, policy.sizes
    live = packed[_live_rows(sizes, packed.shape[1])]  # each prompt's entries, in row order
    items = list(map(float.__repr__, live.tolist()))
    if not np.isfinite(live).all():
        items = [_JSON_NONFINITE.get(s, s) for s in items]
    rows, end = [], 0
    for k in sizes:  # a row as json.dumps writes a list of floats two levels deep
        rows.append("[\n   " + ",\n   ".join(items[end:end + k]) + "\n  ]" if k else "[]")
        end += k
    with open(path, "w") as fh:
        fh.write('{\n "rows": [\n  ' + ",\n  ".join(rows) + "\n ]\n}\n")


def load_policy(path) -> TabularPolicy:
    doc = _read_json(path)
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ValueError("policy file missing key 'rows'")
    return _field("rows", TabularPolicy, doc["rows"])
