"""The unified pairwise-margin loss family.

Every loss here compares a log-ratio margin against a target under a
distance metric. For a winner/loser pair (y, y') the margin is

    m(y, y') = log pi(y)/pi(y') - sum_j lambda_j log pi_j(y)/pi_j(y')

with opponent policies pi_j drawn from an iterate history, the reference,
or explicit external policies. The metric is either the squared distance
or the backward Bernoulli KL

    bwd(a, b) = KL( Bernoulli(sigmoid(b)) || Bernoulli(sigmoid(a)) )

whose b -> +inf limit is -log sigmoid(a), the classic logistic preference
loss. Named presets (dpo, ipo, sppo, spin, dno, inpo, simpo, distill_dpo)
are nothing but particular (opponents, weights, metric, target) choices.

Two closed-form companions tie the family to the self-play solver, and
both are family members too: the squared loss whose exact minimizer is
the next multiplicative-weights iterate (update_matching_loss), and its
sampled-target simplification with the constant winner target
(winner_target_loss). With the constant target 1/(2 eta) the two differ
by a policy-independent constant exactly at eta = 1 when the pair source
equals the opponent mixture; tests pin that configuration.

One evaluator computes every loss and gradient from one padded table of
pair weights W[x, a, b]: in exact-expectation mode cur(a) * cur(b) * M[a, b]
over distinct responses (an iid pair draw plus a Bernoulli winner), on an
explicit dataset the share of (prompt, winner, loser) triples (x, a, b).

Optimization works on packed logits, and the policy is their softmax over the
reference support. Every margin is then a plain difference of logits: the
softmax normaliser is one constant per prompt, and the difference cancels it.
So iterates never touch the boundary, and a margins pass makes no exp or log.
The evaluator's helpers take a leading init axis: minimize_loss descends a
batch of inits in lockstep on one stacked (B, P, K) logits array, one margins
pass per round of proposals, and a problem's public value and gradient are
the one-init case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

from .instances import (
    NORMALIZATION_TOL,
    GameInstance,
    TabularPolicy,
    _PerPrompt,
    _mixture_weights,
    _raise_at_first,
    _require_count,
    _require_positive,
    _require_sizes,
    _softmax_policy,
)
from .objectives import expected_win_rates

METRICS = ("sq", "bwd")
TARGET_RULES = ("win_rate_gap", "reward_gap")
PRESET_NAMES = (
    "dpo",
    "distill_dpo",
    "simpo",
    "dno",
    "spin",
    "sppo",
    "ipo",
    "inpo",
)

OpponentRef = Union[int, str, TabularPolicy]


def _metric(metric: str, m, t, slope: bool):
    """metric(m, t) elementwise, or its derivative in m when slope is set.

    t is a table matching m or a scalar; the scalar +inf (bwd only) gives
    the logistic limit -log sigmoid(m).
    """
    if metric == "sq":
        return 2.0 * (m - t) if slope else (m - t) ** 2
    if isinstance(t, float) and math.isinf(t):
        return -np.exp(-np.logaddexp(0.0, m)) if slope else np.logaddexp(0.0, -m)
    log_q = -np.logaddexp(0.0, -t)
    if slope:
        return np.exp(-np.logaddexp(0.0, -m)) - np.exp(log_q)
    log_1q = -np.logaddexp(0.0, t)
    return np.exp(log_q) * (log_q + np.logaddexp(0.0, -m)) + np.exp(log_1q) * (
        log_1q + np.logaddexp(0.0, m)
    )


@dataclass(frozen=True, eq=False)
class LossConfig:
    """One member of the loss family.

    opponents entries are offsets into an iterate history (0 = current),
    the string "ref" for the reference policy, or explicit policies.
    target is a scalar (math.inf allowed for the bwd metric only), or one
    of the rules "win_rate_gap" (exact win-rate difference against the
    opponent mixture) and "reward_gap" (reward-table difference). The loss
    regresses the margin onto eta * target; beta rescales the margin for
    the bwd metric and is ignored by sq.
    """

    opponents: tuple[OpponentRef, ...]
    weights: tuple[float, ...]
    metric: str
    target: float | str
    eta: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "opponents", tuple(self.opponents))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) != len(self.opponents):
            raise ValueError("need one weight per opponent")
        for ref in self.opponents:
            if isinstance(ref, bool) or not isinstance(
                ref, (int, str, TabularPolicy)
            ):
                raise ValueError(f"bad opponent reference {ref!r}")
            if isinstance(ref, int) and ref < 0:
                raise ValueError("history offsets must be nonnegative")
            if isinstance(ref, str) and ref != "ref":
                raise ValueError(f"unknown opponent name {ref!r}")
        if not all(0.0 <= w <= 1.0 for w in self.weights):
            raise ValueError("weights must lie in [0, 1]")
        if sum(self.weights) > 1.0 + NORMALIZATION_TOL:
            raise ValueError("weights must sum to at most 1")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if isinstance(self.target, str):
            if self.target not in TARGET_RULES:
                raise ValueError(f"unknown target rule {self.target!r}")
        else:
            t = float(self.target)
            if math.isnan(t) or t == -math.inf:
                raise ValueError(f"bad target {t}")
            if math.isinf(t) and self.metric == "sq":
                raise ValueError("the sq metric cannot chase an infinite target")
        _require_positive(self.eta, "eta must be positive and finite")
        _require_positive(self.beta, "beta must be positive and finite")

    @property
    def n_players(self) -> int:
        return len(self.opponents) + 1


def preset(name: str, eta: float = 1.0, tau: float = 0.1, beta: float = 1.0) -> LossConfig:
    """Named members of the family.

    The scalar-target presets (ipo, inpo) and the reward-target preset
    (distill_dpo) store eta = 1 so the regression target is exactly the
    advertised constant; sppo keeps eta as the target scale. Only ipo and
    inpo read tau, which must be finite; inpo needs a finite eta and
    0 < tau <= eta for weights in [0, 1].
    """
    if name == "dpo":
        return LossConfig(("ref",), (1.0,), "bwd", math.inf, beta=beta)
    if name == "distill_dpo":
        return LossConfig(("ref",), (1.0,), "sq", "reward_gap", eta=1.0)
    if name == "simpo":
        return LossConfig((), (), "bwd", math.inf, beta=beta)
    if name == "dno":
        return LossConfig((0,), (1.0,), "bwd", math.inf, beta=beta)
    if name == "spin":
        # the weight column reads beta, but the published loss scales the
        # whole margin, which is what the bwd metric's beta already does
        return LossConfig((0,), (1.0,), "bwd", math.inf, beta=beta)
    if name == "sppo":
        return LossConfig((0,), (1.0,), "sq", "win_rate_gap", eta=eta)
    if name == "ipo":
        _require_positive(tau, f"ipo needs a finite tau > 0, got {tau}")
        return LossConfig(("ref",), (1.0,), "sq", 1.0 / (2.0 * tau), eta=1.0)
    if name == "inpo":
        if not math.isfinite(eta):
            raise ValueError(f"inpo needs a finite eta, got {eta}")
        if not 0.0 < tau <= eta:  # NaN fails too; tau is finite with eta
            raise ValueError(f"inpo needs 0 < tau <= eta, got tau={tau}, eta={eta}")
        weights = ((eta - tau) / eta, tau / eta)
        return LossConfig((0, "ref"), weights, "sq", 1.0 / (2.0 * tau), eta=1.0)
    raise ValueError(f"unknown preset {name!r}")


# ---------------------------------------------------------------------------
# margins


def _resolve_opponents(
    config: LossConfig, history: Sequence[TabularPolicy], instance: GameInstance
) -> list[TabularPolicy]:
    out = []
    for ref in config.opponents:
        if isinstance(ref, TabularPolicy):
            out.append(ref)
        elif ref == "ref":
            out.append(instance.reference)
        else:
            if ref >= len(history):
                raise ValueError(
                    f"opponent offset {ref} but history holds {len(history)} policies"
                )
            out.append(history[ref])
    return out


def _logs(policy, touched, who):
    """log pi on the (P, K) `touched` mask, 0 elsewhere; zero mass there is an error."""
    probs = np.where(touched, policy.packed, 1.0)
    _raise_at_first(probs == 0.0, f"{who} has zero mass")
    return np.log(probs)


def log_ratio_margin(
    policy: TabularPolicy,
    opponents: Sequence[TabularPolicy],
    prompt: int,
    first: int,
    second: int,
) -> float:
    """Equal-weight margin log pi(y)/pi(y') - mean_j log pi_j(y)/pi_j(y')."""
    if len(opponents) == 0:
        raise ValueError("need at least one opponent")
    # IndexError past the prompt's count; negative indices count from its end
    pair = np.arange(policy.sizes[prompt])[[first, second]]
    touched = np.zeros(policy.packed.shape, dtype=bool)
    touched[prompt, pair] = True
    u = _logs(policy, touched, "policy")[prompt, pair]
    for opp in opponents:
        u -= _logs(opp, touched, "opponent")[prompt, pair] / len(opponents)
    return float(u[0] - u[1])


# ---------------------------------------------------------------------------
# the pair-margin evaluator


def _targets(config, instance, opponents):
    """eta * target for every (x, a, b), or a scalar (possibly inf)."""
    if not isinstance(config.target, str):
        return config.eta * float(config.target)
    if config.target == "reward_gap":
        if instance.reward is None:
            raise ValueError("target rule 'reward_gap' needs a reward table")
        v = config.eta * instance.reward.packed
    else:  # win_rate_gap
        if len(opponents) == 0:
            raise ValueError("target rule 'win_rate_gap' needs opponents")
        v = config.eta * expected_win_rates(instance, opponents)
    return v[:, :, None] - v[:, None, :]


def _pair_weights(instance, data):
    """(P, K, K) share of the (prompt, winner, loser) triples in each cell."""
    if len(data) == 0:
        raise ValueError("empty preference dataset")
    triples = np.asarray(data)
    if triples.shape[1:] != (3,) or triples.dtype.kind not in "iu":
        raise ValueError("data must be (prompt, winner, loser) triples of indices")
    x, a, b = triples.T
    shape = instance.preference.packed.shape
    try:  # rejects negative indices and those past the last prompt or response
        cells = np.ravel_multi_index((x, a, b), shape)
    except ValueError:
        raise ValueError("data names a prompt or response outside the instance") from None
    if np.count_nonzero(np.maximum(a, b) >= np.asarray(instance.space.sizes)[x]):
        raise ValueError("data names a response past its prompt's count")
    return np.bincount(cells, minlength=math.prod(shape)).reshape(shape) / len(triples)


def _pair_tables(instance, history, config, data):
    """Everything the evaluator needs but the policy, padded over prompts.

    Returns (touched, W, offset, target, factor, beta, scale): the (P, K)
    mask of the responses the pairs touch, the (P, K, K) pair weights, the
    opponent part sum_j w_j log pi_j of the margin offsets, the eta-scaled
    target (a (P, K, K) table or a scalar), the (P,) prompt factors, the
    margin scale (config.beta for the bwd metric, 1 for sq) and the
    gradient's (P, 1) row scale factor * beta.
    Exact mode zeroes W's diagonal (a judged pair is two responses);
    dataset mode keeps it (a triple may name one response twice).
    """
    if len(history) == 0:
        raise ValueError("history must contain at least the current policy")
    opponents = _resolve_opponents(config, history, instance)
    for policy in (history[0], *opponents):
        _require_sizes(policy, instance.space.sizes, "policy")
    if data is None:
        cur = history[0].packed
        touched = cur > 0.0
        pair_w = cur[:, :, None] * cur[:, None, :] * instance.preference.packed
        diagonal = np.arange(cur.shape[1])
        pair_w[:, diagonal, diagonal] = 0.0
        factor = instance.prompt_weights
    else:
        pair_w = _pair_weights(instance, data)
        touched = (pair_w + pair_w.transpose(0, 2, 1)).any(axis=2)
        factor = np.ones(instance.num_prompts)
    logs = (_logs(opp, touched, "opponent") for opp in opponents)
    offset = sum(w * lo for w, lo in zip(config.weights, logs))
    target = _targets(config, instance, opponents)
    beta = config.beta if config.metric == "bwd" else 1.0
    return touched, pair_w, offset, target, factor, beta, (factor * beta)[:, None]


def _margins(tables, z):
    """beta h_xab = beta (u_xa - u_xb), u = z - sum_j w_j log pi_j.

    z is (B, P, K), one row block per init: log pi, or logits whose softmax
    over a support holding the touched mask is pi (softmax shifts each
    prompt's log pi by one constant, which u_xa - u_xb cancels). u is 0 off
    the touched mask. The margins are (B, P, K, K).
    """
    touched, _, offset, _, _, beta, _ = tables
    u = np.where(touched, z, 0.0) - offset
    margins = u[..., :, None] - u[..., None, :]
    return margins if beta == 1.0 else beta * margins


def _value(tables, metric, margins):
    """sum_x factor_x sum_ab W[x, a, b] metric(beta h_xab, target_xab), per init.

    Returns a (B,) array. einsum sums each init's prompt terms in one order
    whatever the number of inits, so a stacked pass has the one-init bits.
    """
    _, pair_w, _, target, factor, _, _ = tables
    values = _metric(metric, margins, target, slope=False)
    return np.einsum("bp,p->b", (pair_w * values).sum(axis=(2, 3)), factor)


def _slope(tables, metric, margins):
    """The (B, P, K) logit gradients of _value at the same margins.

    h_xab moves with z_xa - z_xb, so a row is the row sums minus the
    column sums of W * slope, times beta and the prompt factor.
    """
    _, pair_w, _, target, _, _, scale = tables
    g = pair_w * _metric(metric, margins, target, slope=True)
    return (g.sum(axis=3) - g.sum(axis=2)) * scale


def pair_margin_loss(
    policy: TabularPolicy,
    history: Sequence[TabularPolicy],
    config: LossConfig,
    instance: GameInstance,
    data: Sequence[tuple[int, int, int]] | None = None,
) -> float:
    """Evaluate one family member.

    history[0] is the current policy; integer opponent references index
    into it. With data=None the loss is the exact expectation over
    distinct pairs from history[0] with Bernoulli winner weights (a
    judged pair is two different responses, so coincident draws carry no
    weight); otherwise it is the mean over the given (prompt, winner,
    loser) triples of nonnegative integer indices.
    """
    _require_sizes(policy, instance.space.sizes, "policy")
    tables = _pair_tables(instance, history, config, data)
    margins = _margins(tables, _logs(policy, tables[0], "policy")[None])
    return float(_value(tables, config.metric, margins)[0])


# ---------------------------------------------------------------------------
# named configurations: the solver companions and external anchors


def _matching_config(opponents, eta, winner_target=False) -> LossConfig:
    """The member behind update_matching_loss and winner_target_loss.

    The squared metric on the equal-weight margin, regressed onto the
    eta-scaled win-rate gap (the zero target at eta = 0, which a config's
    eta cannot be) or onto 1 / (2 eta).
    """
    if len(opponents) == 0:
        raise ValueError("need at least one opponent")
    n = len(opponents)
    if winner_target:
        target, eta = 1.0 / (2.0 * eta), 1.0
    elif eta == 0.0:
        target, eta = 0.0, 1.0
    else:
        target = "win_rate_gap"
    return LossConfig(tuple(opponents), (1.0 / n,) * n, "sq", target, eta)


def update_matching_loss(
    policy: TabularPolicy,
    instance: GameInstance,
    current: TabularPolicy,
    opponents: Sequence[TabularPolicy],
    eta: float,
) -> float:
    """Exact squared loss whose unique minimizer is the next MWU iterate.

    E over winner-ordered pairs from `current` of (h(y_w, y_l) - Theta)^2
    where h is the equal-weight margin and Theta the scaled win-rate
    advantage. The residual is swap-symmetric, so the winner weighting
    only halves the plain iid-pair sum; it matters when this loss is
    compared against the winner-target variant, whose residual is not.
    """
    config = _matching_config(opponents, eta)
    return pair_margin_loss(policy, [current], config, instance)


def winner_target_loss(
    policy: TabularPolicy,
    instance: GameInstance,
    current: TabularPolicy,
    opponents: Sequence[TabularPolicy],
    eta: float,
) -> float:
    """Sampled-target variant: winner-ordered pairs against 1 / (2 eta).

    E over distinct pairs (y, y') from `current` and a Bernoulli winner
    draw of (h(y_w, y_l) - 1/(2 eta))^2. Ordered pair (a, b) carries
    weight cur(a) cur(b) M[a, b], the same distribution as the
    update-matching loss, so the two differ by a policy-independent
    constant whenever eta = 1.
    """
    config = _matching_config(opponents, eta, winner_target=True)
    return pair_margin_loss(policy, [current], config, instance)


def _anchored(instance, externals, config, pair_policy):
    """(history, config) of the external-anchor variant of `config`."""
    if len(externals) == 0:
        raise ValueError("need at least one external policy")
    _mixture_weights(config.weights, len(externals), "external-opponent")
    anchored = replace(config, opponents=tuple(externals))
    source = instance.reference if pair_policy is None else pair_policy
    return [source], anchored


def external_margin_loss(
    policy: TabularPolicy,
    externals: Sequence[TabularPolicy],
    config: LossConfig,
    instance: GameInstance,
    data: Sequence[tuple[int, int, int]] | None = None,
    pair_policy: TabularPolicy | None = None,
) -> float:
    """Family variant with fixed external opponents and convex weights.

    The weights must sum to exactly one (within tolerance), so the margin
    is a proper mixture of anchored log ratios. Exact mode draws pairs
    from pair_policy, defaulting to the reference.
    """
    history, anchored = _anchored(instance, externals, config, pair_policy)
    return pair_margin_loss(policy, history, anchored, instance, data)


# ---------------------------------------------------------------------------
# optimization over logits


class PolicyLogits(_PerPrompt):
    """Per-prompt real rows; the policy is softmax over the reference support."""

    rows = cached_property(_PerPrompt._views)

    def __init__(self, rows):
        super().__init__(rows)
        finite = np.isfinite(self.packed).all(axis=1)
        if not finite.all():
            raise ValueError(f"logit row {int(np.argmin(finite))} must be finite")


def logits_to_policy(logits: PolicyLogits, reference: TabularPolicy) -> TabularPolicy:
    """Softmax restricted to the reference support; excluded entries get 0."""
    _require_sizes(logits, reference.sizes, "logits")
    return _softmax_policy(logits.packed, reference.packed > 0.0, reference.sizes)


class PairMarginProblem:
    """pair_margin_loss (exact or sampled) as a function of logits.

    Everything but the policy is fixed, so the pair tables and the support
    checks run once. Every pair lies on the reference support, so each
    margin is a difference of logits, which no probability underflow can
    reach however far apart the logits are. value and gradient are the
    one-init case of the margins pass that minimize_loss runs on a stack of
    inits, and a problem keeps no per-call state.
    """

    def __init__(self, instance, history, config, data=None):
        self.instance = instance
        self.config = config
        self._tables = _pair_tables(instance, history, config, data)
        live = instance.reference.packed > 0.0
        dead = ~live.any(axis=1)
        if dead.any():
            raise ValueError(f"prompt {int(np.argmax(dead))}: no reference support")
        _raise_at_first(self._tables[0] & ~live, "pairs leave the reference support")

    def _margins_at(self, logits: PolicyLogits) -> np.ndarray:
        _require_sizes(logits, self.instance.space.sizes, "logits")
        return _margins(self._tables, logits.packed[None])

    def value(self, logits: PolicyLogits) -> float:
        return float(_value(self._tables, self.config.metric, self._margins_at(logits))[0])

    def gradient(self, logits: PolicyLogits) -> PolicyLogits:
        """d value / d logits, packed; a per-prompt logit shift leaves it unchanged."""
        grad = _slope(self._tables, self.config.metric, self._margins_at(logits))
        return PolicyLogits._wrap(grad[0], logits.sizes)


class UpdateMatchingProblem(PairMarginProblem):
    """update_matching_loss as a function of logits."""

    def __init__(self, instance, current, opponents, eta):
        super().__init__(instance, [current], _matching_config(opponents, eta))

    # Not inherited: perfbench/tracing.py looks these up in this class's __dict__.
    def value(self, logits):
        return super().value(logits)

    def gradient(self, logits):
        return super().gradient(logits)


class WinnerTargetProblem(PairMarginProblem):
    """winner_target_loss as a function of logits."""

    def __init__(self, instance, current, opponents, eta):
        config = _matching_config(opponents, eta, winner_target=True)
        super().__init__(instance, [current], config)


class ExternalMarginProblem(PairMarginProblem):
    """external_margin_loss as a function of logits."""

    def __init__(self, instance, externals, config, data=None, pair_policy=None):
        history, anchored = _anchored(instance, externals, config, pair_policy)
        super().__init__(instance, history, anchored, data)


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    policy: TabularPolicy
    logits: PolicyLogits
    loss: float
    grad_max: float
    steps_taken: int


# Inits descended in lockstep share one stack: a chunk holds as many as keep
# one (B, P, K, K) pair table within this many bytes, and the rest follow.
_LOCKSTEP_BYTES = 1 << 20


def minimize_loss(
    problem: PairMarginProblem,
    init: PolicyLogits | Sequence[PolicyLogits],
    steps: int = 4000,
    step_size: float = 0.5,
    trace: Callable[[int, float, float], None] | None = None,
) -> MinimizeResult | list[MinimizeResult]:
    """Plain gradient descent with backtracking.

    A proposal that fails to decrease the loss halves the step and is
    retried; a success grows the step by 1.2x. Stops when the step
    underflows, the gradient is at machine floor, or steps run out.
    init is one PolicyLogits, which returns one MinimizeResult, or a
    sequence of them, which returns one result per init. A sequence
    descends in lockstep, each init with its own step size and stopping
    rule, and each result has the bits of that init's own descent.
    trace, when given, is called as trace(accepted_steps, loss, grad_max)
    for the first init, at the start and after every accepted proposal.
    A loss that is not finite at an init raises ValueError.
    """
    _require_count(steps, 0, f"steps must be a nonnegative integer, got {steps}")
    _require_positive(step_size, f"step_size must be positive and finite, got {step_size}")
    single = isinstance(init, PolicyLogits)
    inits = [init] if single else list(init)
    if not inits:
        raise ValueError("need at least one init")
    for i, z in enumerate(inits):
        if not isinstance(z, PolicyLogits):
            raise TypeError(f"init {i} is {type(z).__name__}, not PolicyLogits")
        _require_sizes(z, problem.instance.space.sizes, f"init {i}: logits")
    prompts, width = inits[0].packed.shape
    chunk = max(1, _LOCKSTEP_BYTES // (8 * prompts * width * width))
    results = []
    for start in range(0, len(inits), chunk):
        results += _lockstep(
            problem, inits[start : start + chunk], start, steps, step_size,
            trace if start == 0 else None,
        )
    return results[0] if single else results


def _lockstep(problem, inits, first, steps, step_size, trace) -> list[MinimizeResult]:
    """minimize_loss on the stacked logits of `inits`, the first being init `first`.

    Each iteration proposes one step for every init still running, takes
    all their values in one margins pass and, when any accepts, the
    accepted inits' gradients from the same margins in one pass. An init
    that stops leaves the stack, so `ids` maps stack rows to inits.
    """
    tables, metric = problem._tables, problem.config.metric
    z = np.stack([lo.packed for lo in inits])
    with np.errstate(all="ignore"):  # reported below, as an error
        margins = _margins(tables, z)
        val = _value(tables, metric, margins)
    bad = ~np.isfinite(val)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"the loss at init {first + i} is {val[i]}, not finite")
    grad = _slope(tables, metric, margins)
    gmax = np.abs(grad).max(axis=(1, 2))
    step = np.full(len(inits), float(step_size))
    ids = np.arange(len(inits))
    results = [None] * len(inits)

    def finish(rows, taken):
        for j in rows:
            logits = PolicyLogits._wrap(z[j].copy(), inits[ids[j]].sizes)
            policy = logits_to_policy(logits, problem.instance.reference)
            results[ids[j]] = MinimizeResult(
                policy, logits, float(val[j]), float(gmax[j]), taken
            )

    accepted = 0
    if trace is not None:
        trace(0, float(val[0]), float(gmax[0]))
    for t in range(1, steps + 1):
        stop = (gmax < 1e-13) | (step < 1e-18)  # a NaN gradient runs on
        if stop.any():
            finish(np.flatnonzero(stop), t)
            keep = ~stop
            ids, z, val, grad, gmax, step = (a[keep] for a in (ids, z, val, grad, gmax, step))
            if ids.size == 0:
                break
        with np.errstate(over="ignore", invalid="ignore"):  # not finite: rejected
            cand = z - step[:, None, None] * grad
            margins = _margins(tables, cand)
            cand_val = _value(tables, metric, margins)
        ok = cand_val < val
        if ok.all():
            z, val = cand, cand_val
            grad = _slope(tables, metric, margins)
            gmax = np.abs(grad).max(axis=(1, 2))
        elif ok.any():
            z[ok] = cand[ok]
            val[ok] = cand_val[ok]
            grad[ok] = _slope(tables, metric, margins[ok])
            gmax[ok] = np.abs(grad[ok]).max(axis=(1, 2))
        step *= np.where(ok, 1.2, 0.5)
        if trace is not None and ids[0] == 0 and ok[0]:
            accepted += 1
            trace(accepted, float(val[0]), float(gmax[0]))
    finish(range(ids.size), int(steps))
    return results
