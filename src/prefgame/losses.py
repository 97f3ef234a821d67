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

The squared loss whose exact minimizer is the next multiplicative-weights
iterate ties the family to the self-play solver (update_matching_loss).
Its winner-target variant regresses the same equal-weight margin onto the
constant 1/(2 eta) instead, and an external-anchor loss names its fixed
opponent policies in the config and draws pairs from an explicit source;
both are plain LossConfigs, and tests pin that at eta = 1 the winner
target differs from update matching by a policy-independent constant.

One evaluator computes every loss and gradient from one padded table of
pair weights W[x, a, b]: in exact-expectation mode the prompt weight times
cur(a) * cur(b) * M[a, b] over distinct responses (an iid pair draw plus a
Bernoulli winner), on an explicit dataset the share of (prompt, winner,
loser) triples (x, a, b). Under sq a target rule v_a - v_b joins the margin
offsets, and the loss is a quadratic form in the offset logits u (the margins
are u_a - u_b): the pair table carries its Hessian, the weighted graph
Laplacian of W + W^T, so the value pass hands u to the gradient, which is one
contraction with that Laplacian plus a constant row for a nonzero target.

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
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

from .instances import (
    NORMALIZATION_TOL,
    GameInstance,
    TabularPolicy,
    _PerPrompt,
    _Record,
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


def _bwd(m, t, slope: bool):
    """bwd(m, t) elementwise, or its derivative in m when slope is set.

    t is a table matching m or a scalar, and the scalar +inf gives
    -log sigmoid(m); _value and _slope write out the sq metric.
    """
    if isinstance(t, float) and math.isinf(t):
        return -np.exp(-np.logaddexp(0.0, m)) if slope else np.logaddexp(0.0, -m)
    log_q = -np.logaddexp(0.0, -t)
    if slope:
        return np.exp(-np.logaddexp(0.0, -m)) - np.exp(log_q)
    log_1q = -np.logaddexp(0.0, t)
    return np.exp(log_q) * (log_q + np.logaddexp(0.0, -m)) + np.exp(log_1q) * (
        log_1q + np.logaddexp(0.0, m)
    )


class LossConfig(_Record, eq=False):
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


# ---------------------------------------------------------------------------
# the pair-margin evaluator


def _targets(config, instance, opponents):
    """eta * target: a scalar (possibly inf), or a rule's (P, K) v, target v_xa - v_xb."""
    if not isinstance(config.target, str):
        return config.eta * float(config.target)
    if config.target == "reward_gap":
        if instance.reward is None:
            raise ValueError("target rule 'reward_gap' needs a reward table")
        return config.eta * instance.reward.packed
    if len(opponents) == 0:  # win_rate_gap
        raise ValueError("target rule 'win_rate_gap' needs opponents")
    return config.eta * expected_win_rates(instance, opponents)


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

    Returns (touched, W, offset, target, beta, lap, row): the (P, K) mask of
    the responses the pairs touch, the (P, K, K) pair weights times the
    prompt factor, the (P, K) margin offsets (the opponent part sum_j w_j log
    pi_j, plus for sq a target rule's v on the touched mask, which leaves
    target 0: h_xab - (v_xa - v_xb) is one difference), the eta-scaled target
    (a (P, K, K) table or a scalar), the margin scale (config.beta for bwd)
    and, for sq, _laplacian's Hessian and constant gradient row (None for bwd).
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
        factor = instance.prompt_weights[:, None, None]
        pair_w = cur[:, :, None] * cur[:, None, :] * instance.preference.packed * factor
        diagonal = np.arange(cur.shape[1])
        pair_w[:, diagonal, diagonal] = 0.0
    else:  # every prompt factor is 1
        pair_w = _pair_weights(instance, data)
        touched = (pair_w + pair_w.transpose(0, 2, 1)).any(axis=2)
    logs = (_logs(opp, touched, "opponent") for opp in opponents)
    offset = sum(w * lo for w, lo in zip(config.weights, logs))
    target = _targets(config, instance, opponents)
    if isinstance(target, np.ndarray):
        if config.metric == "sq":
            offset, target = offset + np.where(touched, target, 0.0), 0.0
        else:
            target = target[:, :, None] - target[:, None, :]
    if config.metric == "bwd":
        return touched, pair_w, offset, target, config.beta, None, None
    return (touched, pair_w, offset, target, 1.0, *_laplacian(pair_w, target))


def _laplacian(pair_w, target):
    """The sq loss's (P, K, K) Hessian in u, and its (P, K) gradient at u = 0.

    sum_ab W_ab (u_a - u_b - c)^2 has the gradient lap u + row, with lap =
    2 (diag(S 1) - S) the Laplacian of S = W + W^T and row = -2 c (W 1 -
    W^T 1), None when the scalar target c is 0. A self-pair's margin is 0
    whatever u, so S's diagonal is zeroed first.
    """
    sym = pair_w + pair_w.transpose(0, 2, 1)
    diagonal = np.arange(sym.shape[1])
    sym[:, diagonal, diagonal] = 0.0
    lap = -2.0 * sym
    lap[:, diagonal, diagonal] = 2.0 * sym.sum(axis=2)
    if not target:
        return lap, None
    return lap, -2.0 * target * (pair_w.sum(axis=2) - pair_w.sum(axis=1))


def _margins(tables, z):
    """The offset logits u = z - offset and beta h_xab = beta (u_xa - u_xb).

    z is (B, P, K), one row block per init: log pi, or logits whose softmax
    over a support holding the touched mask is pi (softmax shifts each
    prompt's log pi by one constant, which u_xa - u_xb cancels). u is 0 off
    the touched mask, whatever z holds there. Returns u, (B, P, K), and the
    margins, (B, P, K, K).
    """
    touched, _, offset, _, beta, _, _ = tables
    u = np.where(touched, z, 0.0) - offset
    margins = u[..., :, None] - u[..., None, :]
    return u, (margins if beta == 1.0 else beta * margins)


def _value(tables, metric, passed):
    """sum_xab W[x, a, b] metric(beta h_xab, target_xab), per init.

    `passed` is what _margins returns. Returns the (B,) values and what
    _slope reads: for sq the offset logits u (the value sums W r r, for the
    residual r of each margin), for bwd the margins. Each init's terms are
    summed as one contiguous row, in one order whatever the number of inits,
    so a stacked pass has the one-init bits.
    """
    _, pair_w, _, target, _, _, _ = tables
    u, margins = passed
    if metric == "sq":
        residual = margins - target if target else margins
        held, terms = u, pair_w * residual * residual
    else:
        held, terms = margins, pair_w * _bwd(margins, target, slope=False)
    return terms.reshape(len(terms), -1).sum(axis=1), held


def _slope(tables, metric, held):
    """The (B, P, K) logit gradients of _value where it handed over `held`.

    For sq, the Laplacian times u, plus the constant row for a nonzero
    target. For bwd, h_xab moves with z_xa - z_xb, so a row is the row sums
    minus the column sums of W * bwd', times beta.
    """
    _, pair_w, _, target, beta, lap, row = tables
    if metric == "sq":
        grad = np.einsum("pab,npb->npa", lap, held)
        if row is not None:
            grad += row
        return grad
    g = pair_w * _bwd(held, target, slope=True)
    grad = g.sum(axis=3) - g.sum(axis=2)
    return grad if beta == 1.0 else beta * grad


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
    return float(_value(tables, config.metric, margins)[0][0])


# ---------------------------------------------------------------------------
# the update-matching configuration


def _matching_config(opponents, eta) -> LossConfig:
    """The member behind update_matching_loss and UpdateMatchingProblem.

    The squared metric on the equal-weight margin, regressed onto the
    eta-scaled win-rate gap (the zero target at eta = 0, which a config's
    eta cannot be).
    """
    if len(opponents) == 0:
        raise ValueError("need at least one opponent")
    n = len(opponents)
    target = "win_rate_gap"
    if eta == 0.0:
        target, eta = 0.0, 1.0
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
    compared against the winner-target config, whose residual is not.
    """
    config = _matching_config(opponents, eta)
    return pair_margin_loss(policy, [current], config, instance)


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

    def _value_at(self, logits: PolicyLogits):
        _require_sizes(logits, self.instance.space.sizes, "logits")
        return _value(self._tables, self.config.metric, _margins(self._tables, logits.packed[None]))

    def value(self, logits: PolicyLogits) -> float:
        return float(self._value_at(logits)[0][0])

    def gradient(self, logits: PolicyLogits) -> PolicyLogits:
        """d value / d logits, packed; a per-prompt logit shift leaves it unchanged."""
        grad = _slope(self._tables, self.config.metric, self._value_at(logits)[1])
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


class MinimizeResult(_Record, eq=False):
    policy: TabularPolicy
    logits: PolicyLogits
    loss: float
    grad_max: float
    steps_taken: int


# Inits descended in lockstep share one stack: a chunk holds as many as keep
# one (B, P, K, K) pair table within this many bytes, and the rest follow.
_LOCKSTEP_BYTES = 1 << 20
_STEP_FLOOR = 1e-18  # a descent stops once its step falls below this


def minimize_loss(
    problem: PairMarginProblem,
    init: PolicyLogits | Sequence[PolicyLogits],
    steps: int = 4000,
    step_size: float = 0.5,
    trace: Callable[[int, float, float], None] | None = None,
) -> MinimizeResult | list[MinimizeResult]:
    """Plain gradient descent with backtracking.

    A proposal that fails to decrease the loss halves the step and is
    retried; a success grows the step by 1.2x. Stops when the step falls
    below _STEP_FLOOR (a step_size below it raises ValueError), the
    gradient is at machine floor, or steps run out.
    init is one PolicyLogits, which returns one MinimizeResult, or a
    sequence of them, which returns one result per init. A sequence
    descends in lockstep, each init with its own step size and stopping
    rule, and each result has the bits of that init's own descent
    (_lockstep decides each round on lists read off the stack, and its
    gradient pass reads the value pass's sq offset logits). trace, when
    given, is called as trace(accepted_steps, loss, grad_max) for the
    first init, at the start and after every accepted proposal. A loss
    that is not finite at an init raises ValueError.
    """
    _require_count(steps, 0, f"steps must be a nonnegative integer, got {steps}")
    _require_positive(step_size, f"step_size must be positive and finite, got {step_size}")
    if step_size < _STEP_FLOOR:
        raise ValueError(f"step_size must be at least {_STEP_FLOOR}, got {step_size}")
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

    A round proposes one step for every init still running, takes all
    their values in one margins pass and, when any accepts, the accepted
    inits' gradients in one pass from what _value handed over (the sq
    offset logits, or the margins). The stop, accept and trace decisions
    read each boolean array once, as a list. Stopped inits leave the stack, and
    `ids` maps stack rows to inits.
    """
    tables, metric = problem._tables, problem.config.metric
    z = np.stack([lo.packed for lo in inits])
    with np.errstate(all="ignore"):  # reported below, as an error
        val, held = _value(tables, metric, _margins(tables, z))
    bad = ~np.isfinite(val)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"the loss at init {first + i} is {val[i]}, not finite")
    grad = _slope(tables, metric, held)
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
    shrunk = False  # steps start at or above the floor and shrink only on a rejection
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: rejected
        for t in range(1, steps + 1):
            stop = gmax < 1e-13  # a NaN gradient runs on
            if shrunk:
                stop |= step < _STEP_FLOOR
            if any(stop.tolist()):
                finish(np.flatnonzero(stop), t)
                ids, z, val, grad, gmax, step = (a[~stop] for a in (ids, z, val, grad, gmax, step))
                if ids.size == 0:
                    break
            cand = z - step[:, None, None] * grad
            cand_val, held = _value(tables, metric, _margins(tables, cand))
            ok = cand_val < val
            oks = ok.tolist()
            shrunk = not all(oks)
            if shrunk:
                if any(oks):
                    z[ok] = cand[ok]
                    val[ok] = cand_val[ok]
                    grad[ok] = _slope(tables, metric, held[ok])
                    gmax[ok] = np.abs(grad[ok]).max(axis=(1, 2))
                step *= np.where(ok, 1.2, 0.5)
            else:
                z, val = cand, cand_val
                grad = _slope(tables, metric, held)
                gmax = np.abs(grad).max(axis=(1, 2))
                step *= 1.2
            if trace is not None and ids[0] == 0 and oks[0]:
                accepted += 1
                trace(accepted, float(val[0]), float(gmax[0]))
    finish(range(ids.size), int(steps))
    return results
