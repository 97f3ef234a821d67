"""Independent answer checks, one per workload.

Each check recomputes the workload's answer in plain numpy from the input
files (and, for rewardfit, from the rankings the op wrote) without calling
prefgame, then compares it with the op's output files. A check returns a
list of problems; an empty list means the outputs are right.

Tolerances sit far above rounding noise (the program loops per prompt,
these replicas use padded or vectorised arrays, so sums run in another
order) and far below any change a wrong answer would make.
"""

from __future__ import annotations

import csv
import json
import os
import zlib

import numpy as np

# Printed CSV values carry 12 significant digits.
CSV_RTOL = 1e-9
# Policy, reward and gap values are written at full precision.
VALUE_TOL = 1e-10
# lossmin: largest accepted distance between the minimizer and the update.
UPDATE_GAP_TOL = 1e-10
# rewardfit: gradient tolerance of the fit (fit_pl_reward's default).
FIT_TOL = 1e-6


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _close(got, want, rtol, atol=0.0) -> bool:
    return abs(got - want) <= atol + rtol * max(1.0, abs(want))


def _rows_close(got_rows, want_rows, tol) -> bool:
    if len(got_rows) != len(want_rows):
        return False
    for g, w in zip(got_rows, want_rows):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != w.shape or not np.all(np.abs(g - w) <= tol):
            return False
    return True


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class _Instance:
    """The instance file's numbers, padded to (prompts, max responses)."""

    def __init__(self, path):
        doc = _load(path)
        self.sizes = [len(r) for r in doc["reference"]]
        p, k = len(self.sizes), max(self.sizes)
        self.mask = np.zeros((p, k), dtype=bool)
        self.ref = np.zeros((p, k))
        for x, row in enumerate(doc["reference"]):
            self.mask[x, : len(row)] = True
            self.ref[x, : len(row)] = row
        self.weights = np.asarray(doc.get("prompt_weights", np.full(p, 1.0 / p)))
        self.rewards = None
        if "rewards" in doc:
            self.rewards = np.zeros((p, k))
            for x, row in enumerate(doc["rewards"]):
                self.rewards[x, : len(row)] = row
        self.pref = None  # only the workloads with matrix oracles need it
        if doc["preference"]["kind"] == "matrix":
            self.pref = np.zeros((p, k, k))
            for x, m in enumerate(doc["preference"]["matrices"]):
                self.pref[x, : len(m), : len(m)] = m

    def unpad(self, arr):
        return [arr[x, :k] for x, k in enumerate(self.sizes)]


def _softmax(logit, mask):
    logit = np.where(mask, logit, -np.inf)
    e = np.exp(logit - logit.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _kl(p, q, weights):
    on = p > 0.0
    terms = np.where(on, p * (np.log(np.where(on, p, 1.0)) - np.log(np.where(on, q, 1.0))), 0.0)
    return float(weights @ terms.sum(axis=1))


# ---------------------------------------------------------------------------
# selfplay_wide: dense two-player MWU replica


def _selfplay_reference(inst: _Instance, eta, iterations, stride):
    """Iterates, running average and per-row metrics of 2-player self-play."""
    cur = inst.ref.copy()
    total = cur.copy()
    rows = []

    def metrics(t, avg):
        win = np.einsum("pab,pb->pa", inst.pref, avg)
        best = np.where(inst.mask, win, -np.inf).max(axis=1)
        held = np.einsum("pa,pa->p", avg, win)
        gap = max(float(inst.weights @ best - inst.weights @ held), 0.0)
        rows.append((t, gap, _kl(avg, inst.ref, inst.weights), float(inst.weights @ held)))

    metrics(0, cur)
    for t in range(1, iterations + 1):
        with np.errstate(divide="ignore"):
            logit = np.log(cur) + eta * np.einsum("pab,pb->pa", inst.pref, cur)
        cur = _softmax(logit, inst.mask)
        total += cur
        if t % stride == 0 or t == iterations:
            avg = total / (t + 1)
            metrics(t, avg / avg.sum(axis=1, keepdims=True))
    avg = total / (iterations + 1)
    return cur, avg / avg.sum(axis=1, keepdims=True), rows


def check_selfplay(config, out_dir):
    inst = _Instance(config["instance"])
    final, average, rows = _selfplay_reference(
        inst, config["eta"], config["iterations"], config["metric_stride"]
    )
    problems = []
    for name, want in (("policy_final.json", final), ("policy_average.json", average)):
        if not _rows_close(_load(os.path.join(out_dir, name))["rows"], inst.unpad(want), VALUE_TOL):
            problems.append(f"{name} differs from the dense MWU replica")
    header, got = _read_csv(os.path.join(out_dir, "metrics.csv"))
    if header != ["iter", "gap", "kl_ref", "self_play_value", "elapsed_ms"]:
        problems.append(f"metrics.csv header {header}")
    elif len(got) != len(rows):
        problems.append(f"metrics.csv has {len(got)} rows, replica {len(rows)}")
    else:
        for g, (t, gap, kl, value) in zip(got, rows):
            vals = [float(v) for v in g[1:]]
            if int(g[0]) != t or not all(
                _close(a, b, CSV_RTOL, 1e-12) for a, b in zip(vals, (gap, kl, value, 0.0))
            ):
                problems.append(f"metrics.csv row {g} differs from replica {t, gap, kl, value}")
                break
    return problems


# ---------------------------------------------------------------------------
# gap_pl: vectorised Plackett-Luce tuple enumeration


def _pl_win_table(rewards_row, policy_row, opponents):
    """W[y] = E over opponent tuples of e_y / (e_y + sum_j e_{y_j})."""
    e = np.exp(rewards_row - rewards_row.max())
    weight = np.ones(1)
    denom = np.zeros(1)
    for _ in range(opponents):
        weight = (weight[:, None] * policy_row[None, :]).ravel()
        denom = (denom[:, None] + e[None, :]).ravel()
    return (weight[None, :] * (e[:, None] / (e[:, None] + denom[None, :]))).sum(axis=1)


def check_gap_pl(config, out_dir):
    inst = _Instance(config["instance"])
    policy = np.asarray(_load(config["policy"])["rows"], dtype=np.float64)
    tau = config["tau"]
    opponents = config["n_players"] - 1
    win = np.stack([
        _pl_win_table(inst.rewards[x], policy[x], opponents) for x in range(len(policy))
    ])
    br = _softmax(np.log(inst.ref) + win / tau, inst.mask)

    def value(p):
        return float(inst.weights @ np.einsum("pa,pa->p", p, win)) - tau * _kl(
            p, inst.ref, inst.weights
        )

    want = max(value(br) - value(policy), 0.0)
    got = _load(os.path.join(out_dir, "gap.json"))
    problems = []
    if not _close(got.get("exploitability", np.nan), want, VALUE_TOL):
        problems.append(f"exploitability {got.get('exploitability')} != replica {want}")
    expected = {"aggregator": "plackett_luce", "n_players": config["n_players"],
                "policy": config["policy"], "tau": tau}
    for key, val in expected.items():
        if got.get(key) != val:
            problems.append(f"gap.json {key}={got.get(key)!r}, expected {val!r}")
    return problems


# ---------------------------------------------------------------------------
# lossmin: update-matching loss at the first init, convergence to the update


def _named_stream(seed, *names):
    """prefgame's documented stream derivation: crc32 names as spawn keys."""
    keys = tuple(zlib.crc32(n.encode("utf-8")) for n in names)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=keys))


def _update_matching(inst: _Instance, eta, z):
    """Loss and max-abs logit gradient, current = opponent = reference."""
    total, gmax = 0.0, 0.0
    for x, k in enumerate(inst.sizes):
        ref, m = inst.ref[x, :k], inst.pref[x, :k, :k]
        u = z[x] - z[x].max()
        u = u - np.log(np.exp(u).sum()) - np.log(ref)
        adv = eta * (m @ ref)
        resid = (u[:, None] - u[None, :]) - (adv[:, None] - adv[None, :])
        pair_w = np.outer(ref, ref) * m
        np.fill_diagonal(pair_w, 0.0)
        total += inst.weights[x] * float(np.sum(pair_w * resid**2))
        g = 2.0 * pair_w * resid
        gmax = max(gmax, float(np.max(np.abs(inst.weights[x] * (g.sum(1) - g.sum(0))))))
    return total, gmax


def check_lossmin(config, out_dir):
    inst = _Instance(config["instance"])
    rng = _named_stream(config["seed"], "lossmin", "init0")
    z0 = [rng.standard_normal(k) for k in inst.sizes]
    loss0, grad0 = _update_matching(inst, config["eta"], z0)

    problems = []
    header, rows = _read_csv(os.path.join(out_dir, "descent.csv"))
    if header != ["step", "loss", "grad_norm"] or not rows:
        return [f"descent.csv header {header} with {len(rows)} rows"]
    steps = [int(r[0]) for r in rows]
    losses = [float(r[1]) for r in rows]
    if steps != list(range(len(rows))):
        problems.append("descent.csv steps are not 0, 1, 2, ...")
    if not (_close(losses[0], loss0, CSV_RTOL) and _close(float(rows[0][2]), grad0, CSV_RTOL)):
        problems.append(f"descent.csv row 0 {rows[0]} != replica ({loss0}, {grad0})")
    if any(b > a for a, b in zip(losses, losses[1:])):
        problems.append("descent.csv loss increases")

    report = _load(os.path.join(out_dir, "report.json"))
    inits = report.get("inits", [])
    worst = report.get("worst_gap_to_update", np.inf)
    if len(inits) != config["inits"] or report.get("eta") != config["eta"]:
        problems.append("report.json does not describe the configured run")
    elif not worst <= UPDATE_GAP_TOL:
        problems.append(f"worst_gap_to_update {worst} above {UPDATE_GAP_TOL}")
    elif worst != max(r["max_abs_gap_to_update"] for r in inits):
        problems.append("worst_gap_to_update is not the worst init")
    return problems


# ---------------------------------------------------------------------------
# rewardfit: fixed-step centred descent replayed on the written rankings


def _read_rankings(path, sizes, pool_size):
    header, rows = _read_csv(path)
    if header != ["prompt", "winner", "pool"]:
        raise ValueError(f"rankings.csv header {header}")
    prompts = np.array([int(r[0]) for r in rows])
    members = np.array([[int(r[1])] + [int(y) for y in r[2].split(";")] for r in rows])
    if members.shape[1] != pool_size + 1:
        raise ValueError("rankings.csv pools have the wrong size")
    k = np.asarray(sizes)[prompts]
    if np.any(members < 0) or np.any(members >= k[:, None]):
        raise ValueError("rankings.csv names a response out of range")
    if any(len(set(m)) != len(m) for m in members.tolist()):
        raise ValueError("rankings.csv repeats a response within a comparison")
    return prompts, members


def _fit(sizes, prompts, members, steps, step_size):
    """Rewards, final mean NLL and steps taken of the centred descent."""
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    where = offsets[prompts][:, None] + members
    owner = np.repeat(np.arange(len(sizes)), sizes)
    counts = np.asarray(sizes, dtype=np.float64)
    flat = np.zeros(int(np.sum(sizes)))

    def grad(flat):
        s = flat[where]
        e = np.exp(s - s.max(axis=1, keepdims=True))
        share = e / e.sum(axis=1, keepdims=True)
        share[:, 0] -= 1.0
        return np.bincount(where.ravel(), share.ravel(), len(flat)) / len(prompts)

    def centre(flat):
        return flat - (np.bincount(owner, flat) / counts)[owner]

    taken = 0
    for t in range(steps):
        g = grad(flat)
        if np.max(np.abs(g)) <= FIT_TOL:
            break
        flat = centre(flat - step_size * g)
        taken = t + 1
    s = flat[where]
    top = s.max(axis=1)
    nll = float(np.mean(top + np.log(np.exp(s - top[:, None]).sum(axis=1)) - s[:, 0]))
    return np.split(flat, offsets[1:]), nll, taken


def check_rewardfit(config, out_dir):
    inst = _Instance(config["instance"])
    try:
        prompts, members = _read_rankings(
            os.path.join(out_dir, "rankings.csv"), inst.sizes, config["pool_size"]
        )
    except (ValueError, IndexError) as err:
        return [str(err)]
    problems = []
    if len(prompts) != config["comparisons"]:
        problems.append(f"rankings.csv has {len(prompts)} comparisons")
    rows, nll, taken = _fit(inst.sizes, prompts, members, config["steps"], config["step_size"])
    if not _rows_close(_load(os.path.join(out_dir, "fitted.json"))["rows"], rows, VALUE_TOL):
        problems.append("fitted.json differs from the centred-descent replica")
    report = _load(os.path.join(out_dir, "report.json"))
    if not _close(report.get("final_nll", np.nan), nll, VALUE_TOL):
        problems.append(f"final_nll {report.get('final_nll')} != replica {nll}")
    if report.get("steps_taken") != taken or report.get("comparisons") != config["comparisons"]:
        problems.append("report.json steps or comparisons differ from the replica")
    return problems


CHECKS = {
    "selfplay_wide": check_selfplay,
    "gap_pl": check_gap_pl,
    "lossmin": check_lossmin,
    "rewardfit": check_rewardfit,
}


def check(workload: str, config_path: str) -> list[str]:
    """Problems with the outputs of the op run on `config_path`."""
    config = _load(config_path)
    try:
        return CHECKS[workload](config, config["out_dir"])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]
