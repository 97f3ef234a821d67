"""Span tracing of prefgame's public functions, installed from outside.

Tracer.install rebinds each traced function in every prefgame module
namespace that holds it, and each traced method on its class, to a timing
wrapper; Tracer.uninstall puts the originals back. Nothing under src/ is
edited. Spans stay in memory as (name, start, end, parent span, op id)
until the run ends.

Self time of a span is its duration minus the durations of its direct
children: calls run on one thread, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import gzip
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _pl_tuples(args, kwargs, result):
    """Weighted tuples a Plackett-Luce win table enumerates, as the cap counts them."""
    instance, opponents = args[0], args[1]
    aggregator = args[2] if len(args) > 2 else kwargs.get("aggregator")
    if aggregator is None or aggregator.kind != "plackett_luce":
        return 0
    size = 0
    for x, k in enumerate(instance.space.sizes):
        tuples = 1
        for o in opponents:
            tuples *= int(np.count_nonzero(o.rows[x] > 0.0))
        size += tuples * k
    return size


# (module, attribute path, extra count name, count hook)
TRACED = (
    ("cli", "main", None, None),
    ("harness", "run_experiment", None, None),
    ("harness", "gap_report", None, None),
    ("instances", "load_instance", "instances.in_bytes",
     lambda a, kw, r: os.path.getsize(a[0])),
    ("instances", "validate_instance", None, None),
    ("instances", "load_policy", "instances.in_bytes",
     lambda a, kw, r: os.path.getsize(a[0])),
    ("instances", "save_policy", None, None),
    ("solvers", "self_play_run", None, None),
    ("solvers", "mwu_step", "solvers.prompt_iters",
     lambda a, kw, r: a[1].num_prompts),
    ("solvers", "RunLog.to_csv", None, None),
    ("objectives", "expected_win_rates", "objectives.pl_tuples", _pl_tuples),
    ("objectives", "multiplayer_objective", None, None),
    ("objectives", "kl_divergence", None, None),
    ("objectives", "two_player_objective", None, None),
    ("equilibrium", "exploitability_multiplayer", None, None),
    ("equilibrium", "best_response_unregularized", None, None),
    ("equilibrium", "best_response_kl", None, None),
    ("equilibrium", "dual_gap_two_player", None, None),
    ("losses", "minimize_loss", None, None),
    ("losses", "UpdateMatchingProblem.value", None, None),
    ("losses", "UpdateMatchingProblem.gradient", None, None),
    ("losses", "update_matching_loss", None, None),
    ("losses", "logits_to_policy", None, None),
    ("reward_learning", "generate_rankings", None, None),
    ("reward_learning", "rankings_to_csv", None, None),
    ("reward_learning", "fit_pl_reward", "reward_learning.fit_steps",
     lambda a, kw, r: r.steps_taken),
    ("reward_learning", "pl_nll_gradient", None, None),
    ("reward_learning", "pl_nll", None, None),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _, _ in TRACED)
MODULES = tuple(dict.fromkeys(mod for mod, _, _, _ in TRACED))
COUNT_NAMES = tuple(dict.fromkeys(c for _, _, c, _ in TRACED if c)) + (
    "harness.out_bytes",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count_name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if hook is not None:
                counts[self.op][count_name] += hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function and method to its timing wrapper."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "prefgame" or n.startswith("prefgame."))]
        for mod, attr, count_name, hook in TRACED:
            owner = sys.modules[f"prefgame.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                targets = [(cls, meth)]
            else:
                original = getattr(owner, attr)
                targets = [(ns, key) for ns in namespaces
                           for key, val in vars(ns).items() if val is original]
            wrapper = self._wrap(f"{mod}.{attr}", original, count_name, hook)
            for target, key in targets:
                self._undo.append((target, key, original))
                setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def per_op(self):
        """{op: ({span name: calls}, {span name: self seconds}, root seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            calls, self_s, root = out.setdefault(op, (defaultdict(int), defaultdict(float), [0.0]))
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if parent < 0:
                root[0] += end - start
        return {op: (c, s, r[0]) for op, (c, s, r) in out.items()}

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls per op, median self ms per op, counts, shares."""
        ops = self.per_op()
        n = len(ops)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = sum(c[name] for c, _, _ in ops.values()) / n
            out[f"{name}.self_ms"] = 1e3 * statistics.median(s[name] for _, s, _ in ops.values())
        for name in COUNT_NAMES:
            out[name] = sum(self.counts[op][name] for op in ops) / n
        value_calls = out["losses.UpdateMatchingProblem.value.calls"]
        grad_calls = out["losses.UpdateMatchingProblem.gradient.calls"]
        runs = out["losses.minimize_loss.calls"]
        # minimize_loss evaluates value and gradient once up front, then one
        # value per proposal and one gradient per accepted proposal.
        out["losses.accept_ratio"] = (
            (grad_calls - runs) / (value_calls - runs) if value_calls > runs else 0.0
        )
        total = sum(root for _, _, root in ops.values())
        for mod in MODULES:
            mod_s = sum(t for _, s, _ in ops.values()
                        for name, t in s.items() if name.startswith(mod + "."))
            out[f"{mod}.self_share"] = mod_s / total
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
