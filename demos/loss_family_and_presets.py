"""One pairwise-margin loss family, eight named training objectives.

Everything here is exact expectation on a tabular instance, so claims that
are usually argued asymptotically can be checked with a subtraction:
gradient descent on the update-matching loss lands on the closed-form
multiplicative-weights step, the winner-targeted variant differs from it
by a policy-independent constant at unit step size, and each preset
reproduces its published per-pair formula.
"""

import numpy as np

from prefgame import (
    PRESET_NAMES,
    LossConfig,
    PolicyLogits,
    TabularPolicy,
    UpdateMatchingProblem,
    compare_presets,
    minimize_loss,
    mixed_instance,
    mwu_step,
    pair_margin_loss,
    preset,
    rps_instance,
    update_matching_loss,
)


def random_interior(rng, sizes):
    rows = []
    for k in sizes:
        row = rng.random(k) + 0.05
        rows.append(row / row.sum())
    return TabularPolicy(rows)


def main():
    rng = np.random.default_rng(7)
    inst = rps_instance()
    ref = inst.reference
    eta = 0.8

    # the margin is a log-probability-ratio difference, so it needs no
    # partition function; antisymmetric in the pair by construction
    p = random_interior(rng, inst.space.sizes)
    ratio = np.log(p.rows[0]) - np.log(ref.rows[0])  # log p(y)/ref(y) per response
    m01 = ratio[0] - ratio[1]
    m10 = ratio[1] - ratio[0]
    print(f"margin(0,1) = {m01:+.4f}, margin(1,0) = {m10:+.4f} (antisymmetric)")

    # descending the update-matching loss recovers the closed-form step
    closed = mwu_step([ref], inst, eta)
    problem = UpdateMatchingProblem(inst, ref, [ref], eta)
    z0 = PolicyLogits(tuple(rng.standard_normal(k) for k in inst.space.sizes))
    res = minimize_loss(problem, z0, steps=3000, step_size=0.5)
    err = max(
        float(np.max(np.abs(a - b))) for a, b in zip(res.policy.rows, closed.rows)
    )
    print(f"\nminimize update-matching loss: final loss {res.loss:.3e},"
          f" L-inf to closed-form step {err:.3e}")
    print(f"loss at the closed-form step itself:"
          f" {update_matching_loss(closed, inst, ref, [ref], eta):.3e}")

    # at eta = 1 the winner-targeted loss (the same margin regressed onto
    # the constant 1 / (2 eta)) is the same objective shifted
    print("\nwinner-target minus update-matching at 10 random policies (eta=1):")
    winner = LossConfig((ref,), (1.0,), "sq", 0.5)
    diffs = [
        pair_margin_loss(q, [ref], winner, inst)
        - update_matching_loss(q, inst, ref, [ref], 1.0)
        for q in (random_interior(rng, inst.space.sizes) for _ in range(10))
    ]
    print(f"  values span [{min(diffs):.12f}, {max(diffs):.12f}]"
          f"  (spread {max(diffs) - min(diffs):.2e})")

    # every preset against its published formula on fresh random draws
    print("\npreset deviations over 400 random single-pair draws:")
    table = compare_presets(mixed_instance(), samples=400, seed=1)
    for name in PRESET_NAMES:
        print(f"  {name:<12} {table[name]:.2e}")

    # a preset objective evaluated like any other family member
    cfg = preset("ipo", tau=0.25)
    q = random_interior(rng, inst.space.sizes)
    value = pair_margin_loss(q, [ref], cfg, inst)
    print(f"\nipo preset (tau 0.25) exact loss at a random policy: {value:.4f}"
          f"  (regression target {1 / (2 * 0.25):.1f})")


if __name__ == "__main__":
    main()
