"""Recover a reward table from top-1-of-pool ranking data.

Generates comparisons from a known reward table, fits by maximum
likelihood, and compares: recovery error shrinks like 1/sqrt(m), the
fitted pairwise probabilities match empirical win rates, and data where
one response never loses is flagged instead of silently fit.
"""

import numpy as np

from prefgame import (
    GameInstance,
    RankedComparison,
    Rankings,
    ResponseSpace,
    RewardTable,
    TabularPolicy,
    fit_pl_reward,
    generate_rankings,
    make_bt_oracle,
    pl_nll,
)


def ladder(rewards):
    row = np.asarray(rewards, dtype=np.float64)
    table = RewardTable((row,))
    k = len(row)
    return GameInstance(
        prompt_weights=np.array([1.0]),
        space=ResponseSpace((tuple(f"r{i}" for i in range(k)),)),
        reference=TabularPolicy([np.full(k, 1.0 / k)]),
        preference=make_bt_oracle(table),
        reward=table,
    )


def main():
    true = np.array([1.2, 0.4, 0.0, -0.6])
    inst = ladder(true)
    centered = true - true.mean()

    print("ground truth (centered):", np.round(centered, 4))
    print(f"\n{'m':>7} {'max abs error':>14} {'nll':>9} {'converged':>10}")
    for m in (200, 2000, 20_000):
        rng = np.random.default_rng(3)
        data = generate_rankings(inst.reward, inst, m, 2, rng)
        fit = fit_pl_reward(data, inst)
        err = float(np.max(np.abs(fit.rewards.rows[0] - centered)))
        print(f"{m:>7} {err:>14.4f} {fit.final_nll:>9.4f} {str(fit.converged):>10}")

    rng = np.random.default_rng(3)
    data = generate_rankings(inst.reward, inst, 20_000, 2, rng)
    fit = fit_pl_reward(data, inst)
    print("\nfitted (centered):     ", np.round(fit.rewards.rows[0], 4))

    # pairwise sanity: logistic of the fitted gap vs the observed rate
    pair_rng = np.random.default_rng(11)
    pairs = generate_rankings(inst.reward, inst, 10_000, 1, pair_rng)
    (_, _, members), = pairs.blocks  # one pool size: the winner, then the loser
    duels = members[np.all(np.sort(members, axis=1) == [0, 1], axis=1)]
    won = float(np.mean(duels[:, 0] == 0))
    gap = float(fit.rewards.rows[0][0] - fit.rewards.rows[0][1])
    print(f"\nP(r0 beats r1): empirical {won:.4f} on {len(duels)} duels,"
          f" logistic of fitted gap {1 / (1 + np.exp(-gap)):.4f}")

    # likelihood only sees reward differences; shifting a prompt is free
    shifted = RewardTable((fit.rewards.rows[0] + 500.0,))
    print(f"nll drift under a +500 shift: "
          f"{abs(pl_nll(shifted, pairs) - pl_nll(fit.rewards, pairs)):.2e}")

    # separable data has no finite maximum-likelihood fit
    biased = Rankings([RankedComparison(0, 0, (1, 2)) for _ in range(60)])
    fit = fit_pl_reward(biased, ladder(np.zeros(4)), steps=200)
    print(f"\n60 comparisons all won by r0: converged={fit.converged},"
          f" fitted row {np.round(fit.rewards.rows[0], 2)} (running away)")


if __name__ == "__main__":
    main()
