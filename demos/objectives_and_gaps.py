"""Game values, best responses, and how far a policy is from equilibrium.

The duality gap and exploitability are the scoreboard for everything else
in this library: both are zero exactly at the symmetric equilibrium and
grow as a policy becomes easier to beat.
"""

import numpy as np

from prefgame import (
    PLACKETT_LUCE,
    TabularPolicy,
    best_response_kl,
    best_response_unregularized,
    bt_instance,
    dual_gap_two_player,
    exploitability_multiplayer,
    kl_divergence,
    multiplayer_objective,
    point_mass_policy,
    rps_instance,
    two_player_objective,
    uniform_policy,
)


def main():
    inst = rps_instance()
    uniform = uniform_policy(inst.space)
    rock = point_mass_policy(inst.space, [0])
    lopsided = TabularPolicy([[0.6, 0.2, 0.2]])

    print("value of p against q, cyclic game (0.5 = even):")
    for name, p in (("uniform", uniform), ("rock", rock), ("lopsided", lopsided)):
        value = two_player_objective(p, uniform, inst)
        print(f"  {name:<9} vs uniform: {value:.4f}")
    print(f"  rock      vs rock:    {two_player_objective(rock, rock, inst):.4f}"
          "  (self-play is always 0.5)")

    print("\nbest response to each policy:")
    for name, p in (("uniform", uniform), ("rock", rock), ("lopsided", lopsided)):
        br = best_response_unregularized(inst, [p])
        print(f"  vs {name:<9} -> {np.round(br.policy.rows[0], 3)}"
              f"  value {br.value:.4f}")

    print("\ndistance from equilibrium:")
    print(f"{'policy':<10} {'dual gap':>10} {'exploitability':>15}")
    for name, p in (("uniform", uniform), ("lopsided", lopsided), ("rock", rock)):
        gap = dual_gap_two_player(p, inst)
        expl = exploitability_multiplayer(p, 2, inst)
        print(f"{name:<10} {gap:>10.4f} {expl:>15.4f}")
    print("(two players: exploitability is exactly half the dual gap)")

    # a KL anchor pulls the best response back toward the reference
    print("\nKL-regularized best response to 'rock', reference",
          np.round(inst.reference.rows[0], 2))
    for tau in (10.0, 1.0, 0.1, 0.01):
        br = best_response_kl(inst, [rock], tau)
        kl = kl_divergence(br.policy, inst.reference, inst)
        print(f"  tau {tau:>5}: {np.round(br.policy.rows[0], 3)}  KL to ref {kl:.3f}")

    # the one-vs-many value with softmax pooling; identical players tie at 1/n.
    # The table is one integral over the opponents' independent draws, so at
    # n = 64 it costs what n = 2 does, not 5**63 ordered tuples of draws.
    ladder = bt_instance()
    me = uniform_policy(ladder.space)
    print()
    for n in (*range(2, 9), 16, 64):
        value = multiplayer_objective(me, [me] * (n - 1), ladder, 0.0, PLACKETT_LUCE)
        print(f"n={n} identical players, softmax pooling: value {value:.6f}"
              f" (1/n = {1 / n:.6f})")


if __name__ == "__main__":
    main()
