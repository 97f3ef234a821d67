"""Build tabular preference games, validate them, round-trip them to disk.

Shows the three bundled instances, a hand-built non-transitive oracle next
to a reward-induced transitive one, what the validator catches, and that
save/load preserves every float bit-for-bit.
"""

import json
import os
import tempfile

import numpy as np

from prefgame import (
    GameInstance,
    PairwisePreference,
    ResponseSpace,
    RewardTable,
    bt_instance,
    load_instance,
    make_bt_oracle,
    make_cyclic_oracle,
    mixed_instance,
    policy_from_rows,
    rps_instance,
    sample_preference,
    save_instance,
    validate_instance,
)


def show_instance(name, inst):
    print(f"\n== {name} ==")
    print(f"prompts: {inst.num_prompts}, weights {inst.prompt_weights}")
    for x, labels in enumerate(inst.space.labels):
        print(f"  prompt {x}: responses {labels}")
        print(f"    reference {np.round(inst.reference.rows[x], 3)}")
        with np.printoptions(precision=3, suppress=True):
            print(f"    preference matrix\n{inst.preference.matrices[x]}")
    problems = validate_instance(inst)
    print(f"  validator: {'clean' if not problems else problems}")


def main():
    for name, build in (("rps", rps_instance), ("bt", bt_instance), ("mixed", mixed_instance)):
        show_instance(name, build())

    # a cycle no scalar reward can produce: 0 beats 1 beats 2 beats 3 beats 0
    cyc = make_cyclic_oracle(4, 0.8)
    print("\ncyclic oracle, k=4, strength 0.8:")
    with np.printoptions(precision=2):
        print(cyc.matrices[0])

    # the reward-induced oracle is transitive by construction
    rewards = RewardTable((np.array([1.0, 0.0, -1.0]),))
    bt = make_bt_oracle(rewards)
    print("\nlogistic oracle from rewards (1, 0, -1):")
    with np.printoptions(precision=4):
        print(bt.matrices[0])

    # sampling judgments consumes exactly one uniform variate per call
    rng = np.random.default_rng(0)
    wins = sum(
        sample_preference(bt, 0, 0, 2, rng)[0] == 0 for _ in range(20_000)
    )
    print(f"\nempirical P(response 0 beats response 2): {wins / 20_000:.4f}"
          f"  (exact {bt.matrices[0][0, 2]:.4f})")

    # the validator names every violation instead of stopping at the first
    bad = GameInstance(
        prompt_weights=np.array([1.0]),
        space=ResponseSpace((("a", "b"),)),
        reference=policy_from_rows([[0.6, 0.3]]),
        preference=PairwisePreference((np.array([[0.5, 0.9], [0.3, 0.5]]),)),
        reward=None,
    )
    print("\nbroken instance:")
    for p in validate_instance(bad):
        print(f"  - {p}")

    # round trip is value-exact, not approximate
    inst = mixed_instance()
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "mixed.json")
        save_instance(inst, path)
        again = load_instance(path)
        with open(path) as fh:
            kind = json.load(fh)["preference"]["kind"]
    same = all(
        np.array_equal(a, b)
        for a, b in zip(inst.preference.matrices, again.preference.matrices)
    )
    print(f"\nsave/load round trip bit-identical: {same}")
    print(json.dumps(kind))


if __name__ == "__main__":
    main()
