"""Bundled example instances.

Three small games anchor the tests and demos: a single-prompt
rock-paper-scissors game (purely cyclic, so no reward model explains it),
a five-response game with a Bradley-Terry oracle (fully transitive), and
a three-prompt game mixing cyclic, Bradley-Terry, and hand-written
matrix prompts under non-uniform prompt weights.

The rock-paper-scissors reference is deliberately non-uniform: uniform
play is the game's fixed point, and a solver started there would have
nothing to do.
"""

from __future__ import annotations

import os

import numpy as np

from .instances import (
    GameInstance,
    PairwisePreference,
    RewardTable,
    ResponseSpace,
    TabularPolicy,
    make_bt_oracle,
    make_cyclic_oracle,
    save_instance,
)


def rps_instance() -> GameInstance:
    """Rock-paper-scissors with a skewed reference policy.

    The cyclic oracle has response i beating i + 1, so the labels are
    listed in beats-next order.
    """
    space = ResponseSpace((("rock", "scissors", "paper"),))
    return GameInstance(
        prompt_weights=np.array([1.0]),
        space=space,
        reference=TabularPolicy([[0.5, 0.3, 0.2]]),
        preference=make_cyclic_oracle(3, 1.0),
        reward=RewardTable((np.zeros(3),)),
    )


def bt_instance() -> GameInstance:
    """Five responses with equally spaced rewards and the matching oracle."""
    rewards = RewardTable((np.array([2.0, 1.0, 0.0, -1.0, -2.0]),))
    space = ResponseSpace((("a", "b", "c", "d", "e"),))
    return GameInstance(
        prompt_weights=np.array([1.0]),
        space=space,
        reference=TabularPolicy([[0.2, 0.2, 0.2, 0.2, 0.2]]),
        preference=make_bt_oracle(rewards),
        reward=rewards,
    )


def mixed_instance() -> GameInstance:
    """Three prompts: cyclic, Bradley-Terry, and an explicit 2x2 matrix."""
    space = ResponseSpace(
        (
            ("alpha", "beta", "gamma"),
            ("a", "b", "c", "d"),
            ("yes", "no"),
        )
    )
    bt_row = np.array([1.5, 0.5, -0.5, -1.5])
    preference = PairwisePreference(
        (
            make_cyclic_oracle(3, 1.0).matrices[0],
            make_bt_oracle(RewardTable((bt_row,))).matrices[0],
            np.array([[0.5, 0.7], [0.3, 0.5]]),
        )
    )
    reward = RewardTable(
        (np.zeros(3), bt_row, np.array([0.3, -0.3]))
    )
    return GameInstance(
        prompt_weights=np.array([0.5, 0.3, 0.2]),
        space=space,
        reference=TabularPolicy(
            [[0.2, 0.3, 0.5], [0.4, 0.3, 0.2, 0.1], [0.5, 0.5]]
        ),
        preference=preference,
        reward=reward,
    )


BUNDLED = {
    "rps": rps_instance,
    "bt": bt_instance,
    "mixed": mixed_instance,
}


def write_bundled(directory) -> dict[str, str]:
    """Write every bundled instance as `<name>.json`; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, build in BUNDLED.items():
        path = os.path.join(directory, f"{name}.json")
        save_instance(build(), path)
        paths[name] = path
    return paths
