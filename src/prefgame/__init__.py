"""Exact preference-game experiments on desk-scale tabular instances.

Everything is small enough to enumerate: policies are probability rows,
preference oracles are matrices, objectives and equilibrium gaps are
computed exactly, and the solver/loss identities that large-scale
preference-optimization methods rely on can be checked to machine
precision instead of argued about.
"""

from .instances import (
    NORMALIZATION_TOL,
    GameInstance,
    PairwisePreference,
    ResponseSpace,
    RewardTable,
    SupportViolation,
    TabularPolicy,
    load_instance,
    load_policy,
    make_bt_oracle,
    make_cyclic_oracle,
    point_mass_policy,
    policy_in_support,
    sample_preference,
    sample_preference_dataset,
    save_instance,
    save_policy,
    uniform_policy,
    validate_instance,
)
from .objectives import (
    MEAN_PAIRWISE,
    PLACKETT_LUCE,
    Aggregator,
    closed_form_multi_teacher_optimum,
    expected_win_rates,
    kl_divergence,
    multi_teacher_objective,
    multiplayer_objective,
    two_player_objective,
)
from .equilibrium import (
    TIE_TOL,
    BestResponseResult,
    NegativeGapError,
    best_response_kl,
    best_response_unregularized,
    dual_gap_two_player,
    exploitability_multiplayer,
)
from .solvers import (
    OPPONENT_SCHEMES,
    RunLog,
    RunRecord,
    SelfPlayResult,
    SolverConfig,
    mwu_step,
    self_play_run,
)
from .losses import (
    METRICS,
    PRESET_NAMES,
    TARGET_RULES,
    LossConfig,
    MinimizeResult,
    PairMarginProblem,
    PolicyLogits,
    UpdateMatchingProblem,
    logits_to_policy,
    minimize_loss,
    pair_margin_loss,
    preset,
    update_matching_loss,
)
from .reward_learning import (
    FitResult,
    RankedComparison,
    Rankings,
    fit_pl_reward,
    generate_rankings,
    pl_nll,
    pl_nll_gradient,
    rankings_from_csv,
    rankings_to_csv,
)
from .catalog import BUNDLED, bt_instance, mixed_instance, rps_instance, write_bundled
from .harness import (
    EXIT_CONFIG,
    EXIT_INVALID,
    EXIT_MISSING_FILE,
    EXIT_OK,
    MODES,
    ConfigError,
    ExperimentConfig,
    ValidationFailure,
    compare_presets,
    config_from_dict,
    derive_rng,
    gap_report,
    load_config,
    run_experiment,
)

__version__ = "0.1.0"
