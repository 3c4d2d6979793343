"""Stackelberg reinforcement learning of transmit power in two-tier networks."""

from .channel import (
    NetworkConfig,
    Topology,
    db_to_linear,
    dbm_to_watt,
    gain_matrix,
    generate_topology,
    linear_to_db,
    watt_to_dbm,
)
from .config import ConfigError, ExperimentConfig, default_config, load_config, parse_config
from .dynamics import (
    FieldTensors,
    integrate_dynamics,
    logit_residual,
    strategy_derivative,
    total_variation,
)
from .game import (
    ActionSet,
    EquilibriumResult,
    GameInstance,
    UserParams,
    normalized_utility_tensors,
    sinr,
    sinr_tensor,
    stackelberg_oracle,
    utility,
    utility_tensor,
)
from .harness import (
    CompleteInfoResult,
    ExperimentResult,
    PreparedGame,
    SweepResult,
    build_game,
    compare_summary,
    complete_information_reference,
    learning_rng,
    run_experiment,
    sweep_gamma0,
)
from .learning import (
    ALGORITHMS,
    NONCOOP,
    RLA1,
    RLA2,
    LearnerSettings,
    StackelbergLearning,
    Trace,
    read_trace,
)

__version__ = "0.1.0"
