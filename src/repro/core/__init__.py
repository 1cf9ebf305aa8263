"""The paper's contribution: domain-decomposed parallel training and
halo-exchange parallel inference of PDE-surrogate CNNs."""

from .checkpoint import (
    TrainingCheckpoint,
    load_checkpoint,
    load_checkpoint_precision,
    load_checkpoint_scenario,
    load_parallel_models,
    save_checkpoint,
    save_parallel_models,
)
from .engine import (
    Callback,
    Checkpointer,
    EarlyStopping,
    Engine,
    GradClip,
    LossHistory,
    LRScheduler,
    PerfCounters,
    ProgressLogger,
    SanitizerAttach,
    Timer,
)
from .evaluation import ParallelEvaluation, evaluate_parallel, skill_vs_identity
from .inference import (
    EnsembleStepper,
    InferencePlan,
    ParallelPredictor,
    RolloutResult,
    rollout,
)
from .metrics import (
    mae,
    mape,
    max_error,
    per_channel,
    relative_l2,
    rmse,
    summarize,
)
from .model import (
    PAPER_CHANNELS,
    PAPER_KERNEL_SIZE,
    PAPER_NEGATIVE_SLOPE,
    CNNConfig,
    SubdomainCNN,
    build_paper_cnn,
)
from .padding import PaddingStrategy, parse_strategy
from .parallel import (
    ParallelTrainer,
    ParallelTrainingResult,
    RankTrainingResult,
    train_sequential_baseline,
)
from .subdomain_data import RankDataset, build_rank_dataset
from .trainer import TrainingConfig, TrainingHistory, evaluate_network, predict, train_network
from .weight_averaging import WeightAveragingResult, train_weight_averaging

__all__ = [
    "Engine",
    "Callback",
    "LossHistory",
    "Timer",
    "LRScheduler",
    "GradClip",
    "EarlyStopping",
    "Checkpointer",
    "SanitizerAttach",
    "PerfCounters",
    "ProgressLogger",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_precision",
    "load_checkpoint_scenario",
    "TrainingCheckpoint",
    "PaddingStrategy",
    "parse_strategy",
    "CNNConfig",
    "SubdomainCNN",
    "build_paper_cnn",
    "PAPER_CHANNELS",
    "PAPER_KERNEL_SIZE",
    "PAPER_NEGATIVE_SLOPE",
    "RankDataset",
    "build_rank_dataset",
    "TrainingConfig",
    "TrainingHistory",
    "train_network",
    "evaluate_network",
    "predict",
    "ParallelTrainer",
    "ParallelTrainingResult",
    "RankTrainingResult",
    "train_sequential_baseline",
    "ParallelPredictor",
    "EnsembleStepper",
    "rollout",
    "InferencePlan",
    "RolloutResult",
    "train_weight_averaging",
    "WeightAveragingResult",
    "save_parallel_models",
    "evaluate_parallel",
    "ParallelEvaluation",
    "skill_vs_identity",
    "load_parallel_models",
    "mape",
    "rmse",
    "mae",
    "max_error",
    "relative_l2",
    "per_channel",
    "summarize",
]
