"""Experiment runners regenerating every table and figure of the paper
plus the ablations DESIGN.md calls out."""

from .ablations import (
    AblationResult,
    AblationRow,
    RolloutStudyResult,
    SchemeComparisonResult,
    run_augmentation_ablation,
    run_loss_ablation,
    run_optimizer_ablation,
    run_padding_ablation,
    run_rollout_study,
    run_scheme_comparison,
)
from .cost_model import ScalingModel, analyse_fig4, fit_scaling_model
from .common import (
    DataConfig,
    ExperimentData,
    adapt_cnn_to_scenario,
    default_cnn_config,
    default_training_config,
    paper_faithful_training_config,
    prepare_data,
)
from .fig3_accuracy import Fig3Config, Fig3Result, run_fig3
from .fig4_scaling import PAPER_RANK_COUNTS, Fig4Config, Fig4Result, ScalingRow, run_fig4
from .precision_gate import PrecisionGateConfig, PrecisionGateResult, run_precision_gate
from .reporting import ascii_heatmap, format_scaling_plot, format_table, side_by_side
from .table1 import architecture_rows, render_table1

__all__ = [
    "DataConfig",
    "ExperimentData",
    "prepare_data",
    "adapt_cnn_to_scenario",
    "default_cnn_config",
    "default_training_config",
    "paper_faithful_training_config",
    "Fig3Config",
    "Fig3Result",
    "run_fig3",
    "Fig4Config",
    "Fig4Result",
    "ScalingRow",
    "run_fig4",
    "PAPER_RANK_COUNTS",
    "PrecisionGateConfig",
    "PrecisionGateResult",
    "run_precision_gate",
    "ScalingModel",
    "fit_scaling_model",
    "analyse_fig4",
    "run_padding_ablation",
    "run_augmentation_ablation",
    "run_loss_ablation",
    "run_optimizer_ablation",
    "run_rollout_study",
    "run_scheme_comparison",
    "AblationResult",
    "AblationRow",
    "RolloutStudyResult",
    "SchemeComparisonResult",
    "render_table1",
    "architecture_rows",
    "format_table",
    "ascii_heatmap",
    "side_by_side",
    "format_scaling_plot",
]
