"""Subclass-distillation laboratory.

Train a teacher on subclass labels, distill its temperature-softened
predictions into a smaller student, evaluate both at class level, and bound
the label information (in bits) that each labeling scheme can transfer.
"""

from .capacity import (
    BitsBreakdown,
    BitsReportRow,
    ChannelSpec,
    ConvergenceError,
    DetectionParams,
    HierarchyBitsParams,
    bac_capacity,
    bac_channel,
    bac_exponent,
    bac_optimal_input,
    binary_entropy,
    blahut_arimoto,
    confusion_to_channel,
    counts_from_confusions,
    detection_bits_bound,
    estimate_accuracy,
    hierarchy_bits_bound,
    label_bits_report,
    mutual_information,
    qsc_capacity,
    qsc_channel,
    write_bits_csv,
    write_bits_json,
    z_channel,
    z_channel_capacity,
)
from .data import (
    Dataset,
    SyntheticSpec,
    auto_centers,
    generate_synthetic,
    load_dataset,
    load_hierarchy,
    save_dataset,
    save_hierarchy,
    separation,
    split_dataset,
)
from .experiment import (
    VARIANTS,
    ExperimentConfig,
    run_experiment,
    run_single_seed,
    sl22_trend_config,
    write_experiment_report,
)
from .hierarchy import TASK_PRESETS, LabelHierarchy, build_task_preset
from .losses import (
    DistillConfig,
    STUDENT_MODES,
    aggregate_class_probabilities,
    conventional_kd_loss,
    cross_entropy,
    kl_divergence,
    skd_loss,
    student_objective,
)
from .network import (
    DenseNetwork,
    GradientSet,
    OptimizerState,
    backward,
    forward,
    init_network,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    softmax_temperature,
)
from .training import (
    Metrics,
    TrainConfig,
    TrainResult,
    evaluate,
    per_class_subclass_confusions,
    student_train_config,
    teacher_train_config,
    train_student,
    train_teacher,
)

__version__ = "0.1.0"
