"""Desk-scale lab for frequency-filtered membership inference on
diffusion models.

The package implements a unified distance-based membership scoring
paradigm for diffusion models, three attack instantiations (naive, pia,
secmi), a plug-and-play radial high-frequency filter that sharpens all of
them, and the statistical machinery to evaluate attacks (ASR, ROC/AUC,
low-FPR TPR, score-variance ratios, normality tests) and to verify the
filter's variance-ratio improvement both in closed form and by Monte
Carlo. A toy, deliberately overfittable denoiser and a seeded experiment
harness make the whole pipeline reproducible on a laptop.
"""

from .attacks import (
    ATTACK_KINDS,
    AttackConfig,
    ScorePair,
    ScoreRecord,
    naive_pair,
    paradigm_score,
    pia_pair,
    read_score_csv,
    run_attack,
    secmi_pair,
    write_score_csv,
)
from .datasets import (
    DatasetSpec,
    LabeledSample,
    export_pgm_dir,
    generate_dataset,
    ingest_pgm_dir,
)
from .denoiser import (
    ToyDenoiser,
    TrainingConfig,
    layer_views,
    load_denoiser,
    save_denoiser,
    timestep_embedding,
    train_toy_denoiser,
)
from .diffusion import (
    NoiseSchedule,
    ddim_denoise_chain,
    ddim_reverse_chain,
    linear_schedule,
    predict_x0,
    q_sample,
)
from .errors import (
    ConfigurationError,
    ContractViolation,
    EvaluationError,
    ExperimentError,
    FreqMiaError,
    IngestionError,
    TrainingError,
)
from .evaluation import (
    KsResult,
    MetricsReport,
    PropositionInputs,
    RocCurve,
    auc,
    build_metrics_report,
    compute_asr,
    compute_roc,
    failed_sample_hf_analysis,
    ks_normality_test,
    membership_advantage,
    proposition_constraint,
    proposition_mc_verify,
    sigma_ratio,
    tpr_at_fpr,
)
from .experiment import ExperimentConfig, default_config, run_experiment
from .seeding import derive_rng, derive_seed
from .spectral import (
    FilterSpec,
    apply_filter,
    build_mask,
    forward_dft,
    high_frequency_content,
    inverse_dft,
    radial_grid,
)

__version__ = "0.1.0"
