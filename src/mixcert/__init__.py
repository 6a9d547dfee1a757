"""Certificates for networks trained on non-stationary mixing sequences."""

from .bounds import (
    BoundReport,
    Lemma3Report,
    RampDominanceReport,
    SymmetrizationReport,
    TailReport,
    certification_run,
    concentration_term,
    mcdiarmid_tail_bound,
    network_certificate,
    recompose_total,
    theorem1_bound,
    validate_lemma3,
    validate_mcdiarmid,
    validate_ramp_dominance,
    validate_symmetrization,
)
from .errors import (
    BadDelta,
    BadLabel,
    DimensionMismatch,
    DivergedLoss,
    EmptyDataset,
    NoConvergenceWarning,
    NonpositiveGamma,
    NonUniqueStationary,
    NotDiscrete,
    TooLarge,
    WrongKind,
)
from .harness import ExperimentConfig, builtin_class, main
from .network import (
    Activation,
    Architecture,
    NetworkParams,
    TrainConfig,
    TrainResult,
    forward,
    forward_batch,
    margin,
    margins_batch,
    ramp_loss,
    train_sgd,
)
from .norms import (
    LayerNorms,
    norm_2_1_of_transpose,
    spectral_norm,
)
from .process import (
    EmissionSpec,
    LabeledDataset,
    MarkovSpec,
    MixingProfile,
    ProcessSpec,
    brute_force_phi,
    deterministic_injective,
    mixing_profile,
    mu_at,
    phi_coefficient,
    sample_sequence,
    sample_sequences_batch,
    sample_target,
    sequence_value_means,
    stationary_distribution,
    stationary_expectation,
    step_expectations,
)
from .seeding import combine_seeds, substream
from .rademacher import (
    FunctionClass,
    RademacherEstimate,
    constant_class,
    covering_bound_terms,
    empirical_rademacher_exact,
    empirical_rademacher_mc,
    loss_class,
    table_class,
)

__version__ = "0.1.0"
