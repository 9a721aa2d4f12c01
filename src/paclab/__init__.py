"""paclab: exact discrete distributions, hard parametric families,
minimum-distance learners, no-free-lunch oracles, and dominance
diagonalization, at desk scale."""

__version__ = "0.1.0"

from .dist import (
    Sample,
    SparseDist,
    delta,
    draw,
    empirical_dist,
    empirical_measure,
    event_prob,
    mixture,
    sequence_prob,
    tv,
    tv_brute_force,
    uniform,
)
from .rng import RngStream
from .families import (
    AffineOfTarget,
    BinaryHypothesis,
    Constant,
    EtaTable,
    FiniteClass,
    IdentityN,
    NTable,
    PolyWitness,
    RealHypothesis,
    Reciprocal,
    SequenceSpec,
    StagedClass,
    anchored_family,
    labeled_anchored_family,
    plateau_data_family,
    plateau_family,
)
from .losses import (
    AbsoluteLoss,
    CappedLinearLoss,
    SquaredLoss,
    bayes_labeler,
    opt_loss,
    real_risk,
    task_loss,
    zero_one_excess,
    zero_one_risk,
)
from .learners import (
    ConstantLearner,
    EmpiricalBaseline,
    ErmLearner,
    ScheffeEngine,
    ScheffeLearner,
    TruncationLearner,
    UnionLearner,
    scheffe_sample_size,
    yatracos_set,
)
from .nfl import (
    ComplexityCurve,
    CurvePoint,
    ExactOracleReport,
    NflInstance,
    clopper_pearson_lower,
    clopper_pearson_upper,
    estimate_sample_complexity,
    markov_reverse,
    mc_risk,
    nfl_classification_instance,
    nfl_distribution_instance,
    nfl_exact,
    nfl_real_instance,
    swap_distribution,
    swap_set,
    symmetrized_lower_bound,
)
from .dominance import (
    DominanceCertificate,
    FunctionTable,
    SynthesisReport,
    diagonalize,
    dominates_prefix,
    synthesize,
    synthesized_class,
)
